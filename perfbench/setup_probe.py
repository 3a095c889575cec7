"""One set-up sample in a fresh process: ``setup_probe.py WORKLOAD SEED``.

Times importing ``channellab`` and building the workload's input documents
(in a scratch directory inside the checkout, removed afterwards).  The
calibration kernel of `run` then runs three times, after the set-up so that
its imports are not part of it.  Prints the seconds scaled to the reference
speed by the median calibration, and the raw seconds, as its last line.
"""

import statistics
import sys

import run


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    run.pin_blas_threads()
    with run.scratch_dir() as workdir:
        _, _, seconds = run.setup(name, seed, workdir)
    calibrator = run.Calibrator()
    cal = statistics.median(calibrator.time() for _ in range(3))
    print(seconds * run.REFERENCE_CAL_S / cal, seconds)


if __name__ == "__main__":
    main()
