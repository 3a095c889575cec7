"""Reference floors measured beside the benchmark, with numpy and scipy alone.

    python3 perfbench/floors.py

* ``schur_d32_s``: one bare ``scipy.linalg.schur`` of a random d=32
  channel's superoperator (1024 x 1024), the "one Schur decomposition"
  that a ``classify`` call at d=32 could cost at best.
* ``products_d16_s``: 2000 products of a d=16 superoperator (256 x 256)
  with the oracle's 27 probe columns, the stepping floor of
  ``classify --oracle`` at d=16.

BLAS threads are pinned as in ``run.py``; each figure is the median of
``REPEATS`` runs on inputs drawn from ``SEED``.  Prints one JSON object.
"""

from __future__ import annotations

import json
import statistics
import time

import run

SEED = 0
REPEATS = 3


def main() -> int:
    threads = run.pin_blas_threads()

    import numpy as np
    import scipy.linalg

    import reference as ref
    import workloads

    rng = np.random.default_rng(SEED)
    s32 = ref.superoperator(workloads.haar_kraus(32, workloads.DENSE_RANK, rng))
    s16 = ref.superoperator(workloads.haar_kraus(16, workloads.DENSE_RANK, rng))
    probes = 16 + 11  # basis states, 10 random pure states and I/d, as in the oracle
    columns0 = rng.standard_normal((256, probes)) + 1j * rng.standard_normal((256, probes))

    def schur() -> float:
        t0 = time.perf_counter()
        scipy.linalg.schur(s32, output="complex")
        return time.perf_counter() - t0

    def products() -> float:
        columns = columns0
        t0 = time.perf_counter()
        for _ in range(workloads.ORACLE_NMAX):
            columns = s16 @ columns
        return time.perf_counter() - t0

    print(json.dumps({
        "schur_d32_s": statistics.median(schur() for _ in range(REPEATS)),
        "products_d16_s": statistics.median(products() for _ in range(REPEATS)),
        "repeats": REPEATS,
        "blas_threads": threads,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
