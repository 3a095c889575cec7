"""SHA-256 digests of CLI stdout on every catalog entry, for byte-identity checks.

    python3 perfbench/digests.py > digests-A.txt     # on one commit
    python3 perfbench/digests.py > digests-B.txt     # on another
    diff digests-A.txt digests-B.txt

Runs ``classify``, ``orbit``, ``cesaro`` and (for the conserved-dilation
entries) ``dilation`` at ``--seed 0`` and prints one line per call:
label, command, exit code and the digest of its stdout.  This is not a
pass/fail check of any workload; it only makes two commits comparable.
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import run

SEED = "0"
ORBIT_STEPS = "200"
CESARO_STEPS = "1000"
STATE = "basis:0"
DILATION_ENTRIES = ("partial-swap-dilation", "cz-dilation")


def main() -> int:
    run.pin_blas_threads()
    cli = run.import_program()
    import workloads

    with run.scratch_dir() as workdir:
        builder = workloads.Builder(0, workdir, cli.main)

        def call(label: str, command: str, argv: list) -> None:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(["--seed", SEED, *argv])
            digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            print(f"{label}\t{command}\t{code}\t{digest}")

        for case in builder.catalog():
            path = builder.write(case.doc, "catalog")
            call(case.label, "classify", ["classify", path])
            orbit = ["orbit", path, "--state", STATE, "--n", ORBIT_STEPS]
            if case.functionals():
                orbit += ["--functionals", ",".join(case.functionals())]
            call(case.label, "orbit", orbit)
            call(case.label, "cesaro", ["cesaro", path, "--state", STATE, "--n", CESARO_STEPS])
            if case.emit_argv[0] in DILATION_ENTRIES:
                path = builder.write(builder.emit([*case.emit_argv, "--instance"]), "instance")
                call(case.label, "dilation", ["dilation", path])
    return 0


if __name__ == "__main__":
    sys.exit(main())
