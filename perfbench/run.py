"""channellab benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The client sends the workload's requests
one after another through ``channellab.cli.main(argv)`` with stdout
captured, checks every output against `reference`, and repeats the whole
request list (a round) until at least S seconds of request time have been
measured.  Each request is timed between two runs of a fixed calibration
kernel, and its time is scaled to the speed at which that kernel takes
`REFERENCE_CAL_S`, because the host's speed drifts by a third within
minutes.  With ``--trace 1`` the calls into each layer are timed by
`tracing` and the per-layer metrics are printed instead of the end-to-end
ones.  The last stdout line is the JSON result; the line before it holds
the named figures, counts and environment of the run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKROOT = ROOT / ".perfbench_work"

WORKLOADS = ("dense-classify", "oracle-crosscheck", "trajectories")
BLAS_THREADS = 1          # at most nproc; steadier timings and bitwise-repeatable LAPACK results
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
REFERENCE_CAL_S = 0.016   # host speed that wall_s and setup_s are scaled to: the calibration kernel's time
CAL_SCHUR = 64            # size of the calibration's complex Schur decomposition
CAL_PRODUCTS = 24         # calibration products of a 256 x 256 by a 256 x 27 complex matrix
CAL_LOOP = 30_000         # pure-Python iterations of the calibration
RUN_LIMIT_S = 150.0       # start no round that could end past this (the run must end within 180 s)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS_COUNT = ("_calls", "_steps")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def pin_blas_threads() -> int:
    """Pin BLAS threads in this process (and its children) before numpy loads."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def import_program():
    """Import ``channellab.cli`` from this checkout's ``src``; refuse any other copy."""
    if not (SRC / "channellab").is_dir():
        raise SystemExit(f"no channellab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import channellab.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"channellab was imported from {cli.__file__}, not from {SRC}")
    return cli


class Calibrator:
    """A fixed kernel whose time tracks the host's speed at the moment it runs.

    It mixes the kinds of work the workloads do: a LAPACK Schur
    decomposition, the oracle's kind of product (a d=16 superoperator times
    27 probe columns) and plain Python.  It uses numpy and scipy alone, so no
    change to channellab can change its time.
    """

    def __init__(self):
        import numpy as np
        import scipy.linalg

        rng = np.random.default_rng(0)

        def gaussian(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self.schur = scipy.linalg.schur
        self.dense = gaussian(CAL_SCHUR, CAL_SCHUR)
        self.step = gaussian(256, 256) / 32.0   # spectral radius about 0.7: products stay finite
        self.probes = gaussian(256, 27)
        self.time()  # warm-up

    def time(self) -> float:
        t0 = time.perf_counter()
        self.schur(self.dense)
        x = self.probes
        for _ in range(CAL_PRODUCTS):
            x = self.step @ x
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i % 7
        return time.perf_counter() - t0


@contextmanager
def scratch_dir():
    """A fresh directory for input documents inside the checkout, removed on exit."""
    WORKROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORKROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORKROOT.rmdir()
        except OSError:  # another run still uses it
            pass


def setup(name: str, seed: int, workdir: Path):
    """Import the program and build the workload's documents; returns (cli, requests, seconds)."""
    t0 = time.perf_counter()
    cli = import_program()
    import workloads

    requests = workloads.build(name, seed, workdir, cli.main)
    return cli, requests, time.perf_counter() - t0


def setup_samples(name: str, seed: int) -> list:
    """Set-up times of fresh processes (`setup_probe.py`): one (scaled, raw) pair each."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(tuple(float(v) for v in proc.stdout.strip().splitlines()[-1].split()))
    return samples


def run_request(cli, req, tracer, request_id: int):
    """One CLI call: (seconds, problems).  Output is checked after the timed region."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.request = request_id
    error = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(req.argv))
    except Exception as exc:  # a traceback is a failed request, not a crashed benchmark
        code, error = None, f"uncaught {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if error is not None:
        return elapsed, [error]
    if code != 0:
        return elapsed, [f"exit code {code}: {err.getvalue().strip()[:300]}"]
    try:
        return elapsed, req.check(out.getvalue())
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return elapsed, [f"unreadable output: {type(exc).__name__}: {exc}"]


def run_rounds(cli, requests, seconds: float, tracer, calibrator):
    """Whole rounds of the request list until `seconds` of request time are measured.

    Each record holds a request's raw seconds and its seconds scaled to the
    reference speed by the mean of the calibrations just before and after it.
    """
    records = []              # (round, request index, scaled seconds, raw seconds, problems)
    round_walls = []
    measured = 0.0
    started = time.perf_counter()
    n = len(requests)
    cal = calibrator.time()
    while True:
        r = len(round_walls)
        round_start = time.perf_counter()
        wall = 0.0
        for i, req in enumerate(requests):
            elapsed, problems = run_request(cli, req, tracer, r * n + i)
            cal_after = calibrator.time()
            scaled = elapsed * REFERENCE_CAL_S / ((cal + cal_after) / 2)
            cal = cal_after
            wall += elapsed
            records.append((r, i, scaled, elapsed, problems))
        round_walls.append(wall)
        measured += wall
        last_round = time.perf_counter() - round_start
        if measured >= seconds or time.perf_counter() - started + last_round > RUN_LIMIT_S:
            return records, round_walls, time.perf_counter() - started - measured


def figures(reqs, records, rounds: int) -> dict:
    """The per-command figures of the workload, by name (scaled seconds unless stated)."""
    by_group: dict = {}
    per_round: dict = {}
    steps: dict = {}
    for r, i, elapsed, _, _ in records:
        req = reqs[i]
        by_group.setdefault(req.group, []).append(elapsed)
        per_round.setdefault(req.group, [0.0] * rounds)[r] += elapsed
        s = steps.setdefault(req.kind, [0, 0.0])
        s[0] += req.steps
        s[1] += elapsed
    out = {}
    for group, times in sorted(by_group.items()):
        if group in ("classify_oracle_catalog", "dilation"):
            out[f"{group}_s"] = statistics.median(per_round[group])
        elif group not in ("orbit", "cesaro"):
            out[f"{group}_s"] = statistics.median(times)
    for kind in ("orbit", "cesaro"):
        if kind in steps:
            out[f"{kind}_steps_per_s"] = steps[kind][0] / steps[kind][1]
    return out


def environment(threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_version = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "nproc": nproc(),
        "blas_threads": threads,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="channellab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    samples = setup_samples(args.workload, args.seed)
    with scratch_dir() as workdir:
        cli, reqs, own_setup = setup(args.workload, args.seed, workdir)
        import tracing

        calibrator = Calibrator()
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        records, round_walls, unmeasured_s = run_rounds(cli, reqs, args.seconds, tracer, calibrator)

    failures = [(reqs[i], problems) for _, i, _, _, problems in records if problems]
    unexpected = [(req, problems) for req, problems in failures if not req.excused(problems)]
    rounds = len(round_walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "requests_per_round": len(reqs),
        "raw_round_walls_s": round_walls,
        "figures": figures(reqs, records, rounds),
        "failed_requests": sorted({f"{req.kind} {req.label}: {problems[0]}" for req, problems in failures}),
        "setup_samples_s": [scaled for scaled, _ in samples],
        "raw_setup_samples_s": [raw for _, raw in samples],
        "in_process_setup_s": own_setup,
        "checks_and_calibrations_s": unmeasured_s,
        "environment": environment(threads),
    }
    if tracer is not None:
        details["absent_targets"] = tracer.absent
        metrics = {
            name: {"value": value, "unit": "count" if name.endswith(LAYER_UNITS_COUNT) else "s"}
            for name, value in tracing.layer_metrics(tracer, rounds).items()
        }
    else:
        values = {
            "setup_s": statistics.median(scaled for scaled, _ in samples),
            "wall_s": sum(scaled for _, _, scaled, _, _ in records) / rounds,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not unexpected else 1


if __name__ == "__main__":
    sys.exit(main())
