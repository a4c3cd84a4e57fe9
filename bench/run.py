"""Benchmark of the loraroute library, run from the root of a source checkout.

    python3 bench/run.py --workload wide-pool --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) as a closed loop for ``--seconds``
of measured time, checks every sampled output against the slow reference in
``reference.py``, and prints one line per metric followed, as the last line,
by one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics and writes the run's spans to ``.bench_out/``.

The library is imported from ``src/`` of the same checkout; without it the
benchmark exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: BLAS threads per process.  The matrices are at most 256 x 64, where extra
#: threads add synchronisation cost and noise rather than speed.
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class LibraryMissing(RuntimeError):
    pass


def import_library() -> None:
    """Put this checkout's ``src/`` first on the path and import the library from it."""
    if not os.path.isfile(os.path.join(SRC, "loraroute", "__init__.py")):
        raise LibraryMissing(f"no loraroute package under {SRC}")
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import loraroute

    if os.path.dirname(os.path.dirname(os.path.abspath(loraroute.__file__))) != SRC:
        raise LibraryMissing(f"loraroute imported from {loraroute.__file__}, not from {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_info() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "commit": _git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False, emit=print) -> dict:
    """Run one workload and return the result object; ``emit`` gets the report lines."""
    import workloads
    from metrics import END_TO_END, PER_LAYER

    env = host_info()
    emit("env " + json.dumps(env))
    spec = workloads.WORKLOADS[workload]
    emit(f"workload {workload} seed={seed} seconds={seconds} trace={int(trace)}: {spec.why}")
    runner = workloads.make_runner(workload, seed, trace, smoke)
    tally = runner.measure(seconds)

    values: dict[str, float] = {}
    if tally.unit_ms:
        if trace:
            values = runner.layer_metrics()
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.jsonl")
            runner.tracer.write(path, {"workload": workload, "seed": seed, "env": env})
            emit(f"spans written to {os.path.relpath(path, ROOT)}")
        else:
            values, notes = workloads.end_to_end(tally, peak_rss_mb())
            for note in notes:
                emit(note)
    table = PER_LAYER if trace else END_TO_END
    metrics = {}
    for m in table:
        if m.name in values:
            metrics[m.name] = {"value": values[m.name], "unit": m.unit}
            note = f"  -> {m.predicts}" if m.predicts else ""
            emit(f"{m.name} = {values[m.name]:.6g} {m.unit}{note}")
    attempted = max(tally.attempted, 1)
    emit(f"failed_ratio = {tally.failed / attempted:.6g} ({tally.failed} of {tally.attempted} attempted)")
    complete = len(metrics) == len(table) and all(
        isinstance(v["value"], float) and v["value"] == v["value"] for v in metrics.values()
    )
    return {
        "correct": tally.failed == 0 and complete,
        "attempted": attempted,
        "failed": tally.failed if complete else max(tally.failed, 1),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="three units, one set-up: checks the schema only")
    args = parser.parse_args(argv)
    try:
        import_library()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
