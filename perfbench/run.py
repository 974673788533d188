"""Benchmark nornet the way its users run it: load, size, build, train, score, decode.

One workload, untraced (end-to-end metrics):

    python3 perfbench/run.py --workload trec-ma --seed 1 --seconds 36 --trace 0

The same workload traced (per-layer metrics):

    python3 perfbench/run.py --workload trec-ma --seed 1 --seconds 36 --trace 1

Every workload, untraced and traced, each in its own process, with the
environment printed beside the numbers and optionally appended to a
results file:

    python3 perfbench/run.py --workload all --record perfbench/results.json

Each single run prints its metrics by name with their units and ends with
one JSON line {"correct", "attempted", "failed", "metrics"}.  A failed
check makes the run exit 1.  The nornet package is imported from the
`src` directory beside this one and nowhere else.
"""

import os

# Pin BLAS to one thread before anything imports numpy: the library's
# same-seed determinism and these timings both assume a single thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def import_nornet():
    """Import nornet from ROOT/src; any other copy on the path is refused."""
    sys.path.insert(0, str(SRC))
    try:
        import nornet
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import nornet from {SRC}: {exc}")
    where = Path(nornet.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"perfbench: imported nornet from {where}, expected it under {SRC}")
    return nornet


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_nornet()
    import measure
    from workloads import WORKLOADS

    workdir = WORK / f"{name}-{os.getpid()}"
    run = measure.run_traced if trace else measure.run_untraced
    try:
        result = run(WORKLOADS[name], seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass    # another run still uses it, or it is already gone

    ledger = result.ledger
    for metric, (value, unit) in result.metrics.items():
        print(f"{name}  {metric:<24} {value:>16.6f} {unit}")
    for note in result.notes:
        print(f"{name}  note: {note}")
    for failure in ledger.failures:
        print(f"{name}  FAILED: {failure}")
    correct = ledger.failed == 0 and bool(result.metrics)
    print(f"{name}  operations attempted {ledger.attempted}, failed {ledger.failed}, "
          f"fail_frac {ledger.fail_frac:.6f}")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0 if correct else 1


def environment() -> dict:
    """What the numbers depend on besides the code: interpreter, BLAS, cores, commit."""
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def run_all(seed: int, seconds: float, record: Path | None) -> int:
    from workloads import WORKLOADS

    env = environment()
    for key, value in env.items():
        print(f"env  {key}: {value}")
    results, ok = {}, True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.stderr:
                print(proc.stderr, end="", file=sys.stderr)
            ok = ok and proc.returncode == 0
            try:
                results.setdefault(name, {})["traced" if trace else "untraced"] = \
                    json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                ok = False
                print(f"{name}  FAILED: no result line (exit {proc.returncode})")
    if record is not None:
        entries = json.loads(record.read_text()) if record.exists() else []
        entries.append({"seed": seed, "seconds": seconds,
                        "environment": env, "results": results})
        record.write_text(json.dumps(entries, indent=1) + "\n")
        print(f"recorded {env['commit']} in {record}")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="with --workload all: append results here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must not be negative")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.record)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
