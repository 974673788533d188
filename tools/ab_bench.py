"""Compare two source trees on one perfbench workload, in alternating pairs.

    python3 tools/ab_bench.py PARENT_TREE CHANGE_TREE --workload conll-irnn --seed 41 --pairs 10

Each pair runs `<tree>/perfbench/run.py --trace 0` once per tree, for the
`run_seconds` that BENCHMARK.json declares, and swaps which tree goes first
from one pair to the next.  Every run is read from its final JSON line.  For
each end-to-end metric in BENCHMARK.json the script prints each side's
median and quartiles, the pairs the change wins, the pairs that tie (equal
values, which count for neither side), whether the medians differ by more
than the parent's interquartile range, and whether the change's median is
worse than the parent's by more than the metric's bound.  It exits 1 if a
run failed or a metric went past its bound.  It reads `perfbench/` and
`BENCHMARK.json` and writes neither.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def load_benchmark(tree: Path) -> dict:
    return json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One untraced perfbench run: {metric: value}, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False}
    if proc.returncode != 0 or not result["correct"]:
        print(f"  run failed in {tree} (exit {proc.returncode}): {proc.stderr.strip()[-300:]}",
              flush=True)
        return None
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """Verdicts for one metric over paired runs (parent[i] against change[i])."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    return {
        "parent": (pmed, p1, p3),
        "change": (cmed, c1, c3),
        "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "ties": sum(c == p for p, c in zip(parent, change)),
        "pairs": len(parent),
        "resolved": abs(cmed - pmed) > p3 - p1,
        "beyond_bound": sign * (cmed - pmed) < -spec["bound"] * abs(pmed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    bench = load_benchmark(args.parent)
    if load_benchmark(args.change) != bench:
        parser.error("the two trees declare different benchmarks")
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    trees = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict | None]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], args.workload, args.seed, bench["run_seconds"]))
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): " + "  ".join(
            f"{side} train_tok_s {m['train_tok_s']:.1f}" if m else f"{side} FAILED"
            for side, m in ((s, runs[s][-1]) for s in ("parent", "change"))), flush=True)

    paired = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if p and c]
    failed = {side: sum(r is None for r in rs) for side, rs in runs.items()}
    print(f"\n{args.workload} seed {args.seed}, {bench['run_seconds']} s runs, "
          f"{len(paired)} complete pairs; failed runs: parent {failed['parent']}, "
          f"change {failed['change']}")
    if not paired:
        return 1
    print(f"{'metric':<18} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} "
          f"{'ratio':>6} {'wins':>6} {'ties':>4}  verdict")
    bad = any(failed.values())
    for spec in bench["end_to_end"]:
        name = spec["name"]
        v = compare(spec, [p[name] for p, _ in paired], [c[name] for _, c in paired])
        cells = [f"{m:.5g} [{a:.5g}, {b:.5g}]" for m, a, b in (v["parent"], v["change"])]
        ratio = v["change"][0] / v["parent"][0] if v["parent"][0] else float("nan")
        verdict = ("WORSE beyond bound " if v["beyond_bound"] else "") + \
            ("medians differ by more than the parent IQR" if v["resolved"] else "within parent IQR")
        print(f"{name:<18} {cells[0]:>32} {cells[1]:>32} {ratio:>6.3f} "
              f"{v['wins']:>3}/{v['pairs']:<2} {v['ties']:>4}  {verdict}")
        bad = bad or v["beyond_bound"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
