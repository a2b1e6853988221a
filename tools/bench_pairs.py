"""Compare two checkouts on one perfbench workload, run by run, in interleaved pairs.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload infer-x3d-full --seeds 1-10 --seconds 20

For each seed it runs PARENT_DIR/perfbench/run.py and CHANGE_DIR/perfbench/run.py once each
(with --trace 0), the parent first on even-numbered pairs and the change first on odd ones.
For every end-to-end metric in PARENT_DIR/BENCHMARK.json it then prints each side's median
and quartiles, how many pairs the change won (ties count for neither side), and whether a
gain may be claimed: the change wins at least nine tenths of the pairs and its median beats
the parent's by more than the parent's quartile distance. It exits nonzero if any run fails,
and leaves that run's pair out of the summary. Run nothing else on the machine meanwhile.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """Seeds from "1-10", "401,403,405" or a mix such as "1-3,7"."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.strip().partition("-")
        seeds += range(int(lo), int(hi) + 1) if dash else [int(lo)]
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between the sorted values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over n pairs (parent[i] and change[i] ran on the same seed): each side's
    quartiles, the change's wins k, and whether the claim rule holds (k >= 0.9 n and the
    median gap in the better direction above the parent's quartile distance)."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need the same nonzero number of runs on each side, got {len(parent)} and {len(change)}")
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gap = sign * (c[1] - p[1])
    return {
        "parent": p,
        "change": c,
        "wins": wins,
        "pairs": len(parent),
        "gap": gap,
        "claim": wins >= 0.9 * len(parent) and gap > p[2] - p[0],
    }


def format_row(name: str, unit: str, s: dict) -> str:
    def side(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    return (
        f"{name:<12} parent {side(s['parent'])} -> change {side(s['change'])} {unit}  "
        f"wins {s['wins']}/{s['pairs']}  gap {s['gap']:+.4g} vs parent IQR {s['parent'][2] - s['parent'][0]:.4g}  "
        f"claim {'holds' if s['claim'] else 'fails'}"
    )


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The metrics of one perfbench run ({name: value}), or None if it failed."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=20 * seconds + 600)
    except subprocess.TimeoutExpired:
        print(f"# {root}: seed {seed} timed out", file=sys.stderr)
        return None
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        print(f"# {root}: seed {seed} failed (exit {proc.returncode})\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help='e.g. "1-10" or "401,403"')
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    failed = 0
    for j, seed in enumerate(args.seeds):
        sides = ["parent", "change"] if j % 2 == 0 else ["change", "parent"]
        got = {side: run_once(getattr(args, side), args.workload, seed, args.seconds) for side in sides}
        if None in got.values():
            failed += 1
            continue
        for side in sides:
            runs[side].append(got[side])
        row = "  ".join(f"{m['name']} {got['parent'][m['name']]:.6g} -> {got['change'][m['name']]:.6g}" for m in metrics)
        print(f"seed {seed} ({sides[0]} first): {row}", flush=True)

    print(f"{args.workload}: {len(runs['parent'])} pairs of {args.seconds:g} s runs, {failed} failed")
    for m in metrics if runs["parent"] else []:
        values = [[r[m["name"]] for r in runs[side]] for side in ("parent", "change")]
        print(format_row(m["name"], m["unit"], summarize(*values, m["better"])))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
