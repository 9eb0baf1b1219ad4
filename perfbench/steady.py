"""Steadiness check: two sets of benchmark runs on one commit, spread vs bound.

    python3 perfbench/steady.py

Each set runs `run.py --trace 0` for `run_seconds` once per (workload,
seed), for every workload in BENCHMARK.json, ten seeds per set, workloads
interleaved, with seeds distinct across runs and sets.  For every
(workload, end-to-end metric) it reports, per set, the median and the
spread (Q3 - Q1) / median from `statistics.quantiles(values, n=4)`, and the
change of the second set's median against the first set's in the worse
direction.  A pair fails when the median moved the worse way by more than
the metric's bound in BENCHMARK.json, or when a spread exceeds the bound;
pairs whose spread exceeds a third of the bound are flagged.  Exits 1 on
any failure or incorrect run.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    """One untraced benchmark run; returns its result line as a dict."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}"
                           f"\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first, last, better):
    """Relative change of `last` against `first` in the worse direction."""
    change = (last - first) / first
    return change if better == "lower" else -change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    values = {}  # (set, workload, metric) -> list of values
    incorrect = []
    for s in range(SETS):
        for r in range(RUNS):
            seed = 1000 * (s + 1) + r
            for w in workloads:
                result = run_once(w, seed, spec["run_seconds"])
                if not result["correct"] or result["failed"]:
                    incorrect.append((w, seed))
                for m in metrics:
                    values.setdefault((s, w, m["name"]), []).append(
                        result["metrics"][m["name"]]["value"])
                print(f"set {s} seed {seed} {w}: " + " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.5g}"
                    for m in metrics), flush=True)

    failures = []
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [values[(s, w, name)] for s in range(SETS)]
            spreads = [spread(v) for v in sets]
            medians = [statistics.median(v) for v in sets]
            moved = worse_by(medians[0], medians[-1], m["better"])
            if max(spreads) > bound:
                failures.append(f"{w} {name}: spread {max(spreads):.3f} > {bound}")
            if moved > bound:
                failures.append(f"{w} {name}: median worse by {moved:.3f} > {bound}")
            print(f"{w:10s} {name:12s} bound {bound:5.3f} medians "
                  + " ".join(f"{v:10.5g}" for v in medians)
                  + "  spreads " + " ".join(f"{v:6.3f}" for v in spreads)
                  + f"  worse_by {moved:+.3f}"
                  + ("  > bound/3" if max(spreads) > bound / 3 else ""))
    failures += [f"{w} seed {seed}: incorrect output" for w, seed in incorrect]
    for line in failures:
        print("FAIL " + line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
