"""Benchmark runner for cocyclelab: one workload, one seed.

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from `src/` next to
this directory; without it the runner exits with code 2 and prints no
result.  BLAS and OpenMP pools are pinned to one thread before numpy loads.

Ops run in this one process, in a closed loop, one at a time, on fresh
seeded inputs, until the next op would end past --seconds of op-loop time
(at least three ops).  Only the op is timed; its check against the oracle
runs after the timer stops.  One set-up runs before the first op and six
more between ops, spread evenly over the loop (their time is not loop
time).  A set-up is the import of the library in a fresh interpreter (one
child process at a time, each waited for) plus, in this process, input
construction and a warm-up op at reduced size.

Times are in seconds at the reference speed (`reference.py`): a probe of a
fixed kernel runs between every two timed calls, and a call's wall time is
scaled by the kernel's nominal time over the mean of the probes around it,
so that the host's changing speed cancels out.  Wall times are printed too.

--trace 0 reports the end-to-end metrics, tracing off:
  ops_per_s  ops that passed their oracle per second of op time
  digits     mean over ops of -log10(max(worst error of the op, 1e-16)),
             0 for an op that raised or erred by more than 1
  setup_s    median of the seven set-ups
The median op time (solve_s), the op wall times, the reference probes
and the peak resident set size are printed as '#' lines.

--trace 1 alternates untraced and traced ops on the same inputs and reports
the per-layer metrics of `spans.py` and the tracing overhead.  It fails when
a span expected on the workload recorded no call, or when the top-level
spans cover under 95% of the traced op time.

Every op is checked against its oracle (`workloads.py`): a raised
`CocycleLabError` or a missed tolerance counts as failed.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; earlier
lines start with '#'.  The exit code is 1 when any output is wrong.
"""

import os
import time

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from reference import Reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
SETUP_SEED = 20131002
MIN_OPS = 3
MIN_COVERAGE_PCT = 95.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed):
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(
        len(path.read_text().splitlines()) for path in SRC.rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "src_lines": src_lines,
    }


def run_op(workload, inp, counters, ref, context=contextlib.nullcontext):
    """One timed op; only the op runs inside `context`, its check after."""
    from cocyclelab.errors import CocycleLabError
    from workloads import OpResult

    before = ref.last()
    with context():
        t0 = time.perf_counter()
        try:
            out = workload.run(inp, counters)
        except CocycleLabError as exc:
            out, failure = None, type(exc).__name__
        else:
            failure = ""
        seconds = time.perf_counter() - t0
    res = OpResult(seconds, ref.rescale(seconds, before), [], failure)
    if not failure:
        try:
            res.errors = workload.check(inp, out)
        except CocycleLabError as exc:
            res.failure = f"check raised {type(exc).__name__}"
    return res


def import_time():
    """Seconds a fresh interpreter takes to import numpy and the library."""
    code = (
        "import time; t0 = time.perf_counter(); import sys; "
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads; "
        "print(time.perf_counter() - t0)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


class SetUps:
    """The set-up repeats of one run and their times.

    The first runs before any op.  The others run between ops, spread evenly
    over the loop, so that their median samples the host's speed across the
    run rather than in one burst of a few seconds.  Warm-up inputs come from
    a fixed seed, so that set-up time does not depend on --seed; each repeat
    gets a distinct input.
    """

    def __init__(self, workload, ref):
        self.workload = workload
        self.ref = ref
        self.rng = np.random.default_rng(SETUP_SEED)
        self.times, self.failures = [], []

    def run_one(self):
        from cocyclelab.errors import CocycleLabError

        before = self.ref.last()
        import_s = import_time()
        t0 = time.perf_counter()
        inp = self.workload.make_input(self.rng, small=True)
        try:
            out = self.workload.run(inp, defaultdict(float))
        except CocycleLabError as exc:
            out = None
            self.failures.append(type(exc).__name__)
        self.times.append(
            self.ref.rescale(import_s + time.perf_counter() - t0, before)
        )
        if out is not None:
            errors = self.workload.check(inp, out)
            if any(e > tol for _, e, tol in errors):
                self.failures.append(errors)

    def due(self, fraction):
        """Run the set-ups due once `fraction` of the loop has passed."""
        while len(self.times) < min(
            SETUP_REPEATS, 1 + fraction * (SETUP_REPEATS - 1)
        ):
            self.run_one()


def closed_loop(seconds, step, setups):
    """Call step() until the next call would end past `seconds` of loop
    time; the set-ups run between calls and their time is not loop time."""
    setups.due(0.0)
    start = time.perf_counter()
    paused, calls, last = 0.0, 0, 0.0
    while calls < MIN_OPS or time.perf_counter() - start - paused + last < seconds:
        t0 = time.perf_counter()
        step()
        t1 = time.perf_counter()
        last = t1 - t0
        calls += 1
        setups.due((t1 - start - paused) / seconds)
        paused += time.perf_counter() - t1
    setups.due(1.0)


def measure(workload, rng, seconds, setups):
    results = []
    closed_loop(seconds, lambda: results.append(run_op(
        workload, workload.make_input(rng), defaultdict(float), setups.ref
    )), setups)
    return results


def traced_measure(workload, rng, seconds, setups, tracer):
    """Untraced and traced op on each input, alternating which goes first."""
    plain, traced, counts = [], [], defaultdict(float)

    def pair():
        inp = workload.make_input(rng)
        for traced_turn in (len(traced) % 2 == 1, len(traced) % 2 == 0):
            if traced_turn:
                traced.append(
                    run_op(workload, inp, counts, setups.ref, tracer.installed)
                )
            else:
                plain.append(
                    run_op(workload, inp, defaultdict(float), setups.ref)
                )

    closed_loop(seconds, pair, setups)
    return plain, traced, counts


def end_to_end(results, setup_s, probes):
    op_s = [r.ref_seconds for r in results]
    raw = [r.seconds for r in results]
    ok = sum(r.ok for r in results)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": (ok / sum(op_s), "1/s"),
        "digits": (statistics.mean(r.digits for r in results), "digits"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    notes = {
        "ops_per_s": f"{ok} ok of {len(results)} ops",
        "setup_s": f"median of {SETUP_REPEATS}, "
                   f"min {min(setup_s):.4g} s, max {max(setup_s):.4g} s",
    }
    info = [
        f"solve_s: median op time {statistics.median(op_s):.4g} s, "
        f"min {min(op_s):.4g} s, max {max(op_s):.4g} s, {len(results)} ops",
        f"op wall: median {statistics.median(raw):.4g} s, "
        f"min {min(raw):.4g} s, max {max(raw):.4g} s, "
        f"{ok / sum(raw):.4g} ok ops per wall second",
        f"reference probe: min {min(probes) * 1e3:.4g} ms, "
        f"median {statistics.median(probes) * 1e3:.4g} ms, "
        f"max {max(probes) * 1e3:.4g} ms, {len(probes)} probes",
        f"peak rss {peak_mb:.1f} MB",
    ]
    return metrics, notes, info


def per_layer(tracer, plain, traced, counts, workload):
    metrics = tracer.metrics(
        len(traced), sum(r.seconds for r in traced), counts
    )
    metrics["trace.overhead"] = (
        sum(r.ref_seconds for r in traced)
        / sum(r.ref_seconds for r in plain) - 1.0,
        "ratio",
    )
    metrics["trace.op_s"] = (
        statistics.median(r.ref_seconds for r in traced),
        "s",
    )
    notes = {"trace.op_s": f"median of {len(traced)} traced ops"}
    problems = [f"span {m} recorded no call"
                for m in tracer.missing_spans(workload)]
    if metrics["trace.coverage"][0] < MIN_COVERAGE_PCT:
        problems.append(
            f"top-level spans cover under {MIN_COVERAGE_PCT}% of op time"
        )
    return metrics, notes, problems


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cocyclelab" / "__init__.py").is_file():
        print(f"perfbench: no cocyclelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cocyclelab
    from spans import TARGETS, Tracer
    from workloads import WORKLOADS

    if Path(cocyclelab.__file__).resolve().parent != SRC / "cocyclelab":
        print("perfbench: cocyclelab imported from outside src/",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(environment(args.seed), sort_keys=True))

    setups = SetUps(workload, Reference())
    rng = np.random.default_rng([args.seed, 0])
    info, problems = [], []
    if args.trace == 0:
        results = measure(workload, rng, args.seconds, setups)
        metrics, notes, info = end_to_end(
            results, setups.times, setups.ref.probes
        )
        declared = spec["end_to_end"]
    else:
        tracer = Tracer(TARGETS)
        plain, traced, counts = traced_measure(
            workload, rng, args.seconds, setups, tracer
        )
        results = plain + traced
        metrics, notes, found = per_layer(
            tracer, plain, traced, counts, args.workload
        )
        problems += found
        declared = spec["per_layer"]

    units = {m["name"]: m["unit"] for m in declared}
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if units != produced:
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(units.items()) ^ set(produced.items()))}",
              file=sys.stderr)
        return 3

    problems += [f"warm-up op failed: {f}" for f in setups.failures]
    failed = [r for r in results if not r.ok]
    problems += [f"op failed: {r.failure or r.errors}" for r in failed[:5]]
    for name, (value, unit) in metrics.items():
        print(f"# {name:46s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    for line in info:
        print(f"# {line}")
    for line in problems:
        print(f"# PROBLEM {line}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
