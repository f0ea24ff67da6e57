"""Verdict-latency benchmark for gradman.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload split-tower --seed 11 --seconds 25 --trace 0

One process, one thread, closed loop: the next case starts only after the
previous verdict has been checked against the answer known from how its
input was built. With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 it holds per-layer self times and counts from spans
recorded around engine calls. The line before it is a report with the
environment, seeds, input fingerprint, failures and counters.
"""

import argparse
import gc
import importlib
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from tracer import ROOT as ROOT_SPAN, SPANS, Tracer
from workloads import WORKLOADS, fingerprint

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENGINE_MODULES = ("errors", "exactnum", "gradedring", "coalgebra", "geometrize",
                  "fields", "distrib", "cli")

# Seeds used while the benchmark was written, and seeds kept back for
# confirming a later claim on inputs nobody tuned against.
DEFAULT_SEEDS = {"split-tower": 11, "xdep-admissible": 12, "frobenius-flatten": 13,
                 "cli-golden": 14}
HELD_OUT_SEEDS = {"split-tower": 7011, "xdep-admissible": 7012, "frobenius-flatten": 7013,
                  "cli-golden": 7014}
SETUP_REPEATS = 3
FAILURES_KEPT = 10


def load_engine():
    """Import the engine from the checkout's sources, dropping any copy
    already imported so that each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "gradman" or m.startswith("gradman.")]:
        del sys.modules[name]
    pkg = importlib.import_module("gradman")
    if pathlib.Path(pkg.__file__).resolve().parent != SRC / "gradman":
        raise ImportError(f"gradman imported from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"gradman.{name}") for name in ENGINE_MODULES}
    return SimpleNamespace(modules=[pkg] + list(mods.values()), **mods)


def git_commit():
    """Commit of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "commit": git_commit(),
    }


class Run:
    """Runs cases of one workload and keeps the failure tally."""

    def __init__(self, workload, gm):
        self.w = workload
        self.gm = gm
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def case(self, index, spec, root=None):
        """Build one input (untimed), run and check its verdict (timed).
        Returns (build and verdict time, verdict time) in seconds."""
        self.attempted += 1
        problems = []
        start = time.perf_counter()
        t0 = t1 = start
        try:
            inp = self.w.build(spec, self.gm)
            t0 = time.perf_counter()
            if root is None:
                problems = self.w.verdict(spec, inp, self.gm)
            else:
                with root():
                    problems = self.w.verdict(spec, inp, self.gm)
            t1 = time.perf_counter()
        except Exception as exc:  # an unexpected exception is a failed verdict
            t1 = time.perf_counter()
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if len(self.failures) < FAILURES_KEPT:
                summary = {k: v for k, v in spec.items()
                           if k in ("kind", "profile", "nv", "m0", "counts", "argv")}
                self.failures.append({"case": index, "spec": summary, "problems": problems})
        return t1 - start, t1 - t0


def calibrate():
    """Time one fixed pure-Python loop of about a millisecond: products and
    sums of small sparse polynomials stored as dicts of exponent tuples to
    Fractions, the same kind of work as the engine's inner loops but none of
    its code. This time is the unit "cal"."""
    t0 = time.perf_counter()
    p = {(0, 0): Fraction(1), (1, 0): Fraction(2, 3), (0, 1): Fraction(-1, 2)}
    q = {(0, 0): Fraction(-1), (1, 1): Fraction(3, 5), (2, 0): Fraction(1, 7)}
    for _ in range(5):
        prod = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                prod[e] = prod.get(e, 0) + c1 * c2
        p = {e: c / 3 + q.get(e, 0) for e, c in prod.items()}
    return time.perf_counter() - t0


CAL_WINDOW = 5  # calibrations on each side of a case that set its unit


def quantiles(values):
    values = sorted(values)
    p90 = statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[-1]
    return statistics.median(values), p90


def measure(run, pool, seconds):
    """Cycle through the pool until `seconds` have passed.

    The host's speed drifts by tens of percent over seconds, so a
    calibration loop runs between cases and every case is also timed in
    cal: its time divided by the median of the calibrations within
    CAL_WINDOW of it. Statistics cover whole passes only, so every run of a
    seed weighs the same mix of cases; a partial last pass still counts
    toward attempted and failed."""
    raw, loop, cals = [], [], [calibrate()]
    start = time.perf_counter()
    index = 0
    while True:
        loop_s, verdict_s = run.case(index % len(pool), pool[index % len(pool)])
        cals.append(calibrate())
        raw.append(verdict_s)
        loop.append(loop_s)
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    # case i ran between calibrations i and i + 1
    units = [statistics.median(cals[max(0, i - CAL_WINDOW + 1):i + CAL_WINDOW + 1])
             for i in range(index)]
    whole = index - index % len(pool) or index
    p50, p90 = quantiles([t / u for t, u in zip(raw[:whole], units)])
    raw_p50, raw_p90 = quantiles(raw[:whole])
    loop_cal = sum(t / u for t, u in zip(loop[:whole], units))
    return {
        "verdict_cal.p50": (p50, "cal"),
        "verdict_cal.p90": (p90, "cal"),
        "verdicts_per_kcal": (whole * 1000 / loop_cal, "1/kcal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {"verdicts_measured": whole, "passes": whole // len(pool),
        "elapsed_s": time.perf_counter() - start,
        "wall_clock": {"verdict_ms.p50": raw_p50 * 1000, "verdict_ms.p90": raw_p90 * 1000,
                       "verdicts_per_s": whole / sum(loop[:whole]),
                       "cal_ms.median": statistics.median(cals) * 1000}}


def measure_traced(run, pool, seconds, gm):
    """Run passes over the first cases of the pool, each case once untraced
    and then once traced, so that the host's drift cancels in the overhead.

    Times are per verdict, averaged over the passes; counts are per pass and
    must repeat exactly from pass to pass."""
    cases = pool[:run.w.trace_cases]
    tracer = Tracer(gm)
    untraced = traced = 0.0
    self_s = {layer: 0.0 for layer in list(SPANS) + [ROOT_SPAN]}
    pass_counts = []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        tracer.reset()
        for index, spec in enumerate(cases):
            untraced += run.case(index, spec)[1]
            tracer.install()
            try:
                run.case(index, spec, root=tracer.root)
            finally:
                tracer.uninstall()
        traced += tracer.root_s
        for layer in self_s:
            self_s[layer] += tracer.self_s[layer]
        pass_counts.append(tracer.counts())
        passes += 1
    verdicts = passes * len(cases)
    counts = pass_counts[0]
    metrics = {}
    for layer in SPANS:
        metrics[f"{layer}.self_ms"] = (self_s[layer] * 1000 / verdicts, "ms")
    for name, value in counts.items():
        if name != "distrib.membership.ok":
            unit = "degree" if name.endswith("max_degree") else "count"
            metrics[name] = (value, unit)
    member_calls = counts["distrib.membership.calls"]
    metrics["distrib.membership.ok_ratio"] = (
        counts["distrib.membership.ok"] / member_calls if member_calls else 0.0, "ratio")
    metrics["bench.verdict.self_ms"] = (self_s[ROOT_SPAN] * 1000 / verdicts, "ms")
    metrics["bench.verdict.traced_ms"] = (traced * 1000 / verdicts, "ms")
    metrics["bench.verdict.untraced_ms"] = (untraced * 1000 / verdicts, "ms")
    metrics["bench.trace_overhead_ms"] = ((traced - untraced) * 1000 / verdicts, "ms")
    self_sum = sum(v for k, (v, _u) in metrics.items() if k.endswith(".self_ms"))
    info = {
        "passes": passes,
        "cases_per_pass": len(cases),
        "counts_repeat": all(c == counts for c in pass_counts),
        "self_ms_sum": self_sum,
        "traced_ms": metrics["bench.verdict.traced_ms"][0],
        "counts": counts,
    }
    return metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gradman" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC / 'gradman'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    setup_times, setup_units = [], []
    prints = set()
    for _ in range(SETUP_REPEATS):
        before = [calibrate() for _ in range(CAL_WINDOW)]
        t0 = time.perf_counter()
        gm = load_engine()
        pool = workload.make_pool(seed, gm)
        setup_times.append(time.perf_counter() - t0)
        setup_units.append(statistics.median(before + [calibrate() for _ in range(CAL_WINDOW)]))
        prints.add(fingerprint(pool))
    gc.collect()

    run = Run(workload, gm)
    if args.trace:
        metrics, info = measure_traced(run, pool, args.seconds, gm)
        deterministic = info["counts_repeat"]
    else:
        metrics, info = measure(run, pool, args.seconds)
        # seconds at the reference speed, where one cal takes 1 ms
        metrics["setup_s"] = (statistics.median(
            t / u / 1000 for t, u in zip(setup_times, setup_units)), "s")
        deterministic = True
    deterministic = deterministic and len(prints) == 1

    report = {
        "workload": args.workload,
        "seed": seed,
        "seed_role": ("default" if seed == DEFAULT_SEEDS[args.workload] else
                      "held-out" if seed == HELD_OUT_SEEDS[args.workload] else "other"),
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, one thread",
        "environment": environment(),
        "input_fingerprint": sorted(prints),
        "pool_cases": len(pool),
        "setup_wall_s": setup_times,
        "deterministic": deterministic,
        "failed_frac": run.failed / run.attempted,
        "failures": run.failures,
        **info,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0 and deterministic,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
