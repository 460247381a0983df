"""graftsim benchmark: one process, closed loop, every output checked.

    python3 perfbench/run.py --workload adversary_sweep --seed 0 --seconds 30 --trace 0

runs set-up SETUPS times (re-importing graftsim and regenerating the
inputs; the median is ``setup_s``), one warm-up pass, then whole passes
over the workload's cases until ``--seconds`` have gone, checking every
run.  Times are taken in yardsticks (see ``yardstick.py``), which cancel
the drift of the host's speed; ``setup_s`` is converted back to seconds
at the nominal yardstick.  An untimed pass under ``tracemalloc`` gives
``peak_alloc_mb``.
``--trace 1`` instead alternates untraced passes with passes under the
span tracer, and reports the per-layer metrics.
``--workload all`` runs the three workloads one after another.

Human-readable lines come first; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import tracing
import workloads
import yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
DIGESTS = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
SETUPS = 7
MIN_TRACED_PASSES = 2

Metrics = Dict[str, Tuple[float, str]]


class Tally:
    """Runs attempted and failed, and how often each failure reason occurred."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        self.reasons[f"{label}: {reason}"] += 1


def import_graftsim():
    """Import graftsim from this checkout's ``src``, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "graftsim" or m.startswith("graftsim.")]:
        del sys.modules[name]
    return importlib.import_module("graftsim")


def setup(workload: str, seed: int):
    """Set up SETUPS times under the yardstick sampler; the median cost is
    reported as seconds at the nominal yardstick (see ``yardstick.py``)."""
    costs = []
    with yardstick.Sampler() as sampler:
        for _ in range(SETUPS):
            spent, slices = sampler.spent, sampler.slices
            start = time.perf_counter()
            g = import_graftsim()
            cases = workloads.build(g, workload, seed, WORKDIR)
            elapsed = time.perf_counter() - start - (sampler.spent - spent)
            costs.append(elapsed / sampler.slice_since(spent, slices))
    return g, cases, statistics.median(costs) * yardstick.NOMINAL_S


def run_pass(g, cases, tally: Tally, tracer=None, sampler=None):
    """Run every case once; return per-run seconds and results (None on
    error).  Time the ``sampler`` spent inside a run is not the run's."""
    seconds, results = [], []
    clock = time.perf_counter
    for index, case in enumerate(cases):
        if tracer is not None:
            tracer.run_id[0] = index
        tally.attempted += 1
        sampled = sampler.spent if sampler is not None else 0.0
        start = clock()
        try:
            result = workloads.execute(g, case)
        except Exception as exc:  # a raising run is a failed run, not a crash
            tally.fail(case.label, f"{type(exc).__name__}: {exc}")
            result = None
        elapsed = clock() - start
        if sampler is not None:
            elapsed -= sampler.spent - sampled
        seconds.append(elapsed)
        results.append(result)
    return seconds, results


def check_pass(g, results, tally: Tally, expected: List[Optional[str]]) -> None:
    for index, result in enumerate(results):
        if result is None:
            continue
        try:
            reason = workloads.check(g, result, expected[index])
        except Exception as exc:  # replay_appends raises when a replay diverges
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            tally.fail(result.case.label, reason)


def warm_up(g, workload: str, cases, seed: int, tally: Tally) -> List[Optional[str]]:
    """One checked pass.  Its trace digests become the reference for every
    later pass; on the default seed they must match the recorded ones."""
    recorded: List[Optional[str]] = [None] * len(cases)
    if seed == DEFAULT_SEED:
        labels_digests = json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]
        if [label for label, _ in labels_digests] != [c.label for c in cases]:
            raise SystemExit("reference.json lists other cases than the workload builds")
        recorded = [d for _, d in labels_digests]
    _, results = run_pass(g, cases, tally)
    check_pass(g, results, tally, recorded)
    return [recorded[i] or (r and workloads.digest(r.text)) for i, r in enumerate(results)]


@dataclass
class Samples:
    """Figures of the timed passes, per run or per pass."""
    run_s: List[float] = field(default_factory=list)
    run_cost: List[float] = field(default_factory=list)
    events_per_s: List[float] = field(default_factory=list)
    events_per_yardstick: List[float] = field(default_factory=list)
    yardstick_s: List[float] = field(default_factory=list)


def measure(g, cases, expected, seconds: float, tally: Tally) -> Samples:
    """Whole passes under the yardstick sampler until ``seconds`` have gone."""
    samples = Samples()
    deadline = time.perf_counter() + seconds
    with yardstick.Sampler() as sampler:
        while True:
            gc.collect()
            spent, slices = sampler.spent, sampler.slices
            durations, results = run_pass(g, cases, tally, sampler=sampler)
            yard = sampler.slice_since(spent, slices)
            check_pass(g, results, tally, expected)
            work = sum(durations)
            events = sum(len(r.trace.events) for r in results if r is not None)
            samples.run_s.extend(durations)
            samples.run_cost.extend(d / yard for d in durations)
            samples.events_per_s.append(events / work)
            samples.events_per_yardstick.append(events * yard / work)
            samples.yardstick_s.append(yard)
            if time.perf_counter() >= deadline:
                return samples


def peak_alloc(g, cases, tally: Tally) -> float:
    """Highest tracemalloc peak of any single run, in MB."""
    peak = 0
    for case in cases:
        gc.collect()
        tally.attempted += 1
        tracemalloc.start()
        try:
            workloads.execute(g, case)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        except Exception as exc:  # counted like a failed timed run
            tally.fail(case.label, f"{type(exc).__name__}: {exc}")
        finally:
            tracemalloc.stop()
    return peak / 1e6


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally,
               report: List[str]) -> Metrics:
    g, cases, setup_s = setup(workload, seed)
    expected = warm_up(g, workload, cases, seed, tally)
    samples = measure(g, cases, expected, seconds, tally)
    peak = peak_alloc(g, cases, tally)
    run_ms = [s * 1e3 for s in samples.run_s]
    report.append(f"{workload}: {len(run_ms)} timed runs in {len(samples.yardstick_s)} "
                  f"passes; host time run_ms_p50 {statistics.median(run_ms):.4f} ms, "
                  f"events_per_s {statistics.median(samples.events_per_s):.1f}, "
                  f"yardstick {statistics.median(samples.yardstick_s) * 1e3:.3f} ms")
    if len(run_ms) >= 100:   # at least ten samples beyond the 90th percentile
        report.append(f"{workload}: run_ms_p90 {statistics.quantiles(run_ms, n=10)[-1]:.4f} ms, "
                      f"run_cost_p90 {statistics.quantiles(samples.run_cost, n=10)[-1]:.4f} "
                      f"yardstick over {len(run_ms)} runs")
    return {
        "setup_s": (setup_s, "s"),
        "run_cost_p50": (statistics.median(samples.run_cost), "yardstick"),
        "events_per_yardstick": (statistics.median(samples.events_per_yardstick),
                                 "1/yardstick"),
        "peak_alloc_mb": (peak, "MB"),
    }


def per_layer(workload: str, seed: int, seconds: float, tally: Tally,
              report: List[str]) -> Metrics:
    g, cases, _ = setup(workload, seed)
    expected = warm_up(g, workload, cases, seed, tally)
    tracer = tracing.Tracer()
    passes: List[Dict[str, float]] = []
    untraced: List[float] = []
    traced: List[float] = []
    deadline = time.perf_counter() + seconds
    # Untraced and traced passes alternate, so host drift does not bias
    # the tracing overhead.
    while len(passes) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        gc.collect()
        durations, results = run_pass(g, cases, tally)
        check_pass(g, results, tally, expected)
        untraced.append(sum(durations))
        gc.collect()
        tracer.clear()
        tracer.install()
        try:
            durations, results = run_pass(g, cases, tally, tracer)
        finally:
            tracer.uninstall()
        check_pass(g, results, tally, expected)
        traced.append(sum(durations))
        text_bytes = sum(len(r.text.encode("utf-8")) for r in results if r is not None)
        passes.append(tracing.layer_metrics(tracer, text_bytes))
    tracer.write(WORKDIR / f"spans-{workload}")
    # Counts and the ratios of counts must repeat exactly; times may not.
    counts = {k: v for k, v in passes[0].items() if tracing.UNITS[k] != "s"}
    for later in passes[1:]:
        for name, value in counts.items():
            if later[name] != value:
                tally.fail(workload, f"{name} changed between traced passes")
    report.append(f"{workload}: {len(passes)} traced passes alternating with untraced ones")
    metrics = {name: (counts[name] if name in counts
                      else statistics.median(p[name] for p in passes), unit)
               for name, unit in tracing.UNITS.items()}
    metrics["harness.tracing_overhead"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 32:
        parser.error("--seed must be in [0, 2**32)")
    if not (SRC / "graftsim" / "__init__.py").is_file():
        print(f"error: no graftsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    measure_fn = per_layer if args.trace else end_to_end
    total = Tally()
    report: List[str] = []
    metrics: Metrics = {}
    for name in names:
        tally = Tally()
        for metric, value in measure_fn(name, args.seed, args.seconds, tally, report).items():
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = value
        report.append(f"{name}: error_rate {tally.failed / tally.attempted:.6g} "
                      f"({tally.failed} of {tally.attempted} runs)")
        total.attempted += tally.attempted
        total.failed += tally.failed
        total.reasons.update(tally.reasons)
    for line in report:
        print(line)
    for metric, (value, unit) in metrics.items():
        print(f"{metric:60} {value:>16.6g} {unit}")
    for reason, count in total.reasons.most_common(10):
        print(f"  failed x{count}: {reason}")
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
