"""Closed-loop benchmark of the garside library, one workload per run.

    python3 perfbench/run.py --workload kernel-forms --seed 1 --seconds 20 --trace 0

One process, one thread: each item is issued after the previous one
returns. Set-up (tables, parabolics, acceptors) is timed apart from the
items and repeated. The workload's items, at least 100 distinct inputs,
are generated once; a cycle runs each of them once, timed on its own and
checked right after, outside the timed region. Cycles repeat until the
items have been busy for --seconds; an item's latency is the median of its
runs (see README.md).

--trace 0 prints the end-to-end metrics. --trace 1 runs one cycle twice,
first untraced and then with every public library function wrapped (see
tracing.py), and prints the per-layer metrics of the traced pass; the spans
go to .perfbench/ in the working directory.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "garside").is_dir():
    sys.exit(f"perfbench: no garside library under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from garside.errors import BudgetExceededError

from tracing import Tracer
from workloads import WORKLOADS, CheckFailed, Item, rng_for

SETUP_REPEATS = 7  # set-ups per run, one before each of the first cycles
ORACLE_PER_KIND = 2  # items of each kind whose output the oracle re-derives
MIN_ITEMS = 100  # distinct items, so that ten latencies lie above the 90th percentile
MIN_CYCLES = 5  # runs of every item, spread over the run, to take the median of
SPAN_DIR = ".perfbench"
TABLE_ROWS = 15  # item classes listed in the text report, heaviest first

# name -> unit, and for per-layer metrics the end-to-end metric they should move.
END_TO_END = {
    "items_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "kernel.self_s": ("s", "items_per_s, latency_ms.p50 (kernel-forms); latency_ms.p90 (coset-projection)"),
    "kernel.normalize.calls": ("count", "items_per_s, latency_ms.p50 (kernel-forms)"),
    "kernel.multiply.calls": ("count", "items_per_s, latency_ms.p50 (kernel-forms); latency_ms.p90 (coset-projection)"),
    "kernel.letters_in": ("count", "items_per_s, latency_ms.p50 (kernel-forms)"),
    "kernel.us_per_letter": ("us", "items_per_s, latency_ms.p50 (kernel-forms)"),
    "cosets.self_s": ("s", "latency_ms.p90, peak_rss_mb (coset-projection)"),
    "cosets.ball_nodes": ("count", "latency_ms.p90, peak_rss_mb (coset-projection)"),
    "cosets.useful_ratio": ("ratio", "latency_ms.p90, peak_rss_mb (coset-projection)"),
    "parabolic.self_s": ("s", "latency_ms.p50 (coset-projection)"),
    "parabolic.tail_split.calls": ("count", "latency_ms.p50 (coset-projection)"),
    "automaton.self_s": ("s", "setup_s (growth-series)"),
    "automaton.states": ("count", "setup_s (growth-series)"),
    "growth.transfer_counts.self_s": ("s", "items_per_s (growth-series)"),
    "growth.rational_series.self_s": ("s", "items_per_s (growth-series)"),
    "growth.terms": ("count", "items_per_s (growth-series)"),
    "structures.self_s": ("s", "items_per_s (tables); setup_s (other workloads)"),
    "structures.build.self_s": ("s", "items_per_s (tables); setup_s (other workloads)"),
    "structures.validate.self_s": ("s", "items_per_s (tables); setup_s (other workloads)"),
    "structures.load.self_s": ("s", "items_per_s (tables); setup_s (other workloads)"),
    "structures.simples": ("count", "items_per_s (tables); setup_s (other workloads)"),
    "trace.overhead_ratio": ("ratio", "none: traced over untraced time of the same items"),
}
SPAN_GROUPS = {
    "structures.build.self_s": (
        "structures.table_from_descriptor",
        "structures.build_braid",
        "structures.build_dihedral",
        "structures.build_free_abelian",
    ),
    "structures.validate.self_s": ("structures.validate_table",),
    "structures.load.self_s": ("structures.load_table", "structures.parse_structure_text"),
    "growth.transfer_counts.self_s": ("growth.transfer_counts",),
    "growth.rational_series.self_s": ("growth.rational_series",),
}


class Pass:
    """Outcome of running cycles of items: latencies, failures, oracle sample.

    Items are keyed by identity. `runs` keeps the times of each item's runs.
    """

    def __init__(self, sampled: set[int]):
        self.latencies: list[float] = []
        self.runs: dict[int, list[float]] = {}
        self.labels: dict[int, str] = {}
        self.cycles = 0
        self.failed = 0
        self.budget_exits = 0
        self.ball_nodes = 0
        self.sample: list[tuple[Item, object]] = []
        self._sampled = sampled
        self._verified: dict[int, object] = {}

    def execute(self, item: Item, tracer: Tracer | None) -> None:
        key = id(item)
        if item.budget is not None:
            item.budget.used = 0
        # Collect the garbage of earlier items and checks now, so that an
        # item's own allocations alone decide when a collection runs inside it.
        gc.collect()
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out = item.run()
            error = None
        except BudgetExceededError:
            out, error = None, "budget"
        except Exception as exc:  # a crash is a failed item; keep running
            out, error = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        self.latencies.append(dt)
        self.runs.setdefault(key, []).append(dt)
        self.labels[key] = item.label or item.kind
        if item.budget is not None:
            self.ball_nodes += item.budget.used
        if error == "budget":
            self.budget_exits += 1
        elif error is not None:
            self.fail(item, error)
        elif key in self._verified and self._verified[key] == out:
            pass  # same input, same output as a run that passed its check
        elif self.verify(item, item.check, out):
            if key not in self._verified and key in self._sampled:
                self.sample.append((item, out))
            self._verified[key] = out

    def latency(self) -> dict[int, float]:
        """Each item's latency: the median of its runs."""
        return {key: statistics.median(times) for key, times in self.runs.items()}

    def verify(self, item: Item, check, out) -> bool:
        try:
            check(out)
        except Exception as exc:  # CheckFailed, or a crash inside the check
            self.fail(item, exc)
            return False
        return True

    def fail(self, item: Item, exc: BaseException) -> None:
        self.failed += 1
        if self.failed <= 5:
            kind = "wrong answer" if isinstance(exc, CheckFailed) else "error"
            print(f"perfbench: {item.label or item.kind}: {kind}: {exc!r}", file=sys.stderr)
            if not isinstance(exc, CheckFailed):
                traceback.print_exception(exc, file=sys.stderr)

    def run_oracles(self) -> None:
        for item, out in self.sample:
            self.verify(item, item.oracle, out)


def timed_setup(workload, tracer: Tracer | None = None):
    gc.collect()
    if tracer is not None:
        tracer.enabled = True
    t0 = time.perf_counter()
    env = workload.setup()
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    return env, elapsed


def make_items(workload, env) -> tuple[list[Item], set[int]]:
    """The workload's items, and the ids of the seeded oracle sample."""
    items = workload.items(env)
    if len(items) < MIN_ITEMS:
        raise RuntimeError(f"{workload.name}: {len(items)} items, fewer than {MIN_ITEMS}")
    inputs = {(item.kind, item.input) for item in items}
    if len(inputs) != len(items):
        raise RuntimeError(f"{workload.name}: {len(items) - len(inputs)} items repeat an input")
    by_kind: dict[str, list[Item]] = {}
    for item in items:
        if item.oracle is not None:
            by_kind.setdefault(item.kind, []).append(item)
    rng = rng_for(workload.seed, "oracle")
    sampled = {
        id(item)
        for kind, group in sorted(by_kind.items())
        for item in rng.sample(group, min(ORACLE_PER_KIND, len(group)))
    }
    return items, sampled


def run_cycles(items, sampled, done, between=None, tracer: Tracer | None = None) -> Pass:
    """Run all items once per cycle until done(pass) is true after a cycle.

    `between()`, if given, runs before every cycle, outside the timed items.
    """
    result = Pass(sampled)
    # Set-up objects, inputs and checked outputs live for the whole run;
    # frozen, they are not traversed again by the collection before each item.
    try:
        while True:
            if between is not None:
                between()
            gc.collect()
            gc.freeze()
            for item in items:
                result.execute(item, tracer)
            result.cycles += 1
            if done(result):
                return result
    finally:
        gc.unfreeze()


def end_to_end(workload, seconds: float) -> tuple[Pass, dict[str, float]]:
    env, elapsed = timed_setup(workload)
    setups = [elapsed]

    def another_setup():
        # Spread over the run, so that one slow phase of the machine does
        # not decide the median; each environment is dropped after timing.
        if len(setups) < SETUP_REPEATS:
            setups.append(timed_setup(workload)[1])

    items, sampled = make_items(workload, env)
    result = run_cycles(
        items,
        sampled,
        lambda p: p.cycles >= MIN_CYCLES and sum(p.latencies) >= seconds,
        between=another_setup,
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUP_REPEATS:
        another_setup()
    result.run_oracles()
    latency = list(result.latency().values())
    cuts = statistics.quantiles(latency, n=10, method="inclusive")
    attempted = len(result.latencies)
    return result, {
        "items_per_s": len(latency) / sum(latency),
        "latency_ms.p50": cuts[4] * 1e3,
        "latency_ms.p90": cuts[8] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (attempted - result.failed) / attempted,
    }


def per_layer(workload, span_path: Path) -> tuple[Pass, dict[str, float]]:
    env, _ = timed_setup(workload)
    items, sampled = make_items(workload, env)
    # Two untraced cycles: the first warms up, the second is the baseline
    # of trace.overhead_ratio.
    plain = run_cycles(items, sampled, lambda p: p.cycles == 2)
    del env, items
    tracer = Tracer()
    tracer.install()
    try:
        env, _ = timed_setup(workload, tracer)
        items, _ = make_items(workload, env)
        traced = run_cycles(items, set(), lambda p: p.cycles == 1, tracer=tracer)
    finally:
        tracer.uninstall()
    overhead = sum(traced.latencies) / sum(times[-1] for times in plain.runs.values())
    plain.run_oracles()
    traced.failed += plain.failed
    traced.latencies += plain.latencies

    own = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    metrics = {
        name: sum(t for span, t in own.items() if span.startswith(name[: -len("self_s")]))
        for name in PER_LAYER
        if name.endswith(".self_s") and name not in SPAN_GROUPS
    }
    for name, spans in SPAN_GROUPS.items():
        metrics[name] = sum(own.get(span, 0.0) for span in spans)
    letters = counts["kernel.letters_in"]
    metrics.update(
        {
            "kernel.normalize.calls": calls["kernel.normalize"],
            "kernel.multiply.calls": calls["kernel.multiply"],
            "kernel.letters_in": letters,
            "kernel.us_per_letter": metrics["kernel.self_s"] * 1e6 / letters if letters else 0.0,
            "cosets.ball_nodes": traced.ball_nodes,
            "cosets.useful_ratio": counts["cosets.members"] / traced.ball_nodes if traced.ball_nodes else 0.0,
            "parabolic.tail_split.calls": calls["parabolic.tail_split"],
            "automaton.states": workload.acceptor_states(env),
            "growth.terms": counts["growth.terms"],
            "structures.simples": counts["structures.simples"],
            "trace.overhead_ratio": overhead,
        }
    )
    span_path.parent.mkdir(exist_ok=True)
    tracer.write(span_path)
    return traced, {name: metrics[name] for name in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        span_path = Path(SPAN_DIR) / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        result, metrics = per_layer(workload, span_path)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        result, metrics = end_to_end(workload, args.seconds)
        units = END_TO_END

    attempted = len(result.latencies)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  {'attempted':32s} {attempted}")
    print(f"  {'failed':32s} {result.failed}")
    print(f"  {'failed_ratio':32s} {result.failed / attempted:.6g}")
    print(f"  {'budget_exits':32s} {result.budget_exits}")
    latency = result.latency()
    print(f"  median time per item, {len(latency)} distinct items, {result.cycles} cycles:")
    by_label: dict[str, list[float]] = {}
    for key, dt in latency.items():
        by_label.setdefault(result.labels[key], []).append(dt)
    busy = sum(latency.values())
    heaviest = sorted(by_label.items(), key=lambda kv: -sum(kv[1]))
    for label, lat in heaviest[:TABLE_ROWS]:
        print(
            f"    {label:36s} n={len(lat):<4d} median {statistics.median(lat) * 1e3:9.3f} ms"
            f"  {100 * sum(lat) / busy:5.1f}%"
        )
    if len(heaviest) > TABLE_ROWS:
        rest = sum(sum(lat) for _, lat in heaviest[TABLE_ROWS:])
        print(f"    {len(heaviest) - TABLE_ROWS} lighter classes{'':48s}{100 * rest / busy:5.1f}%")
    for name, value in metrics.items():
        moves = f"  -> {PER_LAYER[name][1]}" if args.trace else ""
        print(f"  {name:32s} {value:.6g} {units[name]}{moves}")
    if args.trace:
        print(f"  spans written to {span_path}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
