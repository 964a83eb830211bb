"""crnlump benchmark: one workload, one seed, one process.

Run from the checkout root::

    python3 perfbench/run.py --workload multisite5 --seed 1 --seconds 18 --trace 0

Prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` they are the per-layer ones, and the spans are written to
``.perfbench/``.  Exits 2 without a result when crnlump cannot be
imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from operator import itemgetter
from pathlib import Path

HERE = Path(__file__).resolve().parent
wall = itemgetter(1)  # an operation's wall time
# Set-ups per run; setup_s is their median.
SETUPS = 3

try:
    from workloads import (
        CHECKS, PROBE_S, ROOT, WORKLOADS, Clock, input_digest, probe_scaled, run_cycle,
    )
    from tracer import Tracer
except ImportError as err:
    print(f"error: cannot import crnlump from src/: {err}", file=sys.stderr)
    sys.exit(2)


def timed_setups(args) -> tuple[list[float], set[str]]:
    """Wall times of SETUPS fresh interpreters that each import crnlump and
    generate the inputs, and the input digests they printed.  They are not
    scaled to probe speed: the probe runs in this process, not in theirs."""
    command = [sys.executable, str(HERE / "make_inputs.py"),
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    times, digests = [], set()
    for _ in range(SETUPS):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
        digests.add(done.stdout.strip())
    return times, digests


# Inclusive span time per cycle: span name -> metric, or tag -> metric.
SPAN_METRICS = {
    "io.parse_crn": "io.parse_s",
    "io.parse_partition": "io.parse_s",
    "io.serialize_crn": "io.serialize_s",
    "bisim.refine": {"forward": "bisim.refine_fb_s", "backward": "bisim.refine_bb_s"},
    "bisim.is_bisimulation": "bisim.is_bisimulation_s",
    "bisim.find_counterexample": "bisim.find_counterexample_s",
    "reduce.forward_reduce": "reduce.forward_reduce_s",
    "reduce.backward_reduce": "reduce.backward_reduce_s",
    "odes.vector_field": "odes.vector_field_s",
    "odes.is_exactly_lumpable": "odes.exact_lump_s",
    "odes.is_ordinarily_lumpable": "odes.ord_lump_s",
    "sim.verify_forward": "sim.verify_fb_s",
    "sim.verify_backward": "sim.verify_bb_s",
}
LAYERS = ("io", "bisim", "reduce", "odes", "sim")
COUNTS = (
    "bisim.passes_fb", "bisim.passes_bb",
    "bisim.predicate_calls_fb", "bisim.predicate_calls_bb",
    "bisim.blocks_fb", "bisim.blocks_bb",
    "reduce.step_count_fb", "reduce.step_count_bb",
    "reduce.reactions_fb", "reduce.reactions_bb",
)
# Every per-layer metric with its unit, in report order.
PER_LAYER = (
    [("models.self_s", "s"), ("models.generate_s", "s")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(name, "s") for name in (
        "io.parse_s", "io.serialize_s",
        "bisim.refine_fb_s", "bisim.refine_bb_s",
        "bisim.is_bisimulation_s", "bisim.find_counterexample_s",
        "reduce.forward_reduce_s", "reduce.backward_reduce_s",
        "odes.vector_field_s", "odes.exact_lump_s", "odes.ord_lump_s",
        "sim.verify_fb_s", "sim.verify_bb_s",
        "sim.integrate_original_s", "sim.integrate_reduced_s",
    )]
    + [(name, "count") for name in COUNTS]
    + [("sim.max_error", "1"), ("trace.overhead_s", "s"), ("trace.spans", "count")]
)


def per_layer(tracer: Tracer, clock: Clock, cycles: int, overheads: list[float]) -> dict:
    """Per-layer metrics of the traced cycles; only the ``models`` ones
    come from the set-up, where the generators run.  Times and counts are
    per cycle, or per run for ``models``.  Span times are scaled to probe
    speed by the run's median probe."""
    seconds = {name: 0.0 for name, unit in PER_LAYER if unit == "s"}
    spans = tracer.spans
    own = tracer.self_times()
    cycle_spans = 0
    for idx, (name, tag, start, end, parent, root) in enumerate(spans):
        layer = name.partition(".")[0]
        if spans[root][0] == "op.setup":
            if layer == "models":
                seconds["models.self_s"] += own[idx]
                if parent == root:
                    seconds["models.generate_s"] += end - start
            continue
        cycle_spans += 1
        if layer in LAYERS:
            seconds[f"{layer}.self_s"] += own[idx] / cycles
        target = SPAN_METRICS.get(name)
        if isinstance(target, dict):
            target = target.get(tag)
        if name == "sim.integrate":
            # An integration of fewer species than the network being
            # verified is the reduced system's.
            caller = spans[parent] if parent is not None else None
            reduced = caller is not None and caller[0].startswith("sim.verify") and tag < caller[1]
            target = "sim.integrate_reduced_s" if reduced else "sim.integrate_original_s"
        if target:
            seconds[target] += (end - start) / cycles
    values = dict(seconds)
    for name in COUNTS:
        count = clock.counts.get(name, 0.0)
        # -1: the library no longer exposes this count.
        values[name] = -1 if count is None else count / cycles
    values["sim.max_error"] = clock.max_error
    values["trace.overhead_s"] = median(overheads)
    values["trace.spans"] = cycle_spans / cycles
    factor = PROBE_S / median([p for op in clock.ops for p in op[3:]])
    return {
        name: (values[name] * factor if unit == "s" else values[name], unit)
        for name, unit in PER_LAYER
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def cycle_sums(clock: Clock, seconds, kind: str | None = None) -> dict[int, float]:
    """``seconds(op)`` summed per cycle over the operations of ``kind``
    (all when None)."""
    sums: dict[int, float] = defaultdict(float)
    for op in clock.ops:
        if kind is None or op[0] == kind:
            sums[op[2]] += seconds(op)
    return sums


def workload_names(workload, clock: Clock, cycle_times: list[float], metrics: dict) -> list[str]:
    """What the end-to-end metrics are called for this workload, plus the
    workload-specific figures derived from the same samples."""
    lines = [f"{alias} = {metrics[name][0]:.6g} s  (same as {name})"
             for name, alias in workload.e2e_names.items()]
    checks = [v for c, v in cycle_sums(clock, probe_scaled, "check").items() if c in clock.complete]
    if checks:
        lines.append(f"check_s = {median(checks):.6g} s  (the {len(CHECKS)} checks of a "
                     "cycle, median over all cycles)")
    if workload.name == "sweep" and cycle_times:
        ordered = sorted(cycle_times)
        p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
        lines.append(f"networks_per_s = {len(ordered) / sum(ordered):.6g} 1/s")
        lines.append(f"sweep_p99_ms = {p99 * 1000:.6g} ms  ({len(ordered)} networks)")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one crnlump benchmark workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args()

    setup_times, child_digests = timed_setups(args)
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        setup_span = tracer.open("op.setup")
    digest = input_digest(workload.make_inputs())
    if tracer:
        tracer.close(setup_span)
        tracer.uninstall()

    clock = Clock()
    traced = Clock(tracer) if tracer else None
    start = time.perf_counter()
    cycles = 0
    while cycles == 0 or time.perf_counter() - start < args.seconds:
        run_cycle(workload, cycles, clock)
        if tracer:
            tracer.install()
            try:
                run_cycle(workload, cycles, traced)
            finally:
                tracer.uninstall()
        cycles += 1
    workload.finish(clock)
    times, cycle_times = clock.at_probe_speed()
    overheads = []
    if traced:
        plain, slow = cycle_sums(clock, wall), cycle_sums(traced, wall)
        overheads = [slow[c] - plain[c] for c in set(clock.complete) & set(traced.complete)]

    if traced and any(clock.digests.get(k, v) != v for k, v in traced.digests.items()):
        clock.failed += 1
        clock.problems.append("traced cycles produced different outputs")
    if child_digests != {digest}:
        clock.failed += 1
        clock.problems.append("set-ups generated different inputs from one seed")
    attempted = clock.attempted + (traced.attempted if traced else 0)
    failed = clock.failed + (traced.failed if traced else 0)

    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "fb_s": (median(times.get("fb", [])), "s"),
        "bb_s": (median(times.get("bb", [])), "s"),
        "cycle_s": (median(cycle_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    metrics = per_layer(tracer, traced, cycles, overheads) if tracer else end_to_end

    print(f"workload {args.workload}  seed {args.seed}  cycles {cycles}  "
          f"trace {args.trace}{'  smoke' if args.smoke else ''}")
    print(f"inputs sha256 {digest}")
    probes = [p for op in clock.ops for p in op[3:]]
    print(f"probe median {median(probes) * 1000:.4g} ms (uncontended {PROBE_S * 1000:g} ms); "
          "operation times are scaled to the uncontended speed")
    for label, value in sorted(clock.digests.items()):
        print(f"output sha256 {value}  {label}")
    for name, (value, unit) in end_to_end.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in workload_names(workload, clock, cycle_times, end_to_end):
        print(line)
    print(f"fail_ratio = {failed}/{attempted}")
    for problem in clock.problems[:20] + (traced.problems[:20] if traced else []):
        print(f"FAILED {problem}")
    if tracer:
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        out = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(tracer.as_records()))
        print(f"spans written to {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
