"""The benchmark's workloads: seeded inputs, operations, correctness gates.

Each operation replays, in process, the library calls that one ``crnlump``
subcommand makes (``reduce``, ``compare`` or ``check``) on a model text
held in memory; the program sees nothing but the generated text.  A
workload repeats a fixed cycle of operations, one at a time, so the
benchmark is a single closed-loop caller.

Every workload times operations of kind ``fb`` (forward mode) and ``bb``
(backward mode); ``verify4`` adds ``check`` and ``sweep`` adds ``parse``.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import crnlump as cl  # noqa: E402

if not Path(cl.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"crnlump imported from {cl.__file__}, not from {SRC}")

FB, BB = cl.BisimMode.FORWARD, cl.BisimMode.BACKWARD
SHORT = {FB: "fb", BB: "bb"}
# compare's tolerances and horizon: the CLI defaults except t_end.
T_END, TOL, RTOL, ATOL = 10.0, 1e-6, 1e-8, 1e-10


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def permute_species(text: str, rng: random.Random) -> str:
    """Shuffle the ``species:`` header of a serialized network, which
    fixes the species ids the program assigns."""
    header, _, body = text.partition("\n")
    if not header.startswith("species: "):
        raise ValueError("serialized network does not start with a species header")
    names = header[len("species: ") :].split()
    rng.shuffle(names)
    return "species: " + " ".join(names) + "\n" + body


def multisite_text(n: int, rng: random.Random) -> str:
    crn, inits = cl.multisite(cl.MultisiteSpec(n_sites=n))
    return permute_species(cl.serialize_crn(crn, inits=inits), rng)


def site_state_partition(text: str) -> str:
    """Partition file grouping the multisite species by their multiset of
    site states: the coarsest forward and backward partition."""
    names = text.partition("\n")[0].split()[1:]
    blocks: dict[tuple, list[str]] = {}
    for name in names:
        key = tuple(sorted(name[2:-1].split(","))) if name.startswith("S(") else (name,)
        blocks.setdefault(key, []).append(name)
    return "".join(", ".join(sorted(b)) + "\n" for b in blocks.values())


# Wall time of probe() on an uncontended CPU of the machine the benchmark
# was tuned on (2-vCPU Xeon VM at 2.0 GHz, Python 3.11).
PROBE_S = 0.003


def probe() -> float:
    """Wall time of a small fixed pure-Python kernel, a few milliseconds.

    On a shared host a CPU runs Python at two speeds about 2x apart, each
    for seconds to minutes at a time.  The probe, run between operations,
    measures the speed an operation ran at.
    """
    start = time.perf_counter()
    table: dict[tuple[int, int], Fraction] = {}
    for i in range(1200):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + Fraction(i % 5, 3)
    return time.perf_counter() - start


def probe_scaled(op) -> float:
    """An operation's wall time scaled by PROBE_S over the mean of the
    probes run just before and just after it: seconds at the speed of an
    uncontended CPU."""
    _, seconds, _, before, after = op
    return seconds * 2 * PROBE_S / (before + after)


class Clock:
    """Times one run's operations and gates their outputs."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        # (kind, seconds, cycle, probe before, probe after) per operation
        self.ops: list[tuple[str, float, int, float, float]] = []
        self.cycle = 0
        self.complete: list[int] = []
        self.last_probe = probe()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict[str, float | None] = defaultdict(float)
        self.max_error = 0.0
        self.digests: dict[str, str] = {}

    @contextmanager
    def op(self, kind: str):
        """Time one operation; an exception escaping it counts as a failure
        in :func:`run_cycle`."""
        self.attempted += 1
        before = self.last_probe
        span = self.tracer.open(f"op.{kind}") if self.tracer else None
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if span is not None:
                self.tracer.close(span)
            self.last_probe = probe()
        self.ops.append((kind, elapsed, self.cycle, before, self.last_probe))

    def at_probe_speed(self) -> tuple[dict[str, list[float]], list[float]]:
        """Times per operation kind and of each completed cycle, at probe
        speed."""
        times: dict[str, list[float]] = defaultdict(list)
        per_cycle: dict[int, float] = defaultdict(float)
        for op in self.ops:
            seconds = probe_scaled(op)
            times[op[0]].append(seconds)
            per_cycle[op[2]] += seconds
        return times, [per_cycle[c] for c in self.complete if c in per_cycle]

    def gate(self, what: str, problems: list[str]) -> None:
        """Count the operation just timed as failed if any check failed."""
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def digest(self, label: str, text: str) -> list[str]:
        """Record the sha256 of an output; a later cycle must reproduce it."""
        value = sha256(text)
        if self.digests.setdefault(label, value) != value:
            return [f"output of {label} changed between cycles"]
        return []

    def count(self, name: str, value) -> None:
        # None marks a count the library no longer exposes; it stays None.
        if value is None or self.counts.get(name, 0.0) is None:
            self.counts[name] = None
        else:
            self.counts[name] += value

    def note_refinement(self, mode, trace, reduced=None) -> None:
        m = SHORT[mode]
        iterations = getattr(trace, "iterations", None)
        self.count(f"bisim.passes_{m}", None if iterations is None else len(iterations) - 1)
        self.count(f"bisim.predicate_calls_{m}", getattr(trace, "predicate_calls", None))
        self.count(f"bisim.blocks_{m}", trace.final.n_blocks)
        if reduced is not None:
            self.count(f"reduce.step_count_{m}", reduced.step_count)
            self.count(f"reduce.reactions_{m}", reduced.crn.n_reactions)


def reduce_op(clock: Clock, text: str, mode, from_inits: bool):
    """``crnlump reduce IN --mode fb|bb [--from-inits]``."""
    with clock.op(SHORT[mode]):
        crn, inits = cl.parse_crn(text)
        initial = (
            cl.partition_from_initial_conditions(inits)
            if from_inits
            else cl.Partition.trivial(crn)
        )
        trace = cl.refine(crn, initial, mode)
        reducer = cl.forward_reduce if mode is FB else cl.backward_reduce
        reduced = reducer(crn, trace.final)
        out = cl.serialize_crn(reduced.crn)
    clock.note_refinement(mode, trace, reduced)
    return trace, reduced, out


def reduce_problems(clock, label, trace, reduced, out, blocks, reactions=None):
    problems = clock.digest(label, out)
    if trace.final.n_blocks != blocks:
        problems.append(f"{trace.final.n_blocks} blocks, expected {blocks}")
    if reduced.crn.n_species != trace.final.n_blocks:
        problems.append("reduced species count differs from the block count")
    if reactions is not None and reduced.crn.n_reactions != reactions:
        problems.append(f"{reduced.crn.n_reactions} reduced reactions, expected {reactions}")
    return problems


class Multisite:
    """``reduce`` fb from the trivial partition and bb ``--from-inits``."""

    name = "multisite5"
    e2e_names = {"fb_s": "reduce_fb_s", "bb_s": "reduce_bb_s"}
    bb_from_inits = True

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.n = 2 if smoke else 5
        self.expected_blocks = cl.multisite_block_count(self.n)
        self.expected_reactions = None

    def make_inputs(self) -> dict[str, str]:
        self.text = multisite_text(self.n, random.Random(self.seed))
        return {"model": self.text}

    def cycle(self, i: int, clock: Clock) -> None:
        for mode in (FB, BB):
            trace, reduced, out = reduce_op(clock, self.text, mode, mode is BB and self.bb_from_inits)
            label = f"reduce-{SHORT[mode]}"
            clock.gate(label, reduce_problems(
                clock, label, trace, reduced, out, self.expected_blocks, self.expected_reactions
            ))

    def finish(self, clock: Clock) -> None:
        pass


class Chain(Multisite):
    """``reduce`` fb and bb from the trivial partition on X0 -> ... -> Xn-1,
    which refinement splits one species per pass."""

    name = "chain300"
    bb_from_inits = False

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.n = 20 if smoke else 300
        self.expected_blocks = self.n
        self.expected_reactions = self.n - 1

    def make_inputs(self) -> dict[str, str]:
        width = len(str(self.n - 1))
        names = [f"X{i:0{width}d}" for i in range(self.n)]
        lines = [f"{a} -> {b} , 1" for a, b in zip(names, names[1:])]
        random.Random(self.seed).shuffle(names)
        self.text = "species: " + " ".join(names) + "\n" + "\n".join(lines) + "\n"
        return {"model": self.text}


# check --what, with --partition (site-state partition) or without (one block),
# and whether the property must hold.
CHECKS = (
    ("bisim-fb", True, True),
    ("ord-lump", True, True),
    ("bisim-bb", True, True),
    ("exact-lump", True, True),
    ("bisim-fb", False, False),
)


class Verify:
    """``compare`` fb and bb to t=10 at tol 1e-6, then five ``check`` runs."""

    name = "verify4"
    e2e_names = {"fb_s": "compare_fb_s", "bb_s": "compare_bb_s"}

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.n_compare = 2 if smoke else 4
        self.n_check = 2 if smoke else 3
        self.finals = {}

    def make_inputs(self) -> dict[str, str]:
        rng = random.Random(self.seed)
        self.compare_text = multisite_text(self.n_compare, rng)
        self.check_text = multisite_text(self.n_check, rng)
        self.partition_text = site_state_partition(self.check_text)
        return {
            "compare": self.compare_text,
            "check": self.check_text,
            "partition": self.partition_text,
        }

    def compare(self, clock: Clock, mode) -> None:
        """``crnlump compare IN --mode fb|bb [--from-inits] --t-end 10 --tol 1e-6``."""
        with clock.op(SHORT[mode]):
            crn, v0 = cl.parse_crn(self.compare_text)
            initial = (
                cl.partition_from_initial_conditions(v0)
                if mode is BB
                else cl.Partition.trivial(crn)
            )
            trace = cl.refine(crn, initial, mode)
            verify = cl.verify_forward if mode is FB else cl.verify_backward
            report = verify(crn, trace.final, v0, T_END, TOL, rtol=RTOL, atol=ATOL)
            report.summary()
        clock.note_refinement(mode, trace)
        clock.max_error = max(clock.max_error, report.max_error)
        self.finals[mode] = (crn, trace.final)
        problems = []
        if not report.passed:
            problems.append(report.summary())
        expected = cl.multisite_block_count(self.n_compare)
        if trace.final.n_blocks != expected:
            problems.append(f"{trace.final.n_blocks} blocks, expected {expected}")
        clock.gate(f"compare-{SHORT[mode]}", problems)

    def check(self, clock: Clock, what: str, with_partition: bool, holds: bool) -> None:
        """``crnlump check IN --what WHAT [--partition P]``."""
        with clock.op("check"):
            crn, _ = cl.parse_crn(self.check_text)
            p = (
                cl.parse_partition(self.partition_text, crn)
                if with_partition
                else cl.Partition.trivial(crn)
            )
            if what == "bisim-fb":
                verdict = cl.find_counterexample(crn, p, FB) is None
            elif what == "bisim-bb":
                verdict = cl.find_counterexample(crn, p, BB) is None
            elif what == "ord-lump":
                verdict = cl.is_ordinarily_lumpable(crn, p)
            else:
                verdict = cl.is_exactly_lumpable(crn, p)
        where = "site-state partition" if with_partition else "one block"
        problems = [] if verdict == holds else [f"verdict {verdict}, expected {holds}"]
        clock.gate(f"check {what} on {where}", problems)

    def cycle(self, i: int, clock: Clock) -> None:
        self.compare(clock, FB)
        self.compare(clock, BB)
        for what, with_partition, holds in CHECKS:
            self.check(clock, what, with_partition, holds)

    def finish(self, clock: Clock) -> None:
        """Digest the quotients behind the two compare runs, untimed."""
        for mode, (crn, final) in self.finals.items():
            reducer = cl.forward_reduce if mode is FB else cl.backward_reduce
            clock.digest(f"compare-{SHORT[mode]} quotient", cl.serialize_crn(reducer(crn, final).crn))


class Sweep:
    """Per random network: parse; refine, reduce and serialize in each
    mode; ordinary lumpability of the fb partition and exact lumpability
    of the bb partition (both theorems must hold)."""

    name = "sweep"
    e2e_names = {"cycle_s": "sweep_p50_s"}
    # Networks whose reduced texts enter the digest: always reached, so the
    # digest compares across commits whatever their speed.
    digest_networks = 100

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.n_networks = 20 if smoke else 1000
        self.outputs: dict[int, str] = {}

    def make_inputs(self) -> dict[str, str]:
        rng = random.Random(self.seed)
        self.texts = [
            cl.serialize_crn(cl.random_crn(rng.getrandbits(32), 20, 40))
            for _ in range(self.n_networks)
        ]
        return {f"network{i}": t for i, t in enumerate(self.texts)}

    def cycle(self, i: int, clock: Clock) -> None:
        index = i % self.n_networks
        with clock.op("parse"):
            crn, _ = cl.parse_crn(self.texts[index])
        outs = []
        for mode in (FB, BB):
            reducer, lumpable = (
                (cl.forward_reduce, cl.is_ordinarily_lumpable)
                if mode is FB
                else (cl.backward_reduce, cl.is_exactly_lumpable)
            )
            with clock.op(SHORT[mode]):
                trace = cl.refine(crn, cl.Partition.trivial(crn), mode)
                reduced = reducer(crn, trace.final)
                out = cl.serialize_crn(reduced.crn)
                holds = lumpable(crn, trace.final)
            clock.note_refinement(mode, trace, reduced)
            problems = [] if holds else [f"network {index}: lumpability theorem fails"]
            if reduced.crn.n_species != trace.final.n_blocks:
                problems.append(f"network {index}: reduced species differ from blocks")
            outs.append(out)
            if mode is BB and index < self.digest_networks:
                value = sha256("".join(outs))
                if self.outputs.setdefault(index, value) != value:
                    problems.append(f"network {index}: reduced networks changed between passes")
            clock.gate(f"sweep-{SHORT[mode]}", problems)

    def finish(self, clock: Clock) -> None:
        combined = "".join(self.outputs[i] for i in sorted(self.outputs))
        clock.digests[f"sweep first {len(self.outputs)} networks"] = sha256(combined)


WORKLOADS = {w.name: w for w in (Multisite, Chain, Verify, Sweep)}


def input_digest(inputs: dict[str, str]) -> str:
    h = hashlib.sha256()
    for key in sorted(inputs):
        h.update(key.encode() + b"\0" + inputs[key].encode() + b"\0")
    return h.hexdigest()


def run_cycle(workload, i: int, clock: Clock) -> None:
    """One cycle; an exception fails the operation it escaped from and
    ends the cycle.  Only cycles without failures are timed."""
    clock.cycle = i
    clock.last_probe = probe()
    failed = clock.failed
    try:
        workload.cycle(i, clock)
    except Exception as err:  # noqa: BLE001 - a failed operation is data
        clock.failed += 1
        clock.problems.append(f"cycle {i}: {type(err).__name__}: {err}")
    if clock.failed == failed:
        clock.complete.append(i)
