"""Command-line surface: validate, reduce, check, odes, simulate,
compare, gen, bench.

Every subcommand is a thin shell over the library.  Exit codes: 0 on
success (and for ``check``/``compare``, when the property holds /
the tolerance is met), 1 for parse errors, files that are missing,
unreadable or not UTF-8, or a failed ``check``, 2 for invalid
partitions, violated preconditions (among them the forward mode on a
reaction that is not elementary), invalid arguments (among them a
``simulate`` output grid of more than 10**7 values and ``gen random``
sizes beyond the generator's guard) and results with numbers too long
to print, 3 for integration failures, among them a run that needs more
than 10**6 right-hand-side evaluations.  Files ending in ``.net`` are
imported as BioNetGen networks, everything else as the native format.

:func:`main` runs a command with the garbage collector disabled and then
restores its previous state: the exact work makes no reference cycles, so
a collection would scan every row and tuple for nothing.  ``simulate``
and ``compare`` enable it before integrating.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
import time
import warnings
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from .bisim import BisimMode, find_counterexample, refine
from .core import (
    CRN,
    DEFAULT_ATOL,
    DEFAULT_POINTS,
    DEFAULT_RTOL,
    DEFAULT_T_END,
    CRNError,
    InitialCondition,
    IntegrationError,
    ParseError,
    Partition,
    PartitionError,
)
from .io import (
    import_bngl_net,
    parse_crn,
    parse_initial_conditions,
    parse_partition,
    parse_rational,
    partition_from_initial_conditions,
    serialize_crn,
)
from .models import (
    _MAX_SITES,
    _REACTION_GUARD,
    MultisiteSpec,
    multisite,
    random_crn,
    two_state,
)
from .odes import (
    exact_lumpability_witness,
    format_vector_field,
    lumped_field_backward,
    lumped_field_forward,
    ordinary_lumpability_witness,
    vector_field,
)
from .reduce import backward_reduce, forward_reduce


class _Mode(NamedTuple):
    """A ``--mode``: its equivalence, reduction and lumped field."""

    bisim: BisimMode
    reduce: Callable
    lumped_field: Callable


_MODES = {
    "fb": _Mode(BisimMode.FORWARD, forward_reduce, lumped_field_forward),
    "bb": _Mode(BisimMode.BACKWARD, backward_reduce, lumped_field_backward),
}

# Most values (time points times species) a simulate trajectory may hold:
# 80 MB of float64, and several times that as CSV text.
_MAX_GRID_VALUES = 10_000_000


def _read(path: str) -> str:
    """Text of an input file.  A file that cannot be opened raises
    :class:`OSError` and one that is not UTF-8 a :class:`ParseError`;
    both exit 1."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(
            f"{path}: not UTF-8 text (byte {err.start}: {err.reason})"
        ) from None


def _load(path: str) -> tuple[CRN, InitialCondition | None]:
    text = _read(path)
    if path.endswith(".net"):
        return import_bngl_net(text)
    return parse_crn(text)


def _initial_partition(args, crn: CRN, inits) -> Partition:
    if getattr(args, "partition", None):
        return parse_partition(_read(args.partition), crn)
    if getattr(args, "from_inits", False):
        if inits is None:
            raise PartitionError("--from-inits requires initial conditions")
        return partition_from_initial_conditions(inits)
    return Partition.trivial(crn)


def _inits(args, crn: CRN, embedded) -> InitialCondition | None:
    if getattr(args, "init", None):
        return parse_initial_conditions(_read(args.init), crn)
    return embedded


def _warn_unequal_inits(args, inits, initial: Partition) -> None:
    """Warn on stderr when backward mode refines the one-block partition
    although the initial values differ."""
    if (
        _MODES[args.mode].bisim is BisimMode.BACKWARD
        and not (args.partition or args.from_inits)
        and not (inits is None or inits.constant_on(initial))
    ):
        print(
            "warning: backward mode with unequal initial conditions; "
            "consider --from-inits or --partition",
            file=sys.stderr,
        )


def _refine_and_reduce(crn: CRN, initial: Partition, mode: _Mode):
    """``(trace, reduced, refine seconds, reduce seconds)`` of ``mode``."""
    t0 = time.perf_counter()
    trace = refine(crn, initial, mode.bisim)
    t1 = time.perf_counter()
    reduced = mode.reduce(crn, trace.final)
    return trace, reduced, t1 - t0, time.perf_counter() - t1


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    # Both readers refuse a rate that is not positive at its line, the one
    # thing ``validate`` reports, so a network that loads is valid.
    crn, _ = _load(args.input)
    print(f"valid: {crn.n_species} species, {crn.n_reactions} reactions")
    return 0


def _cmd_reduce(args) -> int:
    crn, embedded = _load(args.input)
    inits = _inits(args, crn, embedded)
    mode = _MODES[args.mode]
    initial = _initial_partition(args, crn, inits)
    _warn_unequal_inits(args, inits, initial)
    trace, reduced, _, _ = _refine_and_reduce(crn, initial, mode)
    text = serialize_crn(reduced.crn)
    # Format everything before writing anything, so a number too long to
    # print fails the command without partial output.
    odes = format_vector_field(vector_field(reduced.crn)) if args.emit_odes else ""
    sizes: dict[int, int] = {}
    for block in trace.final.blocks:
        sizes[len(block)] = sizes.get(len(block), 0) + 1
    report = [
        f"mode: {mode.bisim}",
        f"initial blocks: {initial.n_blocks}",
        f"iterations: {trace.passes}",
        f"final blocks: {trace.final.n_blocks}",
        "block sizes: "
        + " ".join(f"{size}x{count}" for size, count in sorted(sizes.items())),
    ]
    if trace.final.n_blocks <= 20:
        for block in trace.final.blocks:
            report.append(f"block {block[0].name}: " + " ".join(sp.name for sp in block))
    report.append(
        f"reduced: {reduced.crn.n_species} species, {reduced.crn.n_reactions} reactions"
    )
    if args.out:
        _write(text, args.out)
        print("\n".join(report))
    else:
        sys.stdout.write(text)
        print("\n".join(report), file=sys.stderr)
    sys.stdout.write(odes)
    return 0


def _cmd_check(args) -> int:
    crn, _ = _load(args.input)
    p = _initial_partition(args, crn, None)
    if args.what in ("bisim-fb", "bisim-bb"):
        witness = find_counterexample(crn, p, _MODES[args.what.removeprefix("bisim-")].bisim)
        if witness is None:
            print(f"{args.what} holds for {p!r}")
            return 0
        x, y, detail = witness
        print(f"{args.what} fails: {x.name} vs {y.name}: {detail}")
        return 1
    if args.what == "ord-lump":
        witness = ordinary_lumpability_witness(crn, p)
        if witness is None:
            print(f"ord-lump holds for {p!r}")
            return 0
        block_idx, (i, j) = witness
        members = ", ".join(sp.name for sp in p.blocks[block_idx])
        print(
            f"ord-lump fails: block sum over {{{members}}} changes under the "
            f"shear moving mass between {crn.species[i].name} and {crn.species[j].name}"
        )
        return 1
    witness = exact_lumpability_witness(crn, p)
    if witness is None:
        print(f"exact-lump holds for {p!r}")
        return 0
    x, y = witness
    members = ", ".join(sp.name for sp in p.block_members(x))
    print(
        f"exact-lump fails: components of {x.name} and {y.name} differ after "
        f"merging block {{{members}}}"
    )
    return 1


def _cmd_odes(args) -> int:
    if bool(args.partition) != bool(args.mode):
        missing = "--mode" if args.partition else "--partition"
        raise CRNError(f"odes: --partition and --mode go together; {missing} is missing")
    crn, _ = _load(args.input)
    if args.partition:
        field = _MODES[args.mode].lumped_field(crn, _initial_partition(args, crn, None))
    else:
        field = vector_field(crn)
    _write(format_vector_field(field), args.out)
    return 0


@contextmanager
def _warnings_as_lines():
    """Print each warning shown inside as one ``warning: …`` line on
    stderr, like the CLI's own warnings; a :class:`UserWarning` (an rtol
    below 100 machine epsilons) is always shown."""
    with warnings.catch_warnings():
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        yield


def _cmd_simulate(args) -> int:
    from .sim import integrate, trajectory_to_csv

    crn, embedded = _load(args.input)
    v0 = _inits(args, crn, embedded)
    if v0 is None:
        raise PartitionError("no initial conditions (use --init or init: lines)")
    values = args.points * crn.n_species
    if values > _MAX_GRID_VALUES:
        raise CRNError(
            f"--points {args.points} with {crn.n_species} species gives {values} "
            f"output values; the limit is {_MAX_GRID_VALUES}"
        )
    gc.enable()
    with _warnings_as_lines():
        traj = integrate(
            crn, v0, args.t_end, rtol=args.rtol, atol=args.atol, n_points=args.points
        )
    _write(trajectory_to_csv(traj), args.out)
    return 0


def _cmd_compare(args) -> int:
    from .sim import verify_backward, verify_forward

    crn, embedded = _load(args.input)
    v0 = _inits(args, crn, embedded)
    if v0 is None:
        raise PartitionError("no initial conditions (use --init or init: lines)")
    mode = _MODES[args.mode].bisim
    initial = _initial_partition(args, crn, v0)
    _warn_unequal_inits(args, v0, initial)
    trace = refine(crn, initial, mode)
    verify = verify_forward if mode is BisimMode.FORWARD else verify_backward
    gc.enable()
    with _warnings_as_lines():
        report = verify(
            crn, trace.final, v0, args.t_end, args.tol, rtol=args.rtol, atol=args.atol
        )
    print(f"partition: {trace.final.n_blocks} blocks; {report.summary()}")
    return 0 if report.passed else 1


def _at_least(low: int, option: str, value: int) -> int:
    if value < low:
        raise CRNError(f"{option} must be at least {low}, got {value}")
    return value


def _at_most(high: int, option: str, value: int) -> int:
    if value > high:
        raise CRNError(f"{option} must be at most {high}, got {value}")
    return value


def _rate_pair(text: str) -> list[Fraction]:
    """The two positive rationals of ``a1,a2``."""
    try:
        rates = [parse_rational(part) for part in text.split(",")]
    except ParseError:
        rates = []
    if len(rates) != 2 or min(rates) <= 0:
        raise CRNError(f"--rates must be two positive rationals a1,a2, got {text!r}")
    return rates


def _site_counts(text: str) -> list[int]:
    """The site counts of a comma-separated ``--sites`` list."""
    try:
        counts = [int(part) for part in text.split(",")]
    except ValueError:
        counts = []
    if not counts or min(counts) < 1 or max(counts) > _MAX_SITES:
        raise CRNError(f"--sites must list integers from 1 to {_MAX_SITES}, got {text!r}")
    return counts


def _cmd_gen(args) -> int:
    inits = None
    if args.model == "multisite":
        sites = _at_most(_MAX_SITES, "--sites", _at_least(1, "--sites", args.sites))
        crn, inits = multisite(MultisiteSpec(n_sites=sites))
    elif args.model == "two-state":
        crn = two_state(*_rate_pair(args.rates))
    else:
        crn = random_crn(
            args.seed,
            _at_most(_REACTION_GUARD, "--species", _at_least(1, "--species", args.species)),
            _at_most(
                _REACTION_GUARD, "--reactions", _at_least(0, "--reactions", args.reactions)
            ),
        )
    _write(serialize_crn(crn, inits=inits), args.out)
    return 0


def _cmd_bench(args) -> int:
    rows = ["model,reactions,species,mode,reduced_reactions,reduced_species,refine_ms,reduce_ms"]
    for n in _site_counts(args.sites):
        crn, inits = multisite(MultisiteSpec(n_sites=n))
        for mode_name, mode in _MODES.items():
            if mode.bisim is BisimMode.BACKWARD:
                initial = partition_from_initial_conditions(inits)
            else:
                initial = Partition.trivial(crn)
            _, reduced, refine_s, reduce_s = _refine_and_reduce(crn, initial, mode)
            rows.append(
                f"multisite-n{n},{crn.n_reactions},{crn.n_species},{mode_name},"
                f"{reduced.crn.n_reactions},{reduced.crn.n_species},"
                f"{refine_s * 1000:.1f},{reduce_s * 1000:.1f}"
            )
    _write("\n".join(rows) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crnlump",
        description="Reduce mass-action reaction networks by species equivalences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check structural restrictions")
    p.add_argument("input")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("reduce", help="refine a partition and write the quotient")
    p.add_argument("input")
    p.add_argument("--mode", choices=("fb", "bb"), required=True)
    p.add_argument("--partition", help="initial partition file")
    p.add_argument("--from-inits", action="store_true",
                   help="seed the initial partition from initial conditions")
    p.add_argument("--init", help="initial conditions file")
    p.add_argument("--out", help="write the reduced network here")
    p.add_argument("--emit-odes", action="store_true",
                   help="also print the reduced ODEs")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("check", help="decide a property of a given partition")
    p.add_argument("input")
    p.add_argument("--what", required=True,
                   choices=("bisim-fb", "bisim-bb", "ord-lump", "exact-lump"))
    p.add_argument("--partition", help="partition file (default: one block)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("odes", help="print the (optionally lumped) ODEs")
    p.add_argument("input")
    p.add_argument("--partition")
    p.add_argument("--mode", choices=("fb", "bb"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_odes)

    p = sub.add_parser("simulate", help="integrate and export a CSV trajectory")
    p.add_argument("input")
    p.add_argument("--t-end", type=float, default=DEFAULT_T_END)
    p.add_argument("--init")
    p.add_argument("--points", type=int, default=DEFAULT_POINTS)
    p.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
    p.add_argument("--atol", type=float, default=DEFAULT_ATOL)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="reduce, integrate both, report max error")
    p.add_argument("input")
    p.add_argument("--mode", choices=("fb", "bb"), required=True)
    p.add_argument("--t-end", type=float, default=DEFAULT_T_END)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
    p.add_argument("--atol", type=float, default=DEFAULT_ATOL)
    p.add_argument("--init")
    p.add_argument("--partition")
    p.add_argument("--from-inits", action="store_true")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("gen", help="write a generated model in native format")
    p.add_argument("model", choices=("multisite", "two-state", "random"))
    p.add_argument("--sites", type=int, default=2, help="multisite: number of sites")
    p.add_argument("--rates", default="1,2", help="two-state: a1,a2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--species", type=int, default=5)
    p.add_argument("--reactions", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="size/time table over the multisite family")
    p.add_argument("--sites", default="1,2,3")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)

    return parser


def _numeric_argument_error(args) -> str | None:
    """Why a numeric option of ``simulate`` or ``compare`` is unusable,
    or None when all are; NaN and infinity would let the solver run
    without bound."""
    for name in ("t_end", "tol", "rtol", "atol"):
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value > 0):
            return f"--{name.replace('_', '-')} must be finite and positive, got {value!r}"
    points = getattr(args, "points", None)
    if points is not None and points < 1:
        return f"--points must be at least 1, got {points}"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problem = _numeric_argument_error(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (OSError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except IntegrationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except CRNError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()
        else:
            gc.disable()


if __name__ == "__main__":
    sys.exit(main())
