"""Independent reference implementations that the tests hold the library to.

Nothing here shares code with the signature tables of
:mod:`crnlump.bisim`:

* structural rate functions that scan the reaction list per call --
  ``reaction_rate(X, partner)`` (total rate at which X is consumed
  together with the partner multiset, scaled by the multiplicity
  convention for self-partners), ``production_rate(X, partner, Y)`` and
  its block sum ``production_rate_to_block``, ``flux_rate(X, reactants)``
  and its sum over a set of reactant multisets ``cumulative_flux_rate``;
* ``Multiset`` and ``Reaction``, reactions as objects, and
  ``reactions_of``, a network's reactions as those objects: read from its
  integer reaction list with the multiset's own canonical form, or, for a
  ``ReferenceCRN``, the objects it was built from;
* ``accretion_depletion``, the positive and negative parts one reaction
  contributes to one species' vector-field component, read from the
  ``Reaction`` object;
* the pairwise predicates ``forward_equivalent`` /
  ``backward_equivalent``, which quantify over those functions exactly
  as the definitions do;
* ``brute_force_coarsest``, which enumerates every partition refining
  an initial one and returns the coarsest one on which the pairwise
  predicates hold within every block;
* ``full_pass_refinement``, the plain partition-refinement loop: every
  pass recomputes, from the reaction list, the signature of every species
  in a block of two or more and buckets each block by it, until a pass
  splits nothing.  It yields every partition of the sequence;
* ``reference_parse_crn``, the native-format parser as it was while it
  built every side and reaction as an object and split every line and
  every side with the bracket-counting scans of :mod:`crnlump.io`;
* ``reference_multisite``, ``reference_random_crn`` and
  ``reference_import_bngl_net``, the generators and the ``.net`` importer
  as they were while they built every side and reaction as an object,
  and ``reference_serialize_crn``, the printer as it was while it read
  those objects;
* ``reference_backward_quotient``, the backward quotient built as it was
  before equal sides were classed once: every row pins its
  non-representative products to their reactant multiplicity, lifts both
  sides into the blocks and adds its rate to the row's fused sum;
* ``reference_flux_table``, the flux table summed reaction by reaction
  from the ``Reaction`` objects; ``reference_merged_components``, every
  component read from it and merged into the block representatives, as
  :mod:`crnlump.odes` built them before it read the backward signatures;
  and ``reference_exact_witness``, exact lumpability decided from those,
  compared within blocks;
* ``reference_shear_witness``, the ordinary check's witness decided pair
  by pair, as :mod:`crnlump.odes` decided it before it built one
  derivative signature per species: for each consecutive pair of a block,
  the first block sum whose partial derivatives in the pair's variables
  differ;
* ``reference_right_hand_side``, the integrator's right-hand side built
  with scipy's public sparse API, a ``csr_matrix`` times the vector of
  monomials, and ``reference_forward_report`` /
  ``reference_backward_report``, the figures of a verification report
  reduced species by species, as :mod:`crnlump.sim` computed them while it
  held a sparse-matrix object and looped over the species of each block.

The rate functions return exact :class:`~fractions.Fraction` values.
The refinement loop compares exact integers instead: each rate times the
least common multiple of the rate denominators, so that a 2000-species
chain (2000 passes) stays quick enough to test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from typing import Iterable, Iterator

import numpy as np
from scipy.sparse import csr_matrix

from crnlump import (
    CRN,
    BisimMode,
    CRNError,
    InitialCondition,
    MultisiteSpec,
    ParseError,
    Partition,
    PartitionError,
    Polynomial,
    Species,
)
from crnlump.core import flux_table, quotient_species, scaled_reactions
from crnlump.io import (
    _COEFF_RE,
    _SPACE_RE,
    _find_top,
    _net_blocks,
    _net_indices,
    _net_rate,
    _rfind_top,
    _strip_comment,
    format_rational,
    parse_rational,
)
from crnlump.sim import _check_initial_condition

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Reactions as objects


class Multiset:
    """Immutable multiset of species with positive multiplicities.

    Entries iterate deterministically in species-id order.  ``a + b`` is
    multiset union (multiplicities add).
    """

    __slots__ = ("_pairs", "_hash")

    def __init__(self, pairs: Iterable[tuple[Species, int]] = ()):
        acc: dict[Species, int] = {}
        for sp, mult in pairs:
            if mult < 0:
                raise ValueError(f"negative multiplicity for {sp.name}")
            if mult == 0:
                continue
            acc[sp] = acc.get(sp, 0) + mult
        self._pairs = tuple(sorted(acc.items(), key=lambda it: it[0].id))
        self._hash = hash(self._pairs)

    @classmethod
    def of(cls, *species: Species) -> "Multiset":
        return cls((sp, 1) for sp in species)

    def get(self, sp: Species) -> int:
        for s, m in self._pairs:
            if s == sp:
                return m
        return 0

    @property
    def total(self) -> int:
        """Total multiplicity (number of molecules)."""
        return sum(m for _, m in self._pairs)

    def ids(self) -> tuple[tuple[int, int], ...]:
        """The ``(species id, multiplicity)`` pairs, a side of a row of
        ``CRN(species, rows)``."""
        return tuple((sp.id, m) for sp, m in self._pairs)

    def __iter__(self) -> Iterator[tuple[Species, int]]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __bool__(self) -> bool:
        return bool(self._pairs)

    def __add__(self, other: "Multiset") -> "Multiset":
        return Multiset(self._pairs + other._pairs)

    def name_key(self) -> tuple[tuple[str, int], ...]:
        """Deterministic key under the species name order (for output sort)."""
        return tuple(sorted(((sp.name, m) for sp, m in self._pairs)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Multiset) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return _format_side((sp.name, m) for sp, m in self._pairs)


@dataclass(frozen=True)
class Reaction:
    """A rated reaction between multisets: reactants -> products."""

    reactants: Multiset
    rate: Fraction
    products: Multiset

    def __repr__(self) -> str:
        return f"{self.reactants!r} ->({self.rate}) {self.products!r}"


class ReferenceCRN(CRN):
    """The network ``CRN(species, rows)`` builds from the rows of
    ``reactions``; :func:`reactions_of` returns ``reactions`` themselves
    for it."""

    __slots__ = ("reactions",)

    def __init__(self, species: Iterable[Species], reactions: Iterable[Reaction]):
        self.reactions = tuple(reactions)
        super().__init__(
            species, [(r.reactants.ids(), r.rate, r.products.ids()) for r in self.reactions]
        )


# Views by network identity.  An entry keeps its network alive, so no
# other network can take its id while the entry is there.
_VIEWS: dict[int, tuple[CRN, tuple[Reaction, ...]]] = {}


def reactions_of(crn: CRN) -> tuple[Reaction, ...]:
    """The reactions of ``crn`` as objects, in list order.

    A :class:`ReferenceCRN` gives the objects it was built from.  Any
    other network's are read from :func:`~crnlump.core.scaled_reactions`:
    each side through :class:`Multiset`, whose canonical form does not
    depend on the keying of ``crnlump.core``, each rate as its scaled
    value divided by L.
    """
    if isinstance(crn, ReferenceCRN):
        return crn.reactions
    entry = _VIEWS.get(id(crn))
    if entry is None:
        scale, rows = scaled_reactions(crn)
        species = crn.species

        def side(pairs):
            return Multiset((species[sid], m) for sid, m in pairs)

        view = tuple(
            Reaction(side(lhs), Fraction(value, scale), side(rhs)) for lhs, rhs, value in rows
        )
        if len(_VIEWS) >= 256:
            _VIEWS.clear()
        entry = _VIEWS[id(crn)] = (crn, view)
    return entry[1]


def _check_partner(partner: Multiset) -> None:
    # Partners beyond one molecule would pair with X into a non-elementary
    # reactant multiset, which the data model excludes.
    if partner.total > 1:
        raise ValueError("partner multiset may contain at most one molecule")


def reaction_rate(crn: CRN, x: Species, partner: Multiset) -> Fraction:
    """Rate sum over reactions whose reactants are exactly ``x + partner``.

    Scaled by ``partner(x) + 1``, so a self-partner counts the pair twice.
    Returns 0 when no reaction matches.
    """
    _check_partner(partner)
    target = Multiset.of(x) + partner
    total = _ZERO
    for rxn in reactions_of(crn):
        if rxn.reactants == target:
            total += rxn.rate
    return (partner.get(x) + 1) * total


def production_rate(crn: CRN, x: Species, partner: Multiset, y: Species) -> Fraction:
    """Production of ``y`` by the reactions behind ``reaction_rate(x, partner)``."""
    _check_partner(partner)
    target = Multiset.of(x) + partner
    total = _ZERO
    for rxn in reactions_of(crn):
        if rxn.reactants == target:
            total += rxn.rate * rxn.products.get(y)
    return (partner.get(x) + 1) * total


def production_rate_to_block(
    crn: CRN, x: Species, partner: Multiset, block: Iterable[Species]
) -> Fraction:
    """Sum of ``production_rate(x, partner, y)`` over the species in ``block``."""
    total = _ZERO
    for y in block:
        total += production_rate(crn, x, partner, y)
    return total


def flux_rate(crn: CRN, x: Species, reactants: Multiset) -> Fraction:
    """Signed net rate of change of ``x`` from reactions with the given reactants."""
    total = _ZERO
    for rxn in reactions_of(crn):
        if rxn.reactants == reactants:
            total += (rxn.products.get(x) - rxn.reactants.get(x)) * rxn.rate
    return total


def cumulative_flux_rate(
    crn: CRN, x: Species, reactant_sets: Iterable[Multiset]
) -> Fraction:
    """Sum of ``flux_rate(x, rho)`` over a set of reactant multisets."""
    total = _ZERO
    for rho in set(reactant_sets):
        total += flux_rate(crn, x, rho)
    return total


def accretion_depletion(rxn: Reaction, x: Species) -> tuple[Polynomial, Polynomial]:
    """The positive and negative parts a reaction contributes to one species.

    Returns ``(accretion, depletion)``; the species' component of the
    vector field is the sum of accretion minus depletion over all
    reactions.
    """
    mono = tuple(sorted((sp.id, m) for sp, m in rxn.reactants))
    accr = Polynomial({mono: rxn.products.get(x) * rxn.rate})
    depl = Polynomial({mono: rxn.reactants.get(x) * rxn.rate})
    return accr, depl


def candidate_partners(crn: CRN, x: Species) -> set[Multiset]:
    """Partner multisets rho with some reaction ``x + rho -> ...``.

    Outside this set (and the empty partner) both ``reaction_rate`` and
    ``production_rate`` vanish, so equivalence checks need not quantify
    over all multisets.
    """
    partners: set[Multiset] = set()
    for rxn in reactions_of(crn):
        mult = rxn.reactants.get(x)
        if mult == 0:
            continue
        remainder = Multiset(
            (sp, m - 1 if sp == x else m) for sp, m in rxn.reactants
        )
        partners.add(remainder)
    return partners


def _lift(m: Multiset, mapping: dict[Species, Species]) -> Multiset:
    """Apply a species map element-wise; multiplicities accumulate."""
    try:
        return Multiset((mapping[sp], k) for sp, k in m)
    except KeyError as err:
        raise PartitionError(f"unknown species {err.args[0]}") from None


@dataclass(frozen=True)
class ReactantClass:
    """Reactant multisets of a network sharing the same representative lift."""

    members: tuple[Multiset, ...]
    canonical: Multiset

    def __contains__(self, m: Multiset) -> bool:
        return m in self.members


def reactant_classes(crn: CRN, p: Partition) -> list[ReactantClass]:
    """Group the distinct reactant multisets of the network by their lift.

    Two reactant multisets land in the same class exactly when applying
    the partition's choice function element-wise gives the same multiset.
    Classes are ordered by their canonical lift.  The choice function is
    built here from the blocks, independently of the code under test.
    """
    representative = {sp: block[0] for block in p.blocks for sp in block}
    groups: dict[Multiset, list[Multiset]] = {}
    seen: set[Multiset] = set()
    for rxn in reactions_of(crn):
        rho = rxn.reactants
        if rho in seen:
            continue
        seen.add(rho)
        groups.setdefault(_lift(rho, representative), []).append(rho)
    classes = []
    for canonical in sorted(groups, key=lambda m: m.name_key()):
        members = tuple(sorted(groups[canonical], key=lambda m: m.name_key()))
        classes.append(ReactantClass(members=members, canonical=canonical))
    return classes


# ---------------------------------------------------------------------------
# Pairwise predicates


def forward_equivalent(crn: CRN, p: Partition, x: Species, y: Species) -> bool:
    """Pairwise forward check under the blocks of ``p``.

    True iff for every candidate partner (plus the empty one) the
    reaction rates of x and y agree and their production rates into
    every block of ``p`` agree.
    """
    partners = candidate_partners(crn, x) | candidate_partners(crn, y)
    partners.add(Multiset())
    for rho in partners:
        if reaction_rate(crn, x, rho) != reaction_rate(crn, y, rho):
            return False
        for block in p.blocks:
            if production_rate_to_block(crn, x, rho, block) != production_rate_to_block(
                crn, y, rho, block
            ):
                return False
    return True


def backward_equivalent(crn: CRN, p: Partition, x: Species, y: Species) -> bool:
    """Pairwise backward check: cumulative fluxes agree on every reactant class."""
    for cls in reactant_classes(crn, p):
        if cumulative_flux_rate(crn, x, cls.members) != cumulative_flux_rate(
            crn, y, cls.members
        ):
            return False
    return True


def mode_equivalent(
    crn: CRN, p: Partition, x: Species, y: Species, mode: BisimMode
) -> bool:
    if mode is BisimMode.FORWARD:
        return forward_equivalent(crn, p, x, y)
    return backward_equivalent(crn, p, x, y)


def first_inequivalent_pair(
    crn: CRN, p: Partition, mode: BisimMode
) -> tuple[Species, Species] | None:
    """First ``(block[0], member)`` pair the pairwise predicate rejects;
    None when ``p`` is a bisimulation of the given mode."""
    for block in p.blocks:
        for sp in block[1:]:
            if not mode_equivalent(crn, p, block[0], sp, mode):
                return block[0], sp
    return None


# ---------------------------------------------------------------------------
# Brute-force coarsest partition


def _set_partitions(items: tuple):
    """All partitions of a tuple, as lists of lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def partitions_refining(initial: Partition):
    """Every partition refining ``initial`` (partition the blocks independently)."""
    per_block = [list(_set_partitions(block)) for block in initial.blocks]
    for combo in product(*per_block):
        blocks = [members for sub in combo for members in sub]
        yield Partition(initial.species, blocks)


def brute_force_coarsest(crn: CRN, initial: Partition, mode: BisimMode) -> Partition:
    """Coarsest mode-bisimulation refining ``initial``, by exhaustion.

    Enumerates every refinement, keeps those on which the pairwise
    predicate holds within every block, and returns the unique coarsest
    one (all other candidates refine it).  Guarded to at most 8 species.
    """
    if crn.n_species > 8:
        raise CRNError(
            f"brute force oracle limited to 8 species, got {crn.n_species}"
        )
    candidates = [
        p
        for p in partitions_refining(initial)
        if first_inequivalent_pair(crn, p, mode) is None
    ]
    # The discrete partition is always a bisimulation, so candidates is
    # nonempty; closure under union makes the minimum-block one coarsest.
    best = min(candidates, key=lambda p: p.n_blocks)
    for p in candidates:
        if not p.refines(best):
            raise AssertionError("no unique coarsest bisimulation; closure violated")
    return best


# ---------------------------------------------------------------------------
# Full-recompute refinement loop


def _scaled(crn: CRN) -> dict[Fraction, int]:
    """Every rate times the least common multiple of the rate denominators:
    exact integers that compare as the rates do."""
    rates = {Fraction(rxn.rate) for rxn in reactions_of(crn)}
    scale = lcm(*(rate.denominator for rate in rates))
    return {rate: int(rate * scale) for rate in rates}


def _forward_uses(crn: CRN) -> tuple[list[frozenset], list[list[tuple]]]:
    """Per species x: its reaction rates, as a set of ``(partner, rate)``,
    and ``(partner, product id, production)`` for each product of each
    reaction whose reactants are ``x + partner``.  Weighted as
    ``reaction_rate`` and ``production_rate`` are and scaled to integers;
    a partner is the tuple of its species ids."""
    scaled = _scaled(crn)
    rates: list[list] = [[] for _ in crn.species]
    productions: list[list] = [[] for _ in crn.species]
    for rxn in reactions_of(crn):
        for x, _ in rxn.reactants:
            partner = Multiset(
                (sp, m - 1 if sp == x else m) for sp, m in rxn.reactants
            )
            _check_partner(partner)
            rate = (partner.get(x) + 1) * scaled[rxn.rate]
            key = tuple(sp.id for sp, _ in partner)
            rates[x.id].append((key, rate))
            productions[x.id].extend((key, y.id, rate * m) for y, m in rxn.products)
    return [_sum_nonzero(r) for r in rates], productions


def _backward_uses(crn: CRN) -> list[list[tuple[tuple[int, ...], int]]]:
    """Per species x, ``(reactant ids, flux of x)`` for each reaction
    changing x, with a reactant of multiplicity 2 listed twice (scaled to
    integers)."""
    scaled = _scaled(crn)
    uses: list[list] = [[] for _ in crn.species]
    for rxn in reactions_of(crn):
        rho = tuple(sp.id for sp, m in rxn.reactants for _ in range(m))
        for x in {sp for sp, _ in rxn.reactants} | {sp for sp, _ in rxn.products}:
            flux = (rxn.products.get(x) - rxn.reactants.get(x)) * scaled[rxn.rate]
            if flux:
                uses[x.id].append((rho, flux))
    return uses


def _sum_nonzero(pairs) -> frozenset:
    totals: dict = {}
    for key, value in pairs:
        totals[key] = totals.get(key, 0) + value
    return frozenset((k, v) for k, v in totals.items() if v)


def full_pass_refinement(crn: CRN, initial: Partition, mode: BisimMode):
    """Yield the blocks of every partition of the plain refinement loop,
    from ``initial`` to the coarsest ``mode`` bisimulation refining it.

    Forward, a species' signature is its reaction rate per partner and
    its production rate per (partner, block); backward, its cumulative
    flux per reactant class (reactant multisets with equal block lifts).
    Each pass buckets every block of two or more species by signature
    under the current partition; the loop ends at the first pass that
    splits nothing.  Successive yields share the lists of the blocks that
    did not split, so callers must not change them.
    """
    if mode is BisimMode.FORWARD:
        rates, productions = _forward_uses(crn)

        def signature(x: int, block_of) -> tuple:
            totals: dict = {}
            for partner, y, value in productions[x]:
                key = partner, block_of[y]
                totals[key] = totals.get(key, 0) + value
            return rates[x], frozenset(kv for kv in totals.items() if kv[1])
    else:
        uses = _backward_uses(crn)

        def signature(x: int, block_of) -> frozenset:
            totals: dict = {}
            for rho, flux in uses[x]:
                lift = tuple(sorted([block_of[y] for y in rho]))
                totals[lift] = totals.get(lift, 0) + flux
            return frozenset(kv for kv in totals.items() if kv[1])

    blocks = [list(block) for block in initial.blocks]
    block_of = list(initial.block_index)
    yield blocks
    while True:
        split: list[list[Species]] = []
        for block in blocks:
            if len(block) == 1:
                split.append(block)
                continue
            buckets: dict = {}
            for sp in block:
                buckets.setdefault(signature(sp.id, block_of), []).append(sp)
            split.extend(buckets.values())
        if len(split) == len(blocks):
            return
        blocks = split
        for idx, block in enumerate(blocks):
            for sp in block:
                block_of[sp.id] = idx
        yield blocks


# ---------------------------------------------------------------------------
# Reference parser


def _split_top(text: str, sep: str) -> list[str]:
    """Split on a single-character separator at bracket depth zero."""
    parts: list[str] = []
    start = 0
    cut = _find_top(text, sep)
    while cut >= 0:
        parts.append(text[start:cut])
        start = cut + 1
        cut = _find_top(text, sep, start)
    parts.append(text[start:])
    return parts


def _parse_side(text: str, line: int) -> list[tuple[str, int]]:
    """A stripped reaction side as (name, multiplicity) pairs; '0' is the
    empty side."""
    if text == "0":
        return []
    if not text:
        raise ParseError("empty reaction side", line)
    pairs = []
    for raw in _split_top(text, "+"):
        term = raw.strip()
        if not term:
            raise ParseError("empty term in reaction side", line)
        match = _COEFF_RE.match(term)
        if match and not match.group(2)[0].isdigit():
            mult, name = int(match.group(1)), match.group(2).strip()
        else:
            mult, name = 1, term
        if _SPACE_RE.search(name):
            raise ParseError(f"species name contains whitespace: {name!r}", line)
        if name[0].isdigit():
            raise ParseError(f"species name may not start with a digit: {name!r}", line)
        pairs.append((name, mult))
    return pairs


def reference_parse_crn(text: str) -> tuple[CRN, InitialCondition | None]:
    """The native-format parser as it was before it built the integer
    reaction list directly: every line is split by the bracket-counting
    scans, and every side and reaction is an object from the start.

    Raises :class:`ParseError` with a line number on syntax errors and on
    semantic ones (rate not positive, species missing from an explicit
    ``species:`` header, a second ``init:`` line for one species).  A
    reactant side may be empty or hold any number of molecules.
    """
    header: list[str] | None = None
    reaction_rows: list[tuple[int, Fraction, int]] = []
    init_rows: dict[str, tuple[int, Fraction]] = {}
    order: list[str] = []
    seen: set[str] = set()
    # Distinct side texts in order of first appearance: each text maps to
    # its index in ``sides``, which holds (pairs, first line).  Distinct number texts map to their values.
    side_index: dict[str, int] = {}
    sides: list[tuple[list[tuple[str, int]], int]] = []
    numbers: dict[str, Fraction] = {}

    def note(name: str) -> None:
        if name not in seen:
            seen.add(name)
            order.append(name)

    def side(raw: str, lineno: int) -> int:
        """The index of the stripped side text in ``sides``, parsed and its
        names noted the first time the text appears."""
        text = raw.strip()
        index = side_index.get(text)
        if index is None:
            pairs = _parse_side(text, lineno)
            index = side_index[text] = len(sides)
            sides.append((pairs, lineno))
            for name, _ in pairs:
                note(name)
        return index

    def number(raw: str, lineno: int) -> Fraction:
        value = numbers.get(raw)
        if value is None:
            value = numbers[raw] = parse_rational(raw, lineno)
        return value

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("species:"):
            if header is not None:
                raise ParseError("duplicate species: header", lineno)
            header = line[len("species:"):].split()
            if len(set(header)) != len(header):
                raise ParseError("duplicate name in species: header", lineno)
            continue
        if line.startswith("init:"):
            body = line[len("init:"):]
            if "=" not in body:
                raise ParseError("expected 'init: NAME = VALUE'", lineno)
            name, _, value_text = body.partition("=")
            name = name.strip()
            if not name:
                raise ParseError("missing species name in init line", lineno)
            value = number(value_text, lineno)
            if value < 0:
                raise ParseError("initial concentration must be nonnegative", lineno)
            if name in init_rows:
                raise ParseError(f"second initial value for {name}", lineno)
            init_rows[name] = (lineno, value)
            note(name)
            continue
        arrow = _find_top(line, "->")
        if arrow < 0:
            raise ParseError(f"expected a reaction line, got {line!r}", lineno)
        lhs = side(line[:arrow], lineno)
        rhs_text = line[arrow + 2 :]
        comma = _rfind_top(rhs_text, ",")
        if comma < 0:
            raise ParseError("missing rate (expected 'products , rate')", lineno)
        rate = number(rhs_text[comma + 1 :], lineno)
        rhs = side(rhs_text[:comma], lineno)
        if rate <= 0:
            raise ParseError("rate must be positive", lineno)
        reaction_rows.append((lhs, rate, rhs))

    names = header if header is not None else order
    if header is not None:
        declared = set(header)
        # Sides are in first-appearance order, left before right, so the
        # first one naming an undeclared species is on the first reaction
        # line that does.
        for pairs, lineno in sides:
            for name, _ in pairs:
                if name not in declared:
                    raise ParseError(f"undeclared species {name}", lineno)
        for name, (lineno, _) in init_rows.items():
            if name not in declared:
                raise ParseError(f"undeclared species {name}", lineno)

    species = tuple(Species(i, name) for i, name in enumerate(names))
    by_name = {sp.name: sp for sp in species}
    # Multisets are immutable, so reactions share one per distinct side.
    multisets = [
        Multiset((by_name[n], m) for n, m in pairs) for pairs, _ in sides
    ]
    reactions = [
        Reaction(multisets[lhs], rate, multisets[rhs])
        for lhs, rate, rhs in reaction_rows
    ]
    crn = ReferenceCRN(species, reactions)
    inits = None
    if init_rows:
        inits = InitialCondition.from_map(
            crn, {name: value for name, (_, value) in init_rows.items()}
        )
    return crn, inits


# ---------------------------------------------------------------------------
# Reference backward quotient


def _lift_pairs(pairs, index) -> tuple[tuple[int, int], ...]:
    acc: dict[int, int] = {}
    for sid, mult in pairs:
        acc[index[sid]] = acc.get(index[sid], 0) + mult
    return tuple(sorted(acc.items()))


def reference_backward_quotient(crn: CRN, p: Partition) -> CRN:
    """The backward quotient of ``crn`` under ``p``, one row at a time: the
    products keep their representative pairs and gain the reactant pairs
    outside the representatives, both sides are lifted into the blocks,
    equal lifted rows sum their rates, and L and the sums are divided by
    their gcd.  ``p`` is not checked to be a backward bisimulation."""
    scale, rows = scaled_reactions(crn)
    index = p.block_index
    is_rep = [False] * crn.n_species
    for block in p.blocks:
        is_rep[block[0].id] = True
    fused: dict[tuple, int] = {}
    for reactants, products, rate in rows:
        kept = [pair for pair in products if is_rep[pair[0]]]
        kept += [pair for pair in reactants if not is_rep[pair[0]]]
        key = (_lift_pairs(reactants, index), _lift_pairs(kept, index))
        fused[key] = fused.get(key, 0) + rate
    divisor = gcd(scale, *fused.values())
    quotient = tuple((lhs, rhs, fused[lhs, rhs] // divisor) for lhs, rhs in sorted(fused))
    return CRN._from_scaled(quotient_species(p), scale // divisor, quotient)


# ---------------------------------------------------------------------------
# Reference right-hand side and verification figures


def reference_flux_table(crn: CRN) -> tuple[int, tuple, tuple[dict[int, int], ...]]:
    """``(L, keys, rows)`` as :func:`crnlump.core.flux_table` gives them,
    reaction by reaction from the :class:`Reaction` objects: per distinct
    reactant multiset, in order of first appearance, its ``(species id,
    multiplicity)`` pairs and each species' net change times rate times L,
    summed over the reactions with those reactants and read with
    ``Multiset.get``.  A row lists the species in the order in which those
    reactions name them, each reaction's products before its reactants, and
    drops a zero sum."""
    reactions = reactions_of(crn)
    scale = lcm(*(rxn.rate.denominator for rxn in reactions))
    named: dict[Multiset, list[Species]] = {}
    sums: dict[Multiset, dict[Species, Fraction]] = {}
    for rxn in reactions:
        order = named.setdefault(rxn.reactants, [])
        total = sums.setdefault(rxn.reactants, {})
        for sp in dict.fromkeys(sp for sp, _ in (*rxn.products, *rxn.reactants)):
            if sp not in order:
                order.append(sp)
            change = rxn.products.get(sp) - rxn.reactants.get(sp)
            total[sp] = total.get(sp, 0) + change * rxn.rate * scale
    rows = tuple(
        {sp.id: int(total[sp]) for sp in named[key] if total[sp]}
        for key, total in sums.items()
    )
    return scale, tuple(key.ids() for key in sums), rows


@lru_cache(maxsize=4)
def _kept_flux_table(crn: CRN):
    return reference_flux_table(crn)


def reference_merged_components(crn: CRN, p: Partition) -> tuple[int, dict[int, dict]]:
    """L and, per species id, its vector-field component times L once
    every variable is replaced by its block representative: the components
    of ``reference_flux_table``, transposed, with each monomial merged into
    the representatives by ``_lift_pairs`` and terms that cancel dropped.
    Equal networks share one table, as brute force asks about many
    partitions of one network."""
    scale, monomials, rows = _kept_flux_table(crn)
    representative = {sp.id: block[0].id for block in p.blocks for sp in block}
    merged: dict[int, dict] = {sp.id: {} for sp in crn.species}
    for mono, row in zip(monomials, rows):
        lifted = _lift_pairs(mono, representative)
        for sid, val in row.items():
            merged[sid][lifted] = merged[sid].get(lifted, 0) + val
    return scale, {sid: {m: v for m, v in terms.items() if v} for sid, terms in merged.items()}


def reference_exact_witness(crn: CRN, p: Partition) -> tuple[Species, Species] | None:
    """First ``(block[0], member)`` pair whose merged components
    (``reference_merged_components``) differ; None when ``p`` is exactly
    lumpable."""
    merged = reference_merged_components(crn, p)[1]
    for block in p.blocks:
        for sp in block[1:]:
            if merged[sp.id] != merged[block[0].id]:
                return block[0], sp
    return None


def _partial_derivatives(s: dict, variables: set[int]) -> dict[int, dict]:
    """The nonzero partial derivatives of the term map ``s`` in
    ``variables``, as term maps keyed by variable."""
    derivs: dict[int, dict] = {}
    for mono, coef in s.items():
        for k, (var, exp) in enumerate(mono):
            if var in variables:
                lowered = ((var, exp - 1),) if exp > 1 else ()
                derivs.setdefault(var, {})[mono[:k] + lowered + mono[k + 1 :]] = coef * exp
    return derivs


def reference_shear_witness(
    sums: list[dict], p: Partition
) -> tuple[int, tuple[int, int]] | None:
    """First consecutive pair of a block, then first block, whose sum
    changes under the pair's shear: ``ds/dV_i != ds/dV_j``.  ``sums`` are
    the block sums as integer term maps, ``{monomial: coefficient times
    L}``, as ``crnlump.odes._block_sums`` gives them."""
    pairs = [(a.id, b.id) for block in p.blocks for a, b in zip(block, block[1:])]
    sheared = {var for pair in pairs for var in pair}
    derivs = [_partial_derivatives(s, sheared) for s in sums]
    for i, j in pairs:
        for block_idx, d in enumerate(derivs):
            if d.get(i) != d.get(j):
                return block_idx, (i, j)
    return None


def reference_forward_table(crn: CRN) -> tuple[int, list, list, list]:
    """``(L, crr, crr_id, prod)`` as ``crnlump.bisim._Forward`` keeps them
    (``scale``, ``_crr``, ``static``, ``_prod``), reaction by reaction from
    the :class:`Reaction` objects.  For each species x of a reaction's
    reactants, its partner is the reactants less one x, numbered -1 when
    empty and by its one species id otherwise; the reaction adds
    ``reaction_rate``'s weight, times L, to ``crr[x][partner]``, and that
    weight times each product's multiplicity to ``prod[x]`` under ``(partner
    + 1) * n + product id``.  Zero sums are dropped; ``crr_id`` numbers the
    distinct ``crr`` maps by first appearance in species order."""
    reactions = reactions_of(crn)
    n = crn.n_species
    scale = lcm(*(rxn.rate.denominator for rxn in reactions))
    crr: list[dict[int, Fraction]] = [{} for _ in range(n)]
    prod: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for rxn in reactions:
        for x, _ in rxn.reactants:
            partner = Multiset((sp, m - 1 if sp == x else m) for sp, m in rxn.reactants)
            _check_partner(partner)
            pid = next((sp.id for sp, _ in partner), -1)
            weight = (partner.get(x) + 1) * rxn.rate * scale
            crr[x.id][pid] = crr[x.id].get(pid, 0) + weight
            for y, m in rxn.products:
                key = (pid + 1) * n + y.id
                prod[x.id][key] = prod[x.id].get(key, 0) + weight * m
    crr = [{k: int(v) for k, v in acc.items() if v} for acc in crr]
    prod = [{k: int(v) for k, v in acc.items() if v} for acc in prod]
    numbers: dict[frozenset, int] = {}
    crr_id = [numbers.setdefault(frozenset(acc.items()), len(numbers)) for acc in crr]
    return scale, crr, crr_id, prod


def reference_right_hand_side(*networks: CRN):
    """``y -> f(y)`` for the networks side by side, from the same flux
    tables as :func:`crnlump.sim._compile`: a ``csr_matrix`` built from
    ``(coefficient, (species, monomial))`` triples, the rows' values
    divided by L, times every row's monomial, a product down the columns
    of the reactant ids padded with a slot that holds 1.0."""
    rows, cols, coefs, monomials = [], [], [], []
    n = 0
    for crn in networks:
        scale, keys, flux_rows = flux_table(crn)
        for reactants, row in zip(keys, flux_rows):
            for sid, val in row.items():
                rows.append(n + sid)
                cols.append(len(monomials))
                coefs.append(val / scale)
            monomials.append([n + sid for sid, m in reactants for _ in range(m)])
        n += crn.n_species
    width = max(map(len, monomials), default=0)
    factors = np.full((width, len(monomials)), n, dtype=np.intp)
    for j, slots in enumerate(monomials):
        factors[: len(slots), j] = slots
    matrix = csr_matrix((coefs, (rows, cols)), shape=(n, len(monomials)))

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        padded = np.append(y, 1.0)
        return matrix @ padded[factors].prod(axis=0)

    return rhs


def _scaled_error(diff, reference):
    return np.abs(diff) / np.maximum(1.0, np.abs(reference))


def _negative_dip(original, lumped) -> float:
    return min(original.min_value, lumped.min_value)


def reference_forward_report(original, lumped, p: Partition) -> tuple[float, float]:
    """``(max_error, negative_dip)`` of a forward check: per block, the
    species' columns summed one at a time from zero against the block's
    column of the quotient."""
    max_error = 0.0
    for idx, block in enumerate(p.blocks):
        summed = np.zeros_like(original.times)
        for sp in block:
            summed += original.column(sp)
        err = _scaled_error(lumped.values[:, idx] - summed, summed)
        max_error = max(max_error, float(err.max()))
    return max_error, _negative_dip(original, lumped)


def reference_backward_report(
    original, lumped, p: Partition
) -> tuple[float, float, float, float]:
    """``(max_error, max_spread, max_representative_deviation,
    negative_dip)`` of a backward check: the spread of each block of two
    or more species, and every species' deviation from its block's column
    of the quotient, one species at a time."""
    max_spread = 0.0
    for block in p.blocks:
        if len(block) == 1:
            continue
        cols = np.stack([original.column(sp) for sp in block], axis=1)
        spread = cols.max(axis=1) - cols.min(axis=1)
        err = _scaled_error(spread, cols.max(axis=1))
        max_spread = max(max_spread, float(err.max()))
    max_dev = 0.0
    for idx, block in enumerate(p.blocks):
        rep_col = lumped.values[:, idx]
        for sp in block:
            err = _scaled_error(original.column(sp) - rep_col, rep_col)
            max_dev = max(max_dev, float(err.max()))
    return max(max_spread, max_dev), max_spread, max_dev, _negative_dip(original, lumped)


# ---------------------------------------------------------------------------
# Reference generators, importer and printer


def reference_multisite(spec: MultisiteSpec) -> tuple[CRN, InitialCondition]:
    """The multisite network with one hand-written block of
    :class:`Reaction` objects per site state."""
    n = spec.n_sites
    configs = list(product(("U", "P", "UE", "PF"), repeat=n))
    names = ["E", "F"] + [f"S({','.join(c)})" for c in configs]
    species = tuple(Species(i, name) for i, name in enumerate(names))
    enzyme, phosphatase = species[0], species[1]
    config_species = {c: species[2 + i] for i, c in enumerate(configs)}

    def flipped(config: tuple[str, ...], site: int, state: str) -> Species:
        return config_species[config[:site] + (state,) + config[site + 1 :]]

    reactions = []
    for config in configs:
        substrate = config_species[config]
        for site, state in enumerate(config):
            if state == "U":
                reactions.append(
                    Reaction(
                        Multiset.of(enzyme, substrate),
                        spec.e_bind,
                        Multiset.of(flipped(config, site, "UE")),
                    )
                )
            elif state == "UE":
                reactions.append(
                    Reaction(
                        Multiset.of(substrate),
                        spec.e_unbind,
                        Multiset.of(enzyme, flipped(config, site, "U")),
                    )
                )
                reactions.append(
                    Reaction(
                        Multiset.of(substrate),
                        spec.e_cat,
                        Multiset.of(enzyme, flipped(config, site, "P")),
                    )
                )
            elif state == "P":
                reactions.append(
                    Reaction(
                        Multiset.of(phosphatase, substrate),
                        spec.f_bind,
                        Multiset.of(flipped(config, site, "PF")),
                    )
                )
            else:  # PF
                reactions.append(
                    Reaction(
                        Multiset.of(substrate),
                        spec.f_unbind,
                        Multiset.of(phosphatase, flipped(config, site, "P")),
                    )
                )
                reactions.append(
                    Reaction(
                        Multiset.of(substrate),
                        spec.f_cat,
                        Multiset.of(phosphatase, flipped(config, site, "U")),
                    )
                )
    crn = ReferenceCRN(species, reactions)
    unmodified = config_species[("U",) * n]
    inits = InitialCondition.from_map(
        crn,
        {enzyme: Fraction(1, 2), phosphatase: Fraction(1, 3), unmodified: Fraction(1)},
    )
    return crn, inits


def reference_random_crn(
    seed: int,
    n_species: int,
    n_reactions: int,
    rate_pool: tuple[Fraction | int, ...] = (1, 2, 3, Fraction(1, 2)),
) -> CRN:
    """The seeded random network, drawing species objects and building a
    :class:`Multiset` per side."""
    rng = random.Random(seed)
    if n_species <= 26:
        names = [chr(ord("A") + i) for i in range(n_species)]
    else:
        names = [f"X{i:04d}" for i in range(n_species)]
    species = tuple(Species(i, name) for i, name in enumerate(names))
    reactions = []
    for _ in range(n_reactions):
        if rng.random() < 0.5:
            reactants = Multiset.of(rng.choice(species))
        else:
            reactants = Multiset.of(rng.choice(species), rng.choice(species))
        products = Multiset.of(
            *(rng.choice(species) for _ in range(rng.randint(0, 3)))
        )
        rate = Fraction(rng.choice(rate_pool))
        reactions.append(Reaction(reactants, rate, products))
    return ReferenceCRN(species, reactions)


def reference_import_bngl_net(text: str) -> tuple[CRN, InitialCondition]:
    """The ``.net`` importer, building a :class:`Reaction` per line."""
    blocks = _net_blocks(text)
    if "species" not in blocks or "reactions" not in blocks:
        raise ParseError("missing 'begin species' or 'begin reactions' block")

    params: dict[str, Fraction] = {}
    for lineno, line in blocks.get("parameters", []):
        tokens = line.split()
        if len(tokens) == 3 and tokens[0].isdigit():
            tokens = tokens[1:]
        if len(tokens) != 2:
            raise ParseError(f"bad parameter line {line!r}", lineno)
        name, value_text = tokens
        params[name] = parse_rational(value_text, lineno)

    names: dict[str, None] = {}
    concentrations: list[Fraction] = []
    for position, (lineno, line) in enumerate(blocks["species"]):
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError(f"bad species line {line!r}", lineno)
        idx_text, pattern, value_text = tokens
        try:
            idx = int(idx_text)
        except ValueError:
            raise ParseError(f"bad species index {idx_text!r}", lineno) from None
        if idx != position + 1:
            raise ParseError(f"non-sequential species index {idx}", lineno)
        if pattern in names:
            raise ParseError(f"duplicate species pattern {pattern!r}", lineno)
        if value_text in params:
            value = params[value_text]
        else:
            value = parse_rational(value_text, lineno)
        names[pattern] = None
        concentrations.append(value)

    species = tuple(Species(i, name) for i, name in enumerate(names))
    reactions = []
    for lineno, line in blocks["reactions"]:
        tokens = line.split()
        if len(tokens) < 4:
            raise ParseError(f"bad reaction line {line!r}", lineno)
        _, reactants_field, products_field, rate_expr = tokens[:4]
        rate = _net_rate(rate_expr, params, lineno)
        if rate <= 0:
            raise ParseError("rate must be positive", lineno)
        reactant_ids = _net_indices(reactants_field, len(species), lineno)
        product_ids = _net_indices(products_field, len(species), lineno)
        reactions.append(
            Reaction(
                Multiset.of(*(species[i] for i in reactant_ids)),
                rate,
                Multiset.of(*(species[i] for i in product_ids)),
            )
        )
    crn = ReferenceCRN(species, reactions)
    inits = InitialCondition.from_map(
        crn, {species[i]: concentrations[i] for i in range(len(species))}
    )
    return crn, inits


def _format_side(pairs: Iterable[tuple[str, int]]) -> str:
    ordered = sorted(pairs)
    if not ordered:
        return "0"
    return " + ".join(f"{m}{name}" if m > 1 else name for name, m in ordered)


def _reaction_line(rxn: Reaction) -> str:
    lhs = _format_side((sp.name, m) for sp, m in rxn.reactants)
    rhs = _format_side((sp.name, m) for sp, m in rxn.products)
    return f"{lhs} -> {rhs} , {format_rational(rxn.rate)}"


def reference_serialize_crn(crn: CRN, inits: InitialCondition | None = None) -> str:
    """The canonical text, read from the network's :class:`Reaction`
    objects."""
    if inits is not None:
        _check_initial_condition(crn, inits)
    lines = [("species: " + " ".join(sp.name for sp in crn.species)).rstrip()]
    body = sorted(
        (rxn.reactants.name_key(), rxn.products.name_key(), _reaction_line(rxn))
        for rxn in reactions_of(crn)
    )
    lines.extend(text for _, _, text in body)
    if inits is not None:
        for sp in crn.species:
            value = inits.get(sp)
            if value:
                lines.append(f"init: {sp.name} = {format_rational(value)}")
    return "\n".join(lines) + "\n"
