"""Independent reference implementations that the tests hold the library to.

Nothing here shares code with the signature tables of
:mod:`crnlump.bisim`:

* structural rate functions that scan the reaction list per call --
  ``reaction_rate(X, partner)`` (total rate at which X is consumed
  together with the partner multiset, scaled by the multiplicity
  convention for self-partners), ``production_rate(X, partner, Y)`` and
  its block sum ``production_rate_to_block``, ``flux_rate(X, reactants)``
  and its sum over a set of reactant multisets ``cumulative_flux_rate``;
* the pairwise predicates ``forward_equivalent`` /
  ``backward_equivalent``, which quantify over those functions exactly
  as the definitions do;
* ``brute_force_coarsest``, which enumerates every partition refining
  an initial one and returns the coarsest one on which the pairwise
  predicates hold within every block;
* ``full_pass_refinement``, the plain partition-refinement loop: every
  pass recomputes, from the reaction list, the signature of every species
  in a block of two or more and buckets each block by it, until a pass
  splits nothing.  It yields every partition of the sequence.

The rate functions return exact :class:`~fractions.Fraction` values.
The refinement loop compares exact integers instead: each rate times the
least common multiple of the rate denominators, so that a 2000-species
chain (2000 passes) stays quick enough to test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Iterable

from crnlump import CRN, BisimMode, CRNError, Multiset, Partition, Species

_ZERO = Fraction(0)


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
    for rxn in crn.reactions:
        if rxn.reactants == target:
            total += rxn.rate
    return (partner.get(x) + 1) * total


def production_rate(crn: CRN, x: Species, partner: Multiset, y: Species) -> Fraction:
    """Production of ``y`` by the reactions behind ``reaction_rate(x, partner)``."""
    _check_partner(partner)
    target = Multiset.of(x) + partner
    total = _ZERO
    for rxn in crn.reactions:
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
    for rxn in crn.reactions:
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


def candidate_partners(crn: CRN, x: Species) -> set[Multiset]:
    """Partner multisets rho with some reaction ``x + rho -> ...``.

    Outside this set (and the empty partner) both ``reaction_rate`` and
    ``production_rate`` vanish, so equivalence checks need not quantify
    over all multisets.
    """
    partners: set[Multiset] = set()
    for rxn in crn.reactions:
        mult = rxn.reactants.get(x)
        if mult == 0:
            continue
        remainder = Multiset(
            (sp, m - 1 if sp == x else m) for sp, m in rxn.reactants
        )
        partners.add(remainder)
    return partners


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
    for rxn in crn.reactions:
        rho = rxn.reactants
        if rho in seen:
            continue
        seen.add(rho)
        groups.setdefault(rho.lift(representative), []).append(rho)
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
    rates = {Fraction(rxn.rate) for rxn in crn.reactions}
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
    for rxn in crn.reactions:
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
    for rxn in crn.reactions:
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
