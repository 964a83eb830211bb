"""Quotient network construction from a bisimulation partition.

Forward reduction keeps only reactions whose reactants are made of block
representatives, renames products to representatives, and fuses
duplicates by summing rates; the reduced network's ODEs govern the block
sums of the original.  Backward reduction first freezes every
non-representative product multiplicity to its reactant multiplicity,
renames both sides, and fuses; the reduced network's ODEs govern the
representative trajectories.

Both constructions count their elementary steps (species slots touched
per reaction plus fusion-sort work); the count backs the complexity
tests and is returned as :attr:`ReducedCRN.step_count`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log2
from typing import Iterable

from .bisim import BisimMode, is_bisimulation
from .core import (
    CRN,
    ChoiceFunction,
    Multiset,
    NotBisimulationError,
    Partition,
    Reaction,
    Species,
    choice_function,
    quotient_species,
)

__all__ = ["ReducedCRN", "forward_reduce", "backward_reduce"]


@dataclass(frozen=True)
class ReducedCRN:
    """A quotient network plus the data that produced it.

    ``crn`` is the reduced network over fresh representative species;
    ``species_map`` sends each original species to its block
    representative in the original network.
    """

    crn: CRN
    partition: Partition
    mode: BisimMode
    species_map: ChoiceFunction
    step_count: int

    def reduced_species_of(self, sp: Species) -> Species:
        """The reduced-network species standing for an original species."""
        rep = self.species_map(sp)
        return self.crn.by_name(rep.name)


def _fuse_and_sort(
    pending: Iterable[tuple[Multiset, Multiset, Fraction]],
) -> tuple[list, int]:
    """Fuse identical (reactants, products) pairs, rate-summing; sort output."""
    steps = 0
    fused: dict[tuple[Multiset, Multiset], Fraction] = {}
    for reactants, products, rate in pending:
        key = (reactants, products)
        steps += len(reactants) + len(products)
        fused[key] = fused.get(key, 0) + rate
    entries = [
        ((reactants.name_key(), products.name_key()), reactants, products, rate)
        for (reactants, products), rate in fused.items()
    ]
    if entries:
        steps += len(entries) * (ceil(log2(len(entries))) + 1)
    entries.sort(key=lambda e: e[0])
    return [(r, p, a) for _, r, p, a in entries], steps


def _requote(ms: Multiset, to_quotient: dict[str, Species]) -> Multiset:
    return Multiset((to_quotient[sp.name], m) for sp, m in ms)


def _finish(
    crn: CRN,
    p: Partition,
    mode: BisimMode,
    mu: ChoiceFunction,
    pending: list[tuple[Multiset, Multiset, Fraction]],
    steps: int,
) -> ReducedCRN:
    qspecies = quotient_species(p)
    to_quotient = {sp.name: sp for sp in qspecies}
    requoted = []
    for reactants, products, rate in pending:
        steps += len(reactants) + len(products)
        requoted.append(
            (_requote(reactants, to_quotient), _requote(products, to_quotient), rate)
        )
    fused, fuse_steps = _fuse_and_sort(requoted)
    steps += fuse_steps
    reduced = CRN(qspecies, [Reaction(r, a, p_) for r, p_, a in fused])
    return ReducedCRN(
        crn=reduced, partition=p, mode=mode, species_map=mu, step_count=steps
    )


def forward_reduce(crn: CRN, p: Partition) -> ReducedCRN:
    """Quotient network whose ODEs are the block-sum ODEs of ``crn``.

    Raises :class:`NotBisimulationError` unless ``p`` is a forward
    bisimulation.
    """
    if not is_bisimulation(crn, p, BisimMode.FORWARD):
        raise NotBisimulationError("partition is not a forward bisimulation")
    mu = choice_function(p)
    steps = 0
    pending = []
    for rxn in crn.reactions:
        steps += len(rxn.reactants) + len(rxn.products)
        if mu.lift(rxn.reactants) != rxn.reactants:
            continue  # reactants contain a non-representative: dropped
        pending.append((rxn.reactants, mu.lift(rxn.products), rxn.rate))
    return _finish(crn, p, BisimMode.FORWARD, mu, pending, steps)


def backward_reduce(crn: CRN, p: Partition) -> ReducedCRN:
    """Quotient network whose ODEs are the representative ODEs of ``crn``.

    Raises :class:`NotBisimulationError` unless ``p`` is a backward
    bisimulation.
    """
    if not is_bisimulation(crn, p, BisimMode.BACKWARD):
        raise NotBisimulationError("partition is not a backward bisimulation")
    mu = choice_function(p)
    steps = 0
    pending = []
    for rxn in crn.reactions:
        support = {sp for sp, _ in rxn.products} | {sp for sp, _ in rxn.reactants}
        steps += len(rxn.reactants) + len(rxn.products) + len(support)
        # Non-representative products are pinned to their reactant
        # multiplicity, so their net contribution vanishes before renaming.
        pairs = []
        for sp in support:
            mult = (
                rxn.products.get(sp)
                if mu.is_representative(sp)
                else rxn.reactants.get(sp)
            )
            if mult:
                pairs.append((sp, mult))
        pinned = Multiset(pairs)
        pending.append((mu.lift(rxn.reactants), mu.lift(pinned), rxn.rate))
    return _finish(crn, p, BisimMode.BACKWARD, mu, pending, steps)
