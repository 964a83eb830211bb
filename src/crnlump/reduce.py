"""Quotient network construction from a bisimulation partition.

Both constructions map the sides they keep straight into the quotient
species (one per block, read from the partition's block index) and fuse
duplicates by summing rates.  Forward reduction keeps only reactions
whose reactants are all block representatives; the reduced network's
ODEs govern the block sums of the original.  Backward reduction first
pins every non-representative product multiplicity to its reactant
multiplicity; the reduced network's ODEs govern the representative
trajectories.

Both constructions count their elementary steps (species slots touched
per reaction plus fusion-sort work); the count backs the complexity
tests and is returned as :attr:`ReducedCRN.step_count`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log2

from .bisim import BisimMode, is_bisimulation
from .core import (
    CRN,
    Multiset,
    NotBisimulationError,
    Partition,
    Reaction,
    Species,
    quotient_species,
)

__all__ = ["ReducedCRN", "forward_reduce", "backward_reduce"]


@dataclass(frozen=True)
class ReducedCRN:
    """A quotient network plus the data that produced it.

    ``crn`` is the reduced network over fresh species, one per block of
    ``partition`` and in block order; ``partition.representative`` sends
    each original species to its block representative.
    """

    crn: CRN
    partition: Partition
    mode: BisimMode
    step_count: int

    def reduced_species_of(self, sp: Species) -> Species:
        """The reduced-network species standing for an original species."""
        return self.crn.species[self.partition.block_of(sp)]


def _quotient(
    p: Partition,
    mode: BisimMode,
    kept: list[tuple[Multiset, Multiset, Fraction]],
    steps: int,
) -> ReducedCRN:
    """Map each kept (reactants, products, rate) into the quotient species,
    fuse identical pairs by summing rates, and sort the reactions."""
    qspecies = quotient_species(p)
    to_quotient = {sp: qspecies[idx] for sp, idx in zip(p.species, p.block_index)}
    fused: dict[tuple[Multiset, Multiset], Fraction] = {}
    for reactants, products, rate in kept:
        steps += len(reactants) + len(products)
        key = (reactants.lift(to_quotient), products.lift(to_quotient))
        fused[key] = fused.get(key, 0) + rate
    entries = [
        ((reactants.name_key(), products.name_key()), reactants, products, rate)
        for (reactants, products), rate in fused.items()
    ]
    if entries:
        steps += len(entries) * (ceil(log2(len(entries))) + 1)
    entries.sort(key=lambda e: e[0])
    reduced = CRN(qspecies, [Reaction(r, a, p_) for _, r, p_, a in entries])
    return ReducedCRN(crn=reduced, partition=p, mode=mode, step_count=steps)


def forward_reduce(crn: CRN, p: Partition) -> ReducedCRN:
    """Quotient network whose ODEs are the block-sum ODEs of ``crn``.

    Raises :class:`NotBisimulationError` unless ``p`` is a forward
    bisimulation.
    """
    if not is_bisimulation(crn, p, BisimMode.FORWARD):
        raise NotBisimulationError("partition is not a forward bisimulation")
    blocks, index = p.blocks, p.block_index
    steps = 0
    kept = []
    for rxn in crn.reactions:
        steps += len(rxn.reactants) + len(rxn.products)
        # A reactant that is not its block's representative drops the reaction.
        if all(blocks[index[sp.id]][0].id == sp.id for sp, _ in rxn.reactants):
            kept.append((rxn.reactants, rxn.products, rxn.rate))
    return _quotient(p, BisimMode.FORWARD, kept, steps)


def backward_reduce(crn: CRN, p: Partition) -> ReducedCRN:
    """Quotient network whose ODEs are the representative ODEs of ``crn``.

    Raises :class:`NotBisimulationError` unless ``p`` is a backward
    bisimulation.
    """
    if not is_bisimulation(crn, p, BisimMode.BACKWARD):
        raise NotBisimulationError("partition is not a backward bisimulation")
    blocks, index = p.blocks, p.block_index
    steps = 0
    kept = []
    for rxn in crn.reactions:
        support = {sp for sp, _ in rxn.products} | {sp for sp, _ in rxn.reactants}
        steps += len(rxn.reactants) + len(rxn.products) + len(support)
        # Non-representative products are pinned to their reactant
        # multiplicity, so their net contribution vanishes in the quotient.
        pairs = []
        for sp in support:
            mult = (
                rxn.products.get(sp)
                if blocks[index[sp.id]][0].id == sp.id
                else rxn.reactants.get(sp)
            )
            if mult:
                pairs.append((sp, mult))
        kept.append((rxn.reactants, Multiset(pairs), rxn.rate))
    return _quotient(p, BisimMode.BACKWARD, kept, steps)
