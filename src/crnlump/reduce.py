"""Quotient network construction from a bisimulation partition.

Both constructions read the network's integer reaction list,
:func:`crnlump.core.scaled_reactions`: each reaction's reactant and
product ``(species id, multiplicity)`` pairs and its rate times L.  Both
first check that the partition is a bisimulation of their mode.  The
check reads the network's rate tables, which a ``refine`` on the same
network object has already built, so it adds only a per-partition pass.

Forward reduction keeps only the reactions whose reactants are all block
representatives; the reduced network's ODEs govern the block sums of the
original.  Backward reduction pins every non-representative product
multiplicity to its reactant multiplicity; the reduced network's ODEs
govern the representative trajectories.  Both then lift each side they
keep to ``(block, multiplicity)`` pairs through the partition's block
index and fuse duplicates by summing their rates as ints.  The fused
rows, sorted, are the quotient's integer reaction list; its
:class:`~crnlump.core.Reaction` objects are built only when read.

Both constructions count their elementary steps (species slots touched
per reaction plus fusion-sort work); the count backs the complexity
tests and is returned as :attr:`ReducedCRN.step_count`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, gcd, log2
from typing import Iterable, Sequence

from .bisim import BisimMode, is_bisimulation
from .core import (
    CRN,
    NotBisimulationError,
    Pairs,
    Partition,
    Species,
    check_partition,
    quotient_species,
    scaled_reactions,
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


def _lift(pairs: Pairs, block_index: tuple[int, ...]) -> Pairs:
    """The side's ``(block, multiplicity)`` pairs, in block order."""
    acc: dict[int, int] = {}
    for sid, mult in pairs:
        block = block_index[sid]
        acc[block] = acc.get(block, 0) + mult
    return tuple(sorted(acc.items()))


def _quotient(
    p: Partition,
    mode: BisimMode,
    scale: int,
    rows: tuple[tuple[Pairs, Pairs, int], ...],
    kept: Iterable[tuple[Pairs, Sequence[tuple[int, int]], int]],
) -> ReducedCRN:
    """Lift each kept (reactants, products, rate times L) row into the blocks,
    fuse identical rows by summing their rates, and sort the fused rows by
    their sides' species names into the quotient's integer reaction list.
    L and the sums are divided by their gcd, so L stays the lcm of the
    quotient's own rate denominators.  ``kept`` is read once."""
    steps = sum(len(reactants) + len(products) for reactants, products, _ in rows)
    fused: dict[tuple[Pairs, Pairs], int] = {}
    for reactants, products, rate in kept:
        steps += len(reactants) + len(products)
        key = (_lift(reactants, p.block_index), _lift(products, p.block_index))
        fused[key] = fused.get(key, 0) + rate
    if fused:
        steps += len(fused) * (ceil(log2(len(fused))) + 1)
    qspecies = quotient_species(p)
    names = [sp.name for sp in qspecies]

    def name_key(pairs: Pairs) -> tuple[tuple[str, int], ...]:
        return tuple(sorted((names[b], m) for b, m in pairs))

    order = sorted(fused, key=lambda sides: (name_key(sides[0]), name_key(sides[1])))
    divisor = gcd(scale, *fused.values())
    rows = tuple((lhs, rhs, fused[lhs, rhs] // divisor) for lhs, rhs in order)
    quotient = CRN._from_scaled(qspecies, scale // divisor, rows)
    return ReducedCRN(crn=quotient, partition=p, mode=mode, step_count=steps)


def forward_reduce(crn: CRN, p: Partition) -> ReducedCRN:
    """Quotient network whose ODEs are the block-sum ODEs of ``crn``.

    Raises :class:`PartitionError` unless ``p`` partitions the species of
    ``crn``, and :class:`NotBisimulationError` unless it is a forward
    bisimulation.
    """
    check_partition(crn, p)
    if not is_bisimulation(crn, p, BisimMode.FORWARD):
        raise NotBisimulationError("partition is not a forward bisimulation")
    is_rep = [p.blocks[b][0].id == sid for sid, b in enumerate(p.block_index)]
    scale, rows = scaled_reactions(crn)
    # A reactant that is not its block's representative drops the reaction.
    kept = [row for row in rows if all(is_rep[sid] for sid, _ in row[0])]
    return _quotient(p, BisimMode.FORWARD, scale, rows, kept)


def backward_reduce(crn: CRN, p: Partition) -> ReducedCRN:
    """Quotient network whose ODEs are the representative ODEs of ``crn``.

    Raises :class:`PartitionError` unless ``p`` partitions the species of
    ``crn``, and :class:`NotBisimulationError` unless it is a backward
    bisimulation.
    """
    check_partition(crn, p)
    if not is_bisimulation(crn, p, BisimMode.BACKWARD):
        raise NotBisimulationError("partition is not a backward bisimulation")
    is_rep = [p.blocks[b][0].id == sid for sid, b in enumerate(p.block_index)]
    scale, rows = scaled_reactions(crn)

    def pinned():
        for reactants, products, rate in rows:
            # Non-representative products are pinned to their reactant
            # multiplicity, so their net contribution vanishes in the quotient.
            kept = [pair for pair in products if is_rep[pair[0]]]
            kept += [pair for pair in reactants if not is_rep[pair[0]]]
            yield reactants, kept, rate

    return _quotient(p, BisimMode.BACKWARD, scale, rows, pinned())
