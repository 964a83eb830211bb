"""Quotient network construction from a bisimulation partition.

Both constructions read the network's integer reaction list,
:func:`crnlump.core.scaled_reactions`: each reaction's reactant and
product ``(species id, multiplicity)`` pairs and its rate times L.  Both
first ask :func:`crnlump.bisim.is_bisimulation` whether the partition is
a bisimulation of their mode, which also rejects a partition of another
network.  A partition that ``refine`` returned for the same network
object in the same mode is certified there and passes without a check;
any other partition is decided from its signatures, which read the
network's rate tables.

Forward reduction keeps only the reactions whose reactants are all block
representatives; the reduced network's ODEs govern the block sums of the
original.  Backward reduction pins every non-representative product
multiplicity to its reactant multiplicity; the reduced network's ODEs
govern the representative trajectories (``core._representative_mask``).
Both lift each side they keep to ``(block, multiplicity)`` pairs by
``core._lift`` and fuse duplicates by summing their rates as ints.  The
fused rows, sorted by their block-id sides, are the quotient's integer
reaction list; as blocks are ordered by their representatives' names,
that is the order of the sides' species names.

Forward reduction, and backward reduction under a partition of
singletons only, which pins nothing, lift both sides of each kept row.
Under any other partition, backward reduction would build and lift a new
pinned product side per row, although the rows hold far fewer distinct
sides (multisite n=5: 7,680 rows, 2,554 distinct reactant sides and
2,976 distinct product sides).  So it classes each distinct side once: a
reactant side by its lift and the lift of its pairs outside the
representatives, which it pins into the products, and a product side by
the lift of its representative pairs, which it keeps.  Each row then
adds its rate under one int packing its two class ids (multisite n=5:
542 keys), and only those keys lift a merged product side.  A partition
of singletons keeps the per-row lifts because its rows rarely share
sides (chains, random networks), where classing costs more than it
saves.

Both constructions count their elementary steps, returned as
:attr:`ReducedCRN.step_count`, which backs the complexity tests.  Both
count each row once, as one read, without walking its slots.  The
per-row lifts add the species slots of every kept row; the classing adds
the slots of each distinct side and of each merged side it lifts.  Both
add the fusion-sort term.
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
    _lift,
    _representative_mask,
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


def _quotient(
    p: Partition,
    mode: BisimMode,
    scale: int,
    rows: tuple[tuple[Pairs, Pairs, int], ...],
    kept: Iterable[tuple[Pairs, Sequence[tuple[int, int]], int]],
) -> ReducedCRN:
    """Lift each kept (reactants, products, rate times L) row into the blocks
    and fuse identical rows by summing their rates (``_fused_quotient``).
    ``kept`` is read once; ``rows`` is only counted."""
    steps = len(rows)
    fused: dict[tuple[Pairs, Pairs], int] = {}
    for reactants, products, rate in kept:
        steps += len(reactants) + len(products)
        key = (_lift(reactants, p.block_index), _lift(products, p.block_index))
        fused[key] = fused.get(key, 0) + rate
    return _fused_quotient(p, mode, scale, fused, steps)


def _pinned_quotient(
    p: Partition, scale: int, rows: tuple[tuple[Pairs, Pairs, int], ...]
) -> ReducedCRN:
    """The backward quotient when some block pins: each distinct side is
    classed once, each row keyed by its two class ids, and only the fused
    keys lift their pinned product sides (``_fused_quotient``).

    A reactant side is classed by its lift and the lift of its pairs
    outside the representatives, which it pins into the products; a product
    side by the lift of its representative pairs, which it keeps.  As
    ``_lift`` maps a concatenation to the merge of the lifts, two rows with
    equal class ids have equal quotient rows.  Ids number the classes by
    first appearance; a product id is below ``len(rows)``, so ``a *
    len(rows) + b`` packs a row's two ids into one int."""
    index = p.block_index
    is_rep = _representative_mask(p)
    n_rows = len(rows)
    # Per class key, its id; per id, (lift, pinned pairs) of a reactant
    # class and (kept pairs, lift) of a product class; per side, its id.
    reactant_class: dict[tuple[Pairs, Pairs], int] = {}
    product_class: dict[Pairs, int] = {}
    reactant_info: list[tuple[Pairs, list[tuple[int, int]]]] = []
    product_info: list[tuple[list[tuple[int, int]], Pairs]] = []
    reactant_id: dict[Pairs, int] = {}
    product_id: dict[Pairs, int] = {}
    steps = n_rows
    fused: dict[int, int] = {}
    for reactants, products, rate in rows:
        a = reactant_id.get(reactants)
        if a is None:
            steps += len(reactants)
            pinned = [pair for pair in reactants if not is_rep[pair[0]]]
            lhs = _lift(reactants, index)
            key = lhs, _lift(pinned, index)
            a = reactant_id[reactants] = reactant_class.setdefault(key, len(reactant_info))
            if a == len(reactant_info):
                reactant_info.append((lhs, pinned))
        b = product_id.get(products)
        if b is None:
            steps += len(products)
            kept = [pair for pair in products if is_rep[pair[0]]]
            rhs = _lift(kept, index)
            b = product_id[products] = product_class.setdefault(rhs, len(product_info))
            if b == len(product_info):
                product_info.append((kept, rhs))
        key = a * n_rows + b
        fused[key] = fused.get(key, 0) + rate
    quotient: dict[tuple[Pairs, Pairs], int] = {}
    for key, rate in fused.items():
        a, b = divmod(key, n_rows)
        lhs, pinned = reactant_info[a]
        kept, rhs = product_info[b]
        if pinned:
            # Non-representative reactants are pinned into the products, so
            # their net contribution vanishes in the quotient.
            steps += len(kept) + len(pinned)
            rhs = _lift(kept + pinned, index)
        key = lhs, rhs
        quotient[key] = quotient.get(key, 0) + rate
    return _fused_quotient(p, BisimMode.BACKWARD, scale, quotient, steps)


def _fused_quotient(
    p: Partition,
    mode: BisimMode,
    scale: int,
    fused: dict[tuple[Pairs, Pairs], int],
    steps: int,
) -> ReducedCRN:
    """The quotient of the fused rows ``(lifted reactants, lifted
    products) -> rate times L``, sorted by their block-id sides, which is
    their species-name order, into its integer reaction list.  L and the
    sums are divided by their gcd, so L stays the lcm of the quotient's own
    rate denominators.  ``steps`` gains the fusion-sort term."""
    if fused:
        steps += len(fused) * (ceil(log2(len(fused))) + 1)
    divisor = gcd(scale, *fused.values())
    rows = tuple((lhs, rhs, fused[lhs, rhs] // divisor) for lhs, rhs in sorted(fused))
    quotient = CRN._from_scaled(quotient_species(p), scale // divisor, rows)
    return ReducedCRN(crn=quotient, partition=p, mode=mode, step_count=steps)


def forward_reduce(crn: CRN, p: Partition) -> ReducedCRN:
    """Quotient network whose ODEs are the block-sum ODEs of ``crn``.

    Raises :class:`PartitionError` unless ``p`` partitions the species of
    ``crn``, and :class:`NotBisimulationError` unless it is a forward
    bisimulation; the partition ``refine`` returned for ``crn`` in
    forward mode is not checked again.
    """
    if not is_bisimulation(crn, p, BisimMode.FORWARD):
        raise NotBisimulationError("partition is not a forward bisimulation")
    scale, rows = scaled_reactions(crn)
    if p.n_blocks == crn.n_species:
        # Every species is a representative: every reaction is kept.  This
        # partition alone is a forward bisimulation of any network.
        return _quotient(p, BisimMode.FORWARD, scale, rows, rows)
    is_rep = _representative_mask(p)
    # A reactant that is not its block's representative drops the reaction.
    # The signatures decided this partition, so the network is elementary:
    # one or two reactant pairs.
    kept = [
        row
        for row in rows
        if is_rep[row[0][0][0]] and (len(row[0]) == 1 or is_rep[row[0][1][0]])
    ]
    return _quotient(p, BisimMode.FORWARD, scale, rows, kept)


def backward_reduce(crn: CRN, p: Partition) -> ReducedCRN:
    """Quotient network whose ODEs are the representative ODEs of ``crn``.

    Raises :class:`PartitionError` unless ``p`` partitions the species of
    ``crn``, and :class:`NotBisimulationError` unless it is a backward
    bisimulation; the partition ``refine`` returned for ``crn`` in
    backward mode is not checked again.
    """
    if not is_bisimulation(crn, p, BisimMode.BACKWARD):
        raise NotBisimulationError("partition is not a backward bisimulation")
    scale, rows = scaled_reactions(crn)
    if p.n_blocks == crn.n_species:
        # Nothing is pinned: every product side is kept as it is.
        return _quotient(p, BisimMode.BACKWARD, scale, rows, rows)
    return _pinned_quotient(p, scale, rows)
