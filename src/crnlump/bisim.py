"""Species equivalences and coarsest-partition refinement.

Two equivalences over the species of a network, both decidable from the
reaction list alone:

* forward: equal partner-conditioned reaction rates and equal block
  production rates (aggregation by block sums);
* backward: equal cumulative flux rates over every class of reactant
  multisets (equal trajectories from equal initial conditions).

Both are decided one way: from per-species signatures built from rate
tables indexed once per network.  Two species are equivalent under a
partition exactly when their signatures under it are equal.
:func:`refine` computes the coarsest partition of either kind refining a
given initial partition by repeated splitting: each pass buckets the
species of every block by signature and stops at the first fixpoint.
:func:`is_bisimulation` and :func:`find_counterexample` compare the
signatures within each block; the witness names the first key at which
two signatures differ (a partner or a (partner, block) pair forward, a
reactant class backward) together with both species' values there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import CRN, CRNError, Multiset, Partition, Species, format_rational

__all__ = [
    "BisimMode",
    "RefinementTrace",
    "is_bisimulation",
    "refine",
    "find_counterexample",
]

# Partner slot used for the empty multiset in forward signatures; species
# ids are nonnegative so -1 never collides.
_EMPTY = -1


class BisimMode(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RefinementTrace:
    """Partition sequence produced by :func:`refine`.

    ``iterations[0]`` is the initial partition, each later entry refines
    its predecessor, and ``final`` is the last entry (a bisimulation of
    the requested mode).  ``predicate_calls`` counts the species bucketed
    by signature, summed over all passes (members of singleton blocks are
    not bucketed).
    """

    iterations: tuple[Partition, ...]
    final: Partition
    predicate_calls: int


def _first_difference(a: tuple, b: tuple) -> tuple[object, Fraction, Fraction] | None:
    """First key, in key order, at which two sorted ``(key, value)``
    tuples disagree, with both values (an absent key reads 0)."""
    da, db = dict(a), dict(b)
    keys = [k for k in da.keys() | db.keys() if da.get(k, 0) != db.get(k, 0)]
    if not keys:
        return None
    key = min(keys)
    return key, da.get(key, 0), db.get(key, 0)


def _gives(x: Species, vx: Fraction, y: Species, vy: Fraction) -> str:
    return f"{x.name} gives {format_rational(vx)}, {y.name} gives {format_rational(vy)}"


# ---------------------------------------------------------------------------
# Signature tables


def _require_elementary(crn: CRN) -> None:
    """Raise :class:`CRNError` naming the first reaction whose reactants are
    not one or two molecules; the signatures are defined only for those."""
    for i, rxn in enumerate(crn.reactions):
        if not 1 <= rxn.reactants.total <= 2:
            raise CRNError(
                f"reaction {i} ({rxn!r}): not elementary: reactants must be "
                "one or two molecules"
            )


class _ForwardTables:
    """Static per-species rate tables; partition-dependent parts are folded
    per refinement pass.

    A signature is ``(crr, production)``: the reaction rate per partner
    and the production rate per ``(partner, block index)``, both as
    sorted ``(key, value)`` tuples without zero values.
    """

    def __init__(self, crn: CRN):
        _require_elementary(crn)
        n = crn.n_species
        crr: list[dict[int, Fraction]] = [{} for _ in range(n)]
        prod: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(n)]

        def account(x: int, partner: int, factor: int, rxn) -> None:
            rate = factor * rxn.rate
            crr[x][partner] = crr[x].get(partner, 0) + rate
            bucket = prod[x].setdefault(partner, {})
            for sp, mult in rxn.products:
                bucket[sp.id] = bucket.get(sp.id, 0) + rate * mult

        for rxn in crn.reactions:
            pairs = rxn.reactants.pairs
            if len(pairs) == 2:
                (a, _), (b, _) = pairs
                account(a.id, b.id, 1, rxn)
                account(b.id, a.id, 1, rxn)
            else:
                ((sp, mult),) = pairs
                account(sp.id, _EMPTY if mult == 1 else sp.id, mult, rxn)

        self._crr_sig = [tuple(sorted(c.items())) for c in crr]
        self._prod = [
            {partner: tuple(bucket.items()) for partner, bucket in table.items()}
            for table in prod
        ]
        self._species = crn.species

    def signatures(self, p: Partition) -> list[tuple]:
        n = len(self._species)
        block_of = p.block_index
        sigs: list[tuple] = [()] * n
        for x in range(n):
            folded: dict[tuple[int, int], Fraction] = {}
            for partner, bucket in self._prod[x].items():
                for yid, val in bucket:
                    key = (partner, block_of[yid])
                    folded[key] = folded.get(key, 0) + val
            sigs[x] = (
                self._crr_sig[x],
                tuple(sorted((k, v) for k, v in folded.items() if v)),
            )
        return sigs

    def _partner(self, partner: int) -> Multiset:
        return Multiset() if partner == _EMPTY else Multiset.of(self._species[partner])

    def witness(self, p: Partition, x: Species, sx: tuple, y: Species, sy: tuple) -> str:
        diff = _first_difference(sx[0], sy[0])
        if diff is not None:
            partner, vx, vy = diff
            return (
                f"reaction rate with partner {self._partner(partner)!r}: "
                f"{_gives(x, vx, y, vy)}"
            )
        (partner, block_idx), vx, vy = _first_difference(sx[1], sy[1])
        names = ", ".join(sp.name for sp in p.blocks[block_idx])
        return (
            f"production rate with partner {self._partner(partner)!r} into block "
            f"{{{names}}}: {_gives(x, vx, y, vy)}"
        )


class _BackwardTables:
    """Net flux of every species per distinct reactant multiset.

    A signature is the sorted ``(class id, cumulative flux)`` tuple
    without zero values, where a class gathers the reactant multisets
    that lift to the same multiset of blocks.
    """

    def __init__(self, crn: CRN):
        _require_elementary(crn)
        table: dict[tuple, dict[int, Fraction]] = {}
        for rxn in crn.reactions:
            support = table.setdefault(tuple((sp.id, m) for sp, m in rxn.reactants), {})
            touched = {sp for sp, _ in rxn.reactants} | {sp for sp, _ in rxn.products}
            for sp in touched:
                net = rxn.products.get(sp) - rxn.reactants.get(sp)
                if net:
                    support[sp.id] = support.get(sp.id, 0) + net * rxn.rate
        self._entries = [(key, tuple(support.items())) for key, support in table.items()]
        self._species = crn.species

    def _class_ids(self, p: Partition) -> list[int]:
        """Class id of every entry, numbered by first appearance."""
        block_of = p.block_index
        class_ids: dict[tuple, int] = {}
        out = []
        for key, _ in self._entries:
            lifted: dict[int, int] = {}
            for sid, mult in key:
                bid = block_of[sid]
                lifted[bid] = lifted.get(bid, 0) + mult
            lkey = tuple(sorted(lifted.items()))
            out.append(class_ids.setdefault(lkey, len(class_ids)))
        return out

    def signatures(self, p: Partition) -> list[tuple]:
        sums: list[dict[int, Fraction]] = [{} for _ in self._species]
        for cid, (_, support) in zip(self._class_ids(p), self._entries):
            for sid, val in support:
                acc = sums[sid]
                acc[cid] = acc.get(cid, 0) + val
        return [tuple(sorted((c, v) for c, v in acc.items() if v)) for acc in sums]

    def witness(self, p: Partition, x: Species, sx: tuple, y: Species, sy: tuple) -> str:
        cid, vx, vy = _first_difference(sx, sy)
        members = sorted(
            (
                Multiset((self._species[sid], m) for sid, m in key)
                for c, (key, _) in zip(self._class_ids(p), self._entries)
                if c == cid
            ),
            key=Multiset.name_key,
        )
        return (
            f"cumulative flux over reactant class {{{', '.join(map(repr, members))}}}: "
            f"{_gives(x, vx, y, vy)}"
        )


def _tables(crn: CRN, mode: BisimMode):
    if mode is BisimMode.FORWARD:
        return _ForwardTables(crn)
    return _BackwardTables(crn)


# ---------------------------------------------------------------------------
# Decisions and refinement


def _first_split(sigs: list[tuple], p: Partition) -> tuple[Species, Species] | None:
    """First ``(block[0], member)`` pair with different signatures."""
    for block in p.blocks:
        first = sigs[block[0].id]
        for sp in block[1:]:
            if sigs[sp.id] != first:
                return block[0], sp
    return None


def is_bisimulation(crn: CRN, p: Partition, mode: BisimMode) -> bool:
    """True iff all species sharing a block are mode-equivalent under ``p``."""
    return _first_split(_tables(crn, mode).signatures(p), p) is None


def refine(crn: CRN, initial: Partition, mode: BisimMode) -> RefinementTrace:
    """Coarsest forward or backward bisimulation refining ``initial``.

    Each pass buckets the species of every block by signature under the
    current partition (the splitter equivalence intersected with the
    current partition) and the loop stops when no block splits.  Without
    reactions every partition is already a bisimulation of either kind.
    """
    if not crn.reactions:
        return RefinementTrace((initial,), initial, 0)
    tables = _tables(crn, mode)
    iterations = [initial]
    current = initial
    bucketed = 0
    while True:
        sigs = tables.signatures(current)
        new_blocks: list[Sequence[Species]] = []
        for block in current.blocks:
            if len(block) == 1:
                new_blocks.append(block)
                continue
            bucketed += len(block)
            buckets: dict[tuple, list[Species]] = {}
            for sp in block:
                buckets.setdefault(sigs[sp.id], []).append(sp)
            new_blocks.extend(buckets.values())
        if len(new_blocks) == current.n_blocks:
            return RefinementTrace(tuple(iterations), current, bucketed)
        current = Partition(crn.species, new_blocks)
        iterations.append(current)


def find_counterexample(
    crn: CRN, p: Partition, mode: BisimMode
) -> tuple[Species, Species, str] | None:
    """First within-block pair ``(block[0], member)`` violating the mode
    equivalence, with a human-readable witness taken from the first key
    at which their signatures differ; None when ``p`` is a bisimulation."""
    tables = _tables(crn, mode)
    sigs = tables.signatures(p)
    pair = _first_split(sigs, p)
    if pair is None:
        return None
    x, y = pair
    return x, y, tables.witness(p, x, sigs[x.id], y, sigs[y.id])
