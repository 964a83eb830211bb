"""Species equivalences and coarsest-partition refinement.

Two equivalences over the species of a network, both decidable from the
reaction list alone:

* forward: equal partner-conditioned reaction rates and equal block
  production rates (aggregation by block sums);
* backward: equal cumulative flux rates over every class of reactant
  multisets (equal trajectories from equal initial conditions).

Both are decided one way: from per-species signatures built from rate
tables indexed once per network.  Two species are equivalent under a
partition exactly when their signatures under it are equal.  The tables
hold Python ints, each rate times L, the least common multiple of the
rate denominators, so every sum stays exact without rational arithmetic;
witness values are divided by L before they are printed.

The per-network tables belong to :mod:`crnlump.core`, which builds each
once per network and keeps it: forward, :func:`crnlump.core.forward_table`
(each species' reaction rate per partner and production rate per
(partner, product species)); backward, :func:`crnlump.core.flux_table`,
the table :func:`crnlump.odes.vector_field` reads its terms from.  The
signature classes here build only the per-partition part: forward, the
production rates summed per (partner, block); backward, the classes of
reactant multisets and each species' flux summed per class, a class
being a lift by ``core._lift``, which both quotients use too.  The
reverse indexes that :func:`refine` follows from a splitter are built on
its first split that is not wide (see below).

:func:`refine` computes the coarsest partition of either kind refining a
given initial partition in passes, and stops at the first pass that
splits no block, or right after a split that leaves every block a
singleton.  The first pass buckets every block by signature.  A
later pass recomputes only the signatures that the previous pass's
splits can have changed, by the splitter rule of Valmari & Franceschinis
("Simple O(m log n) Time Markov Chain Lumping", TACAS 2010): when a block
splits, its largest piece keeps the block's label and every other piece
is a splitter.  Forward, each producer into a splitter moves that
production from its (partner, old block) key to its (partner, splitter)
key.  A forward key is one int, ``(partner + 1) * n + block label`` for
``n`` species, and the producer index holds each producer's ``(partner
+ 1) * n``, so a move adds the old and the new label to it and builds no
tuple.  Backward, each reactant multiset meeting a splitter is lifted
again, and every species in its support moves its flux from the old
class to the new one.  Within a block, the species that no split touched
still share one signature, so a pass buckets the touched species and one
untouched member.  This gives the same partitions, pass for pass, as
recomputing every signature on every pass, which the tests keep as their
oracle; each species is in a splitter at most log2(n) times.  Both
``retarget`` loops apply each move inline, with the block labels and
ranges bound to locals: the entry's value leaves its old key and joins
its new one, and a key whose sum becomes zero is dropped.  A species in
a singleton is skipped, since no later pass reads its signature.

A wide split is handled the other way round.  When the new pieces of
two or more species hold at least half of the species, as after the one
pass that splits the multisite family's single block, nearly every
entry would move, each move costs two dict updates, and the reverse
index must be built first.  ``retarget`` then folds every signature
again from the network's table under the new labels, by the same
``_fold`` that builds the signatures, and builds no index.  Pieces of
one species are not counted: a split into singletons leaves few
signatures to keep, the moves skip the others' entries, and a fold
would still read the whole table (on seeded random 20-species networks,
whose first split is mostly into singletons, counting them made
``retarget`` 1.7 to 1.9 times slower).  A species lands in a new piece at
most log2(n) times, so at most 2 log2(n) splits are wide, each fold is
O(m), and the O(m log n) bound holds.  Both ways return the species that
read a new piece, in the order in which the moves meet them: which piece
of a tie keeps its block's label follows that order, so both ways give
the same passes and the same ``predicate_calls``.

:func:`is_bisimulation` and :func:`find_counterexample` compare the
signatures within each block; the witness names the first key at which
two signatures differ (a partner or a (partner, block) pair forward,
decoded from its packed key, a reactant class backward) together with
both species' values there.  :func:`refine` records the partition it
returns in the network's ``_certified`` slot, per mode, and
:func:`is_bisimulation` accepts that partition, or one equal to it,
without building signatures: refinement has just proved it a
bisimulation of that very network object.  Any other partition, one
certified in the other mode or for an equal network object among them,
is decided from its signatures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .core import CRN, EMPTY_PARTNER, Partition, Species
from .core import check_partition, flux_table, format_rational, forward_table
from .core import _format_side, _lift, _nonzero, require_elementary

__all__ = [
    "BisimMode",
    "RefinementTrace",
    "is_bisimulation",
    "refine",
    "find_counterexample",
]

class BisimMode(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RefinementTrace:
    """Result of :func:`refine`.

    ``final`` is the coarsest bisimulation of the requested mode that
    refines the initial partition.  ``passes`` counts the passes that
    split a block (the last pass, which splits none, is not counted), so
    it is 0 exactly when the initial partition is already a
    bisimulation.  ``predicate_calls`` counts the species whose signature
    a pass recomputed and bucketed, summed over all passes: the first
    pass takes every member of a block of two or more species, a later
    pass only the species that a split touched.
    """

    final: Partition
    passes: int
    predicate_calls: int


def _first_difference(a: dict, b: dict) -> tuple[object, int, int] | None:
    """First key, in key order, at which two ``key -> value`` maps
    disagree, with both values (an absent key reads 0)."""
    keys = [k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0)]
    if not keys:
        return None
    key = min(keys)
    return key, a.get(key, 0), b.get(key, 0)


# ---------------------------------------------------------------------------
# Refinable partition


class _Blocks:
    """Refinable partition of species ids (Valmari & Franceschinis).

    Block ``b`` holds ``elems[first[b]:end[b]]``, ``loc[x]`` is the
    position of species ``x`` in ``elems`` and ``block_of[x]`` its block
    label.  Labels start as the block indices of the initial partition;
    a split gives every piece but the largest a fresh label.
    """

    __slots__ = ("elems", "loc", "block_of", "first", "end")

    def __init__(self, p: Partition):
        self.elems = [sp.id for block in p.blocks for sp in block]
        self.loc = [0] * len(self.elems)
        for i, x in enumerate(self.elems):
            self.loc[x] = i
        self.block_of = list(p.block_index)
        self.first = []
        self.end = []
        start = 0
        for block in p.blocks:
            self.first.append(start)
            start += len(block)
            self.end.append(start)

    def in_singleton(self, x: int) -> bool:
        b = self.block_of[x]
        return self.end[b] - self.first[b] == 1

    def members(self, b: int) -> list[int]:
        return self.elems[self.first[b] : self.end[b]]

    def split(self, touched: list[int], key) -> list[tuple[int, int]]:
        """Split every block holding a touched species by ``key``.

        The block's untouched members must share one key, which is read
        from one of them.  The largest piece keeps the block's label;
        returns ``(label, parent label)`` for every other piece.
        """
        elems, loc, block_of = self.elems, self.loc, self.block_of
        first, end = self.first, self.end
        # Per block hit, how many touched members have been moved to its front.
        marked: dict[int, int] = {}
        for x in touched:
            b = block_of[x]
            m = marked.get(b, 0)
            i, j = first[b] + m, loc[x]
            y = elems[i]
            elems[i], elems[j] = x, y
            loc[x], loc[y] = i, j
            marked[b] = m + 1
        pieces = []
        for b, m in marked.items():
            lo, hi = first[b], end[b]
            mid = lo + m
            groups: dict[object, list[int]] = {}
            if mid < hi:
                # The untouched members' group; touched members with their key join it.
                groups[key(elems[mid])] = []
            for x in elems[lo:mid]:
                groups.setdefault(key(x), []).append(x)
            if len(groups) == 1:
                continue
            # Lay the touched members out group by group, the joiners of the
            # untouched group last so that the whole group is one range.
            others = list(groups.values())
            joiners = others.pop(0) if mid < hi else []
            elems[lo:mid] = [x for group in others for x in group] + joiners
            for i in range(lo, mid):
                loc[elems[i]] = i
            ranges = [(mid - len(joiners), hi)] if mid < hi else []
            start = lo
            for group in others:
                ranges.append((start, start + len(group)))
                start += len(group)
            # The largest piece keeps the label (the untouched group on a tie).
            keep = max(range(len(ranges)), key=lambda k: ranges[k][1] - ranges[k][0])
            for k, (start, stop) in enumerate(ranges):
                if k == keep:
                    first[b], end[b] = start, stop
                    continue
                label = len(first)
                first.append(start)
                end.append(stop)
                for x in elems[start:stop]:
                    block_of[x] = label
                pieces.append((label, b))
        return pieces

    def wide_split_ranks(self, pieces: list[tuple[int, int]]) -> list[int] | None:
        """When the new ``pieces`` of two or more species hold at least half
        of the species, each species' position among the members of all
        new pieces, piece after piece, and the species count for a species
        in none; otherwise None.  The positions are the order in which
        moving entries meets them."""
        n, first, end = len(self.elems), self.first, self.end
        if 2 * sum(end[p] - first[p] for p, _ in pieces if end[p] - first[p] > 1) < n:
            return None
        met = [y for piece, _ in pieces for y in self.members(piece)]
        rank = [n] * n
        for r, y in enumerate(met):
            rank[y] = r
        return rank

    def partition(self, species) -> Partition:
        return Partition(
            species,
            [[species[x] for x in self.members(b)] for b in range(len(self.first))],
        )


# ---------------------------------------------------------------------------
# Signatures


class _ForwardSignatures:
    """Forward signatures of every species under a block labelling.

    A signature is ``(crr, folded)``: the reaction rate per partner and
    the production rate per packed ``(partner + 1) * n + block label``
    key, ``n`` the species count, both as maps without zero values.  A
    label is below ``n``, so the key packs a ``(partner, block label)``
    pair as :func:`crnlump.core.forward_table` packs ``(partner, product
    species)``, and orders as the pair does.  The partner rates and
    production entries are the network's forward table; only ``folded``,
    the entries summed per block label, depends on the partition.
    """

    def __init__(self, crn: CRN, block_of):
        self.scale, self._crr, self._crr_id, self._prod = forward_table(crn)
        self._producers: list[list[tuple[int, int, int]]] | None = None
        self._species = crn.species
        self._fold(block_of)

    def _fold(self, block_of, rank: list[int] | None = None) -> list[int]:
        """Fold every species' production entries per block label into
        ``folded``.  Given ``rank``, return the species with an entry into
        a ``y`` of ``rank[y]`` below the species count, ordered by their
        least such rank, then by id (see :meth:`retarget`)."""
        n = len(self._species)
        if rank is None:
            rank = [n] * n
        folded_all: list[dict[int, int]] = []
        hits = []
        for x, entries in enumerate(self._prod):
            folded: dict[int, int] = {}
            least = n
            for key, val in entries.items():
                yid = key % n
                key += block_of[yid] - yid
                folded[key] = folded.get(key, 0) + val
                if rank[yid] < least:
                    least = rank[yid]
            folded_all.append(_nonzero(folded))
            if least < n:
                hits.append(least * n + x)
        self.folded = folded_all
        hits.sort()
        return [key % n for key in hits]

    def key(self, x: int):
        return self._crr_id[x], frozenset(self.folded[x].items())

    def retarget(self, blocks: _Blocks, pieces: list[tuple[int, int]]) -> list[int]:
        """Update the signatures after a split into the new ``pieces``;
        return the species outside singletons that produce into a piece.

        When the pieces of two or more species hold at least half of the
        species, every signature is folded again from the table and the
        producer index is not built.  Otherwise every production into a piece moves from its
        parent's key to the piece's key.  A species lands in a new piece
        at most log2(n) times, so the first way is taken at most 2 log2(n)
        times, each O(m), and the O(m log n) bound holds.  Both ways return
        the species in the same order, the order in which the moves meet
        them, so that the next pass splits alike, ties included.
        """
        rank = blocks.wide_split_ranks(pieces)
        if rank is not None:
            return [x for x in self._fold(blocks.block_of, rank) if not blocks.in_singleton(x)]
        producers = self._producers
        if producers is None:
            # Per product species, its producers with their packed partner
            # ``(partner + 1) * n``, to which a block label is added.
            n = len(self._species)
            producers = self._producers = [[] for _ in self._species]
            for x, entries in enumerate(self._prod):
                for key, val in entries.items():
                    yid = key % n
                    producers[yid].append((x, key - yid, val))
        folded = self.folded
        block_of, first, end = blocks.block_of, blocks.first, blocks.end
        touched: dict[int, None] = {}
        for piece, parent in pieces:
            for y in blocks.members(piece):
                for x, base, val in producers[y]:
                    b = block_of[x]
                    if end[b] - first[b] == 1:
                        continue
                    # Move ``val`` between the two keys, dropping a zero
                    # (``val`` is nonzero, so a zero key was present).
                    values = folded[x]
                    old, new = base + parent, base + piece
                    v = values.get(old, 0) - val
                    if v:
                        values[old] = v
                    else:
                        del values[old]
                    v = values.get(new, 0) + val
                    if v:
                        values[new] = v
                    else:
                        del values[new]
                    touched[x] = None
        return list(touched)

    def _partner(self, partner: int) -> str:
        named = () if partner == EMPTY_PARTNER else ((self._species[partner].name, 1),)
        return _format_side(named)

    def witness(self, p: Partition, x: Species, y: Species) -> str:
        diff = _first_difference(self._crr[x.id], self._crr[y.id])
        if diff is not None:
            partner, vx, vy = diff
            return (
                f"reaction rate with partner {self._partner(partner)}: "
                f"{_gives(x, vx, y, vy, self.scale)}"
            )
        key, vx, vy = _first_difference(self.folded[x.id], self.folded[y.id])
        # The packed key decodes to (partner + 1, block); EMPTY_PARTNER is -1.
        base, block_idx = divmod(key, len(self._species))
        names = ", ".join(sp.name for sp in p.blocks[block_idx])
        return (
            f"production rate with partner {self._partner(base - 1)} into block "
            f"{{{names}}}: {_gives(x, vx, y, vy, self.scale)}"
        )


class _BackwardSignatures:
    """Backward signatures of every species under a block labelling.

    A signature maps a class id to the species' cumulative flux over the
    class, without zero values.  A class gathers the distinct reactant
    multisets that lift to the same multiset of blocks; classes are
    numbered by first appearance.  The reactant multisets and their
    fluxes are the network's :func:`crnlump.core.flux_table`; only the
    classes and the sums over them depend on the partition.
    """

    def __init__(self, crn: CRN, block_of):
        require_elementary(crn)
        self.scale, self._rows = flux_table(crn)
        self._by_reactant: list[list[int]] | None = None
        self._species = crn.species
        self._class_of = {}
        self._fold(block_of)

    def _fold(self, block_of, rank: list[int] | None = None) -> list[int]:
        """Class every reactant multiset under the block labels and sum
        each species' flux per class into ``sums``.  Given ``rank``, return
        the species in the support of a multiset holding a ``y`` of
        ``rank[y]`` below the species count, by first appearance over those
        multisets ordered by their least such rank, then by position (see
        :meth:`retarget`)."""
        class_of, rows = self._class_of, self._rows
        self.entry_class = [
            class_of.setdefault(_lift(key, block_of), len(class_of)) for key, _ in rows
        ]
        sums: list[dict[int, int]] = [{} for _ in self._species]
        for cid, (_, support) in zip(self.entry_class, rows):
            for sid, val in support:
                acc = sums[sid]
                acc[cid] = acc.get(cid, 0) + val
        self.sums = [_nonzero(acc) for acc in sums]
        if rank is None:
            return []
        # One or two reactant pairs: the network is elementary.
        least = [min(rank[k[0][0]], rank[k[-1][0]]) for k, _ in rows]
        n = len(self._species)
        meeting = sorted([e for e, r in enumerate(least) if r < n], key=least.__getitem__)
        # A dict of the (species, flux) pairs keeps each species' first place.
        return list(dict(chain.from_iterable([rows[e][1] for e in meeting])))

    def key(self, x: int):
        return frozenset(self.sums[x].items())

    def retarget(self, blocks: _Blocks, pieces: list[tuple[int, int]]) -> list[int]:
        """Update the signatures after a split into the new ``pieces``;
        return the species outside singletons in the support of a reactant
        multiset that meets a piece.

        When the pieces of two or more species hold at least half of the
        species, every multiset is classed and every signature summed again
        from the table, and the reactant index is not built.  Otherwise every multiset meeting
        a piece is lifted again and its support's flux moves to the new
        class.  As forward, the first way is taken at most 2 log2(n)
        times, each O(m), and both ways return the species in the order
        in which the moves meet them.
        """
        rank = blocks.wide_split_ranks(pieces)
        if rank is not None:
            return [x for x in self._fold(blocks.block_of, rank) if not blocks.in_singleton(x)]
        by_reactant = self._by_reactant
        if by_reactant is None:
            by_reactant = self._by_reactant = [[] for _ in self._species]
            for e, (reactants, _) in enumerate(self._rows):
                for sid, _ in reactants:
                    by_reactant[sid].append(e)
        dirty: dict[int, None] = {}
        for piece, _ in pieces:
            for y in blocks.members(piece):
                for e in by_reactant[y]:
                    dirty[e] = None
        sums, class_of, entry_class, rows = self.sums, self._class_of, self.entry_class, self._rows
        block_of, first, end = blocks.block_of, blocks.first, blocks.end
        touched: dict[int, None] = {}
        for e in dirty:
            old = entry_class[e]
            key, support = rows[e]
            new = entry_class[e] = class_of.setdefault(_lift(key, block_of), len(class_of))
            for sid, val in support:
                b = block_of[sid]
                if end[b] - first[b] == 1:
                    continue
                # As forward: move ``val`` from ``old`` to ``new``, no zeros kept.
                values = sums[sid]
                v = values.get(old, 0) - val
                if v:
                    values[old] = v
                else:
                    del values[old]
                v = values.get(new, 0) + val
                if v:
                    values[new] = v
                else:
                    del values[new]
                touched[sid] = None
        return list(touched)

    def witness(self, p: Partition, x: Species, y: Species) -> str:
        cid, vx, vy = _first_difference(self.sums[x.id], self.sums[y.id])
        species = self._species
        members = sorted(
            tuple(sorted((species[sid].name, m) for sid, m in key))
            for c, (key, _) in zip(self.entry_class, self._rows)
            if c == cid
        )
        return (
            f"cumulative flux over reactant class {{{', '.join(map(_format_side, members))}}}: "
            f"{_gives(x, vx, y, vy, self.scale)}"
        )


def _gives(x: Species, vx: int, y: Species, vy: int, scale: int) -> str:
    """Both species' values, scaled back to rates."""
    return (
        f"{x.name} gives {format_rational(Fraction(vx, scale))}, "
        f"{y.name} gives {format_rational(Fraction(vy, scale))}"
    )


def _signatures(crn: CRN, mode: BisimMode, block_of):
    if mode is BisimMode.FORWARD:
        return _ForwardSignatures(crn, block_of)
    return _BackwardSignatures(crn, block_of)


# ---------------------------------------------------------------------------
# Decisions and refinement


def _first_split(sigs, p: Partition) -> tuple[Species, Species] | None:
    """First ``(block[0], member)`` pair with different signatures."""
    for block in p.blocks:
        first = sigs.key(block[0].id)
        for sp in block[1:]:
            if sigs.key(sp.id) != first:
                return block[0], sp
    return None


def is_bisimulation(crn: CRN, p: Partition, mode: BisimMode) -> bool:
    """True iff all species sharing a block are mode-equivalent under ``p``.

    The partition that :func:`refine` last returned for this network
    object in this mode is one by construction and is not checked again;
    every other partition is decided from its signatures.
    """
    check_partition(crn, p)
    certified = crn._certified.get(mode)
    if certified is not None and (certified is p or certified == p):
        return True
    return _first_split(_signatures(crn, mode, p.block_index), p) is None


def refine(crn: CRN, initial: Partition, mode: BisimMode) -> RefinementTrace:
    """Coarsest forward or backward bisimulation refining ``initial``.

    Each pass splits every block by signature under the current partition
    (the splitter equivalence intersected with the current partition),
    recomputing only the signatures the previous pass's splits touched;
    the loop stops when no block splits, or right after a split that
    leaves every block a singleton, as no signature would be read again
    (that last split's signatures are not updated).  Without reactions every
    partition is already a bisimulation of either kind.  The partition
    returned is recorded on ``crn`` as certified for ``mode``, so that
    :func:`is_bisimulation` does not decide it again.
    """
    check_partition(crn, initial)
    if not crn.n_reactions:
        crn._certified[mode] = initial
        return RefinementTrace(initial, 0, 0)
    blocks = _Blocks(initial)
    sigs = _signatures(crn, mode, blocks.block_of)
    touched = [x for x in range(crn.n_species) if not blocks.in_singleton(x)]
    passes = calls = 0
    while touched:
        calls += len(touched)
        pieces = blocks.split(touched, sigs.key)
        if not pieces:
            break
        passes += 1
        if len(blocks.first) == crn.n_species:
            # Every block is a singleton: no signature is read again.
            break
        touched = sigs.retarget(blocks, pieces)
    # With no split, the first pass bucketed every species of ``initial``.
    final = blocks.partition(crn.species) if passes else initial
    # A racing thread can only replace this with another proved partition.
    crn._certified[mode] = final
    return RefinementTrace(final, passes, calls)


def find_counterexample(
    crn: CRN, p: Partition, mode: BisimMode
) -> tuple[Species, Species, str] | None:
    """First within-block pair ``(block[0], member)`` violating the mode
    equivalence, with a human-readable witness taken from the first key
    at which their signatures differ; None when ``p`` is a bisimulation."""
    check_partition(crn, p)
    sigs = _signatures(crn, mode, p.block_index)
    pair = _first_split(sigs, p)
    if pair is None:
        return None
    x, y = pair
    return x, y, sigs.witness(p, x, y)
