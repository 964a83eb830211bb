"""Species equivalences and coarsest-partition refinement.

Two equivalences over the species of a network, both decidable from the
reaction list alone:

* forward: equal partner-conditioned reaction rates and equal block
  production rates (aggregation by block sums);
* backward: equal cumulative flux rates over every class of reactant
  multisets (equal trajectories from equal initial conditions).

Two species are equivalent under a partition exactly when their
signatures under it are equal.  One core, ``_Signatures``, keeps them in
both modes, over rows that a mode (``_Forward``, ``_Backward``) reads
from a rate table.  A table holds each rate times L, the lcm of the rate
denominators, as an int, so every sum is exact; witness values are
divided by L.  A row reads some species, holds entries, a dict from
species to value, and is keyed from the block labels of what it reads.
A signature is a static part and ``sums``: per key, the sum of the
species' values in the rows under it, zeros dropped.  A mode is built
under the initial labels: it folds its rows once as it is built and
hands ``_Signatures`` those first sums; its ``fold`` runs again only
after a wide split.  Forward, the table is the mode's own, built for one
refinement or decision and dropped with its signatures, in one pass over
the integer reaction list (:func:`crnlump.core.scaled_reactions`) that
also sums the first fold: a row is one production entry, it reads the
product ``y``, holds the producer's rate, and is keyed ``(partner + 1) *
n + label of y`` for ``n`` species; the static part is the reaction rate
per partner.  ``_Forward`` alone packs and decodes these keys.
Backward, a row is a reactant multiset of the network's kept
:func:`crnlump.core.flux_table`: it reads the reactants (the table's
key), holds the table's row of net fluxes as it is, and is keyed by the
class of its lift to blocks by ``core._lift``.

The backward mode reads any mass-action network: a reactant multiset
may be empty (an inflow) or hold any number of molecules, as in the
backward differential equivalence of Cardelli, Tribastone, Tschaikowski
and Vandin (POPL 2016), which is defined for every polynomial ODE.  Its
comparison is the one decision of exact lumpability, and its fold is
the merged vector field: under block labels, a species' signature is
its component times L with each block's variables merged, keyed by
class id.  :mod:`crnlump.odes` reads ``_violation`` for the decision and
both vector fields through ``_merged_field``.  Only the forward
mode needs every reaction elementary, with one or two reactant
molecules, since a partner is one species.  This rule is stated once, in
``_Forward``, which checks each row as it unpacks it and raises a
:class:`~crnlump.core.CRNError` naming the first other reaction; the
parsers, :func:`crnlump.core.validate` and every other layer read any
reactant side.

:func:`refine` works in passes and stops at the first pass that splits
no block, or right after a split that leaves every block a singleton.
The first pass buckets every block by signature.  Later passes follow
the splitter rule of Valmari & Franceschinis ("Simple O(m log n) Time
Markov Chain Lumping", TACAS 2010): when a block splits, its largest
piece keeps the block's label and every other piece is a splitter.  A
pass buckets only the species whose signatures a splitter changed, with
one untouched member of their block, so the partitions are, pass for
pass, those of recomputing every signature (the tests' oracle).  A block
with one touched member and an untouched one can only keep it or lose it
as a piece of its own, so one comparison of the two signatures decides
it, with no hashed key: nearly every block a chain splits is of this
kind.  A block with two or more touched members may split into more than
two pieces, as in the first pass and the wide passes of the multisite
family.  Its touched members and one untouched member are first compared
with its first member by ``==`` on the static parts and sums: a block
whose members all agree stays whole without a hashed key, and only a
block with a differing member is bucketed by key.  On the multisite
family no block splits in the pass after the wide split, so that pass
builds no key.

After a split, ``_Signatures.retarget`` keys again every row that reads
a splitter and moves each of its entries from the old key's sum to the
new key's in place, dropping a sum that becomes zero; a species in a
singleton is skipped, as no later pass reads its signature.  A species
is in a splitter at most log2(n) times.  The index of the rows reading
each species and the row keys are built on the first moves after a fold.

A wide split, whose new pieces of two or more species hold at least half
of the species (the one splitting pass on the multisite family), would
move nearly every row.  There the mode folds every row again from its
table in a batch loop of its own, no index is built, and the next pass
takes every species outside a singleton, as the first pass does; the
partition after it is still that of recomputing every signature.  Pieces
of one species do not count: the moves skip singletons, while a fold
reads the whole table.  At most 2 log2(n) splits are wide, so the bound
is O((m + n) log n).

Every decision of a given partition is ``_violation``: it compares the
signatures within each block and returns them with the first pair that
differs, or with None.  :func:`is_bisimulation` reads whether there is
one, and :func:`find_counterexample` formats its witness from them,
naming the first key at which the two signatures differ (a partner or a
(partner, block) pair forward, a reactant class backward) with both
species' values there.  A partition of singletons is a bisimulation of either
kind, of any network, and ``_violation`` returns for it before any table
is built or any reaction checked.
:func:`is_bisimulation` accepts without signatures the partition that
:func:`refine` last returned for the same network object and mode
(recorded in its ``_certified`` slot), which refinement has just proved.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .core import CRN, CRNError, Pairs, Partition, Species
from .core import check_partition, flux_table, format_rational, scaled_reactions
from .core import _first_difference, _format_side, _lift, _nonzero, _reaction_text

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
    pass, and a pass after a wide split, takes every member of a block of
    two or more species, a later pass only the species that a split
    touched.
    """

    final: Partition
    passes: int
    predicate_calls: int


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

    def split(self, touched: list[int], sigs: _Signatures) -> list[tuple[int, int]]:
        """Split every block holding a touched species by the signatures
        ``sigs``.

        The block's untouched members must share one signature.  A block
        with one touched member and an untouched one is decided by
        comparing the member's static part and sums with an untouched
        member's, with no hashed key: when they differ, the member leaves
        as a new piece, laid out as bucketing lays it.  Any other block goes
        to ``_bucket``: with two or more touched members it may split into
        more than two pieces.  The largest piece keeps the block's label,
        the untouched members on a tie; returns ``(label, parent label)``
        for every other piece.
        """
        elems, first, end, block_of = self.elems, self.first, self.end, self.block_of
        static, sums = sigs.static, sigs.sums
        pieces = []
        for b, m in self._gather(touched).items():
            lo = first[b]
            mid = lo + m
            if m == 1 and mid < end[b]:
                x, y = elems[lo], elems[mid]
                if static[x] == static[y] and sums[x] == sums[y]:
                    continue
                # ``x`` lies at the front, where bucketing puts its piece.
                label = len(first)
                first[b] = mid
                first.append(lo)
                end.append(mid)
                block_of[x] = label
                pieces.append((label, b))
            else:
                self._bucket(b, mid, sigs, pieces)
        return pieces

    def _gather(self, touched: list[int]) -> dict[int, int]:
        """Move the touched members of each block to its front; returns,
        per block hit, how many there are."""
        elems, loc, block_of, first = self.elems, self.loc, self.block_of, self.first
        marked: dict[int, int] = {}
        for x in touched:
            b = block_of[x]
            m = marked.get(b, 0)
            i, j = first[b] + m, loc[x]
            y = elems[i]
            elems[i], elems[j] = x, y
            loc[x], loc[y] = i, j
            marked[b] = m + 1
        return marked

    def _bucket(self, b: int, mid: int, sigs: _Signatures, pieces: list[tuple[int, int]]) -> None:
        """Split block ``b``, whose touched members lie before ``mid``, by
        ``sigs.key``, and append its new pieces to ``pieces``.

        The touched members and one untouched member are first compared
        with the block's first member, static part and sums by ``==``: when
        all of them agree, the block stays whole and no key is built.  Only
        a block with a differing member is bucketed."""
        elems, loc, block_of = self.elems, self.loc, self.block_of
        first, end = self.first, self.end
        lo, hi = first[b], end[b]
        static, sums = sigs.static, sigs.sums
        x = elems[lo]
        s, d = static[x], sums[x]
        for y in elems[lo + 1 : min(mid + 1, hi)]:
            if static[y] != s or sums[y] != d:
                break
        else:
            return
        key = sigs.key
        groups: dict[object, list[int]] = {}
        if mid < hi:
            # The untouched members' group; touched members with their key join it.
            groups[key(elems[mid])] = []
        for x in elems[lo:mid]:
            groups.setdefault(key(x), []).append(x)
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

    def unsettled(self) -> list[int]:
        """The species outside singletons, by id."""
        return [x for x in range(len(self.elems)) if not self.in_singleton(x)]

    def is_wide(self, pieces: list[tuple[int, int]]) -> bool:
        """True when the new ``pieces`` of two or more species hold at
        least half of the species."""
        first, end = self.first, self.end
        wide = 0
        for p, _ in pieces:
            if end[p] - first[p] > 1:
                wide += end[p] - first[p]
        return 2 * wide >= len(self.elems)

    def partition(self, species) -> Partition:
        return Partition._from_blocks(
            species,
            [[species[x] for x in self.members(b)] for b in range(len(self.first))],
        )


# ---------------------------------------------------------------------------
# Signatures


class _Signatures:
    """The signatures of every species over the rows of one mode, kept
    across splits.  ``sums[x]`` maps each key to the sum of ``x``'s values
    in the rows under it, without zeros.  Built on the first moves after a
    fold: ``reading[y]``, the rows that read ``y``; ``entries[e]``, row
    ``e``'s dict from species to value, none zero; ``row_key[e]``, its key.

    A mode is built under the initial labels and supplies ``static``;
    ``sums``, the sums under those labels, which become these; ``fold(
    block_of)``, the sums under the labels ``block_of``, read only after a
    wide split; ``rows(blocks)``, what each row reads (each species once),
    its entries and its key under the labels of the last fold (the initial
    labels before any), free to leave out rows held only by species in
    singletons; ``rekey(e, block_of)``; and ``witness``, a text and both
    values.
    """

    __slots__ = ("mode", "static", "sums", "row_key", "reading", "entries")

    def __init__(self, mode):
        self.mode, self.static = mode, mode.static
        # The mode keeps no reference to the sums, which the moves change.
        self.sums, mode.sums = mode.sums, None
        self.reading = self.row_key = self.entries = None

    def key(self, x: int):
        return self.static[x], frozenset(self.sums[x].items())

    def retarget(self, blocks: _Blocks, pieces: list[tuple[int, int]]) -> list[int]:
        """Update the signatures after a split into the new ``pieces`` and
        return the species the next pass buckets: after a wide split, a fold
        and every species outside singletons, by id; otherwise, moves and the
        species outside singletons with an entry in a row that reads a
        piece, in the order in which the moves meet them."""
        block_of, first, end = blocks.block_of, blocks.first, blocks.end
        piece = pieces[0][0]
        # One species split off, as on a chain: the split is not wide.
        alone = len(pieces) == 1 and end[piece] - first[piece] == 1
        if not alone and blocks.is_wide(pieces):
            self.sums = self.mode.fold(block_of)
            self.reading = None  # the next moves start from this fold's row keys
            return blocks.unsettled()
        reading = self.reading
        if reading is None:
            reads, self.entries, self.row_key = self.mode.rows(blocks)
            reading = self.reading = [[] for _ in block_of]
            for e, ys in enumerate(reads):
                for y in ys:
                    reading[y].append(e)
        rekey, row_key, sums, entries = self.mode.rekey, self.row_key, self.sums, self.entries
        if alone:
            # No row twice: a row lists each species it reads once.
            rows = reading[blocks.elems[first[piece]]]
        else:
            rows = {}  # once, though a row may read two pieces
            for piece, _ in pieces:
                for y in blocks.members(piece):
                    for e in reading[y]:
                        rows[e] = None
        touched: dict[int, None] = {}
        for e in rows:
            old = row_key[e]
            new = row_key[e] = rekey(e, block_of)
            for x, val in entries[e].items():
                b = block_of[x]
                if end[b] - first[b] == 1:
                    continue
                # Move ``val`` between the two keys, dropping a zero
                # (``val`` is nonzero, so a zero key was present).
                values = sums[x]
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


# The partner of a unary reaction, the empty multiset; species ids are
# nonnegative, so it never collides with one, and it packs as 0.
EMPTY_PARTNER = -1


class _Forward:
    """Forward rows, one per production entry, owner by owner, each
    holding ``{owner: rate}``; ``static`` numbers each species' reaction
    rates per partner.

    The mode builds its table from the reaction list under the initial
    labels ``block_of`` and keeps it only as long as its signatures.  One
    pass over the reactions unpacks each elementary shape, ``A``, ``2A``
    or ``A + B``, and sums ``_crr``, ``_prod`` and the first fold's
    ``sums`` together.  ``_crr[x]`` maps each partner of species ``x`` to
    its reaction rate times L, the other reactant of a binary reaction,
    ``x`` itself for ``2x``, :data:`EMPTY_PARTNER` for a unary reaction;
    ``static[x]`` numbers the distinct ``_crr`` maps by first appearance,
    so equal maps share a number.  ``_prod[x]`` maps the packed key
    ``(partner + 1) * n + y``, ``n`` the species count and ``y`` the
    product species id, to the production rate times L.  No value is
    zero.  As ``y < n``, the packed keys order as the ``(partner, y)``
    pairs do, and ``divmod(key, n)`` gives back ``(partner + 1, y)``.  A
    row's key packs ``(partner, label of y)`` alike, and so orders as that
    pair does.  Only this class packs and decodes the keys."""

    def __init__(self, crn: CRN, block_of):
        self.scale, rows = scaled_reactions(crn)
        self._species = crn.species
        self._labels = list(block_of)
        n = len(self._species)
        crr: list[dict[int, int]] = [{} for _ in range(n)]
        prod: list[dict[int, int]] = [{} for _ in range(n)]
        sums: list[dict[int, int]] = [{} for _ in range(n)]
        for i, (reactants, products, rate) in enumerate(rows):
            # A partner is one species: the reactants must be ``A``, ``2A``
            # or ``A + B`` (sides hold no zero multiplicity).  ``A + B`` has
            # two owners, each the other's partner.
            if len(reactants) == 1 and reactants[0][1] <= 2:
                ((x, mult),) = reactants
                partner = EMPTY_PARTNER if mult == 1 else x
                value, pair = mult * rate, False
            elif len(reactants) == 2 and reactants[0][1] == reactants[1][1] == 1:
                (x, _), (partner, _) = reactants
                value, pair = rate, True
            else:
                raise CRNError(
                    f"reaction {i} ({_reaction_text(crn, i)}): not elementary: reactants "
                    "must be one or two molecules"
                )
            while True:
                acc = crr[x]
                acc[partner] = acc.get(partner, 0) + value
                acc, folded = prod[x], sums[x]
                base = (partner + 1) * n
                for y, m in products:
                    v = value * m
                    key = base + y
                    acc[key] = acc.get(key, 0) + v
                    key = base + block_of[y]
                    folded[key] = folded.get(key, 0) + v
                if not pair:
                    break
                x, partner, pair = partner, x, False
        self._crr = [_nonzero(acc) for acc in crr]
        ids: dict[frozenset, int] = {}
        self.static = [ids.setdefault(frozenset(acc.items()), len(ids)) for acc in self._crr]
        self._prod = [_nonzero(acc) for acc in prod]
        self.sums = [_nonzero(acc) for acc in sums]

    def fold(self, block_of):
        n, self._labels = len(self._species), list(block_of)
        folded_all: list[dict[int, int]] = []
        for entries in self._prod:
            folded: dict[int, int] = {}
            for key, val in entries.items():
                yid = key % n
                key += block_of[yid] - yid
                folded[key] = folded.get(key, 0) + val
            folded_all.append(_nonzero(folded))
        return folded_all

    def rows(self, blocks: _Blocks):
        # An owner in a singleton is left out: no move reads its entries.
        n, labels = len(self._species), self._labels
        block_of, first, end = blocks.block_of, blocks.first, blocks.end
        read, base, held, keys = [], [], [], []
        for x, entries in enumerate(self._prod):
            b = block_of[x]
            if end[b] - first[b] == 1:
                continue
            for key, val in entries.items():
                y = key % n
                key -= y
                read.append(y)
                base.append(key)
                held.append({x: val})
                keys.append(key + labels[y])
        self._read, self._base = read, base
        return zip(read), held, keys

    def rekey(self, e: int, block_of) -> int:
        return self._base[e] + block_of[self._read[e]]

    def _partner(self, partner: int) -> str:
        side = () if partner == EMPTY_PARTNER else ((partner, 1),)
        return _format_side(side, [sp.name for sp in self._species])[1]

    def witness(self, sigs: _Signatures, p: Partition, x: Species, y: Species) -> tuple:
        diff = _first_difference(self._crr[x.id], self._crr[y.id])
        if diff is not None:
            partner, vx, vy = diff
            return f"reaction rate with partner {self._partner(partner)}", vx, vy
        key, vx, vy = _first_difference(sigs.sums[x.id], sigs.sums[y.id])
        # The packed key decodes to (partner + 1, block); EMPTY_PARTNER is -1.
        base, block_idx = divmod(key, len(self._species))
        names = ", ".join(sp.name for sp in p.blocks[block_idx])
        partner = self._partner(base - 1)
        return f"production rate with partner {partner} into block {{{names}}}", vx, vy


class _Backward:
    """Backward rows, one per row of the flux table, whose dicts the moves
    read as they are.  A key numbers a class, the reactant multisets with
    one lift, by first appearance; ``static`` is constant.  ``sums`` is the
    fold under the initial labels ``block_of``, made as the mode is
    built."""

    def __init__(self, crn: CRN, block_of):
        self.scale, self._keys, self._rows = flux_table(crn)
        self._species = crn.species
        self._class_of = {}
        self.static = (0,) * crn.n_species
        self.sums = self.fold(block_of)

    def fold(self, block_of):
        class_of = self._class_of
        self._row_class = [
            class_of.setdefault(_lift(k, block_of), len(class_of)) for k in self._keys
        ]
        sums: list[dict[int, int]] = [{} for _ in self._species]
        for cid, row in zip(self._row_class, self._rows):
            for sid, val in row.items():
                acc = sums[sid]
                acc[cid] = acc.get(cid, 0) + val
        return [_nonzero(acc) for acc in sums]

    def rows(self, blocks: _Blocks):
        # Any number of reactant pairs: none for an inflow, three or more
        # for a reaction of three or more species.
        reads = ([sid for sid, _ in k] for k in self._keys)
        return reads, self._rows, self._row_class

    def rekey(self, e: int, block_of) -> int:
        return self._class_of.setdefault(_lift(self._keys[e], block_of), len(self._class_of))

    def witness(self, sigs: _Signatures, p: Partition, x: Species, y: Species) -> tuple:
        cid, vx, vy = _first_difference(sigs.sums[x.id], sigs.sums[y.id])
        by_id = [sp.name for sp in self._species]
        # In name-term order; the keys are distinct, so no two terms tie.
        members = sorted(
            _format_side(key, by_id) for c, key in zip(self._row_class, self._keys) if c == cid
        )
        names = ", ".join(text for _, text in members)
        return f"cumulative flux over reactant class {{{names}}}", vx, vy


def _signatures(crn: CRN, mode: BisimMode, block_of):
    table = _Forward if mode is BisimMode.FORWARD else _Backward
    return _Signatures(table(crn, block_of))


def _merged_field(
    crn: CRN, block_of, ids, sigs: _Signatures | None = None
) -> tuple[int, list[Pairs], list[dict[int, int]]]:
    """L, the lifted monomials, and the vector-field components times L of
    the species ``ids`` with their variables merged by the labels
    ``block_of``, each keyed by the positions of its monomials in that
    list: their backward signatures under those labels, whose class ids
    number the lifted monomials (``_Backward._class_of``, inverted).
    Reads ``sigs``, the backward signatures under ``block_of``, when
    given, and folds once otherwise."""
    if sigs is None:
        sigs = _signatures(crn, BisimMode.BACKWARD, block_of)
    return sigs.mode.scale, list(sigs.mode._class_of), [sigs.sums[x] for x in ids]


# ---------------------------------------------------------------------------
# Decisions and refinement


def _violation(
    crn: CRN, p: Partition, mode: BisimMode
) -> tuple[_Signatures | None, tuple[Species, Species] | None]:
    """The signatures under ``p`` and the first within-block pair
    ``(block[0], member)`` whose signatures differ, or None for the pair
    when ``p`` is a bisimulation of ``mode``.  Raises :class:`PartitionError` unless ``p``
    partitions the species of ``crn``; a partition of singletons returns
    ``(None, None)`` at once.  No witness text is built here."""
    check_partition(crn, p)
    if len(p.blocks) == len(p.species):
        return None, None
    sigs = _signatures(crn, mode, p.block_index)
    for block in p.blocks:
        first = sigs.key(block[0].id)
        for sp in block[1:]:
            if sigs.key(sp.id) != first:
                return sigs, (block[0], sp)
    return sigs, None


def _certified(crn: CRN, p: Partition, mode: BisimMode) -> bool:
    """Is ``p`` the partition that :func:`refine` last returned for this
    network object in ``mode``?"""
    certified = crn._certified.get(mode)
    return certified is not None and (certified is p or certified == p)


def is_bisimulation(crn: CRN, p: Partition, mode: BisimMode) -> bool:
    """True iff all species sharing a block are mode-equivalent under ``p``.

    A partition of singletons is one, and so is the partition that
    :func:`refine` last returned for this network object in this mode;
    neither is checked.  Every other partition is decided from its
    signatures.
    """
    return _certified(crn, p, mode) or _violation(crn, p, mode)[1] is None


def refine(crn: CRN, initial: Partition, mode: BisimMode) -> RefinementTrace:
    """Coarsest forward or backward bisimulation refining ``initial``.

    Each pass splits every block by signature under the current partition,
    recomputing only the signatures the previous pass's splits touched,
    until no block splits or every block is a singleton.  Without reactions
    every partition is already a bisimulation of either kind.  The result
    is recorded on ``crn`` as certified for ``mode``, so that
    :func:`is_bisimulation` does not decide it again.
    """
    check_partition(crn, initial)
    if not crn.n_reactions:
        crn._certified[mode] = initial
        return RefinementTrace(initial, 0, 0)
    blocks = _Blocks(initial)
    sigs = _signatures(crn, mode, blocks.block_of)
    split, retarget, labels, n = blocks.split, sigs.retarget, blocks.first, crn.n_species
    touched = blocks.unsettled()
    passes = calls = 0
    while touched:
        calls += len(touched)
        pieces = split(touched, sigs)
        if not pieces:
            break
        passes += 1
        if len(labels) == n:
            # Every block is a singleton: no signature is read again.
            break
        touched = retarget(blocks, pieces)
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
    sigs, pair = _violation(crn, p, mode)
    if pair is None:
        return None
    x, y = pair
    what, *values = sigs.mode.witness(sigs, p, x, y)
    vx, vy = (format_rational(Fraction(v, sigs.mode.scale)) for v in values)
    return x, y, f"{what}: {x.name} gives {vx}, {y.name} gives {vy}"
