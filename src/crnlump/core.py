"""Core data model for mass-action reaction networks.

Species, multisets of species, rated reactions, networks, and species
partitions.  A partition carries one species-to-block index
(``Partition.block_index``); every layer reads blocks from it, and the
choice map that sends every species to the least member of its block is
:meth:`Partition.representative`; :func:`check_partition` rejects a
partition of another network.

Only this module turns reactions into integers, into three tables per
network.  :func:`scaled_reactions` is the one integer reaction list:
every reaction as its reactant and product ``(species id,
multiplicity)`` pairs and its rate times L, the least common multiple of
the rate denominators.  :func:`flux_table`, a network's net flux per
reactant multiset, and :func:`forward_table`, each species' partner
rates and production entries, are built from it.  The backward
signatures, the vector field, the block sums and the integrator read the
flux table; the forward signatures read the forward table; both quotient
constructions and the printer read the reaction list.
:func:`require_elementary` is the check that the signatures need: every
reaction has one or two reactant molecules.  Rates become integers only
in ``_scale_rates``.

Every network the package builds starts from its reaction list: the
``.net`` importer, :func:`make_crn` and the generators hand their rows to
``_crn_from_rows``; the parser and both quotient constructions hand the
finished list to ``CRN._from_scaled``.  Its ``reactions`` are a view of
that list, built on the first read and kept; only :func:`validate`,
comparing networks and the error text of :func:`require_elementary` read
the view.  ``CRN(species, reactions)`` keeps the :class:`Reaction`
objects it is given and builds its list from them on first use, where a
species that is not the network's own is an error.

Each table is built on the first call for a network and kept in a
private slot of its :class:`CRN`; every later call returns the same
object, so refinement, the re-check inside a reduction, the reduction
and the vector field share one build.  The slots take no part in
equality or hashing, and nothing writes a table after it is built: the
tables are tuples, and their dicts are never changed.  Two threads that
race on a fresh network may both build a table or the view; the builds
are equal, and either one is kept.

All types are immutable after construction, apart from a network's
table slots, which are filled on first use, and safe to share across
threads.  Rates and multiplicities are exact: rates are
:class:`fractions.Fraction`, multiplicities are positive ints.  The
fixed total order on species used for representatives and block ordering
is lexicographic on species names.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "CRNError",
    "ParseError",
    "PartitionError",
    "NotBisimulationError",
    "NotLumpableError",
    "IntegrationError",
    "Species",
    "species_key",
    "format_rational",
    "Multiset",
    "Reaction",
    "CRN",
    "make_crn",
    "validate",
    "scaled_reactions",
    "flux_table",
    "forward_table",
    "require_elementary",
    "Partition",
    "check_partition",
    "quotient_species",
]

Pairs = tuple[tuple[int, int], ...]
# Partner slot used for the empty multiset in the forward table; species
# ids are nonnegative so -1 never collides.
EMPTY_PARTNER = -1


class CRNError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CRNError):
    """Malformed input text; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PartitionError(CRNError):
    """A species partition is malformed or violates a precondition."""


class NotBisimulationError(PartitionError):
    """A partition handed to a reduction is not a bisimulation."""


class NotLumpableError(CRNError):
    """A partition does not admit the requested lumped ODE system."""


class IntegrationError(CRNError):
    """Numerical integration failed or produced non-finite values."""


@dataclass(frozen=True, slots=True)
class Species:
    """A chemical species: a dense index plus a unique name.

    ``id`` equals the position of the species in its network's species
    list; it is only meaningful relative to that network.
    """

    id: int
    name: str

    def __str__(self) -> str:
        return self.name


def species_key(sp: Species) -> str:
    """Sort key realizing the fixed total order on species (name-lex)."""
    return sp.name


def format_rational(value: Fraction) -> str:
    """Canonical text for an exact rational (``6`` or ``1/10``).

    Raises :class:`CRNError` when its numerator or denominator has more
    digits than ``sys.get_int_max_str_digits()`` lets Python print; sums
    and products of printable rates can get there.
    """
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise CRNError(f"cannot print a number with more than {limit} digits") from None


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
        ordered = tuple(sorted(acc.items(), key=lambda it: it[0].id))
        object.__setattr__(self, "_pairs", ordered)
        object.__setattr__(self, "_hash", hash(ordered))

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

    def __iter__(self) -> Iterator[tuple[Species, int]]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __bool__(self) -> bool:
        return bool(self._pairs)

    def __add__(self, other: "Multiset") -> "Multiset":
        return Multiset(tuple(self._pairs) + tuple(other._pairs))

    def name_key(self) -> tuple[tuple[str, int], ...]:
        """Deterministic key under the species name order (for output sort)."""
        return tuple(sorted(((sp.name, m) for sp, m in self._pairs)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Multiset) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return _format_side((sp.name, m) for sp, m in self._pairs)


def _format_side(named: Iterable[tuple[str, int]]) -> str:
    """A reaction side as text from its ``(name, multiplicity)`` terms: the
    terms in name order joined by `` + ``, ``2A`` for multiplicity 2, and
    ``0`` for the empty side.  Every printed side goes through here."""
    ordered = sorted(named)
    if not ordered:
        return "0"
    return " + ".join(f"{m}{name}" if m > 1 else name for name, m in ordered)


@dataclass(frozen=True, slots=True)
class Reaction:
    """A rated reaction between multisets: reactants -> products."""

    reactants: Multiset
    rate: Fraction
    products: Multiset

    def __repr__(self) -> str:
        return f"{self.reactants!r} ->({self.rate}) {self.products!r}"


class CRN:
    """A finite reaction network: ordered species plus a reaction list.

    Species ids equal list positions and names are unique; both are
    enforced at construction.  Reaction-level restrictions (positive
    rates, at most two reactant molecules, declared species) are data
    checked by :func:`validate`, not constructor failures.  The integer
    tables of this module are built once per network and kept in the
    private ``_scaled``, ``_flux``, ``_forward`` and ``_elementary``
    slots; ``species`` and ``reactions`` are read-only, so the tables
    cannot go stale.

    ``CRN(species, reactions)`` keeps the :class:`Reaction` objects it is
    given.  Every network the package builds starts from its integer
    reaction list instead (the ``_scaled`` slot, what
    :func:`scaled_reactions` returns), and ``reactions`` is a view of that
    list: built on the first read, one :class:`Multiset` per distinct side
    and one rate per distinct value, and then kept like a table.
    Refinement, the reductions, the vector field, the integrator and the
    printer read only the integer list, so they never build the view.
    """

    __slots__ = (
        "_species", "_reactions", "_by_name", "_scaled", "_flux", "_forward", "_elementary"
    )

    def __init__(self, species: Sequence[Species], reactions: Sequence[Reaction]):
        self._species = tuple(species)
        self._reactions = tuple(reactions)
        by_name: dict[str, Species] = {}
        for i, sp in enumerate(self._species):
            if sp.id != i:
                raise ValueError(f"species {sp.name} has id {sp.id}, expected {i}")
            if not sp.name:
                raise ValueError("species name must be nonempty")
            if sp.name in by_name:
                raise ValueError(f"duplicate species name {sp.name}")
            by_name[sp.name] = sp
        self._by_name = by_name
        self._scaled = self._flux = self._forward = self._elementary = None

    @classmethod
    def _from_scaled(
        cls, species: Sequence[Species], scale: int, rows: tuple[tuple[Pairs, Pairs, int], ...]
    ) -> "CRN":
        """The network whose :func:`scaled_reactions` are ``(scale, rows)``;
        its ``reactions`` are built from them on first read."""
        crn = cls(species, ())
        crn._reactions = None
        crn._scaled = (scale, rows)
        return crn

    @property
    def species(self) -> tuple[Species, ...]:
        return self._species

    @property
    def reactions(self) -> tuple[Reaction, ...]:
        return _memo(self, "_reactions", _build_reactions)

    def by_name(self, name: str) -> Species:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown species {name}") from None

    @property
    def n_species(self) -> int:
        return len(self.species)

    @property
    def n_reactions(self) -> int:
        if self._reactions is None:
            return len(self._scaled[1])
        return len(self._reactions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CRN):
            return NotImplemented
        return self.species == other.species and self.reactions == other.reactions

    def __hash__(self) -> int:
        return hash((self.species, self.reactions))

    def __repr__(self) -> str:
        return f"CRN({self.n_species} species, {self.n_reactions} reactions)"


def make_crn(
    species_names: Sequence[str],
    reactions: Iterable[tuple[Mapping[str, int], Fraction | int | str, Mapping[str, int]]],
) -> CRN:
    """Build a CRN from names and (reactants, rate, products) triples.

    Multisets are given as name -> multiplicity mappings; rates as
    anything :class:`fractions.Fraction` accepts.  Raises
    :class:`ValueError` for a negative multiplicity.
    """
    ids = {name: i for i, name in enumerate(species_names)}

    def side(mapping: Mapping[str, int]) -> tuple[tuple[int, int], ...]:
        for name, mult in mapping.items():
            if mult < 0:
                raise ValueError(f"negative multiplicity for {name}")
        return tuple((ids[name], mult) for name, mult in mapping.items())

    return _crn_from_rows(
        tuple(Species(i, name) for i, name in enumerate(species_names)),
        ((side(lhs), Fraction(rate), side(rhs)) for lhs, rate, rhs in reactions),
    )


def validate(crn: CRN) -> list[str]:
    """Check reaction-level invariants; return violations (empty = valid).

    Violations are data, not failures: each entry names the offending
    reaction or species.
    """
    violations = []
    declared = set(crn.species)
    for i, rxn in enumerate(crn.reactions):
        where = f"reaction {i} ({rxn!r})"
        if rxn.rate <= 0:
            violations.append(f"{where}: rate must be positive")
        total = rxn.reactants.total
        if total == 0:
            violations.append(f"{where}: reactants must contain at least one species")
        elif total > 2:
            violations.append(f"{where}: reactants exceed multiplicity 2")
        for sp, _ in tuple(rxn.reactants) + tuple(rxn.products):
            if sp not in declared:
                violations.append(f"{where}: undeclared species {sp.name}")
    return violations


def _memo(crn: CRN, slot: str, build):
    """The table kept in ``slot`` of ``crn``, built by ``build`` on first use."""
    table = getattr(crn, slot)
    if table is None:
        table = build(crn)
        setattr(crn, slot, table)
    return table


def scaled_reactions(crn: CRN) -> tuple[int, tuple[tuple[Pairs, Pairs, int], ...]]:
    """L, the least common multiple of the rate denominators, and every
    reaction as ``(reactant pairs, product pairs, rate times L)``, each
    side its ``(species id, multiplicity)`` pairs in id order."""
    return _memo(crn, "_scaled", _build_scaled_reactions)


def _build_scaled_reactions(crn: CRN):
    """The integer reaction list of a network built from :class:`Reaction`
    objects.  Raises :class:`CRNError` naming the first reaction with a
    species that is not the network's own (another id or another name)."""
    reactions, species = crn.reactions, crn.species
    keys: dict[Multiset, Pairs] = {}
    for i, rxn in enumerate(reactions):
        for side in (rxn.reactants, rxn.products):
            if side not in keys:
                for sp, _ in side:
                    if not (0 <= sp.id < len(species) and species[sp.id] == sp):
                        raise CRNError(f"reaction {i} ({rxn!r}): undeclared species {sp.name}")
                keys[side] = tuple((sp.id, m) for sp, m in side)
    scale, rates = _scale_rates([rxn.rate for rxn in reactions])
    return scale, tuple(
        (keys[r.reactants], keys[r.products], rate) for r, rate in zip(reactions, rates)
    )


def _scale_rates(rates: Sequence[Fraction]) -> tuple[int, list[int]]:
    """L, the least common multiple of the denominators of ``rates`` (1
    for none), and each rate times L: the one place where rates become
    integers."""
    denominators = {rate.denominator for rate in rates}
    scale = lcm(*denominators)
    factor = {d: scale // d for d in denominators}
    return scale, [rate.numerator * factor[rate.denominator] for rate in rates]


def _side_key(pairs: Iterable[tuple[int, int]]) -> Pairs:
    """A reaction side's ``(species id, multiplicity)`` pairs as a
    :class:`Multiset` keeps them: equal ids merged, zero multiplicities
    dropped, in id order."""
    acc: dict[int, int] = {}
    for sid, mult in pairs:
        if mult:
            acc[sid] = acc.get(sid, 0) + mult
    return tuple(sorted(acc.items()))


def _crn_from_rows(species: Sequence[Species], rows: Iterable[tuple]) -> CRN:
    """The network over ``species`` with one reaction per row ``(reactant
    pairs, rate, product pairs)``, its ``reactions`` a view.  A side is a
    tuple of ``(species id, multiplicity)`` pairs in any order; each
    distinct one is keyed once, so equal sides share one key."""
    keys: dict[tuple[tuple[int, int], ...], Pairs] = {}

    def key(side):
        pairs = keys.get(side)
        if pairs is None:
            pairs = keys[side] = _side_key(side)
        return pairs

    rows = [(key(lhs), rate, key(rhs)) for lhs, rate, rhs in rows]
    scale, scaled = _scale_rates([rate for _, rate, _ in rows])
    return CRN._from_scaled(
        species, scale, tuple((lhs, rhs, value) for (lhs, _, rhs), value in zip(rows, scaled))
    )


def _build_reactions(crn: CRN) -> tuple[Reaction, ...]:
    """The :class:`Reaction` objects of a network built from its integer
    reaction list: one :class:`Multiset` per distinct side and one
    :class:`~fractions.Fraction` per distinct scaled rate."""
    scale, rows = crn._scaled
    species = crn.species
    sides: dict[Pairs, Multiset] = {}
    rates: dict[int, Fraction] = {}
    for reactants, products, value in rows:
        for key in (reactants, products):
            if key not in sides:
                sides[key] = Multiset((species[sid], m) for sid, m in key)
        if value not in rates:
            rates[value] = Fraction(value, scale)
    return tuple(
        Reaction(sides[reactants], rates[value], sides[products])
        for reactants, products, value in rows
    )


def flux_table(crn: CRN) -> tuple[int, tuple[tuple[Pairs, Pairs], ...]]:
    """L and, per distinct reactant multiset as its ``(species id,
    multiplicity)`` pairs, in order of first appearance, the ``(species
    id, net change times rate times L)`` pairs summed over the reactions
    with those reactants.  Zero sums are dropped; every reactant multiset
    keeps its row.  Divided by L, a value is a vector-field coefficient.
    Reactions need not be elementary.
    """
    return _memo(crn, "_flux", _build_flux_table)


def _build_flux_table(crn: CRN):
    scale, rows = scaled_reactions(crn)
    table: dict[Pairs, dict[int, int]] = {}
    for reactants, products, rate in rows:
        row = table.setdefault(reactants, {})
        for sid, mult in products:
            row[sid] = row.get(sid, 0) + mult * rate
        for sid, mult in reactants:
            row[sid] = row.get(sid, 0) - mult * rate
    return scale, tuple(
        (key, tuple(item for item in row.items() if item[1])) for key, row in table.items()
    )


def forward_table(crn: CRN):
    """``(L, crr, crr_id, prod)``, the per-species part of the forward
    signatures.  Raises :class:`CRNError` unless the network is
    elementary (:func:`require_elementary`).

    ``crr[x]`` maps each partner of species ``x`` to its reaction rate
    times L: the other reactant of a binary reaction, ``x`` itself for
    ``2x``, :data:`EMPTY_PARTNER` for a unary reaction.  ``crr_id[x]``
    numbers the distinct ``crr`` maps, so equal maps share a number.
    ``prod[x]`` maps ``(partner, product species id)`` to the production
    rate times L.  No value is zero.
    """
    return _memo(crn, "_forward", _build_forward_table)


def _build_forward_table(crn: CRN):
    require_elementary(crn)
    scale, rows = scaled_reactions(crn)
    crr: list[dict[int, int]] = [{} for _ in crn.species]
    prod: list[dict[tuple[int, int], int]] = [{} for _ in crn.species]
    for reactants, products, rate in rows:
        if len(reactants) == 2:
            (a, _), (b, _) = reactants
            terms = ((a, b, rate), (b, a, rate))
        else:
            ((sid, mult),) = reactants
            terms = ((sid, EMPTY_PARTNER if mult == 1 else sid, mult * rate),)
        for x, partner, value in terms:
            acc = crr[x]
            acc[partner] = acc.get(partner, 0) + value
            acc = prod[x]
            for yid, mult in products:
                key = (partner, yid)
                acc[key] = acc.get(key, 0) + value * mult
    crr = [_nonzero(acc) for acc in crr]
    ids: dict[tuple, int] = {}
    crr_id = tuple(ids.setdefault(tuple(sorted(acc.items())), len(ids)) for acc in crr)
    return scale, tuple(crr), crr_id, tuple(_nonzero(acc) for acc in prod)


def _nonzero(values: dict) -> dict:
    """``values`` without its zero values; itself when it has none."""
    return {k: v for k, v in values.items() if v} if 0 in values.values() else values


def require_elementary(crn: CRN) -> None:
    """Raise :class:`CRNError` naming the first reaction whose reactants are
    not one or two molecules; the signatures are defined only for those."""
    i = _memo(crn, "_elementary", _first_non_elementary)
    if i >= 0:
        raise CRNError(
            f"reaction {i} ({crn.reactions[i]!r}): not elementary: reactants must be "
            "one or two molecules"
        )


def _first_non_elementary(crn: CRN) -> int:
    """Index of the first reaction without one or two reactant molecules,
    or -1."""
    for i, (pairs, _, _) in enumerate(scaled_reactions(crn)[1]):
        # One species once or twice, or two species once each.
        if not (
            len(pairs) == 1 and pairs[0][1] <= 2
            or len(pairs) == 2 and pairs[0][1] == pairs[1][1] == 1
        ):
            return i
    return -1


class Partition:
    """A partition of a network's species into disjoint nonempty blocks.

    Block members are sorted by the species order and blocks are ordered
    by their least member, so equal partitions have identical block
    tuples.  ``block_index[i]`` is the block of the species with id ``i``;
    the least member of each block is its representative (the choice
    map).
    """

    __slots__ = ("species", "blocks", "block_index", "_hash")

    def __init__(self, species: Sequence[Species], blocks: Iterable[Iterable[Species]]):
        universe = tuple(species)
        norm = []
        for block in blocks:
            members = tuple(sorted(set(block), key=species_key))
            if not members:
                raise PartitionError("empty block")
            norm.append(members)
        norm.sort(key=lambda b: species_key(b[0]))
        n = len(universe)
        index: list[int | None] = [None] * n
        unknown = []
        for idx, members in enumerate(norm):
            for sp in members:
                # Identity first: the generated Species.__eq__ is a Python call.
                sid = sp.id
                if not (0 <= sid < n and (universe[sid] is sp or universe[sid] == sp)):
                    unknown.append(sp.name)
                elif index[sid] is not None:
                    raise PartitionError(f"species {sp.name} occurs in two blocks")
                else:
                    index[sid] = idx
        missing = [sp.name for sp, idx in zip(universe, index) if idx is None]
        if missing:
            raise PartitionError(f"incomplete partition: missing {', '.join(missing)}")
        if unknown:
            raise PartitionError(f"unknown species {', '.join(sorted(unknown))}")
        self.species = universe
        self.blocks = tuple(norm)
        self.block_index: tuple[int, ...] = tuple(index)
        self._hash = hash(tuple(tuple(sp.id for sp in b) for b in self.blocks))

    @classmethod
    def trivial(cls, crn: CRN) -> "Partition":
        """The one-block partition {S}."""
        return cls(crn.species, [crn.species] if crn.species else [])

    @classmethod
    def discrete(cls, crn: CRN) -> "Partition":
        """The all-singletons partition."""
        return cls(crn.species, [[sp] for sp in crn.species])

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self, sp: Species) -> int:
        sid = sp.id
        if 0 <= sid < len(self.species) and (
            self.species[sid] is sp or self.species[sid] == sp
        ):
            return self.block_index[sid]
        raise PartitionError(f"unknown species {sp.name}")

    def representative(self, sp: Species) -> Species:
        """The least member of the block of ``sp`` (the choice map)."""
        return self.blocks[self.block_of(sp)][0]

    def block_members(self, sp: Species) -> tuple[Species, ...]:
        return self.blocks[self.block_of(sp)]

    def same_block(self, a: Species, b: Species) -> bool:
        return self.block_of(a) == self.block_of(b)

    def refines(self, other: "Partition") -> bool:
        """True if every block of self is contained in a block of other."""
        for block in self.blocks:
            target = other.block_of(block[0])
            if any(other.block_of(sp) != target for sp in block[1:]):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.species == other.species and self.blocks == other.blocks

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = " | ".join(
            "{" + ", ".join(sp.name for sp in block) + "}" for block in self.blocks
        )
        return f"Partition[{body}]"


def check_partition(crn: CRN, p: Partition) -> None:
    """Raise :class:`PartitionError` unless ``p`` partitions the species of
    ``crn``.  Species compare by value, so a partition of an equal network
    passes."""
    if p.species != crn.species:
        raise PartitionError("partition is not over the species of this network")


def quotient_species(p: Partition) -> tuple[Species, ...]:
    """Fresh species for the quotient: one per block, named after its
    representative, with ids renumbered to block positions."""
    return tuple(
        Species(idx, block[0].name) for idx, block in enumerate(p.blocks)
    )
