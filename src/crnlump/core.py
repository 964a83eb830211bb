"""Core data model for mass-action reaction networks.

Species, networks of rated reactions between them, and species
partitions.  A partition carries one species-to-block index
(``Partition.block_index``); every layer reads blocks from it, and the
choice map that sends every species to the least member of its block is
:meth:`Partition.representative`; :func:`check_partition` rejects a
partition of another network.  ``_lift`` is the one normal form of a
multiset of ``(id, multiplicity)`` pairs (equal targets merged, zeros
dropped, sorted): it keys a reaction side, lifts a side or a monomial to
blocks, and serves every layer and both parsers.  ``_representative_mask``
marks each block's representative, and ``_first_difference`` names the
first key at which two signatures differ, for every layer that needs
them.

Only this module turns reactions into integers, into two tables per
network.  :func:`scaled_reactions` is the one integer reaction list:
every reaction as its reactant and product ``(species id,
multiplicity)`` pairs and its rate times L, the least common multiple of
the rate denominators.  :func:`flux_table`, a network's net flux per
reactant multiset, is built from it.  The backward signatures (which
are also the vector field and the backward lumped field), the block sums
and the integrator read the flux table;
the forward signatures, both quotient constructions and the printer read
the reaction list.  ``_format_side`` prints a side of it for every layer
that prints one.
A reaction may have any reactant side: none (an inflow), or any number
of molecules.  A network carries no mark of whether its reactions are
elementary (one or two reactant molecules each): only the forward
signatures need that, and :mod:`crnlump.bisim` checks it as it unpacks
each row, naming a reaction by ``_reaction_text``.  :func:`validate`
and both parsers ask only for a positive rate.  Rates become integers
only in ``_scale_rates``.

A network holds only its reaction list.  ``CRN(species, rows)`` builds
it from one row ``(reactant pairs, rate, product pairs)`` per reaction,
each side its ``(species id, multiplicity)`` pairs; ``_scaled_rows``
checks and keys each distinct side once and refuses, naming the
reaction, a row it cannot read as one.  :func:`make_crn` and the
generators call the constructor.  The ``.net`` importer keys its rows with ``_scaled_rows``
too; it, the parser and both quotient constructions hand a finished
list to ``CRN._from_scaled``.
:func:`validate`, equality and hashing read the list, and
:func:`validate` and the forward signatures print a reaction they
report from it.

A network keeps only what two or more layers read: besides its reaction
list, the flux table is built on the first call for it and kept in a
private slot of its :class:`CRN`; every later call returns the same
object, so refinement, a reduction's check of a partition that
refinement did not return, the reduction, the lumpability checks and the
vector field share one build.  The slot takes no part in equality or
hashing, and nothing writes the table after it is built: it is a tuple
of tuples and of dicts, and no dict is changed after the build.
Two threads that race on a fresh network may both build the table;
the builds are equal, and either one is kept.
The ``_certified`` slot holds, per bisimulation mode, the last partition
:func:`crnlump.bisim.refine` returned for the network; a racing thread
can only replace it with another partition that refinement proved.

All types are immutable after construction, apart from a network's
table and certificate slots, which are filled on first use, and safe to
share across threads.  Rates and multiplicities are exact: rates are
:class:`fractions.Fraction`, multiplicities are positive ints.  The
fixed total order on species used for representatives and block ordering
is lexicographic on species names.

Exact initial concentrations (:class:`InitialCondition`) and the default
integration settings (``DEFAULT_RTOL``, ``DEFAULT_ATOL``,
``DEFAULT_T_END``, ``DEFAULT_POINTS``) are defined here, not in
:mod:`crnlump.sim`, so that parsing, generating and reducing a network
never import numpy or scipy.  Only :meth:`InitialCondition.as_array`
imports numpy, in its body.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm
from numbers import Real
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

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
    "CRN",
    "make_crn",
    "validate",
    "scaled_reactions",
    "flux_table",
    "Partition",
    "check_partition",
    "quotient_species",
    "InitialCondition",
]

Pairs = tuple[tuple[int, int], ...]


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


def _format_side(
    pairs: Pairs, names: Sequence[str]
) -> tuple[tuple[tuple[str, int], ...], str]:
    """A reaction side's ``(name, multiplicity)`` terms in name order, the
    sort key of a printed reaction, and its text: the terms in that order
    joined by `` + ``, ``2A`` for a multiplicity of two, ``0`` for the empty
    side.  ``pairs`` are the side's ``(species id, multiplicity)`` pairs
    and ``names`` the species names by id.  Every printed side reads as
    this prints it: a one-pair side straight from its name, a longer one
    sorted once."""
    if len(pairs) == 1:
        ((sid, m),) = pairs
        name = names[sid]
        return ((name, m),), (f"{m}{name}" if m > 1 else name)
    named = sorted([(names[sid], m) for sid, m in pairs])
    text = " + ".join([f"{m}{name}" if m > 1 else name for name, m in named])
    return tuple(named), text or "0"


class CRN:
    """A finite reaction network: ordered species plus a reaction list.

    ``CRN(species, rows)`` takes one row ``(reactant pairs, rate, product
    pairs)`` per reaction.  A side is a tuple of ``(species id,
    multiplicity)`` pairs in any order, where equal ids add up and zero
    multiplicities are dropped; a rate is a :class:`~fractions.Fraction`
    or an int.  Species ids equal list positions and names are unique
    (:class:`ValueError` otherwise); an id that is not an int in ``[0,
    n)``, a multiplicity that is not a nonnegative int, a rate of another
    type and a row of another shape are a :class:`CRNError` naming the
    first such reaction.
    A positive rate is data checked by :func:`validate`, not a
    constructor failure.

    A network holds its species and its integer reaction list (the
    ``_scaled`` slot, what :func:`scaled_reactions` returns), and compares
    and hashes by the two.  The flux table is kept in the ``_flux`` slot,
    and the partitions that refinement proved in ``_certified``;
    ``species`` is read-only, so neither can go stale.
    """

    __slots__ = ("_species", "_by_name", "_scaled", "_flux", "_certified")

    def __init__(self, species: Sequence[Species], rows: Iterable[tuple]):
        self._set_species(species)
        self._scaled = _scaled_rows(rows, self._species)

    @classmethod
    def _from_scaled(
        cls,
        species: Sequence[Species],
        scale: int,
        rows: tuple[tuple[Pairs, Pairs, int], ...],
    ) -> "CRN":
        """The network whose :func:`scaled_reactions` are ``(scale, rows)``."""
        crn = cls.__new__(cls)
        crn._set_species(species)
        crn._scaled = (scale, rows)
        return crn

    def _set_species(self, species: Sequence[Species]) -> None:
        """Check and keep ``species``; empty the table slots."""
        self._species = tuple(species)
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
        self._flux = None
        self._certified = {}

    @property
    def species(self) -> tuple[Species, ...]:
        return self._species

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
        return len(self._scaled[1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CRN):
            return NotImplemented
        return self._species == other._species and self._scaled == other._scaled

    def __hash__(self) -> int:
        return hash((self._species, self._scaled))

    def __repr__(self) -> str:
        return f"CRN({self.n_species} species, {self.n_reactions} reactions)"


def make_crn(
    species_names: Sequence[str],
    reactions: Iterable[tuple[Mapping[str, int], Fraction | int | str, Mapping[str, int]]],
) -> CRN:
    """Build a CRN from names and (reactants, rate, products) triples.

    Multisets are given as name -> multiplicity mappings; rates as
    anything :class:`fractions.Fraction` accepts.  A name that is not in
    ``species_names`` is a :class:`CRNError` naming the reaction, and so
    are a rate that ``Fraction`` refuses and a multiplicity that
    ``CRN(species, rows)`` refuses.
    """
    ids = {name: i for i, name in enumerate(species_names)}

    def side(i: int, mapping: Mapping[str, int]) -> tuple[tuple[int, int], ...]:
        try:
            return tuple((ids[name], mult) for name, mult in mapping.items())
        except KeyError as err:
            raise CRNError(f"reaction {i}: undeclared species {err.args[0]}") from None

    def number(i: int, rate) -> Fraction:
        try:
            return Fraction(rate)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise CRNError(f"reaction {i}: rate {rate!r} is not a number") from None

    return CRN(
        tuple(Species(i, name) for i, name in enumerate(species_names)),
        (
            (side(i, lhs), number(i, rate), side(i, rhs))
            for i, (lhs, rate, rhs) in enumerate(reactions)
        ),
    )


def validate(crn: CRN) -> list[str]:
    """Check reaction-level invariants; return violations (empty = valid).

    Violations are data, not failures: each entry names a reaction whose
    rate is not positive.  Any reactant side is valid.  Reads the integer
    reaction list, and prints only a reported reaction.
    """
    return [
        f"reaction {i} ({_reaction_text(crn, i)}): rate must be positive"
        for i, (_, _, value) in enumerate(scaled_reactions(crn)[1])
        if value <= 0
    ]


def scaled_reactions(crn: CRN) -> tuple[int, tuple[tuple[Pairs, Pairs, int], ...]]:
    """L, the least common multiple of the rate denominators, and every
    reaction as ``(reactant pairs, product pairs, rate times L)``, each
    side its ``(species id, multiplicity)`` pairs in id order."""
    return crn._scaled


def _scale_rates(rates: Sequence[Fraction]) -> tuple[int, list[int]]:
    """L, the least common multiple of the denominators of ``rates`` (1
    for none), and each rate times L: the one place where rates become
    integers."""
    denominators = {rate.denominator for rate in rates}
    scale = lcm(*denominators)
    factor = {d: scale // d for d in denominators}
    return scale, [rate.numerator * factor[rate.denominator] for rate in rates]


def _checked_side_key(
    side: Pairs, species: Sequence[Species], every: list[int], i: int
) -> Pairs:
    """``side`` lifted by the identity index ``every`` after checking each
    of its pairs, a side of reaction ``i`` in a network of ``species``."""
    n = len(species)
    for sid, mult in side:
        if not (isinstance(sid, int) and 0 <= sid < n):
            raise CRNError(f"reaction {i}: species id {sid!r} is not an int in [0, {n})")
        if not (isinstance(mult, int) and mult >= 0):
            raise CRNError(
                f"reaction {i}: multiplicity {mult!r} of {species[sid].name} "
                "is not a nonnegative int"
            )
    return _lift(side, every)


def _scaled_rows(
    rows: Iterable[tuple], species: Sequence[Species]
) -> tuple[int, tuple[tuple[Pairs, Pairs, int], ...]]:
    """The integer reaction list of the rows ``(reactant pairs, rate,
    product pairs)`` over ``species``, as ``CRN(species, rows)`` takes
    them.  Each distinct side is checked and keyed once, so equal sides
    share one key."""
    keys: dict[Pairs, Pairs] = {}
    keyed = []
    every = list(range(len(species)))
    for row in rows:
        # Inline lookups: a call per side would cost more than the keying.
        try:
            lhs, rate, rhs = row
            a = keys.get(lhs)
            if a is None:
                a = keys[lhs] = _checked_side_key(lhs, species, every, len(keyed))
            b = keys.get(rhs)
            if b is None:
                b = keys[rhs] = _checked_side_key(rhs, species, every, len(keyed))
        except (TypeError, ValueError):
            raise CRNError(
                f"reaction {len(keyed)}: a row must be (reactant pairs, rate, product pairs), "
                "each side a tuple of (species id, multiplicity) pairs"
            ) from None
        keyed.append((a, rate, b))
    rates = [rate for _, rate, _ in keyed]
    try:
        scale, scaled = _scale_rates(rates)
    except AttributeError:
        i = next(i for i, rate in enumerate(rates) if not isinstance(rate, (int, Fraction)))
        raise CRNError(f"reaction {i}: rate {rates[i]!r} is not a Fraction or an int") from None
    return scale, tuple((lhs, rhs, value) for (lhs, _, rhs), value in zip(keyed, scaled))


def flux_table(crn: CRN) -> tuple[int, tuple[Pairs, ...], tuple[dict[int, int], ...]]:
    """``(L, keys, rows)``: ``keys`` holds each distinct reactant multiset
    as its ``(species id, multiplicity)`` pairs, in order of first
    appearance (the reaction list's own side tuples), and ``rows[k]`` maps
    each species id to its net change times rate times L, summed over the
    reactions with reactants ``keys[k]``.  Zero sums are dropped; every
    reactant multiset keeps its row.  Divided by L, a value is a
    vector-field coefficient.  A dict that holds only ints is not tracked
    by the garbage collector, so the rows cost it nothing.  Reactions need
    not be elementary.
    """
    table = crn._flux
    if table is None:
        table = crn._flux = _build_flux_table(crn)
    return table


def _build_flux_table(crn: CRN):
    scale, rows = scaled_reactions(crn)
    table: dict[Pairs, dict[int, int]] = {}
    for reactants, products, rate in rows:
        # A dict only per new reactant multiset: ``setdefault`` would
        # build one per row.
        row = table.get(reactants)
        if row is None:
            row = table[reactants] = {}
        for sid, mult in products:
            row[sid] = row.get(sid, 0) + mult * rate
        for sid, mult in reactants:
            row[sid] = row.get(sid, 0) - mult * rate
    return scale, tuple(table), tuple(map(_nonzero, table.values()))


def _nonzero(values: dict) -> dict:
    """``values`` without its zero values; itself when it has none."""
    return {k: v for k, v in values.items() if v} if 0 in values.values() else values


def _first_difference(a: dict, b: dict) -> tuple[object, int, int] | None:
    """First key, in key order, at which two ``key -> value`` maps
    disagree, with both values (an absent key reads 0)."""
    keys = [k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0)]
    if not keys:
        return None
    key = min(keys)
    return key, a.get(key, 0), b.get(key, 0)


def _reaction_text(crn: CRN, i: int) -> str:
    """The text of reaction ``i`` of the integer reaction list, ``A + B
    ->(1/2) C``: each side as ``_format_side`` prints it."""
    scale, rows = scaled_reactions(crn)
    reactants, products, value = rows[i]
    names = [sp.name for sp in crn.species]
    lhs, rhs = _format_side(reactants, names)[1], _format_side(products, names)[1]
    return f"{lhs} ->({format_rational(Fraction(value, scale))}) {rhs}"


class Partition:
    """A partition of a network's species into disjoint nonempty blocks.

    Block members are sorted by the species order and blocks are ordered
    by their least member, so equal partitions have identical block
    tuples.  ``block_index[i]`` is the block of the species with id ``i``;
    the least member of each block is its representative (the choice
    map).  ``Partition(species, blocks)`` checks its input; blocks that
    the package built to partition the species go through
    ``Partition._from_blocks``, which normalizes them alike but checks
    nothing.
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
        self._set(universe, norm, index)

    @classmethod
    def _from_blocks(
        cls, species: Sequence[Species], blocks: Iterable[Iterable[Species]]
    ) -> "Partition":
        """The partition of ``species`` into ``blocks``, which must be
        nonempty, disjoint and cover ``species`` exactly: normalized as
        ``Partition(species, blocks)`` normalizes, without its scans for
        duplicate, unknown and missing species."""
        norm = [tuple(sorted(block, key=species_key)) for block in blocks]
        norm.sort(key=lambda b: species_key(b[0]))
        index = [0] * len(species)
        for idx, members in enumerate(norm):
            for sp in members:
                index[sp.id] = idx
        p = cls.__new__(cls)
        p._set(tuple(species), norm, index)
        return p

    def _set(self, universe: tuple[Species, ...], norm: list, index: list) -> None:
        self.species = universe
        self.blocks = tuple(norm)
        self.block_index: tuple[int, ...] = tuple(index)
        self._hash = hash(tuple(tuple(sp.id for sp in b) for b in self.blocks))

    @classmethod
    def trivial(cls, crn: CRN) -> "Partition":
        """The one-block partition {S}."""
        return cls._from_blocks(crn.species, [crn.species] if crn.species else [])

    @classmethod
    def discrete(cls, crn: CRN) -> "Partition":
        """The all-singletons partition."""
        return cls._from_blocks(crn.species, [[sp] for sp in crn.species])

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


def _representative_mask(p: Partition) -> list[bool]:
    """Per species id, whether the species is its block's representative."""
    mask = [False] * len(p.species)
    for block in p.blocks:
        mask[block[0].id] = True
    return mask


def _lift(pairs: Sequence[tuple[int, int]], index: Sequence[int]) -> Pairs:
    """The one normal form of a multiset of ``(id, multiplicity)`` pairs,
    given in any order: each id mapped through ``index``, equal targets
    merged, zero multiplicities dropped, in target order.  An identity
    index keys a reaction side, and a species-to-block index lifts a side
    or a monomial to blocks.  None, one or two pairs with nonzero
    multiplicities (every elementary side) skip the dict.  A list index
    is faster than a ``range``, which builds a new int per lookup."""
    k = len(pairs)
    if k == 2:
        (a, m), (b, n) = pairs
        if m and n:
            a = index[a]
            b = index[b]
            if a < b:
                return ((a, m), (b, n))
            if a > b:
                return ((b, n), (a, m))
            return ((a, m + n),)
    elif k == 1:
        ((sid, mult),) = pairs
        if mult:
            return ((index[sid], mult),)
    elif not k:
        return ()
    acc: dict[int, int] = {}
    for sid, mult in pairs:
        if mult:
            target = index[sid]
            acc[target] = acc.get(target, 0) + mult
    return tuple(sorted(acc.items()))


def quotient_species(p: Partition) -> tuple[Species, ...]:
    """Fresh species for the quotient: one per block, named after its
    representative, with ids renumbered to block positions."""
    return tuple(
        Species(idx, block[0].name) for idx, block in enumerate(p.blocks)
    )


DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10
DEFAULT_T_END = 50.0
DEFAULT_POINTS = 201


@dataclass(frozen=True)
class InitialCondition:
    """Nonnegative exact concentrations, one per species.

    Values are kept as Fractions so that equal-initial-condition
    partitioning is exact; they are converted to floats only at
    integration time.  Every value, also of a directly built condition,
    must be a finite real number (:class:`numbers.Real`) and not
    negative: :class:`ValueError` otherwise, naming the species.
    """

    species: tuple[Species, ...]
    values: Mapping[Species, Fraction]

    def __post_init__(self):
        for sp, value in self.values.items():
            # A Fraction or an int, what ``from_map`` and the parsers give,
            # is finite; ``value != value`` holds for NaN alone.
            if type(value) not in (Fraction, int) and (
                not isinstance(value, Real) or value != value or value == inf
            ):
                raise ValueError(
                    f"initial concentration {value!r} for {sp.name} is not a finite number"
                )
            if value < 0:
                raise ValueError(f"negative initial concentration for {sp.name}")

    @classmethod
    def from_map(
        cls,
        crn: CRN,
        mapping: Mapping[str, Fraction | int | str] | Mapping[Species, Fraction],
        default: Fraction | int = 0,
    ) -> "InitialCondition":
        """Values by species or name; every species not named gets
        ``default``.  Raises :class:`KeyError` for a species not of ``crn``
        and :class:`ValueError` for a negative value or ``default``."""
        values: dict[Species, Fraction] = {}
        for key, raw in mapping.items():
            sp = crn.by_name(key if isinstance(key, str) else key.name)
            if not isinstance(key, str) and key != sp:
                # A species of another network is an unknown species here.
                raise KeyError(f"unknown species {key.name}")
            values[sp] = Fraction(raw)
        fill = Fraction(default)
        if fill < 0:
            raise ValueError(f"negative initial concentration {fill} as the default")
        for sp in crn.species:
            values.setdefault(sp, fill)
        return cls(species=crn.species, values=values)

    def get(self, sp: Species) -> Fraction:
        """The value of ``sp``.  Raises :class:`CRNError` naming a species
        that a directly built condition lacks (:meth:`from_map` gives every
        species a value); every other reader goes through this one."""
        try:
            return self.values[sp]
        except KeyError:
            raise CRNError(f"initial condition has no value for species {sp.name}") from None

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([float(self.get(sp)) for sp in self.species])

    def constant_on(self, p: Partition) -> bool:
        for block in p.blocks:
            first = self.get(block[0])
            if any(self.get(sp) != first for sp in block[1:]):
                return False
        return True


def _check_initial_condition(crn: CRN, v0: InitialCondition) -> None:
    if tuple(v0.species) != crn.species:
        raise ValueError("initial condition is not over the species of this network")
