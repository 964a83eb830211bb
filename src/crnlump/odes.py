"""Symbolic mass-action vector fields, lumped fields and lumpability
checks.

All work here is on integer term maps, ``{monomial: coefficient times
L}``, read from the flux table (:func:`crnlump.core.flux_table`): its
keys are the monomials, and each key's row maps a species to that
monomial's coefficient times L in the species' component.  L is the
least common multiple of the rate denominators.  Only a printed or
compared result divides by L, as a :class:`Polynomial` with exact
rational coefficients.

Exact lumpability -- after merging each block's variables into the
block representative, all components within a block coincide -- is
backward bisimulation, and :mod:`crnlump.bisim` decides it for every
mass-action network by comparing backward signatures:
:func:`exact_lumpability_witness` is the pair of ``bisim._violation``,
the decision behind :func:`crnlump.bisim.find_counterexample`, without
its witness text.  A backward signature under block labels is the
species' component times L with each block's variables merged, keyed by
class id, so the fields are the signatures read as polynomials
(``bisim._merged_field``): :func:`vector_field` reads every species'
under the identity labels, :func:`lumped_field_backward` the
representatives' under the block labels, from the fold that decided the
partition, or from one fold when :func:`crnlump.bisim.refine` certified
it or every block is a singleton.  The tests hold both fields to
independent references that build and merge components.

Ordinary (block-sum) lumpability is decided here, as an exact
polynomial identity: each block's component sum must be invariant under
every within-block shear ``V_i += t, V_j -= t``, which holds exactly
when the sum can be rewritten in block-sum variables.  The sum is
shear-invariant exactly when ``ds/dV_i == ds/dV_j``, since its
derivative in ``t`` is that difference at the sheared point and a
rational polynomial in ``t`` is constant exactly when that vanishes.  So
the check builds one derivative signature per shared species (its
partial derivatives of every block sum) in one pass over the terms, and
compares the signatures within blocks: the forward differential
equivalence of Cardelli, Tribastone, Tschaikowski and Vandin (POPL
2016).  It reads only the terms that a block of two or more species (a
*shared* species) can change, and a partition of singletons returns
before the flux table is built: it adds only the rows whose monomial
holds a shared species, into every block's sum, singletons included;
the signature of a shared species comes from those rows alone.
:func:`lumped_field_forward` adds every row into the block sums and
rewrites them in block-sum variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .bisim import BisimMode, _certified, _merged_field, _violation
from .core import (
    CRN,
    NotLumpableError,
    Partition,
    Species,
    _first_difference,
    _lift,
    _representative_mask,
    check_partition,
    flux_table,
    format_rational,
    quotient_species,
)

__all__ = [
    "Polynomial",
    "VectorField",
    "vector_field",
    "is_exactly_lumpable",
    "exact_lumpability_witness",
    "is_ordinarily_lumpable",
    "ordinary_lumpability_witness",
    "lumped_field_forward",
    "lumped_field_backward",
    "format_polynomial",
    "format_vector_field",
]

# A monomial is a sorted tuple of (variable index, positive exponent).
Monomial = tuple[tuple[int, int], ...]

_ZERO = Fraction(0)


class Polynomial:
    """Sparse multivariate polynomial with Fraction coefficients, the
    printed and compared form of a vector-field component.

    Monomials are canonical sorted (variable, exponent) tuples and zero
    coefficients are never stored, so equal polynomials compare equal.
    Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coef in terms.items():
                if coef:
                    clean[mono] = coef
        self.terms = clean

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def evaluate(self, values: Mapping[int, Fraction]) -> Fraction:
        total = _ZERO
        for mono, coef in self.terms.items():
            prod = coef
            for var, exp in mono:
                prod *= values[var] ** exp
            total += prod
        return total

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in the canonical (deterministic) print order."""
        return sorted(self.terms.items(), key=lambda it: it[0])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)})"


def format_polynomial(poly: Polynomial, names: Sequence[str] | None = None) -> str:
    """Deterministic human-readable form, e.g. ``-6*A - 2*A*B``."""

    def var_name(var: int) -> str:
        if names is not None:
            return names[var]
        return f"x{var}"

    if poly.is_zero():
        return "0"
    pieces = []
    for mono, coef in poly.sorted_terms():
        factors = []
        for var, exp in mono:
            factors.append(var_name(var) if exp == 1 else f"{var_name(var)}^{exp}")
        mono_text = "*".join(factors)
        mag = abs(coef)
        if not mono_text:
            body = format_rational(mag)
        elif mag == 1:
            body = mono_text
        else:
            body = f"{format_rational(mag)}*{mono_text}"
        if not pieces:
            pieces.append(body if coef > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(pieces)


@dataclass(frozen=True)
class VectorField:
    """One polynomial per species; variable ``i`` is the i-th species."""

    species: tuple[Species, ...]
    components: Mapping[Species, Polynomial]

    def names(self) -> tuple[str, ...]:
        return tuple(sp.name for sp in self.species)


def format_vector_field(vf: VectorField) -> str:
    """One ``name' = polynomial`` line per species, newline-terminated."""
    names = vf.names()
    lines = []
    for sp in vf.species:
        lines.append(f"{sp.name}' = {format_polynomial(vf.components[sp], names)}")
    return "\n".join(lines) + "\n"


def _as_field(species: tuple[Species, ...], merged: tuple) -> VectorField:
    """The field of ``species`` from their merged components
    (:func:`crnlump.bisim._merged_field`): each class id read as its
    monomial, each value divided by L."""
    scale, monomial, sums = merged
    return VectorField(
        species,
        {
            sp: Polynomial({monomial[c]: Fraction(v, scale) for c, v in terms.items()})
            for sp, terms in zip(species, sums)
        },
    )


def vector_field(crn: CRN) -> VectorField:
    """The mass-action ODE right-hand side of a network, in canonical form:
    its backward signatures under the identity labels read as polynomials,
    each value divided by L."""
    ids = range(crn.n_species)
    return _as_field(crn.species, _merged_field(crn, list(ids), ids))


def is_exactly_lumpable(crn: CRN, p: Partition) -> bool:
    """Does constancy across blocks propagate from states to derivatives?

    True exactly when ``p`` is a backward bisimulation: decided by
    comparing the backward signatures within every block
    (:func:`exact_lumpability_witness`), never by the certificate of
    :func:`crnlump.bisim.refine`.
    """
    return exact_lumpability_witness(crn, p) is None


def exact_lumpability_witness(
    crn: CRN, p: Partition
) -> tuple[Species, Species] | None:
    """A within-block species pair whose components differ after merging
    block variables: the pair that :func:`crnlump.bisim.find_counterexample`
    names in backward mode, found without formatting its witness; None
    when the partition is exactly lumpable."""
    return _violation(crn, p, BisimMode.BACKWARD)[1]


def _block_sums(
    crn: CRN, p: Partition, shared: Sequence[bool] | None = None
) -> tuple[int, list[dict[Monomial, int]]]:
    """L and each block's component sum times L: flux-table rows added per
    block, terms that cancel not stored.  With ``shared`` (per species id,
    whether its block holds two or more species), only the rows whose
    monomial holds such a species are added, into every block's sum: the
    signatures of those species come from these rows alone."""
    scale, monomials, rows = flux_table(crn)
    sums: list[dict[Monomial, int]] = [{} for _ in p.blocks]
    for mono, row in zip(monomials, rows):
        if shared is not None:
            for var, _ in mono:
                if shared[var]:
                    break
            else:
                continue
        for sid, val in row.items():
            acc = sums[p.block_index[sid]]
            acc[mono] = acc.get(mono, 0) + val
    return scale, [{m: v for m, v in acc.items() if v} for acc in sums]


def _shared(p: Partition) -> list[bool] | None:
    """Per species id, whether its block holds two or more species; None,
    which reads every term, when every block does."""
    if 1 not in map(len, p.blocks):
        return None
    shared = [False] * len(p.species)
    for block in p.blocks:
        if len(block) > 1:
            for sp in block:
                shared[sp.id] = True
    return shared


def is_ordinarily_lumpable(crn: CRN, p: Partition) -> bool:
    """Can every block's component sum be written in block-sum variables?

    A polynomial depends only on the block sums exactly when it is
    invariant under all within-block shears ``V_i += t, V_j -= t``;
    consecutive pairs generate them all, so the check is finite and
    exact.  A sum ``s`` is invariant under the shear of ``(i, j)``
    exactly when ``ds/dV_i == ds/dV_j``, since over the rationals a
    polynomial in ``t`` is constant exactly when its derivative in ``t``
    is zero.  So each shared species gets one derivative signature, its
    partial derivatives of every block sum, and the check compares the
    signatures of consecutive members within each block.
    """
    return ordinary_lumpability_witness(crn, p) is None


def ordinary_lumpability_witness(
    crn: CRN, p: Partition
) -> tuple[int, tuple[int, int]] | None:
    """None if lumpable, else (block index, offending shear pair)."""
    check_partition(crn, p)
    if len(p.blocks) == len(p.species):
        return None
    shared = _shared(p)
    return _shear_witness(_block_sums(crn, p, shared)[1], p, shared)


def _shear_witness(
    sums: list[dict[Monomial, int]], p: Partition, shared: Sequence[bool] | None
) -> tuple[int, tuple[int, int]] | None:
    """First consecutive pair of a block, then first block, whose sum
    changes under the pair's shear.

    Each shared species gets one signature, ``{(block index, lowered
    monomial): coefficient times exponent}``: the partial derivatives of
    the block sums in it; ``shared`` is :func:`_shared` of ``p``.
    Distinct monomials have distinct derivatives in one variable, so no
    entries merge, and a sum changes under a shear exactly when the pair's
    signatures differ under its block index; the least differing key names
    the first such block.
    """
    shared = shared or [True] * len(p.species)
    signature: list[dict | None] = [{} if held else None for held in shared]
    for block_idx, s in enumerate(sums):
        for mono, coef in s.items():
            for k, (var, exp) in enumerate(mono):
                sig = signature[var]
                if sig is not None:
                    lowered = ((var, exp - 1),) if exp > 1 else ()
                    sig[block_idx, mono[:k] + lowered + mono[k + 1 :]] = coef * exp
    for block in p.blocks:
        for a, b in zip(block, block[1:]):
            sa, sb = signature[a.id], signature[b.id]
            if sa != sb:
                (block_idx, _), _, _ = _first_difference(sa, sb)
                return block_idx, (a.id, b.id)
    return None


def lumped_field_forward(crn: CRN, p: Partition) -> VectorField:
    """The block-sum ODE system, one variable per block.

    Components are keyed by the quotient species (block representatives);
    variable ``i`` stands for the sum of block ``i``.  Raises
    :class:`NotLumpableError` when the block sums cannot be rewritten.
    """
    check_partition(crn, p)
    scale, sums = _block_sums(crn, p)
    witness = _shear_witness(sums, p, _shared(p))
    if witness is not None:
        block_idx, _ = witness
        members = ", ".join(sp.name for sp in p.blocks[block_idx])
        raise NotLumpableError(
            f"block sums are not expressible in block variables (block {{{members}}})"
        )
    # On the shear-invariant subspace, evaluating at "all block mass on the
    # least member" is a right inverse of the block-sum map, so keeping the
    # monomials over block representatives and lifting them to their blocks
    # recovers the block-sum polynomial exactly.  The lift is one to one on
    # the monomials kept, so no terms merge.
    rep = _representative_mask(p)
    qspecies = quotient_species(p)
    components = {
        qspecies[idx]: Polynomial(
            {
                _lift(mono, p.block_index): Fraction(val, scale)
                for mono, val in s.items()
                if all(rep[var] for var, _ in mono)
            }
        )
        for idx, s in enumerate(sums)
    }
    return VectorField(species=qspecies, components=components)


def lumped_field_backward(crn: CRN, p: Partition) -> VectorField:
    """The representative ODE system under within-block variable merging.

    Keeps one component per block representative with every species
    variable replaced by its representative.  Raises
    :class:`NotLumpableError` when the partition is not exactly lumpable,
    that is, not a backward bisimulation
    (:func:`crnlump.bisim.is_bisimulation`).
    """
    sigs = pair = None
    if not _certified(crn, p, BisimMode.BACKWARD):
        sigs, pair = _violation(crn, p, BisimMode.BACKWARD)
    if pair is not None:
        raise NotLumpableError("partition is not exactly lumpable")
    # The fold that decided ``p``, if one did, is the merged field.
    reps = [block[0].id for block in p.blocks]
    return _as_field(quotient_species(p), _merged_field(crn, p.block_index, reps, sigs))
