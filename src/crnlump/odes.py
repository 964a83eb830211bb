"""Symbolic mass-action vector fields and exact lumpability checks.

All work here is on integer term maps, ``{monomial: coefficient times
L}``, read from the flux table that the backward signatures read too
(:func:`crnlump.core.flux_table`): its keys are the monomials, and each
key's row maps a species to that monomial's coefficient times L in the
species' component.  L is the least common multiple of the rate
denominators.  Only a printed or compared result divides by L, as a
:class:`Polynomial` with exact rational coefficients.  This module
decides, as exact polynomial identities:

* exact lumpability -- after merging each block's variables into the
  block representative, all components within a block must coincide;
* ordinary (block-sum) lumpability -- each block's component sum must be
  invariant under every within-block shear ``V_i += t, V_j -= t``, which
  holds exactly when the sum can be rewritten in block-sum variables.
  The sum is shear-invariant exactly when ``ds/dV_i == ds/dV_j``, since
  its derivative in ``t`` is that difference at the sheared point and a
  rational polynomial in ``t`` is constant exactly when that vanishes;
  so the check compares partial derivatives, one pass over the terms.

Both checks read only the terms that a block of two or more species
(a *shared* species) can change, and a partition of singletons returns
before the flux table is built.  The exact check renames and transposes
only the rows that hold a shared species, and only into the shared
species' components: no other component is compared.  The ordinary check
adds only the rows whose monomial holds a shared species, into every
block's sum, singletons included: the partial derivatives in a shared
species come from those rows alone.

The corresponding lumped vector fields are constructed by
:func:`lumped_field_forward` (block sums) and
:func:`lumped_field_backward` (representative substitution); they and
:func:`vector_field` read every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import (
    CRN,
    NotLumpableError,
    Partition,
    Species,
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


def _polynomial(terms: dict[Monomial, int], scale: int) -> Polynomial:
    """An integer term map divided by L."""
    return Polynomial({mono: Fraction(val, scale) for mono, val in terms.items()})


def _rename(mono: Monomial, rename: Sequence[int | None]) -> Monomial | None:
    """``mono`` with variable ``v`` renamed to ``rename[v]``, exponents of
    merged variables added; None when some target is None."""
    powers: dict[int, int] = {}
    for var, exp in mono:
        target = rename[var]
        if target is None:
            return None
        powers[target] = powers.get(target, 0) + exp
    return tuple(sorted(powers.items()))


def _terms(
    crn: CRN,
    rename: Sequence[int] | None = None,
    shared: Sequence[bool] | None = None,
) -> tuple[int, list[dict[Monomial, int] | None]]:
    """L and, per species, its vector-field component times L: the flux
    table transposed.  With ``rename``, each row's monomial goes through
    :func:`_rename` once; terms that cancel after merging are not stored.
    With ``shared`` (per species id, whether its block holds two or more
    species), only the rows that hold such a species are read, and only
    those species get a component; the others' are None."""
    scale, monomials, rows = flux_table(crn)
    if shared is None:
        terms: list[dict[Monomial, int] | None] = [{} for _ in crn.species]
    else:
        terms = [{} if held else None for held in shared]
    for mono, row in zip(monomials, rows):
        if shared is not None:
            for sid in row:
                if shared[sid]:
                    break
            else:
                continue
        if rename is not None:
            mono = _rename(mono, rename)
        for sid, val in row.items():
            acc = terms[sid]
            if acc is not None:
                acc[mono] = acc.get(mono, 0) + val
    if rename is not None:
        terms = [None if acc is None else {m: v for m, v in acc.items() if v} for acc in terms]
    return scale, terms


def vector_field(crn: CRN) -> VectorField:
    """The mass-action ODE right-hand side of a network, in canonical form:
    its flux table transposed, each value divided by L."""
    scale, terms = _terms(crn)
    return VectorField(
        crn.species, {sp: _polynomial(t, scale) for sp, t in zip(crn.species, terms)}
    )


def is_exactly_lumpable(crn: CRN, p: Partition) -> bool:
    """Does constancy across blocks propagate from states to derivatives?

    Decided by substituting each species variable with its block
    representative and comparing the resulting components within every
    block as canonical integer term maps.
    """
    return exact_lumpability_witness(crn, p) is None


def exact_lumpability_witness(
    crn: CRN, p: Partition
) -> tuple[Species, Species] | None:
    """A within-block species pair whose components differ after merging
    block variables; None when the partition is exactly lumpable."""
    check_partition(crn, p)
    if len(p.blocks) == len(p.species):
        return None
    return _exact_witness(_terms(crn, p.block_index, _shared(p))[1], p)


def _exact_witness(
    merged: list[dict[Monomial, int] | None], p: Partition
) -> tuple[Species, Species] | None:
    for block in p.blocks:
        reference = merged[block[0].id]
        for sp in block[1:]:
            if merged[sp.id] != reference:
                return block[0], sp
    return None


def _block_sums(
    crn: CRN, p: Partition, shared: Sequence[bool] | None = None
) -> tuple[int, list[dict[Monomial, int]]]:
    """L and each block's component sum times L: flux-table rows added per
    block, terms that cancel not stored.  With ``shared`` (per species id,
    whether its block holds two or more species), only the rows whose
    monomial holds such a species are added, into every block's sum: the
    sums' partial derivatives in those species come from these rows
    alone."""
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


def _shear_pairs(p: Partition) -> list[tuple[int, int]]:
    pairs = []
    for block in p.blocks:
        for a, b in zip(block, block[1:]):
            pairs.append((a.id, b.id))
    return pairs


def is_ordinarily_lumpable(crn: CRN, p: Partition) -> bool:
    """Can every block's component sum be written in block-sum variables?

    A polynomial depends only on the block sums exactly when it is
    invariant under all within-block shears ``V_i += t, V_j -= t``;
    consecutive pairs generate them all, so the check is finite and
    exact.  A sum ``s`` is invariant under the shear of ``(i, j)``
    exactly when ``ds/dV_i == ds/dV_j``, since over the rationals a
    polynomial in ``t`` is constant exactly when its derivative in ``t``
    is zero; the check compares those partial derivatives.
    """
    return ordinary_lumpability_witness(crn, p) is None


def ordinary_lumpability_witness(
    crn: CRN, p: Partition
) -> tuple[int, tuple[int, int]] | None:
    """None if lumpable, else (block index, offending shear pair)."""
    check_partition(crn, p)
    if len(p.blocks) == len(p.species):
        return None
    return _shear_witness(_block_sums(crn, p, _shared(p))[1], p)


def _partial_derivatives(
    s: dict[Monomial, int], variables: set[int]
) -> dict[int, dict[Monomial, int]]:
    """The nonzero partial derivatives of ``s`` in ``variables``, as term
    maps keyed by variable.  Distinct monomials have distinct derivatives
    in one variable, so no terms merge and equal derivatives compare equal.
    """
    derivs: dict[int, dict[Monomial, int]] = {}
    for mono, coef in s.items():
        for k, (var, exp) in enumerate(mono):
            if var in variables:
                lowered = ((var, exp - 1),) if exp > 1 else ()
                derivs.setdefault(var, {})[mono[:k] + lowered + mono[k + 1 :]] = coef * exp
    return derivs


def _shear_witness(
    sums: list[dict[Monomial, int]], p: Partition
) -> tuple[int, tuple[int, int]] | None:
    """First shear pair, then first block, whose sum changes under it.

    A sum that depends on neither variable of a pair does not change under
    its shear, so each pair looks only at the blocks whose sums depend on
    one of its variables, in ascending order.
    """
    pairs = _shear_pairs(p)
    sheared = {var for pair in pairs for var in pair}
    derivs = []
    # The blocks, ascending, whose sum depends on each sheared variable.
    holders: dict[int, list[int]] = {}
    for block_idx, s in enumerate(sums):
        d = _partial_derivatives(s, sheared)
        derivs.append(d)
        for var in d:
            holders.setdefault(var, []).append(block_idx)
    for i, j in pairs:
        hi, hj = holders.get(i, []), holders.get(j, [])
        for block_idx in hi if hi == hj else sorted({*hi, *hj}):
            d = derivs[block_idx]
            if d.get(i) != d.get(j):
                return block_idx, (i, j)
    return None


def lumped_field_forward(crn: CRN, p: Partition) -> VectorField:
    """The block-sum ODE system, one variable per block.

    Components are keyed by the quotient species (block representatives);
    variable ``i`` stands for the sum of block ``i``.  Raises
    :class:`NotLumpableError` when the block sums cannot be rewritten.
    """
    check_partition(crn, p)
    scale, sums = _block_sums(crn, p)
    witness = _shear_witness(sums, p)
    if witness is not None:
        block_idx, _ = witness
        members = ", ".join(sp.name for sp in p.blocks[block_idx])
        raise NotLumpableError(
            f"block sums are not expressible in block variables (block {{{members}}})"
        )
    # On the shear-invariant subspace, evaluating at "all block mass on the
    # least member" is a right inverse of the block-sum map, so renaming
    # each block's least member to the block variable and zeroing the rest
    # recovers the block-sum polynomial exactly.  The renaming is one to
    # one on the monomials it keeps, so no terms merge.
    section = [idx if rep else None for rep, idx in zip(_representative_mask(p), p.block_index)]
    qspecies = quotient_species(p)
    components = {
        qspecies[idx]: _polynomial(
            {m: val for mono, val in s.items() if (m := _rename(mono, section)) is not None},
            scale,
        )
        for idx, s in enumerate(sums)
    }
    return VectorField(species=qspecies, components=components)


def lumped_field_backward(crn: CRN, p: Partition) -> VectorField:
    """The representative ODE system under within-block variable merging.

    Keeps one component per block representative with every species
    variable replaced by its representative.  Raises
    :class:`NotLumpableError` when the partition is not exactly lumpable.
    """
    check_partition(crn, p)
    scale, merged = _terms(crn, p.block_index)
    if _exact_witness(merged, p) is not None:
        raise NotLumpableError("partition is not exactly lumpable")
    qspecies = quotient_species(p)
    components = {
        qspecies[idx]: _polynomial(merged[block[0].id], scale)
        for idx, block in enumerate(p.blocks)
    }
    return VectorField(species=qspecies, components=components)
