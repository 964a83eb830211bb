"""Numerical integration and trajectory-level verification.

The integrator is the Dormand-Prince Runge-Kutta 5(4) pair with
adaptive steps and quartic dense output (defaults rtol 1e-8 / atol
1e-10, well below the 1e-6 acceptance tolerances used by the
verification helpers).  It lives in :mod:`crnlump._rk45`, a transcription
of scipy's ``RK45`` path that gives scipy's results to the last bit
without importing ``scipy.integrate``.  The right-hand side
``N @ (k * y[r1] * y[r2])`` is compiled once per integration from the
flux table (:func:`crnlump.core.flux_table`) that the exact vector field
reads too: each key's reactant multiset becomes a column of state
indices (one per molecule, padded with a slot that holds 1.0), so one
numpy gather and product evaluates every monomial, and the rows' values
divided by L, laid out as compressed sparse rows, map them to the
derivatives.  No sparse-matrix object is built: each evaluation calls
scipy's compiled ``csr_matvec`` kernel on those arrays directly.  That
kernel is what ``csr_matrix @ vector`` runs, on the same arrays in the
same order, so the derivatives are the matrix product's to the last bit
without its per-call Python dispatch.  It is loaded from the extension
file of ``scipy.sparse._sparsetools`` alone, without the ``scipy.sparse``
package (see :func:`_load_csr_matvec`).  Empty reactants (a constant term)
and higher powers work too.  One
integration makes at most ``_MAX_EVALUATIONS`` right-hand-side
evaluations; a step that would pass that raises :class:`IntegrationError`.

``verify_forward`` and ``verify_backward`` integrate a network and its
quotient side by side, as one system of both sets of species, so one
step sequence serves both.  A Runge-Kutta step is linear in its stage
derivatives, and an exact lumping commutes with the field, so the step
carries the lumping exactly: on a correct quotient the reported error
is rounding (about 1e-16 to 1e-14), not the gap between two solver
runs.  The quotient's right-hand side is compiled from the quotient's
own flux table, so a wrong quotient diverges at the first stage.
``verify_forward`` compares block sums against reduced variables over
time; ``verify_backward`` starts from block-constant initial conditions
and reports both the within-block spread and the deviation from the
representative-reduced system.

Errors are measured absolutely below magnitude one and relatively above
it, since concentrations span orders of magnitude across models.

This module and :mod:`crnlump._rk45`, which only it imports, are the
ones that import numpy at their top; from scipy this module loads one
module, the compiled kernel's extension file.  Nothing else in the package
imports it at load time: the package looks its six numerical names up
here when they are read, and the CLI imports it inside ``simulate`` and
``compare``.
:class:`~crnlump.core.InitialCondition` and the ``DEFAULT_*`` settings
are defined in :mod:`crnlump.core` and imported here, so
``crnlump.sim.InitialCondition`` still names them.
"""

from __future__ import annotations

import importlib.util
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from itertools import chain, zip_longest
from typing import Sequence

import numpy as np

from . import _rk45
from .core import (
    CRN,
    DEFAULT_ATOL,
    DEFAULT_POINTS,
    DEFAULT_RTOL,
    DEFAULT_T_END,
    InitialCondition,
    IntegrationError,
    Partition,
    PartitionError,
    Species,
    _check_initial_condition,
    check_partition,
    flux_table,
)
from .reduce import backward_reduce, forward_reduce

__all__ = [
    "InitialCondition",
    "Trajectory",
    "integrate",
    "trajectory_to_csv",
    "VerificationReport",
    "verify_forward",
    "verify_backward",
]


def _load_csr_matvec():
    """scipy's compiled ``csr_matvec``, loaded from the extension file of
    ``scipy.sparse._sparsetools`` alone.

    Importing it the usual way runs ``scipy/sparse/__init__.py``, which
    loads some 300 modules this package never calls.  The file is looked
    up in scipy's directory, which ``find_spec`` of a top-level name gives
    without importing anything, and loaded under its bare name as a
    private module: nothing is registered in ``sys.modules``, so a later
    ``import scipy.sparse`` loads its own copy, as its attribute, and both
    copies run the same compiled code.  Where no such file is found (scipy
    missing, blocked in ``sys.modules`` or not installed as files), the
    usual import runs: the same function, or the same
    :class:`ModuleNotFoundError`.
    """
    spec = None
    scipy = importlib.util.find_spec("scipy")
    if scipy is not None and scipy.submodule_search_locations:
        sparse = os.path.join(scipy.submodule_search_locations[0], "sparse")
        finder = FileFinder(sparse, (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec("_sparsetools")
    if spec is None:
        from scipy.sparse._sparsetools import csr_matvec

        return csr_matvec
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.csr_matvec


csr_matvec = _load_csr_matvec()


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus per-species concentration columns."""

    species: tuple[Species, ...]
    times: np.ndarray
    values: np.ndarray  # shape (len(times), len(species))

    def column(self, sp: Species) -> np.ndarray:
        """The values of ``sp``; :class:`ValueError` for a species of another
        network."""
        sid = sp.id
        if 0 <= sid < len(self.species) and (
            self.species[sid] is sp or self.species[sid] == sp
        ):
            return self.values[:, sid]
        raise ValueError(f"unknown species {sp.name}")

    @property
    def min_value(self) -> float:
        return float(self.values.min()) if self.values.size else 0.0


# Most right-hand-side evaluations one integration may make.  The largest
# counts measured are 4934 (multisite n=4 to t=50) and 7250 (n=6 to t=50);
# a horizon far beyond a system's time scales needs far more, and is
# stopped here instead of running for hours.
_MAX_EVALUATIONS = 10**6


def _compile(*networks: CRN):
    """The right-hand side ``y -> f(y)`` of the networks side by side,
    evaluated by numpy per call: ``y`` holds the species of the first
    network, then those of the second, and so on.

    Each network's flux-table keys and rows are stacked, with species
    ids offset by the species of the networks before it.  Column ``j``
    of ``factors`` lists the reactants of the j-th key, an id repeated
    once per unit of multiplicity and padded with index ``n``, whose slot
    holds 1.0; it is filled one row at a time.  One gather per factor
    row, multiplied in order, gives every key's monomial, as a product
    down the columns would.  The rows' values divided by L (Python's
    ``val / scale``, rounded once) are the compressed sparse rows (CSR)
    of the matrix that maps the monomials to the derivatives: one row per
    species, its entries in increasing monomial order, the order a
    ``csr_matrix`` built from the same entries holds them in.  The
    entries are read in one pass over the chained rows, and each entry's
    monomial index is its key's, repeated once per entry of the key's
    row (a key whose row is empty gets none).  There is no sparse-matrix
    object: each call hands these arrays and a fresh zero vector straight
    to scipy's compiled ``csr_matvec``, which is what ``matrix @ vector``
    runs, so the result is that product to the last bit, without its
    per-call dispatch.  A network's block of the result is the
    right-hand side of that network alone, to the last bit.
    Every call returns a new array: the stepper keeps ``f`` while it
    fills the next stages.
    """
    rows, coefs, counts, monomials = [], [], [], []
    n = 0
    for crn in networks:
        scale, keys, flux_rows = flux_table(crn)
        rows += [n + sid for sid in chain.from_iterable(flux_rows)]
        coefs += [val / scale for val in chain.from_iterable(map(dict.values, flux_rows))]
        counts += map(len, flux_rows)
        monomials += ([n + sid for sid, m in reactants for _ in range(m)] for reactants in keys)
        n += crn.n_species
    n_cols, nnz = len(monomials), len(rows)
    # 32-bit indices where they fit, as scipy's sparse matrices hold them.
    index = np.int32 if max(n_cols, nnz) <= np.iinfo(np.int32).max else np.int64
    rows = np.array(rows, dtype=index)
    # The entries come in increasing monomial order; a stable sort by
    # species keeps that order within each species' row.
    order = np.argsort(rows, kind="stable")
    indices = np.repeat(np.arange(n_cols, dtype=index), counts)[order]
    data = np.array(coefs, dtype=float)[order]
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    # At least one factor row, so that a constant-only network's monomials
    # come out as the padding slot's 1.0.
    width = max(map(len, monomials), default=0) or 1
    factors = np.full((width, n_cols), n, dtype=np.intp)
    for k, slots in enumerate(zip_longest(*monomials, fillvalue=n)):
        factors[k] = slots
    first, *rest = factors
    padded = np.ones(n + 1)

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        padded[:n] = y
        m = padded[first]
        for f in rest:
            m *= padded[f]
        out = np.zeros(n)
        csr_matvec(n, n_cols, indptr, indices, data, m, out)
        return out

    return rhs


def _solve(networks, initials, t_end, rtol, atol, grid) -> list[Trajectory]:
    """Integrate the networks side by side, each from its initial
    condition, in one solver run: one step sequence serves them all.
    One :class:`Trajectory` per network, a column slice of the one result.

    Raises :class:`IntegrationError` when a rate or initial value exceeds
    the float range, before ``_MAX_EVALUATIONS`` right-hand-side
    evaluations would be passed, on solver failure or on non-finite
    output.
    """
    try:
        rhs = _compile(*networks)
        y0 = np.concatenate([v0.as_array() for v0 in initials])
    except OverflowError:
        raise IntegrationError("a rate or initial value exceeds the float range") from None
    # A solution that overflows ends in a too-small step or in non-finite
    # output, each an IntegrationError, so numpy's warnings on the way say
    # nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        times, values = _rk45.solve(rhs, y0, float(t_end), rtol, atol, grid, _MAX_EVALUATIONS)
    values = values.T
    if not np.isfinite(values).all():
        raise IntegrationError("integration produced non-finite values")
    trajectories, start = [], 0
    for crn in networks:
        end = start + crn.n_species
        trajectories.append(
            Trajectory(species=crn.species, times=times, values=values[:, start:end])
        )
        start = end
    return trajectories


def _check_integration_args(n_points: int, **positive: float) -> None:
    for name, value in positive.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points!r}")


def integrate(
    crn: CRN,
    v0: InitialCondition,
    t_end: float,
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    t_eval: Sequence[float] | None = None,
    n_points: int = DEFAULT_POINTS,
) -> Trajectory:
    """Integrate a network's ODEs from t=0 to ``t_end``, reporting the
    state at the times ``t_eval``, or at ``n_points`` evenly spaced times
    from 0 to ``t_end`` when ``t_eval`` is not given.

    Raises :class:`ValueError` unless ``t_end``, ``rtol`` and ``atol``
    are finite and positive, ``n_points`` is at least 1 and ``v0`` is
    over the species of ``crn``.  A given ``t_eval`` must be
    one-dimensional (else "`t_eval` must be 1-dimensional."), hold at
    least one time, lie within ``[0, t_end]`` (else "Values in `t_eval`
    are not within `t_span`.") and increase strictly (else "Values in
    `t_eval` are not properly sorted.").  An ``rtol`` below 100 machine
    epsilons is raised to that with a :class:`UserWarning`.  Raises
    :class:`IntegrationError` when a rate or initial value exceeds the
    float range, before ``_MAX_EVALUATIONS`` right-hand-side evaluations
    would be passed, on solver failure or on non-finite output.
    """
    _check_integration_args(n_points, t_end=t_end, rtol=rtol, atol=atol)
    _check_initial_condition(crn, v0)
    if t_eval is None:
        grid = np.linspace(0.0, float(t_end), n_points)
    else:
        grid = np.asarray(t_eval, dtype=float)
        if grid.ndim != 1:
            raise ValueError("`t_eval` must be 1-dimensional.")
        if not grid.size:
            raise ValueError("`t_eval` must hold at least one time.")
        if not ((grid >= 0) & (grid <= t_end)).all():
            raise ValueError("Values in `t_eval` are not within `t_span`.")
        if (np.diff(grid) <= 0).any():
            raise ValueError("Values in `t_eval` are not properly sorted.")
    (trajectory,) = _solve((crn,), (v0,), t_end, rtol, atol, grid)
    return trajectory


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV text: header of species names, one row per time point."""
    lines = [",".join(["t", *(sp.name for sp in traj.species)])]
    for k in range(len(traj.times)):
        row = [repr(float(traj.times[k]))]
        row.extend(repr(float(v)) for v in traj.values[k])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _scaled_error(diff: np.ndarray, reference: np.ndarray) -> np.ndarray:
    # Absolute when the reference is below one, relative above.
    return np.abs(diff) / np.maximum(1.0, np.abs(reference))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a trajectory-level reduction check."""

    mode: str
    max_error: float
    tol: float
    passed: bool
    max_spread: float | None
    max_representative_deviation: float | None
    negative_dip: float

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        parts = [f"{self.mode}: max error {self.max_error:.3e} (tol {self.tol:g}) {status}"]
        if self.max_spread is not None:
            parts.append(f"within-block spread {self.max_spread:.3e}")
        if self.max_representative_deviation is not None:
            parts.append(
                f"representative deviation {self.max_representative_deviation:.3e}"
            )
        if self.negative_dip < 0:
            parts.append(f"(most negative concentration {self.negative_dip:.1e})")
        return "; ".join(parts)


def _trajectories(crn, p, v0, t_end, tol, rtol, atol, n_points, reduce, block_value):
    """After every argument check, the trajectories of ``crn`` from ``v0``
    and of ``reduce(crn, p)`` from ``block_value(block)`` per block,
    integrated side by side in one solver run so that both share one step
    sequence; on a correct quotient they then agree to rounding."""
    _check_integration_args(n_points, t_end=t_end, tol=tol, rtol=rtol, atol=atol)
    check_partition(crn, p)
    _check_initial_condition(crn, v0)
    values = [block_value(block) for block in p.blocks]
    reduced = reduce(crn, p).crn
    reduced_v0 = InitialCondition.from_map(reduced, dict(zip(reduced.species, values)))
    grid = np.linspace(0.0, float(t_end), n_points)
    return _solve((crn, reduced), (v0, reduced_v0), t_end, rtol, atol, grid)


def _exact_sum(values: list) -> Fraction:
    """``sum(values, Fraction(0))``, the exact sum of a block's initial
    values.  When each is a :class:`Fraction` or an ``int``, what
    ``from_map`` and the parsers give, the numerators are added over one
    common denominator: one Fraction is made instead of one per value.
    Any other finite real, which a directly built condition may hold,
    goes through the running sum."""
    if all(type(v) is Fraction or type(v) is int for v in values):
        denominator = math.lcm(*(v.denominator for v in values))
        numerator = sum(v.numerator * (denominator // v.denominator) for v in values)
        return Fraction(numerator, denominator)
    return sum(values, Fraction(0))


def verify_forward(
    crn: CRN,
    p: Partition,
    v0: InitialCondition,
    t_end: float,
    tol: float,
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    n_points: int = DEFAULT_POINTS,
) -> VerificationReport:
    """Compare block sums of the original system against its block-sum
    reduction over a shared time grid.  Both are integrated as one
    system, so on a correct quotient the error is rounding, and an error
    well above rounding means the quotient is wrong.  The quotient starts
    from each block's exact sum of the members' initial values, which
    :func:`_exact_sum` forms over one common denominator.

    Raises :class:`ValueError` unless ``t_end``, ``tol``, ``rtol`` and
    ``atol`` are finite and positive, ``n_points`` is at least 1 and
    ``v0`` is over the species of ``crn``, and :class:`PartitionError`
    unless ``p`` partitions the species of ``crn``, all before any other
    work.
    """
    original, lumped = _trajectories(
        crn, p, v0, t_end, tol, rtol, atol, n_points, forward_reduce,
        lambda block: _exact_sum([v0.get(sp) for sp in block]),
    )
    species_rows, block_rows = original.values.T, lumped.values.T
    max_error = 0.0
    for block, lumped_row in zip(p.blocks, block_rows):
        # ``accumulate`` adds the members' rows one after another, as a
        # running sum does; ``sum`` may add them pairwise, which rounds
        # differently.  In place, in the block's own copy of its rows.
        rows = species_rows[[sp.id for sp in block]]
        summed = np.add.accumulate(rows, axis=0, out=rows)[-1]
        err = _scaled_error(lumped_row - summed, summed)
        max_error = max(max_error, float(err.max()))
    return VerificationReport(
        mode="forward",
        max_error=max_error,
        tol=tol,
        passed=max_error <= tol,
        max_spread=None,
        max_representative_deviation=None,
        negative_dip=min(original.min_value, lumped.min_value),
    )


def verify_backward(
    crn: CRN,
    p: Partition,
    v0: InitialCondition,
    t_end: float,
    tol: float,
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    n_points: int = DEFAULT_POINTS,
) -> VerificationReport:
    """Check that blocks stay constant over time and that every species
    tracks its representative in the reduced system.  As in
    :func:`verify_forward`, the network and its quotient are integrated
    as one system, so on a correct quotient the error is rounding.

    Requires ``v0`` constant on ``p``, and raises :class:`ValueError` on
    the arguments :func:`verify_forward` rejects.
    """

    def representative_value(block):
        if len({v0.get(sp) for sp in block}) > 1:
            raise PartitionError("initial condition violates block equality")
        return v0.get(block[0])

    original, lumped = _trajectories(
        crn, p, v0, t_end, tol, rtol, atol, n_points, backward_reduce,
        representative_value,
    )
    species_rows, block_rows = original.values.T, lumped.values.T
    max_spread = max_dev = 0.0
    for block, rep_row in zip(p.blocks, block_rows):
        rows = species_rows[[sp.id for sp in block]]
        if len(block) > 1:
            top = rows.max(axis=0)
            err = _scaled_error(top - rows.min(axis=0), top)
            max_spread = max(max_spread, float(err.max()))
        # The scaled deviation of every member from the representative,
        # computed in place in the block's own copy of its rows.
        rows -= rep_row
        np.abs(rows, out=rows)
        rows /= np.maximum(1.0, np.abs(rep_row))
        max_dev = max(max_dev, float(rows.max()))
    max_error = max(max_spread, max_dev)
    return VerificationReport(
        mode="backward",
        max_error=max_error,
        tol=tol,
        passed=max_error <= tol,
        max_spread=max_spread,
        max_representative_deviation=max_dev,
        negative_dip=min(original.min_value, lumped.min_value),
    )
