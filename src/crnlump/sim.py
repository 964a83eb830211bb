"""Numerical integration and trajectory-level verification.

The integrator wraps scipy's embedded Runge-Kutta 4(5) with adaptive
steps (defaults rtol 1e-8 / atol 1e-10, well below the 1e-6 acceptance
tolerances used by the verification helpers).  The right-hand side is
compiled once per integration from the exact vector field: each
distinct monomial becomes a column of state indices (repeated per unit
of exponent, padded with a slot that holds 1.0), so one numpy gather and
product evaluates every monomial, and a sparse float coefficient matrix
maps the monomial values to the derivatives.  For a mass-action field
that is ``N @ (k * y[r1] * y[r2])`` with ``N`` the stoichiometry, but
any polynomial field, constant terms and higher powers included, works.

``verify_forward`` integrates a network and its block-sum reduction and
compares block sums against reduced variables over time;
``verify_backward`` integrates a network from block-constant initial
conditions and reports both the within-block spread and the deviation
from the representative-reduced system.

Errors are measured absolutely below magnitude one and relatively above
it, since concentrations span orders of magnitude across models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse import csr_matrix

from .core import (
    CRN,
    IntegrationError,
    Partition,
    PartitionError,
    Species,
    check_partition,
)
from .odes import VectorField, vector_field
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

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10
DEFAULT_T_END = 50.0
DEFAULT_POINTS = 201


@dataclass(frozen=True)
class InitialCondition:
    """Nonnegative exact concentrations, one per species.

    Values are kept as Fractions so that equal-initial-condition
    partitioning is exact; they are converted to floats only at
    integration time.
    """

    species: tuple[Species, ...]
    values: Mapping[Species, Fraction]

    @classmethod
    def from_map(
        cls,
        crn: CRN,
        mapping: Mapping[str, Fraction | int | str] | Mapping[Species, Fraction],
        default: Fraction | int = 0,
    ) -> "InitialCondition":
        values: dict[Species, Fraction] = {}
        for key, raw in mapping.items():
            sp = crn.by_name(key if isinstance(key, str) else key.name)
            if not isinstance(key, str) and key != sp:
                # A species of another network is an unknown species here.
                raise KeyError(f"unknown species {key.name}")
            value = Fraction(raw)
            if value < 0:
                raise ValueError(f"negative initial concentration for {sp.name}")
            values[sp] = value
        for sp in crn.species:
            values.setdefault(sp, Fraction(default))
        return cls(species=crn.species, values=values)

    def get(self, sp: Species) -> Fraction:
        return self.values[sp]

    def as_array(self) -> np.ndarray:
        return np.array([float(self.values[sp]) for sp in self.species])

    def constant_on(self, p: Partition) -> bool:
        for block in p.blocks:
            first = self.values[block[0]]
            if any(self.values[sp] != first for sp in block[1:]):
                return False
        return True


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


def _compile(vf: VectorField):
    """The right-hand side ``y -> f(y)``, evaluated by numpy per call.

    Column ``j`` of ``factors`` lists the state indices of the j-th
    distinct monomial, an index repeated once per unit of exponent and
    padded with index ``n``, whose slot holds 1.0.  One gather and a
    product down the columns give every monomial value; a sparse
    coefficient matrix maps them to the derivatives.
    """
    n = len(vf.species)
    monomials: dict[tuple, int] = {}
    rows, cols, coefs = [], [], []
    for i, sp in enumerate(vf.species):
        for mono, coef in vf.components[sp].terms.items():
            rows.append(i)
            cols.append(monomials.setdefault(mono, len(monomials)))
            coefs.append(float(coef))
    width = max((sum(exp for _, exp in mono) for mono in monomials), default=0)
    factors = np.full((width, len(monomials)), n, dtype=np.intp)
    for j, mono in enumerate(monomials):
        slots = [var for var, exp in mono for _ in range(exp)]
        factors[: len(slots), j] = slots
    matrix = csr_matrix((coefs, (rows, cols)), shape=(n, len(monomials)))
    padded = np.ones(n + 1)

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        padded[:n] = y
        return matrix @ padded[factors].prod(axis=0)

    return rhs


def _check_integration_args(n_points: int, **positive: float) -> None:
    for name, value in positive.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points!r}")


def _check_initial_condition(crn: CRN, v0: InitialCondition) -> None:
    if tuple(v0.species) != crn.species:
        raise ValueError("initial condition is not over the species of this network")


def integrate(
    vf: VectorField,
    v0: InitialCondition,
    t_end: float,
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    t_eval: Sequence[float] | None = None,
    n_points: int = DEFAULT_POINTS,
) -> Trajectory:
    """Integrate a vector field from t=0 to ``t_end`` on a dense grid.

    Raises :class:`ValueError` unless ``t_end``, ``rtol`` and ``atol``
    are finite and positive and ``n_points`` is at least 1, and
    :class:`IntegrationError` on solver failure or non-finite output.
    """
    _check_integration_args(n_points, t_end=t_end, rtol=rtol, atol=atol)
    if tuple(v0.species) != tuple(vf.species):
        raise ValueError("initial condition does not match the vector field species")
    grid = (
        np.asarray(t_eval, dtype=float)
        if t_eval is not None
        else np.linspace(0.0, float(t_end), n_points)
    )
    result = solve_ivp(
        _compile(vf),
        (0.0, float(t_end)),
        v0.as_array(),
        method="RK45",
        rtol=rtol,
        atol=atol,
        t_eval=grid,
    )
    if not result.success:
        reached = result.t[-1] if result.t.size else 0.0
        raise IntegrationError(f"integration failed at t={reached:g}: {result.message}")
    values = result.y.T
    if not np.isfinite(values).all():
        raise IntegrationError("integration produced non-finite values")
    return Trajectory(species=vf.species, times=result.t, values=values)


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV text: header of species names, one row per time point."""
    lines = ["t," + ",".join(sp.name for sp in traj.species)]
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
    reduction over a shared time grid.

    Raises :class:`ValueError` unless ``t_end``, ``tol``, ``rtol`` and
    ``atol`` are finite and positive, ``n_points`` is at least 1 and
    ``v0`` is over the species of ``crn``, and :class:`PartitionError`
    unless ``p`` partitions the species of ``crn``, all before any other
    work.
    """
    _check_integration_args(n_points, t_end=t_end, tol=tol, rtol=rtol, atol=atol)
    check_partition(crn, p)
    _check_initial_condition(crn, v0)
    reduced = forward_reduce(crn, p)
    grid = np.linspace(0.0, float(t_end), n_points)
    original = integrate(
        vector_field(crn), v0, t_end, rtol=rtol, atol=atol, t_eval=grid
    )
    block_sums = {}
    for idx, block in enumerate(p.blocks):
        total = Fraction(0)
        for sp in block:
            total += v0.get(sp)
        block_sums[reduced.crn.species[idx]] = total
    reduced_v0 = InitialCondition.from_map(reduced.crn, block_sums)
    lumped = integrate(
        vector_field(reduced.crn), reduced_v0, t_end, rtol=rtol, atol=atol, t_eval=grid
    )
    max_error = 0.0
    for idx, block in enumerate(p.blocks):
        summed = np.zeros_like(grid)
        for sp in block:
            summed += original.column(sp)
        err = _scaled_error(lumped.values[:, idx] - summed, summed)
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
    tracks its representative in the reduced system.

    Requires ``v0`` constant on ``p``, and raises :class:`ValueError` on
    the arguments :func:`verify_forward` rejects.
    """
    _check_integration_args(n_points, t_end=t_end, tol=tol, rtol=rtol, atol=atol)
    check_partition(crn, p)
    _check_initial_condition(crn, v0)
    if not v0.constant_on(p):
        raise PartitionError("initial condition violates block equality")
    reduced = backward_reduce(crn, p)
    grid = np.linspace(0.0, float(t_end), n_points)
    original = integrate(
        vector_field(crn), v0, t_end, rtol=rtol, atol=atol, t_eval=grid
    )
    reduced_v0 = InitialCondition.from_map(
        reduced.crn,
        {qsp: v0.get(p.blocks[idx][0]) for idx, qsp in enumerate(reduced.crn.species)},
    )
    lumped = integrate(
        vector_field(reduced.crn), reduced_v0, t_end, rtol=rtol, atol=atol, t_eval=grid
    )
    max_spread = 0.0
    for block in p.blocks:
        if len(block) == 1:
            continue
        cols = np.stack([original.column(sp) for sp in block], axis=1)
        spread = cols.max(axis=1) - cols.min(axis=1)
        err = _scaled_error(spread, cols.max(axis=1))
        max_spread = max(max_spread, float(err.max()))
    max_dev = 0.0
    for idx, block in enumerate(p.blocks):
        rep_col = lumped.values[:, idx]
        for sp in block:
            err = _scaled_error(original.column(sp) - rep_col, rep_col)
            max_dev = max(max_dev, float(err.max()))
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
