"""The explicit Runge-Kutta 5(4) integrator of :func:`crnlump.sim.integrate`.

This is the Dormand-Prince pair (J. R. Dormand and P. J. Prince, "A
family of embedded Runge-Kutta formulae", J. Comput. Appl. Math. 6(1),
1980) with Shampine's quartic dense output (L. F. Shampine, "Some
Practical Runge-Kutta Formulas", Math. Comp. 46(173), 1986), as scipy
1.17's initial value solver runs it with ``method="RK45"`` and a
``t_eval`` grid.  It transcribes that one path: the initial step choice,
the accept/reject loop, the stages, the error norm and the dense output
do the same floating-point operations in the same order, so ``t`` and
``y`` equal scipy's to the last bit (``tests/test_sim.py`` checks this
against scipy).  It integrates forward from t = 0 only, with no step
limit, events or vectorized evaluation.  The tableau is read-only, so
the module holds no mutable state.

Transcribed from scipy/integrate/_ivp/{ivp,base,common,rk}.py, which
carry this notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import IntegrationError

EPS = np.finfo(float).eps
SAFETY = 0.9  # multiplies steps computed from the asymptotic error
MIN_FACTOR = 0.2  # the most a rejected step shrinks
MAX_FACTOR = 10  # the most an accepted step grows
ERROR_EXPONENT = -1 / (4 + 1)  # the error estimate is of order 4
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _frozen(rows) -> np.ndarray:
    array = np.array(rows)
    array.setflags(write=False)
    return array


C = _frozen([0, 1/5, 3/10, 4/5, 8/9, 1])
A = _frozen([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
B = _frozen([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = _frozen([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
# The optimum c_6 of Shampine (1986).
P = _frozen([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
# Per stage s after the first: s, the weights of the stages before it and
# its time fraction.
STAGES = tuple((s, A[s, :s], float(C[s])) for s in range(1, len(C)))


def _norm(x: np.ndarray):
    """The RMS norm; ``np.linalg.norm`` of a real vector is this square
    root of ``x.dot(x)``."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, y0, t_bound, f0, rtol, atol):
    """The first step, chosen as in Hairer, Norsett and Wanner, "Solving
    Ordinary Differential Equations I", Sec. II.4, and kept inside
    ``[0, t_bound]``; makes one evaluation of ``fun``."""
    interval_length = t_bound  # the integration starts at t = 0
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(h0, y1)
    d2 = _norm((f1 - f0) / scale)
    # h0 is 0 when f0 / scale overflows: divide as numpy does, to inf or,
    # for 0 / 0, nan.
    d2 = d2 / h0 if h0 else (math.inf if d2 > 0 else math.nan)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (4 + 1))
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K, stages, K_B):
    """One step of size ``h``: the fifth-order solution and its
    derivative, with the seven stages left in ``K``.  ``stages`` holds,
    per stage ``s`` after the first, ``s``, the view ``K[:s].T``, the
    stage's weights and its time fraction; ``K_B`` is ``K[:-1].T``."""
    K[0] = f
    for s, K_s, a, c in stages:
        dy = np.dot(K_s, a) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(K_B, B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _dense(t_old, t, y_old, K, points):
    """The quartic interpolant of the step from ``t_old`` to ``t`` at
    ``points`` inside it, one column per point."""
    Q = K.T.dot(P)
    h = t - t_old
    x = (points - t_old) / h
    p = np.cumprod(np.broadcast_to(x, (Q.shape[1], x.size)), axis=0)
    y = h * np.dot(Q, p)
    y += y_old[:, None]
    return y


def solve(fun, y0, t_bound, rtol, atol, t_eval, max_evaluations):
    """Integrate ``y' = fun(t, y)`` from ``y(0) = y0`` to ``t_bound`` and
    return the times ``t_eval`` and the solution there, one column per
    time.

    ``t_bound``, ``rtol`` and ``atol`` are finite and positive, and
    ``t_eval`` increases strictly within ``[0, t_bound]``.  An ``rtol``
    below 100 machine epsilons is raised to that with a warning.  Raises
    :class:`IntegrationError` when the step size falls below the spacing
    of floats, and before a step would take the evaluations of ``fun``
    past ``max_evaluations`` (two to start, then six per step tried).
    """
    if rtol < 100 * EPS:
        warnings.warn(
            f"rtol {rtol} is below 100 machine epsilons; using {100 * EPS}", stacklevel=2
        )
        rtol = 100 * EPS
    n = y0.size
    if n == 0:
        # Nothing to integrate: one jump to t_bound, every time is reached.
        return t_eval.copy(), np.empty((0, t_eval.size))
    t, y = 0.0, y0
    f = fun(t, y)
    h_abs = _initial_step(fun, y, t_bound, f, rtol, atol)
    evaluations = 2
    K = np.empty((len(C) + 1, n))
    stages = [(s, K[:s].T, a, c) for s, a, c in STAGES]
    K_B, K_E = K[:-1].T, K.T
    ts, ys, i = [], [], 0
    # The grid time reached next; the grid ends at or before t_bound.
    next_time = t_eval[0]
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                reached = t_eval[i - 1] if i else 0.0
                raise IntegrationError(f"integration failed at t={reached:g}: {TOO_SMALL_STEP}")
            t_new = t + h_abs
            if t_new > t_bound:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            if evaluations + 6 > max_evaluations:
                # The first evaluation past the budget; C[5] is 1, so the
                # last two evaluations are both at t + h.
                stage = min(max_evaluations - evaluations + 1, 5)
                raise IntegrationError(
                    f"integration stopped after {max_evaluations} right-hand-side "
                    f"evaluations at t={t + C[stage] * h:g} of {t_bound:g}"
                )
            evaluations += 6
            y_new, f_new = _rk_step(fun, t, y, f, h, K, stages, K_B)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _norm(np.dot(K_E, E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if t >= next_time:
            i_new = int(np.searchsorted(t_eval, t, side="right"))
            points = t_eval[i:i_new]
            ts.append(points)
            ys.append(_dense(t_old, t, y_old, K, points))
            i = i_new
            next_time = t_eval[i] if i < t_eval.size else math.inf
    return np.hstack(ts), np.hstack(ys)
