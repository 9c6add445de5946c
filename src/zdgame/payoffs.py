"""Discounted average expected payoffs by three independent routes.

The workhorse is a 4x4 determinant whose fourth column holds an arbitrary
outcome-weight vector; the ratio of two such determinants gives the
discounted average payoff.  One kernel, :func:`_payoff_terms`, forms the
normalizer and payoff numerators from the cofactors for this module, the
gradients and the ascent loop, and holds the only vanishing-normalizer
check in Python (the compiled sweep loop, ``_climb.c``, repeats it in
C); with the matrix rows and cofactors it also runs on numpy arrays, one
element per strategy pair, for the verify suite.  A direct linear solve
and a truncated geometric series provide independent cross-checks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._linalg import det3
from .errors import NumericalError
from .game import (
    PayoffParams,
    _initial_terms,
    _transition_rows,
    strategy_tuple,
    validate_delta,
)


# Below this magnitude the normalizing determinant is treated as vanished,
# which only happens outside the valid (strategies in the cube, 0<delta<1)
# domain.
NORMALIZER_FLOOR = 1e-14


class PayoffPair(NamedTuple):
    s_x: float
    s_y: float


def _matrix_rows(p, q, delta):
    """First three columns of the payoff determinant, one tuple per row.

    Rows follow the prior-outcome order (CC, DC, CD, DD): the two mixed
    rows are exchanged relative to the outcome indexing so that row ``l``
    is the only row containing Y's entry ``q_l``.  Strategy entries may be
    floats or arrays; arrays go through the same operations in the same
    order, element by element, so each element equals its float result.
    """
    a = 1.0 - delta
    p0, p1, p2, p3, p4 = p
    q0, q1, q2, q3, q4 = q
    ap0 = a * p0
    aq0 = a * q0
    apq = ap0 * q0
    return (
        (-1.0 + delta * p1 * q1 + apq, -1.0 + delta * p1 + ap0, -1.0 + delta * q1 + aq0),
        (delta * p3 * q2 + apq, delta * p3 + ap0, -1.0 + delta * q2 + aq0),
        (delta * p2 * q3 + apq, -1.0 + delta * p2 + ap0, delta * q3 + aq0),
        (delta * p4 * q4 + apq, delta * p4 + ap0, delta * q4 + aq0),
    )


def _place_by_row(f):
    """Reorder an outcome-indexed weight vector (CC, CD, DC, DD) onto the
    matrix rows (CC, DC, CD, DD)."""
    return (f[0], f[2], f[1], f[3])


def _cofactors(rows):
    """Signed cofactors of the fourth column, one per row."""
    r0, r1, r2, r3 = rows
    return (
        -det3(r1, r2, r3),
        det3(r0, r2, r3),
        -det3(r0, r1, r3),
        det3(r0, r1, r2),
    )


def state_determinant(p, q, delta, f) -> float:
    """4x4 determinant pairing an outcome-weight vector with the game structure.

    ``f`` is indexed by joint outcome (CC, CD, DC, DD).  With ``f`` all
    ones this is the positive normalizer; with a payoff vector the ratio to
    the normalizer is the discounted average payoff.  Strategy entries and
    ``f`` may lie outside [0, 1]: the determinant is a polynomial and probe
    evaluations extrapolate it.
    """
    pt, qt = strategy_tuple(p), strategy_tuple(q)
    delta = validate_delta(delta)
    rows = _matrix_rows(pt, qt, delta)
    return _weigh(_cofactors(rows), tuple(float(v) for v in f))


def _weigh(c, f):
    """Pair the cofactors with an outcome-indexed weight vector ``f``."""
    g = _place_by_row(f)
    return g[0] * c[0] + g[1] * c[1] + g[2] * c[2] + g[3] * c[3]


def _vanished_normalizer(value: float) -> NumericalError:
    return NumericalError(
        f"normalizing determinant {value!r} below {NORMALIZER_FLOOR}; "
        "inputs lie outside the valid domain"
    )


def _payoff_terms(c, params: PayoffParams) -> tuple[float, float, float]:
    """Normalizer and X's and Y's payoff numerators; rejects a vanished normalizer.

    The cofactors may be floats or equal-length arrays (one element per
    strategy pair); an array is rejected if any element has vanished.
    """
    d_ones = c[0] + c[1] + c[2] + c[3]
    below = abs(d_ones) < NORMALIZER_FLOOR
    if below if type(below) is bool else below.any():
        raise _vanished_normalizer(d_ones if type(below) is bool else float(d_ones[below][0]))
    T, S = params.T, params.S
    # payoff vectors placed by row: X -> (1, T, S, 0), Y -> (1, S, T, 0)
    return d_ones, c[0] + T * c[1] + S * c[2], c[0] + S * c[1] + T * c[2]


def _payoffs(pt, qt, delta, params: PayoffParams) -> tuple[float, float]:
    """(s_X, s_Y) for strategies and discount that are already coerced."""
    d_ones, n_x, n_y = _payoff_terms(_cofactors(_matrix_rows(pt, qt, delta)), params)
    return n_x / d_ones, n_y / d_ones


def payoff_determinant(p, q, delta, params: PayoffParams) -> PayoffPair:
    """Discounted average payoffs (s_X, s_Y) as a ratio of determinants."""
    pt, qt = strategy_tuple(p), strategy_tuple(q)
    return PayoffPair(*_payoffs(pt, qt, validate_delta(delta), params))


def _inverse_payoffs(pt, qt, delta, params: PayoffParams):
    """(s_X, s_Y) by the resolvent solve, on coerced floats or on arrays
    with one element per strategy pair.

    A stack of pairs is one stacked solve; its systems, and the payoff
    products taken as ``(1, 4) @ (4, 1)`` matrix products, give each pair
    the bits of its own solve.
    """
    m = np.moveaxis(np.array(_transition_rows(pt, qt)), (0, 1), (-1, -2))  # transposed
    v0 = np.moveaxis(np.array(_initial_terms(pt[0], qt[0])), 0, -1)
    delta = np.asarray(delta)[..., None, None]
    try:
        w = np.linalg.solve(np.eye(4) - delta * m, v0[..., None])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"resolvent solve failed: {exc}") from None
    w = np.swapaxes((1.0 - delta) * w, -1, -2)
    s_x = np.matmul(w, np.array(params.payoff_vector_x())[:, None])[..., 0, 0]
    s_y = np.matmul(w, np.array(params.payoff_vector_y())[:, None])[..., 0, 0]
    return s_x, s_y


def payoff_inverse(p, q, delta, params: PayoffParams) -> PayoffPair:
    """Discounted average payoffs via the resolvent linear solve.

    Solves (I - delta*M)^T w^T = v(0)^T and returns (1-delta) * w . S_i.
    """
    pt, qt = strategy_tuple(p), strategy_tuple(q)
    s_x, s_y = _inverse_payoffs(pt, qt, validate_delta(delta), params)
    return PayoffPair(float(s_x), float(s_y))


def series_horizon(delta: float, params: PayoffParams, tol: float) -> int:
    """Smallest round count H whose geometric tail bound drops below ``tol``.

    The bound used is delta^(H+1) * max(T, -S, 1) / (1 - delta) < tol.
    """
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    delta = validate_delta(delta)
    m = max(params.T, -params.S, 1.0)

    def bound(h):
        return delta ** (h + 1) * m / (1.0 - delta)

    target = tol * (1.0 - delta) / m
    h = max(0, math.ceil(math.log(target) / math.log(delta)) - 1)
    while bound(h) >= tol:
        h += 1
    while h > 0 and bound(h - 1) < tol:
        h -= 1
    return h


def _series_rounds(rounds, v, rows, weight, delta, acc_x, acc_y, sx, sy):
    """Add ``rounds`` terms of the discounted payoff series to ``acc_x`` and
    ``acc_y``, from state distribution ``v`` at discount weight ``weight``;
    returns the state after them as ``(v, weight, acc_x, acc_y)``.

    Floats or equal-length arrays (one element per strategy pair, updated
    in place); each element equals its float result.
    """
    r0, r1, r2, r3 = rows
    for _ in range(rounds):
        acc_x += weight * (v[0] * sx[0] + v[1] * sx[1] + v[2] * sx[2] + v[3] * sx[3])
        acc_y += weight * (v[0] * sy[0] + v[1] * sy[1] + v[2] * sy[2] + v[3] * sy[3])
        weight *= delta
        v = (
            v[0] * r0[0] + v[1] * r1[0] + v[2] * r2[0] + v[3] * r3[0],
            v[0] * r0[1] + v[1] * r1[1] + v[2] * r2[1] + v[3] * r3[1],
            v[0] * r0[2] + v[1] * r1[2] + v[2] * r2[2] + v[3] * r3[2],
            v[0] * r0[3] + v[1] * r1[3] + v[2] * r2[3] + v[3] * r3[3],
        )
    return v, weight, acc_x, acc_y


def payoff_series(p, q, delta, params: PayoffParams, tol: float = 1e-10) -> PayoffPair:
    """Discounted average payoffs by direct summation of the round series.

    Truncated at :func:`series_horizon`, guaranteeing an absolute error
    below ``tol`` in each component.
    """
    pt, qt = strategy_tuple(p), strategy_tuple(q)
    delta = validate_delta(delta)
    horizon = series_horizon(delta, params, tol)
    _, _, acc_x, acc_y = _series_rounds(
        horizon + 1, _initial_terms(pt[0], qt[0]), _transition_rows(pt, qt), 1.0, delta,
        0.0, 0.0, params.payoff_vector_x(), params.payoff_vector_y(),
    )
    scale = 1.0 - delta
    return PayoffPair(scale * acc_x, scale * acc_y)


# At or below this many unfinished pairs, the stacked series sums each one
# on floats: a round costs ~47 numpy calls on the arrays.  1 000 random
# pairs (delta uniform in [0.01, 0.99)) took ~90 ms with no float tail and
# ~40-45 ms with a tail of 16 to 48 pairs (best of 7, 2-vCPU x86 VM,
# Python 3.11, numpy 2.4).
_SERIES_TAIL = 32


def _series_payoffs(p, q, delta, params: PayoffParams, tol: float):
    """(s_X, s_Y) of :func:`payoff_series` for ``(5, n)`` strategy arrays
    and ``n`` discounts, each element bit for bit.

    The pairs are summed longest horizon first, so the unfinished ones are
    always a prefix: a pass of rounds runs until the shortest unfinished
    horizon ends, then that prefix shrinks.  Each pair thus adds its terms
    in :func:`payoff_series`'s order.
    """
    horizon = np.array([series_horizon(d, params, tol) for d in delta.tolist()], dtype=np.int64)
    order = np.argsort(-horizon, kind="stable")
    horizon = horizon[order].tolist()
    p, q, d = p[:, order], q[:, order], delta[order]
    n = len(d)
    v = _initial_terms(p[0], q[0])
    rows = _transition_rows(p, q)
    weight, acc_x, acc_y = np.ones(n), np.zeros(n), np.zeros(n)
    sx, sy = params.payoff_vector_x(), params.payoff_vector_y()
    sum_x, sum_y = np.empty(n), np.empty(n)
    done = 0  # rounds summed so far by every unfinished pair
    while n > _SERIES_TAIL:
        # pairs [live, n) have the shortest horizon left
        live = horizon.index(horizon[n - 1])
        v, weight, acc_x, acc_y = _series_rounds(horizon[n - 1] + 1 - done, v, rows, weight,
                                                 d[:n], acc_x, acc_y, sx, sy)
        done = horizon[n - 1] + 1
        sum_x[live:n], sum_y[live:n] = acc_x[live:], acc_y[live:]
        v = tuple(x[:live] for x in v)
        rows = tuple(tuple(x[:live] for x in r) for r in rows)
        weight, acc_x, acc_y = weight[:live], acc_x[:live], acc_y[:live]
        n = live
    for i in range(n):
        _, _, sum_x[i], sum_y[i] = _series_rounds(
            horizon[i] + 1 - done, tuple(float(x[i]) for x in v),
            tuple(tuple(float(x[i]) for x in r) for r in rows), float(weight[i]),
            float(d[i]), float(acc_x[i]), float(acc_y[i]), sx, sy,
        )
    s_x, s_y = np.empty_like(sum_x), np.empty_like(sum_y)
    s_x[order] = (1.0 - d) * sum_x
    s_y[order] = (1.0 - d) * sum_y
    return s_x, s_y
