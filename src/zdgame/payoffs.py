"""Discounted average expected payoffs by three independent routes.

The workhorse is a 4x4 determinant whose fourth column holds an arbitrary
outcome-weight vector; the ratio of two such determinants gives the
discounted average payoff.  One kernel, :func:`_payoff_terms`, forms the
normalizer and payoff numerators from the cofactors for this module, the
gradients and the ascent loop, and holds the only vanishing-normalizer
check in Python (the compiled sweep loop, ``_climb.c``, repeats it in
C); with the matrix rows and cofactors it also runs on numpy arrays, one
element per strategy pair, for the verify suite.  A direct linear solve
and a truncated geometric series provide independent cross-checks; the
verify suite sums the series of all its pairs in one call of the
compiled ``zd_series`` (``_climb.c``), with a Python loop as fallback.
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


def _series_rounds(rounds, v, rows, delta, sx, sy):
    """Sums ``(acc_x, acc_y)`` of the first ``rounds`` terms of the
    discounted payoff series from the first-round distribution ``v``, on
    floats.  The compiled ``zd_series`` of ``_climb.c`` repeats this loop."""
    (r00, r01, r02, r03), (r10, r11, r12, r13), (r20, r21, r22, r23), (r30, r31, r32, r33) = rows
    x0, x1, x2, x3 = sx
    y0, y1, y2, y3 = sy
    v0, v1, v2, v3 = v
    weight, acc_x, acc_y = 1.0, 0.0, 0.0
    for _ in range(rounds):
        acc_x += weight * (v0 * x0 + v1 * x1 + v2 * x2 + v3 * x3)
        acc_y += weight * (v0 * y0 + v1 * y1 + v2 * y2 + v3 * y3)
        weight *= delta
        v0, v1, v2, v3 = (
            v0 * r00 + v1 * r10 + v2 * r20 + v3 * r30,
            v0 * r01 + v1 * r11 + v2 * r21 + v3 * r31,
            v0 * r02 + v1 * r12 + v2 * r22 + v3 * r32,
            v0 * r03 + v1 * r13 + v2 * r23 + v3 * r33,
        )
    return acc_x, acc_y


def payoff_series(p, q, delta, params: PayoffParams, tol: float = 1e-10) -> PayoffPair:
    """Discounted average payoffs by direct summation of the round series.

    Truncated at :func:`series_horizon`, guaranteeing an absolute error
    below ``tol`` in each component.
    """
    pt, qt = strategy_tuple(p), strategy_tuple(q)
    delta = validate_delta(delta)
    horizon = series_horizon(delta, params, tol)
    acc_x, acc_y = _series_rounds(horizon + 1, _initial_terms(pt[0], qt[0]),
                                  _transition_rows(pt, qt), delta,
                                  params.payoff_vector_x(), params.payoff_vector_y())
    scale = 1.0 - delta
    return PayoffPair(scale * acc_x, scale * acc_y)


def _series_payoffs(p, q, delta, params: PayoffParams, tol: float):
    """(s_X, s_Y) of :func:`payoff_series` for ``(5, n)`` strategy arrays
    and ``n`` discounts, each element bit for bit.

    All pairs are summed in one call of the compiled ``zd_series``
    whenever it builds.  Only where ``_native.series`` returns None (a
    failed build, or a patch that forces the Python loop) does each pair
    run on :func:`_series_rounds` instead, on floats.
    """
    rounds = [series_horizon(d, params, tol) + 1 for d in delta.tolist()]
    v = np.array(_initial_terms(p[0], q[0]))  # (4, n)
    rows = np.array(_transition_rows(p, q))  # (4, 4, n)
    sx, sy = params.payoff_vector_x(), params.payoff_vector_y()
    from . import _native  # imported on first use, so that importing zdgame loads no library

    sums = _native.series(rounds, v, rows, delta, sx, sy)
    if sums is None:
        pairs = zip(rounds, v.T.tolist(), rows.transpose(2, 0, 1).tolist(), delta.tolist())
        sums = np.array([_series_rounds(h, v_k, rows_k, d_k, sx, sy)
                         for h, v_k, rows_k, d_k in pairs]).reshape(-1, 2).T
    sum_x, sum_y = sums
    return (1.0 - delta) * sum_x, (1.0 - delta) * sum_y
