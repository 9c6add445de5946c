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
    _transition_rows,
    initial_distribution,
    strategy_tuple,
    transition_matrix,
    validate_delta,
)

__all__ = [
    "PayoffPair",
    "state_determinant",
    "payoff_determinant",
    "payoff_inverse",
    "payoff_series",
    "series_horizon",
]

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


def payoff_inverse(p, q, delta, params: PayoffParams) -> PayoffPair:
    """Discounted average payoffs via the resolvent linear solve.

    Solves (I - delta*M)^T w^T = v(0)^T and returns (1-delta) * w . S_i.
    """
    pt, qt = strategy_tuple(p), strategy_tuple(q)
    delta = validate_delta(delta)
    m = transition_matrix(pt, qt)
    v0 = np.array(initial_distribution(pt[0], qt[0]).v)
    try:
        w = np.linalg.solve((np.eye(4) - delta * m).T, v0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"resolvent solve failed: {exc}") from None
    w = (1.0 - delta) * w
    s_x = float(w @ np.array(params.payoff_vector_x()))
    s_y = float(w @ np.array(params.payoff_vector_y()))
    return PayoffPair(s_x, s_y)


def series_horizon(delta: float, params: PayoffParams, tol: float) -> int:
    """Smallest round count H whose geometric tail bound drops below ``tol``.

    The bound used is delta^(H+1) * max(T, -S, 1) / (1 - delta) < tol.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
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


def payoff_series(p, q, delta, params: PayoffParams, tol: float = 1e-10) -> PayoffPair:
    """Discounted average payoffs by direct summation of the round series.

    Truncated at :func:`series_horizon`, guaranteeing an absolute error
    below ``tol`` in each component.
    """
    pt, qt = strategy_tuple(p), strategy_tuple(q)
    delta = validate_delta(delta)
    horizon = series_horizon(delta, params, tol)
    rows = _transition_rows(pt, qt)
    sx_vec = params.payoff_vector_x()
    sy_vec = params.payoff_vector_y()
    v = initial_distribution(pt[0], qt[0]).v
    acc_x = 0.0
    acc_y = 0.0
    weight = 1.0
    for _ in range(horizon + 1):
        acc_x += weight * (v[0] * sx_vec[0] + v[1] * sx_vec[1] + v[2] * sx_vec[2] + v[3] * sx_vec[3])
        acc_y += weight * (v[0] * sy_vec[0] + v[1] * sy_vec[1] + v[2] * sy_vec[2] + v[3] * sy_vec[3])
        weight *= delta
        r0, r1, r2, r3 = rows
        v = (
            v[0] * r0[0] + v[1] * r1[0] + v[2] * r2[0] + v[3] * r3[0],
            v[0] * r0[1] + v[1] * r1[1] + v[2] * r2[1] + v[3] * r3[1],
            v[0] * r0[2] + v[1] * r1[2] + v[2] * r2[2] + v[3] * r3[2],
            v[0] * r0[3] + v[1] * r1[3] + v[2] * r2[3] + v[3] * r3[3],
        )
    scale = 1.0 - delta
    return PayoffPair(scale * acc_x, scale * acc_y)
