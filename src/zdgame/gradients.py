"""Analytic payoff gradients with respect to the adaptive player's strategy.

Two independent routes are implemented.  The quotient route differentiates
the determinant ratio directly: each partial derivative of a 4x4
determinant is itself a 4x4 determinant because every strategy entry of
the adaptive player appears in exactly one row (or, for the first-round
probability, can be isolated into one row).  The factored route reduces
the same quantity to a product of a scalar factor, a strictly positive
common factor, a 3x3 minor, and a 2x2 reduced determinant d_ell, whose one
home is ``_reduced``; its sign structure is what forces every gradient
component to be nonnegative against a positively correlated enforcer.
The factored identity holds on the enforcer manifold (it substitutes the
enforcer consistency relation), so it requires a ZD opponent strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ._linalg import det4
from .errors import NotRelayError
from .game import PayoffParams, strategy_tuple, validate_delta
from .payoffs import _cofactors, _matrix_rows, _payoff_terms, _place_by_row


# Row l of the payoff determinant couples q_l with this p-subscript.
_ROW_P_INDEX = {1: 1, 2: 3, 3: 2, 4: 4}


class Gradient(NamedTuple):
    """Partial derivatives of a discounted payoff with respect to q0..q4."""

    g0: float
    g1: float
    g2: float
    g3: float
    g4: float


class FactorDecomposition(NamedTuple):
    """One gradient component as a product of named factors.

    For the conditional entries the product ``scalar * common * minor *
    reduced`` equals the squared normalizer times the gradient component;
    for the first-round entry ``minor`` is absent and the product equals
    the (unsquared) normalizer times the component.
    """

    scalar: float
    common: float
    minor: float | None
    reduced: float


def _weight_by_row(params: PayoffParams, payoff: str):
    if payoff == "x":
        return _place_by_row(params.payoff_vector_x())
    if payoff == "y":
        return _place_by_row(params.payoff_vector_y())
    raise ValueError(f"payoff must be 'x' or 'y', got {payoff!r}")


def common_factor(p, delta, params: PayoffParams) -> float:
    """Shared positive factor of every gradient component.

    Strictly positive for any strategy in the cube once S < 0.
    """
    return _common_factor(strategy_tuple(p), validate_delta(delta), params.S)


def _common_factor(pt, delta, S):
    _, p1, p2, _, p4 = pt
    return (1.0 - delta * p2) - (1.0 - delta * p1) * S + delta * p4 * (1.0 - S)


def _row_derivative_det(rows, g, ell, p_lam, delta):
    """Derivative of the weighted determinant in q_ell: replace row ell by
    the derivative of its entries."""
    k = ell - 1
    full = []
    for i in range(4):
        if i == k:
            full.append((delta * p_lam, 0.0, delta, 0.0))
        else:
            full.append((rows[i][0], rows[i][1], rows[i][2], g[i]))
    return det4(tuple(full))


def _q0_derivative_det(rows, g, p0, delta):
    """Derivative of the weighted determinant in q0.

    Subtracting the last row from the others removes q0 from them, so the
    derivative acts on the last row alone.
    """
    r3 = rows[3]
    reduced = [
        (rows[i][0] - r3[0], rows[i][1] - r3[1], rows[i][2] - r3[2], g[i] - g[3])
        for i in range(3)
    ]
    reduced.append((p0, 0.0, 1.0, 0.0))
    return (1.0 - delta) * det4(tuple(reduced))


def gradient_quotient(p, q, delta, params: PayoffParams, payoff: str = "x") -> Gradient:
    """Gradient of the chosen player's payoff in q, via the quotient rule.

    Each component is a 2x2 determinant of the weighted determinant, the
    normalizer, and their single-row derivatives, divided by the squared
    normalizer.
    """
    pt, qt = strategy_tuple(p), strategy_tuple(q)
    return Gradient(*_gradient_quotient(pt, qt, validate_delta(delta), params, payoff))


def _gradient_quotient(pt, qt, delta, params, payoff):
    """:func:`gradient_quotient` on coerced inputs, as a list of the five
    components.  The entries of ``pt``, ``qt`` and ``delta`` may be
    equal-length arrays; each element then equals its float result."""
    rows = _matrix_rows(pt, qt, delta)
    ones = (1.0, 1.0, 1.0, 1.0)
    g = _weight_by_row(params, payoff)
    d_ones, n_x, n_y = _payoff_terms(_cofactors(rows), params)
    d_pay = n_x if payoff == "x" else n_y
    denom = d_ones * d_ones
    out = [0.0] * 5
    # the normalizer's q0 derivative is exactly 0: its weight column cancels
    out[0] = d_ones * _q0_derivative_det(rows, g, pt[0], delta) / denom
    for ell in range(1, 5):
        p_lam = pt[_ROW_P_INDEX[ell]]
        d1 = _row_derivative_det(rows, ones, ell, p_lam, delta)
        dp = _row_derivative_det(rows, g, ell, p_lam, delta)
        out[ell] = (d_ones * dp - d1 * d_pay) / denom
    return out


def minor_dets(p, q, delta) -> tuple[float, float, float, float]:
    """3x3 minors of the payoff determinant, dropping row l and the weight column."""
    rows = _matrix_rows(strategy_tuple(p), strategy_tuple(q), validate_delta(delta))
    return _minors(_cofactors(rows))


def _minors(c):
    # cofactor l carries sign (-1)^l relative to the minor
    return (-c[0], c[1], -c[2], c[3])


def row_reduction_vector(p, q, delta, ell: int) -> tuple[float, float, float]:
    """3-vector combining row ``ell`` of the normalizer with the minor's columns.

    The reduced 2x2 determinants are built from these; the combination is
    independent of q0 and of q_ell by construction.
    """
    if ell not in (1, 2, 3, 4):
        raise ValueError(f"ell must be in 1..4, got {ell}")
    pt, qt = strategy_tuple(p), strategy_tuple(q)
    return _row_reduction(_matrix_rows(pt, qt, validate_delta(delta)), pt, ell)


def _row_reduction(rows, pt, ell):
    k = ell - 1
    z1, _, z3 = rows[k]
    p_lam = pt[_ROW_P_INDEX[ell]]
    shift = p_lam * z3 - z1
    others = [rows[i] for i in range(4) if i != k]
    return tuple(shift + r[0] - p_lam * r[2] for r in others)


def reduced_dets(p, q, delta, params: PayoffParams) -> tuple[float, float, float, float]:
    """2x2 reduced determinants for the four conditional entries.

    Alternating in sign: ``(-1)**l * value > 0`` throughout the strict
    payoff domain when the opponent is positively correlated.
    """
    pt, qt, delta = strategy_tuple(p), strategy_tuple(q), validate_delta(delta)
    rows = _matrix_rows(pt, qt, delta)
    return tuple(_reduced(pt, qt, delta, params.theta, ell, rows) for ell in (1, 2, 3, 4))


def q0_reduction_vector(p, q, delta) -> tuple[float, float, float]:
    """Column obtained when the first-round derivative determinant is expanded.

    Free of q0, and the entry point for the first-round reduced determinant.
    """
    return _q0_reduction(strategy_tuple(p), strategy_tuple(q), validate_delta(delta))


def _q0_reduction(pt, qt, delta):
    p0, p1, p2, p3, p4 = pt
    _, q1, q2, q3, q4 = qt
    u1 = (-1.0 + delta * q1 - delta * q4) * p0 - (-1.0 + delta * p1 * q1 - delta * p4 * q4)
    u2 = (-1.0 + delta * q2 - delta * q4) * p0 - (delta * p3 * q2 - delta * p4 * q4)
    u3 = (delta * q3 - delta * q4) * p0 - (delta * p2 * q3 - delta * p4 * q4)
    return (u1, u2, u3)


def reduced_det_q0(p, q, delta, params: PayoffParams) -> float:
    """2x2 reduced determinant for the first-round entry.

    Positive at every stalled configuration the ascent can reach, though it
    may be negative elsewhere in the cube.
    """
    pt, qt = strategy_tuple(p), strategy_tuple(q)
    return _reduced(pt, qt, validate_delta(delta), params.theta, 0)


def _reduced(pt, qt, delta, theta, ell, rows=None):
    """The reduced determinant d_ell on coerced inputs, floats or arrays,
    ell = 0 being the first round: the one body behind :func:`reduced_dets`,
    :func:`reduced_det_q0`, the factored gradient and ``tables``.  A
    conditional entry reads the payoff matrix ``rows``, built here if not
    given; the first round reads none."""
    if ell == 0:
        u1, u2, u3 = _q0_reduction(pt, qt, delta)
        return u1 * theta - (u2 + u3)
    r1, r2, r3 = _row_reduction(_matrix_rows(pt, qt, delta) if rows is None else rows, pt, ell)
    if ell == 1:
        return -(r1 + r2) + (2.0 - theta) * r3
    if ell == 2:
        return (r2 - 2.0 * r3) - theta * (r1 - r3)
    if ell == 3:
        return theta * (r1 - r3) - (r2 - 2.0 * r3)
    return (r2 + r3) - theta * r1


def gradient_factorized(p, q, delta, params: PayoffParams):
    """Gradient of X's payoff in q via the factored identities.

    Valid when ``p`` is a ZD strategy (the reduction substitutes the
    enforcer consistency relation).  Returns the gradient and one
    :class:`FactorDecomposition` per component, indexed j = 0..4.
    """
    pt, qt = strategy_tuple(p), strategy_tuple(q)
    delta = validate_delta(delta)
    grads, common, minors, reduced = _gradient_factorized(pt, qt, delta, params)
    decomp = [FactorDecomposition(1.0 - delta, common, None, reduced[0])]
    decomp += [
        FactorDecomposition(delta, common, minors[ell - 1], reduced[ell]) for ell in range(1, 5)
    ]
    return Gradient(*grads), tuple(decomp)


def _gradient_factorized(pt, qt, delta, params):
    """:func:`gradient_factorized` on coerced inputs, as the five gradient
    components with their common factor, four minors and five reduced
    determinants.  The entries of ``pt``, ``qt`` and ``delta`` may be
    equal-length arrays; each element then equals its float result."""
    rows = _matrix_rows(pt, qt, delta)
    c = _cofactors(rows)
    d_ones = _payoff_terms(c, params)[0]
    common = _common_factor(pt, delta, params.S)
    minors = _minors(c)
    denom_sq = d_ones * d_ones
    reduced = [_reduced(pt, qt, delta, params.theta, ell, rows) for ell in range(5)]
    grads = [(1.0 - delta) * common * reduced[0] / d_ones]
    grads += [delta * common * minors[ell - 1] * reduced[ell] / denom_sq for ell in range(1, 5)]
    return grads, common, minors, reduced


# Exact corner patterns at which one conditional-entry gradient vanishes
# against a positively correlated enforcer.  Each condition is a tuple of
# (vector, index, value) triples; index 0 is the first-round entry.  The
# catalog is validated, pattern by pattern and corner by corner, against
# the minors' closed-form corner values and direct gradient evaluation;
# see tests for the exhaustive cross-check in both directions.
ZERO_CONDITIONS = {
    1: (
        (("q", 0, 0), ("q", 3, 0), ("q", 4, 0)),
        (("p", 0, 0), ("p", 4, 0), ("q", 0, 0), ("q", 4, 0)),
        (("p", 0, 0), ("q", 2, 0), ("q", 3, 0), ("q", 4, 0)),
        (("p", 2, 0), ("q", 0, 0), ("q", 2, 0), ("q", 4, 0)),
        (("p", 4, 0), ("q", 0, 0), ("q", 2, 0), ("q", 3, 0)),
        (("p", 0, 0), ("p", 2, 0), ("q", 0, 1), ("q", 2, 0), ("q", 4, 0)),
        (("p", 0, 0), ("p", 4, 0), ("q", 0, 1), ("q", 2, 0), ("q", 3, 0)),
        (("p", 2, 0), ("p", 4, 0), ("q", 0, 0), ("q", 2, 0), ("q", 4, 1)),
        (("p", 0, 0), ("p", 2, 0), ("p", 4, 0), ("q", 0, 1), ("q", 2, 0), ("q", 4, 1)),
        (("p", 0, 1), ("p", 2, 0), ("p", 3, 1), ("q", 0, 0), ("q", 2, 0), ("q", 3, 1)),
        (("p", 0, 0), ("p", 2, 0), ("p", 3, 1), ("q", 0, 1), ("q", 2, 0), ("q", 3, 1)),
    ),
    2: (
        (("q", 0, 0), ("q", 3, 0), ("q", 4, 0)),
        (("p", 0, 1), ("p", 1, 1), ("q", 0, 1), ("q", 1, 1)),
        (("p", 0, 0), ("p", 4, 0), ("q", 0, 0), ("q", 4, 0)),
        (("p", 0, 1), ("q", 1, 0), ("q", 3, 0), ("q", 4, 0)),
    ),
    3: (
        (("q", 0, 1), ("q", 1, 1), ("q", 2, 1)),
        (("p", 0, 1), ("p", 1, 1), ("q", 0, 1), ("q", 1, 1)),
        (("p", 0, 0), ("p", 4, 0), ("q", 0, 0), ("q", 4, 0)),
        (("p", 0, 0), ("q", 1, 1), ("q", 2, 1), ("q", 4, 1)),
    ),
    4: (
        (("q", 0, 1), ("q", 1, 1), ("q", 2, 1)),
        (("p", 0, 1), ("p", 1, 1), ("q", 0, 1), ("q", 1, 1)),
        (("p", 0, 1), ("q", 1, 1), ("q", 2, 1), ("q", 3, 1)),
        (("p", 1, 1), ("q", 0, 1), ("q", 2, 1), ("q", 3, 1)),
        (("p", 3, 1), ("q", 0, 1), ("q", 1, 1), ("q", 3, 1)),
        (("p", 0, 1), ("p", 3, 1), ("q", 0, 0), ("q", 1, 1), ("q", 3, 1)),
        (("p", 1, 1), ("p", 3, 1), ("q", 0, 1), ("q", 1, 0), ("q", 3, 1)),
        (("p", 0, 1), ("p", 1, 1), ("p", 3, 1), ("q", 1, 0), ("q", 2, 1), ("q", 3, 1)),
        (("p", 0, 1), ("p", 1, 1), ("q", 0, 0), ("q", 2, 1), ("q", 3, 1)),
        (("p", 0, 1), ("p", 1, 1), ("p", 3, 1), ("q", 0, 0), ("q", 1, 0), ("q", 2, 0), ("q", 3, 1)),
        (("p", 0, 1), ("p", 2, 0), ("p", 3, 1), ("q", 0, 0), ("q", 1, 0), ("q", 2, 0), ("q", 3, 1)),
        (("p", 0, 0), ("p", 2, 0), ("p", 3, 1), ("q", 0, 1), ("q", 1, 0), ("q", 2, 0), ("q", 3, 1)),
    ),
}


# How near its value each entry of a zero condition must be.
_EXACT = 1e-12


def zero_gradient_condition(p, q, ell: int) -> bool:
    """True iff (p, q) matches one of the exact corner patterns zeroing
    the gradient in q_ell against a positively correlated enforcer, each
    entry within ``_EXACT`` (1e-12) of its value."""
    if ell not in ZERO_CONDITIONS:
        raise ValueError(f"ell must be in 1..4, got {ell}")
    return _matches_any(ZERO_CONDITIONS[ell], strategy_tuple(p), strategy_tuple(q), _EXACT)


def _matches_any(patterns, pt, qt, tol) -> bool:
    """True iff every (vector, index, value) triple of some pattern holds within ``tol``."""
    vectors = {"p": pt, "q": qt}
    return any(
        all(abs(vectors[name][idx] - value) <= tol for name, idx, value in pattern)
        for pattern in patterns
    )


# How near a corner value an entry of a stalled or final strategy counts
# as at it, for the relay and terminal classifiers.
_NEAR = 1e-6


@dataclass(frozen=True)
class RelayClassification:
    """Stalled-conditional-entry state: which catalog patterns it matches."""

    tags: tuple[str, ...]
    witness: dict
    gradients: Gradient

    @property
    def tag(self) -> str | None:
        return self.tags[0] if self.tags else None


@dataclass(frozen=True)
class TerminalClassification:
    """Endpoint classification of an adapting path."""

    tag: str  # "T1", "T2", or "OTHER"
    both_satisfied: bool
    witness: dict = field(hash=False)


_RELAY_PATTERNS = {
    # (vector, index, value) with vector "p" or "q'"
    "R1": ((("q", 0, 1), ("q", 1, 1), ("q", 2, 1)),),
    "R2": ((("p", 0, 1), ("p", 1, 1), ("q", 0, 1), ("q", 1, 1)),),
    "R3": ((("p", 0, 0), ("q", 1, 1), ("q", 2, 1), ("q", 3, 0), ("q", 4, 1)),),
    "R4": ((("p", 0, 1), ("q", 1, 1), ("q", 2, 1), ("q", 3, 1), ("q", 4, 0)),),
    "R5": ((("q", 1, 1), ("q", 2, 1), ("q", 3, 1), ("q", 4, 1)),),
}


def classify_relay(p, q_prime, delta, params: PayoffParams) -> RelayClassification:
    """Match a stalled strategy against the relay catalog R1..R5.

    Precondition: every conditional entry below 1 has a vanishing payoff
    gradient (below ``_NEAR``, 1e-6, in magnitude); otherwise
    :class:`NotRelayError` is raised.  Entries match a pattern's values
    within ``_NEAR``.  All matching tags are reported.
    """
    pt, qt = strategy_tuple(p), strategy_tuple(q_prime)
    g = gradient_quotient(pt, qt, delta, params, payoff="y")
    for ell in range(1, 5):
        if qt[ell] < 1.0 - _NEAR and abs(g[ell]) >= _NEAR:
            raise NotRelayError(
                f"entry q{ell}={qt[ell]:.6g} is below 1 but its gradient "
                f"{g[ell]:.3e} has not vanished"
            )
    tags = [tag for tag, patterns in _RELAY_PATTERNS.items()
            if _matches_any(patterns, pt, qt, _NEAR)]
    witness = {"p0": pt[0], "p1": pt[1], "q": qt}
    return RelayClassification(tags=tuple(tags), witness=witness, gradients=g)


def classify_terminal(p, q_star) -> TerminalClassification:
    """Classify a path endpoint: full unconditional cooperation (T1), the
    mutual-cooperation lock-in available when the enforcer always starts
    and rewards cooperation (T2), or neither.  An entry within ``_NEAR``
    (1e-6) of 1 counts as 1."""
    pt, qt = strategy_tuple(p), strategy_tuple(q_star)
    near_one = lambda v: v >= 1.0 - _NEAR
    t1 = near_one(qt[0]) and near_one(qt[1]) and near_one(qt[2])
    p_cc = near_one(pt[0]) and near_one(pt[1])
    t2 = p_cc and near_one(qt[0]) and near_one(qt[1])
    witness = {"p0": pt[0], "p1": pt[1], "q0": qt[0], "q1": qt[1], "q2": qt[2]}
    tag = "T2" if t2 else "T1" if t1 else "OTHER"
    return TerminalClassification(tag=tag, both_satisfied=t1 and t2, witness=witness)
