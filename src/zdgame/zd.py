"""Construction, recovery, and validation of zero-determinant (ZD) strategies.

A ZD strategy for player X pins the two discounted payoffs to a line
``s_X - kappa = chi * (s_Y - kappa)`` no matter what the opponent plays.
The positively correlated family (chi >= 1, "pcZD") covers extortionate
and generous play and only exists above a critical discount factor.

:func:`sample_pczd` draws such enforcers by rejection sampling, through
``_try_pczd``, the compiled ``zd_pczd``'s try step for step.  Verify's
two enforcer streams run those tries compiled, or call ``_try_pczd``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError, InfeasibleError
from .game import PayoffParams, Strategy, _finite, strategy_tuple, validate_delta
from .payoffs import payoff_determinant


def _number(name, value) -> float:
    """``value`` as a float, unless it is NaN or infinite."""
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be {'a number' if math.isnan(value) else 'finite'}, "
                          f"got {value}")
    return value


@dataclass(frozen=True)
class ZDParams:
    """Enforcer parameterization: scale ``phi``, slope ``chi``, baseline ``kappa``.

    The underlying linear-constraint coefficients are recovered as
    ``alpha = phi``, ``beta = -phi*chi``, ``gamma = phi*(chi-1)*kappa``.
    """

    phi: float
    chi: float
    kappa: float

    def __post_init__(self):
        for name in ("phi", "chi", "kappa"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if self.phi == 0.0:
            raise DomainError("phi must be nonzero (zero scale is the equalizer branch)")

    @property
    def alpha(self) -> float:
        return self.phi

    @property
    def beta(self) -> float:
        return -self.phi * self.chi

    @property
    def gamma(self) -> float:
        return self.phi * (self.chi - 1.0) * self.kappa


@dataclass(frozen=True)
class NotZD:
    """Returned by :func:`recover_zd` when the four defining equations are inconsistent."""

    residual: float

    def __bool__(self):
        return False


def _zd_targets(phi, chi, kappa, T, S):
    """Right-hand sides of the four conditional-probability equations."""
    return (
        1.0 - phi * (chi - 1.0) * (1.0 - kappa),
        1.0 - phi * (chi * T - S - (chi - 1.0) * kappa),
        phi * (T - chi * S + (chi - 1.0) * kappa),
        phi * (chi - 1.0) * kappa,
    )


def _entries(phi, chi, kappa, p0, delta, T, S):
    """The enforcer's p1..p4.  Pure float noise at the cube boundary
    (within 1e-12 outside) is absorbed."""
    base = (1.0 - delta) * p0
    out = []
    for t in _zd_targets(phi, chi, kappa, T, S):
        v = (t - base) / delta
        out.append(0.0 if -1e-12 <= v < 0.0 else 1.0 if 1.0 < v <= 1.0 + 1e-12 else v)
    return out


def _in_cube(v) -> bool:
    """Whether one probability lies in [0, 1]; NaN does not."""
    return 0.0 <= v <= 1.0


def _first_round(p0) -> float:
    """``p0`` as a float, unless it lies outside [0, 1] (NaN does)."""
    p0 = float(p0)
    if not _in_cube(p0):
        raise DomainError(f"p0={p0} outside [0, 1]")
    return p0


def _accepts(phi, entries) -> bool:
    """Whether a try's scale ``phi`` and entries p1..p4 make an enforcer:
    ``phi > 0`` and every entry in [0, 1]."""
    return phi > 0.0 and all(map(_in_cube, entries))


def make_zd(zd: ZDParams, p0: float, delta: float, params: PayoffParams) -> Strategy:
    """Solve the enforcer equations for the four conditional probabilities.

    The first-round probability ``p0`` is a free input.  Raises
    :class:`InfeasibleError` listing every entry that left [0, 1]; this is
    how a discount factor at or below the critical value manifests.
    """
    delta = validate_delta(delta)
    p0 = _first_round(p0)
    entries = _entries(zd.phi, zd.chi, zd.kappa, p0, delta, params.T, params.S)
    violations = [(name, v) for name, v in zip(("p1", "p2", "p3", "p4"), entries)
                  if not _in_cube(v)]
    if violations:
        detail = ", ".join(f"{n}={v:.6g}" for n, v in violations)
        raise InfeasibleError(
            f"no valid strategy for phi={zd.phi}, chi={zd.chi}, kappa={zd.kappa}, "
            f"p0={p0}, delta={delta}: {detail}",
            violations=violations,
        )
    return Strategy(p0, *entries)


# Largest equation residual at which recover_zd accepts its fit.
_FIT_TOL = 1e-10


def recover_zd(p, delta, params: PayoffParams):
    """Fit the enforcer coefficients to a strategy.

    The four defining equations form an overdetermined linear system in
    (alpha, beta, gamma); it is solved by least squares and accepted only
    when the worst equation residual is at most ``_FIT_TOL`` (1e-10).
    Returns :class:`ZDParams`, or :class:`NotZD` when inconsistent.  Raises
    :class:`DegenerateError` on the equalizer branch (|alpha| <= 1e-12),
    where the slope is undefined, and :class:`DomainError` on a NaN or
    infinite entry of ``p``, whose residual would be NaN.
    """
    pt = _finite("p", strategy_tuple(p))
    delta = validate_delta(delta)
    T, S = params.T, params.S
    p0, p1, p2, p3, p4 = pt
    base = (1.0 - delta) * p0
    b = np.array(
        [
            -1.0 + delta * p1 + base,
            -1.0 + delta * p2 + base,
            delta * p3 + base,
            delta * p4 + base,
        ]
    )
    a = np.array(
        [
            [1.0, 1.0, 1.0],
            [S, T, 1.0],
            [T, S, 1.0],
            [0.0, 0.0, 1.0],
        ]
    )
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.max(np.abs(a @ coeffs - b)))
    if residual > _FIT_TOL:
        return NotZD(residual=residual)
    alpha, beta, gamma = (float(v) for v in coeffs)
    if abs(alpha) <= 1e-12:
        raise DegenerateError(
            f"alpha={alpha:.3e} vanishes: equalizer strategy, slope undefined"
        )
    phi = alpha
    chi = -beta / alpha
    scale = phi * (chi - 1.0)
    kappa = gamma / scale if abs(scale) > 1e-300 else 0.0
    return ZDParams(phi=phi, chi=chi, kappa=kappa)


def critical_discount(params: PayoffParams) -> float:
    """Largest discount factor at which no positively correlated enforcer exists."""
    return max((params.T - 1.0) / params.T, -params.S / (1.0 - params.S))


def zd_consistency_residual(p, delta, params: PayoffParams) -> float:
    """Scalar consequence of the four enforcer equations; ~0 for every ZD strategy."""
    _, p1, p2, p3, p4 = strategy_tuple(p)
    delta = validate_delta(delta)
    theta = params.theta
    return abs(
        delta * p2 + delta * p3 - 1.0 - 2.0 * delta * p4
        + (1.0 - delta * p1 + delta * p4) * theta
    )


@dataclass(frozen=True)
class PcZDReport:
    """Outcome of the positively-correlated check, with diagnostics."""

    is_pczd: bool
    chi: float | None
    kappa: float | None
    zd_ok: bool
    equalizer: bool
    chi_ok: bool
    delta_ok: bool
    ordering_ok: bool
    critical_delta: float

    def __bool__(self):
        return self.is_pczd


def is_pczd(p, delta, params: PayoffParams) -> PcZDReport:
    """True iff the strategy is ZD with slope chi >= 1 and delta above critical.

    The report also carries the conditional-probability ordering checks
    p1 > p2 and p3 > p4 that every positively correlated enforcer satisfies.
    """
    pt = strategy_tuple(p)
    delta = validate_delta(delta)
    dc = critical_discount(params)
    delta_ok = delta > dc
    try:
        recovered = recover_zd(pt, delta, params)
    except DegenerateError:
        recovered = None  # the equalizer branch
    zd = recovered if isinstance(recovered, ZDParams) else None
    chi_ok = zd is not None and zd.chi >= 1.0 - 1e-12
    return PcZDReport(
        is_pczd=chi_ok and delta_ok,
        chi=None if zd is None else zd.chi,
        kappa=None if zd is None else zd.kappa,
        zd_ok=not isinstance(recovered, NotZD),
        equalizer=recovered is None,
        chi_ok=chi_ok,
        delta_ok=delta_ok,
        ordering_ok=pt[1] > pt[2] and pt[3] > pt[4],
        critical_delta=dc,
    )


def verify_linear_relation(p, zd: ZDParams, delta, params: PayoffParams, q) -> float:
    """Residual of the enforced payoff line at one opponent strategy."""
    return _line_residual(*payoff_determinant(p, q, delta, params), zd)


def _line_residual(s_x, s_y, zd: ZDParams):
    """Distance of payoffs from the enforced line; floats or arrays."""
    return abs(s_x - zd.kappa - zd.chi * (s_y - zd.kappa))


def _narrow(lo, hi, const, slope, delta):
    """The window ``(lo, hi)`` cut by the entry ``(const + slope * phi) / delta``;
    ``min`` and ``max`` keep the first of equal values."""
    if abs(slope) < 1e-300:
        return lo, (hi if _in_cube(const / delta) else -math.inf)
    bound_a = -const / slope
    bound_b = (delta - const) / slope
    return max(lo, min(bound_a, bound_b)), min(hi, max(bound_a, bound_b))


def _phi_window(chi, kappa, p0, delta, T, S):
    """Bounds ``(lo, hi)`` of the scales phi > 0 that keep p1..p4 in the
    cube; the window is empty unless ``lo < hi``.

    Each entry is affine in phi, ``p_j = (const_j + slope_j * phi) / delta``,
    so the cube constraints intersect to a single interval, which the
    entries cut one at a time.  An entry with a vanishing slope leaves the
    window as it is, or empties it when its constant lies outside the cube.
    """
    base = (1.0 - delta) * p0
    lo, hi = _narrow(0.0, math.inf, 1.0 - base, -(chi - 1.0) * (1.0 - kappa), delta)
    lo, hi = _narrow(lo, hi, 1.0 - base, -(chi * T - S - (chi - 1.0) * kappa), delta)
    lo, hi = _narrow(lo, hi, -base, T - chi * S + (chi - 1.0) * kappa, delta)
    return _narrow(lo, hi, -base, (chi - 1.0) * kappa, delta)


def feasible_phi_interval(chi, kappa, p0, delta, params: PayoffParams):
    """Open interval of scale values phi > 0 yielding a valid strategy, or None.

    Raises :class:`DomainError` for a NaN or infinite ``chi`` or ``kappa``
    and a ``p0`` outside [0, 1].
    """
    delta = validate_delta(delta)
    lo, hi = _phi_window(_number("chi", chi), _number("kappa", kappa), _first_round(p0),
                         delta, params.T, params.S)
    if not (lo < hi):
        return None
    return (lo, hi)


# A drawn enforcer has chi uniform in [_CHI_MIN, _CHI_MAX) and, unless it
# is fixed, delta uniform in [critical value + 0.01, _DELTA_MAX).
_CHI_MIN = 1.0 + 1e-6
_CHI_MAX = 6.0
_DELTA_MAX = 0.995


def _delta_low(dc: float) -> float:
    """Lower end of the drawn discount factors above the critical value
    ``dc``; raises :class:`DomainError` when it leaves no room for them."""
    if not dc + 0.01 < _DELTA_MAX:
        raise DomainError(
            f"critical discount {dc} leaves no room to draw delta: "
            f"delta_c + 0.01 must stay below {_DELTA_MAX}"
        )
    return dc + 0.01


# Tries of a draw before sample_pczd, or a draw of verify's corner tables,
# gives up; and int64's largest, a try count or step cap no run reaches.
_TRIES = 500
_INT64_MAX = 2**63 - 1


def _uniform(lo, hi, u):
    """numpy's uniform draw in [lo, hi) given the ``random()`` value ``u``."""
    return lo + (hi - lo) * u


def _try_pczd(rng, params: PayoffParams, tries, d_lo, delta=None, p0=None, kappa=None):
    """Up to ``tries`` of :func:`sample_pczd`'s tries, on arguments it has
    checked, with delta drawn from ``[d_lo, _DELTA_MAX)`` unless fixed:
    the first accepted ``(strategy, zd_params, delta)`` or None, and the
    tries rejected."""
    for t in range(tries):
        d = delta if delta is not None else _uniform(d_lo, _DELTA_MAX, rng.random())
        chi = _uniform(_CHI_MIN, _CHI_MAX, rng.random())
        k = kappa if kappa is not None else _uniform(0.0, 1.0, rng.random())
        start = p0 if p0 is not None else _uniform(0.0, 1.0, rng.random())
        lo, hi = _phi_window(chi, k, start, d, params.T, params.S)
        if lo < hi:
            span = hi - lo
            phi = _uniform(lo + 0.01 * span, hi - 0.01 * span, rng.random())
            entries = _entries(phi, chi, k, start, d, params.T, params.S)
            if _accepts(phi, entries):
                return (Strategy(start, *entries), ZDParams(phi=phi, chi=chi, kappa=k), d), t
    return None, tries


def _no_draw(params: PayoffParams, tries, delta=None, p0=None, kappa=None) -> RuntimeError:
    """The error of :func:`sample_pczd` when its ``tries`` find no enforcer."""
    return RuntimeError(
        f"no feasible pcZD draw in {tries} tries "
        f"(delta={delta}, p0={p0}, kappa={kappa}, T={params.T}, S={params.S})"
    )


def sample_pczd(rng, params: PayoffParams, delta=None, p0=None, kappa=None,
                tries: int = _TRIES):
    """Draw a random feasible positively correlated enforcer.

    Returns ``(strategy, zd_params, delta)``.  ``rng`` needs only
    ``random()``: a numpy Generator, or a stream of ``_native.stream``.
    Fixing ``delta``, ``p0``, or ``kappa`` narrows the draw (``p0=1,
    kappa=1`` gives the family with p0 = p1 = 1).  Raises ``RuntimeError``
    if no feasible draw is found, which signals an infeasible fixed
    combination rather than bad luck.  Fixed arguments are checked before
    any draw: :class:`DomainError` for a delta not above the critical
    discount (or no room to draw one above it), a p0 outside [0, 1], a
    NaN or infinite kappa, or ``tries`` not a positive integer.
    """
    dc = critical_discount(params)
    delta = delta if delta is None else float(delta)
    d_lo = None
    if delta is None:
        d_lo = _delta_low(dc)
    elif not (dc < delta < 1.0):
        raise DomainError(f"delta={delta} not above critical value {dc}")
    p0 = p0 if p0 is None else _first_round(p0)
    kappa = kappa if kappa is None else _number("kappa", kappa)
    if isinstance(tries, bool) or not isinstance(tries, numbers.Integral) or tries < 1:
        raise DomainError(f"tries must be a positive integer, got {tries!r}")
    draw, _ = _try_pczd(rng, params, tries, d_lo, delta, p0, kappa)
    if draw is None:
        raise _no_draw(params, tries, delta, p0, kappa)
    return draw
