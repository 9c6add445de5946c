"""Construction, recovery, and validation of zero-determinant (ZD) strategies.

A ZD strategy for player X pins the two discounted payoffs to a line
``s_X - kappa = chi * (s_Y - kappa)`` no matter what the opponent plays.
The positively correlated family (chi >= 1, "pcZD") covers extortionate
and generous play and only exists above a critical discount factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError, InfeasibleError
from .game import PayoffParams, Strategy, strategy_tuple, validate_delta
from .payoffs import payoff_determinant

__all__ = [
    "ZDParams",
    "NotZD",
    "PcZDReport",
    "make_zd",
    "recover_zd",
    "critical_discount",
    "is_pczd",
    "verify_linear_relation",
    "zd_consistency_residual",
    "feasible_phi_interval",
    "sample_pczd",
    "PcZDStream",
]


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
        if float(self.phi) == 0.0:
            raise DomainError("phi must be nonzero (zero scale is the equalizer branch)")
        for name in ("phi", "chi", "kappa"):
            object.__setattr__(self, name, float(getattr(self, name)))

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


def _where(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``: one choice for a float
    condition, element by element for an array one.

    With ``cond = b < a`` it is Python's ``min(a, b)``, and with ``b > a``
    its ``max(a, b)``, the first of equal values (signed zeros included)
    kept.  The formulas below go through it, so one copy of each serves
    the scalar functions and the stacked sampler.
    """
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _zd_targets(phi, chi, kappa, T, S):
    """Right-hand sides of the four conditional-probability equations."""
    return (
        1.0 - phi * (chi - 1.0) * (1.0 - kappa),
        1.0 - phi * (chi * T - S - (chi - 1.0) * kappa),
        phi * (T - chi * S + (chi - 1.0) * kappa),
        phi * (chi - 1.0) * kappa,
    )


def _entries(phi, chi, kappa, p0, delta, T, S):
    """The enforcer's p1..p4, floats or element by element.  Pure float
    noise at the cube boundary (within 1e-12 outside) is absorbed."""
    base = (1.0 - delta) * p0
    out = []
    for t in _zd_targets(phi, chi, kappa, T, S):
        v = (t - base) / delta
        v = _where((-1e-12 <= v) & (v < 0.0), 0.0, v)
        out.append(_where((1.0 < v) & (v <= 1.0 + 1e-12), 1.0, v))
    return out


def make_zd(zd: ZDParams, p0: float, delta: float, params: PayoffParams) -> Strategy:
    """Solve the enforcer equations for the four conditional probabilities.

    The first-round probability ``p0`` is a free input.  Raises
    :class:`InfeasibleError` listing every entry that left [0, 1]; this is
    how a discount factor at or below the critical value manifests.
    """
    delta = validate_delta(delta)
    p0 = float(p0)
    if not (0.0 <= p0 <= 1.0):
        raise DomainError(f"p0={p0} outside [0, 1]")
    entries = _entries(zd.phi, zd.chi, zd.kappa, p0, delta, params.T, params.S)
    violations = [
        (name, v) for name, v in zip(("p1", "p2", "p3", "p4"), entries) if not (0.0 <= v <= 1.0)
    ]
    if violations:
        detail = ", ".join(f"{n}={v:.6g}" for n, v in violations)
        raise InfeasibleError(
            f"no valid strategy for phi={zd.phi}, chi={zd.chi}, kappa={zd.kappa}, "
            f"p0={p0}, delta={delta}: {detail}",
            violations=violations,
        )
    return Strategy(p0, *entries)


def recover_zd(p, delta, params: PayoffParams, tol: float = 1e-10):
    """Fit the enforcer coefficients to a strategy.

    The four defining equations form an overdetermined linear system in
    (alpha, beta, gamma); it is solved by least squares and accepted only
    when the worst equation residual stays below ``tol``.  Returns
    :class:`ZDParams`, or :class:`NotZD` when inconsistent.  Raises
    :class:`DegenerateError` on the equalizer branch (|alpha| <= 1e-12),
    where the slope is undefined.
    """
    pt = strategy_tuple(p)
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
    if residual > tol:
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


def is_pczd(p, delta, params: PayoffParams, tol: float = 1e-10) -> PcZDReport:
    """True iff the strategy is ZD with slope chi >= 1 and delta above critical.

    The report also carries the conditional-probability ordering checks
    p1 > p2 and p3 > p4 that every positively correlated enforcer satisfies.
    """
    pt = strategy_tuple(p)
    delta = validate_delta(delta)
    dc = critical_discount(params)
    delta_ok = delta > dc
    ordering_ok = pt[1] > pt[2] and pt[3] > pt[4]
    try:
        recovered = recover_zd(pt, delta, params, tol=tol)
    except DegenerateError:
        return PcZDReport(
            is_pczd=False, chi=None, kappa=None, zd_ok=True, equalizer=True,
            chi_ok=False, delta_ok=delta_ok, ordering_ok=ordering_ok, critical_delta=dc,
        )
    if isinstance(recovered, NotZD):
        return PcZDReport(
            is_pczd=False, chi=None, kappa=None, zd_ok=False, equalizer=False,
            chi_ok=False, delta_ok=delta_ok, ordering_ok=ordering_ok, critical_delta=dc,
        )
    chi_ok = recovered.chi >= 1.0 - 1e-12
    return PcZDReport(
        is_pczd=chi_ok and delta_ok,
        chi=recovered.chi,
        kappa=recovered.kappa,
        zd_ok=True,
        equalizer=False,
        chi_ok=chi_ok,
        delta_ok=delta_ok,
        ordering_ok=ordering_ok,
        critical_delta=dc,
    )


def verify_linear_relation(p, zd: ZDParams, delta, params: PayoffParams, q) -> float:
    """Residual of the enforced payoff line at one opponent strategy."""
    pair = payoff_determinant(p, q, delta, params)
    return abs(pair.s_x - zd.kappa - zd.chi * (pair.s_y - zd.kappa))


def _phi_window(chi, kappa, p0, delta, T, S):
    """Bounds ``(lo, hi)`` of the scales phi > 0 that keep p1..p4 in the
    cube, floats or element by element; the window is empty where not
    ``lo < hi``.

    Each entry is affine in phi, ``p_j = (const_j + slope_j * phi) / delta``,
    so the cube constraints intersect to a single interval.  An entry with
    a vanishing slope leaves the window as it is, or empties it when its
    constant lies outside the cube.
    """
    base = (1.0 - delta) * p0
    const = (1.0 - base, 1.0 - base, -base, -base)
    slope = (
        -(chi - 1.0) * (1.0 - kappa),
        -(chi * T - S - (chi - 1.0) * kappa),
        T - chi * S + (chi - 1.0) * kappa,
        (chi - 1.0) * kappa,
    )
    lo, hi = 0.0, math.inf
    for c, s in zip(const, slope):
        flat = abs(s) < 1e-300
        s = _where(flat, 1.0, s)
        bound_a = -c / s
        bound_b = (delta - c) / s
        left = _where(bound_b < bound_a, bound_b, bound_a)
        right = _where(bound_b > bound_a, bound_b, bound_a)
        inside = (0.0 <= c / delta) & (c / delta <= 1.0)
        lo = _where(flat, lo, _where(left > lo, left, lo))
        hi = _where(flat, _where(inside, hi, -math.inf), _where(right < hi, right, hi))
    return lo, hi


def feasible_phi_interval(chi, kappa, p0, delta, params: PayoffParams):
    """Open interval of scale values phi > 0 yielding a valid strategy, or None."""
    delta = validate_delta(delta)
    lo, hi = _phi_window(chi, kappa, float(p0), delta, params.T, params.S)
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


def sample_pczd(rng, params: PayoffParams, delta=None, p0=None, kappa=None,
                tries: int = 500):
    """Draw a random feasible positively correlated enforcer.

    Returns ``(strategy, zd_params, delta)``.  ``rng`` is a numpy Generator;
    fixing ``delta``, ``p0``, or ``kappa`` narrows the draw (``p0=1,
    kappa=1`` gives the family with p0 = p1 = 1).  Raises ``RuntimeError``
    if no feasible draw is found, which signals an infeasible fixed
    combination rather than bad luck, and :class:`DomainError` before any
    draw when delta is to be drawn but the critical discount leaves no
    room for it.
    """
    dc = critical_discount(params)
    d_lo = _delta_low(dc) if delta is None else None
    for _ in range(tries):
        d = delta if delta is not None else rng.uniform(d_lo, _DELTA_MAX)
        if not (dc < d < 1.0):
            raise DomainError(f"delta={d} not above critical value {dc}")
        chi = rng.uniform(_CHI_MIN, _CHI_MAX)
        k = kappa if kappa is not None else rng.uniform(0.0, 1.0)
        start = p0 if p0 is not None else rng.uniform(0.0, 1.0)
        window = feasible_phi_interval(chi, k, start, d, params)
        if window is None:
            continue
        lo, hi = window
        span = hi - lo
        phi = rng.uniform(lo + 0.01 * span, hi - 0.01 * span)
        if phi <= 0.0:
            continue
        zd = ZDParams(phi=phi, chi=chi, kappa=k)
        try:
            strat = make_zd(zd, start, d, params)
        except InfeasibleError:
            continue
        return strat, zd, d
    raise RuntimeError(
        f"no feasible pcZD draw in {tries} tries "
        f"(delta={delta}, p0={p0}, kappa={kappa}, T={params.T}, S={params.S})"
    )


def _uniform(lo, hi, u):
    """``rng.uniform(lo, hi)`` given the ``rng.random()`` value ``u`` it draws."""
    return lo + (hi - lo) * u


# Offsets of the uniform stream that one pass of PcZDStream evaluates.  A
# pass has a fixed cost of ~40 numpy calls, so larger blocks are faster, but
# the peak RSS of the README verify run grows with them: its 34 115 tries
# took ~0.2, 0.1 and 0.05 s at 256, 1024 and 2048 offsets, at a VmHWM of
# 41.1, 41.1, 41.4 and 42.5 MB at 512, 1024, 2048 and 4096 (40.8 MB with
# the draw-by-draw loop; 2-vCPU x86 VM, Python 3.11, numpy 2.4).
_BLOCK = 1024


class PcZDStream:
    """The draws of ``sample_pczd(rng, params, tries=1)``, retried until one
    is accepted and each followed by ``rng.random(extra)``, made as stacked
    passes over the uniform stream.

    With delta, p0 and kappa drawn, a try takes ``rng.random()`` values in a
    fixed pattern (``uniform(lo, hi)`` is ``lo + (hi - lo) * random()``):
    delta, chi, kappa and p0, then phi unless the phi window is empty.  So
    every offset of the stream is one possible try, and a pass evaluates
    the tries at all offsets of a block at once.  A try at offset i goes
    on at i + 4 when its window is empty, at i + 5 when it fails after
    drawing phi, and at i + 5 + extra when it is accepted.  :meth:`take`
    then walks that chain from the current offset.  The columns and the
    rejection count equal the draw-by-draw loop's bit for bit; ``rng`` is
    read up to a block ahead of it.
    """

    def __init__(self, rng, params: PayoffParams, extra: int):
        self._d_lo = _delta_low(critical_discount(params))
        self._rng = rng
        self._params = params
        self._span = 5 + extra  # uniforms an accepted try takes
        self._u = np.empty(0)
        self._next: list[int] = []  # offset of the try after the one at i
        self._accepted: list[bool] = []
        self._cols = np.empty((6 + extra, 0))
        self._pos = 0
        self.rejections = 0

    def take(self, k: int) -> np.ndarray:
        """The next ``k`` accepted draws as a ``(6 + extra, k)`` array: rows
        p0..p4, then the ``extra`` uniforms, then delta."""
        parts = [self._cols[:, :0]]
        while k:
            if self._pos >= len(self._next):
                self._evaluate()
            nxt, accepted, pos = self._next, self._accepted, self._pos
            picked = []
            while len(picked) < k and pos < len(nxt):
                if accepted[pos]:
                    picked.append(pos)
                else:
                    self.rejections += 1
                pos = nxt[pos]
            self._pos = pos
            parts.append(self._cols[:, picked])
            k -= len(picked)
        return np.concatenate(parts, axis=1)

    def _evaluate(self):
        """Append a block to the stream left from the current offset, and
        evaluate the try at every offset whose uniforms it holds."""
        u = np.concatenate([self._u[self._pos:], self._rng.random(_BLOCK)])
        m = max(0, len(u) - self._span + 1)
        d, chi, kappa, p0, v = (u[j:j + m] for j in range(5))
        T, S = self._params.T, self._params.S
        d = _uniform(self._d_lo, _DELTA_MAX, d)
        chi = _uniform(_CHI_MIN, _CHI_MAX, chi)
        kappa = _uniform(0.0, 1.0, kappa)
        p0 = _uniform(0.0, 1.0, p0)
        lo, hi = _phi_window(chi, kappa, p0, d, T, S)
        with np.errstate(invalid="ignore"):  # inf - inf where the window is empty
            span = hi - lo
            phi = _uniform(lo + 0.01 * span, hi - 0.01 * span, v)
        entries = _entries(phi, chi, kappa, p0, d, T, S)
        inside = np.logical_and.reduce([(0.0 <= e) & (e <= 1.0) for e in entries])
        open_ = lo < hi
        accepted = open_ & (phi > 0.0) & inside
        offsets = np.arange(m)
        self._next = np.where(accepted, offsets + self._span,
                              np.where(open_, offsets + 5, offsets + 4)).tolist()
        self._accepted = accepted.tolist()
        extra = [u[j:j + m] for j in range(5, self._span)]
        self._cols = np.array([p0, *entries, *extra, d])
        self._u = u
        self._pos = 0
