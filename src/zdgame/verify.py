"""Randomized property suite behind the ``verify`` CLI command.

Each property takes a random stream and a sample count, reports the worst
residual seen, and passes or fails against a fixed threshold; a residual
that is not finite fails its property.  :func:`run_verification` gives
each property a stream of one seed and scales all counts by one factor;
the acceptance criteria call the same functions on their own streams.

The properties built on the determinant kernels run as stacked numpy
passes over chunks of at most ``_CHUNK`` draws, through the array
branches of the payoff and gradient kernels; each element equals its float result, so
the report is the one a draw-by-draw loop gives.  Factorization-and-signs
takes its random pcZD enforcers from :class:`~zdgame.zd.PcZDStream`, which
evaluates every possible rejection-sampling try of a block of the stream
at once and gives the columns and rejection count of the draw-by-draw
``sample_pczd`` retry loop.  The oracle triangle (its series horizon
varies per draw), the ZD line and the corner tables stay draw by draw.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from ._linalg import det4
from .errors import DomainError
from .game import PayoffParams, _transition_rows
from .gradients import _gradient_factorized, _gradient_quotient, zero_gradient_condition
from .payoffs import (
    _cofactors,
    _matrix_rows,
    _payoffs,
    _weigh,
    payoff_determinant,
    payoff_inverse,
    payoff_series,
)
from .tables import table_report
from .zd import PcZDStream, recover_zd, sample_pczd, verify_linear_relation

__all__ = ["PropertyResult", "run_verification"]

_ONES = (1.0, 1.0, 1.0, 1.0)
_EYE = np.eye(4)[:, :, None]

# Draws per stacked pass.  Peak RSS of the README verify run grows with it
# (VmHWM 39.4 MB draw by draw; 39.7, 39.9, 40.7, 42.3 and 45.3 MB at 128,
# 256, 512, 1024 and 2048 draws, most of it in factorization-and-signs),
# while the stacked properties take ~0.06 s at 256 draws and ~0.03 s at
# 2048, beside ~0.05-0.1 s for the stacked pcZD sampler's 34 115 tries
# (2-vCPU x86 VM, Python 3.11, numpy 2.4).
_CHUNK = 256

_COMPARE = {">": operator.gt, "<": operator.lt, ">=": operator.ge}


@dataclass
class PropertyResult:
    name: str
    passed: bool
    samples: int
    worst: float
    threshold: float
    comparison: str  # ">" means worst must exceed threshold, "<" stay below
    details: list[str] = field(default_factory=list)
    # further figures the property checked, which its line does not print
    extra: dict[str, float] = field(default_factory=dict, compare=False)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"{status} {self.name} samples={self.samples} "
            f"worst={self.worst:.3e} (required {self.comparison} {self.threshold:g})"
        )
        if self.details:
            out += "\n" + "\n".join(f"    {d}" for d in self.details)
        return out


class _Worst:
    """Running worst residual of one property, fed in draw order.

    A property whose worst must exceed its threshold keeps the lowest
    residual, the others the highest; of equal values the first is kept,
    as with ``min``/``max``.  Unlike them, a residual that is not finite is
    never dropped: it becomes the worst value, and the property fails with
    a detail line naming its draw.
    """

    def __init__(self, name: str, threshold: float, comparison: str):
        self.name = name
        self.threshold = threshold
        self.comparison = comparison
        self.lowest = comparison != "<"
        self.value = math.inf if self.lowest else 0.0
        self.details: list[str] = []

    def add(self, residuals, first_draw: int = 0):
        """Fold in the residuals of draws ``first_draw`` to ``first_draw + k - 1``:
        a ``(k,)`` or ``(k, per_draw)`` array, or one float for one draw."""
        r = np.atleast_1d(np.asarray(residuals, dtype=float))
        flat = r.reshape(-1)
        if self.details or not flat.size:
            return
        finite = np.isfinite(flat)
        if not finite.all():
            i = int(np.argmin(finite))
            self.value = float(flat[i])
            draw = first_draw + i // (flat.size // len(r))
            self.details.append(f"non-finite residual at draw {draw}")
            return
        x = float(flat[np.argmin(flat) if self.lowest else np.argmax(flat)])
        if (x < self.value) if self.lowest else (x > self.value):
            self.value = x

    def result(self, samples: int, details=(), failures=(), extra=None) -> PropertyResult:
        """The property's result; a line of ``failures`` fails it as well."""
        passed = (not self.details and not failures
                  and _COMPARE[self.comparison](self.value, self.threshold))
        return PropertyResult(self.name, passed, samples, self.value, self.threshold,
                              self.comparison, [*details, *failures, *self.details],
                              extra or {})


def _rng_for(seed, k):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))


def _draws(rng, n, lo, hi):
    """``n`` draws of p, q uniform in [0, 1)^5 and delta uniform in [lo, hi),
    in chunks of at most ``_CHUNK``: yields (first draw, p, q, delta) with
    p and q as ``(5, k)`` arrays.  A ``(k, 11)`` block is the stream of k
    rounds of ``random(5)``, ``random(5)``, ``uniform(lo, hi)``, because
    ``uniform`` is ``lo + (hi - lo) * random()``."""
    for first in range(0, n, _CHUNK):
        u = rng.random((min(_CHUNK, n - first), 11)).T.copy()
        yield first, u[:5], u[5:10], lo + (hi - lo) * u[10]


def _normalizer_positive(params, rng, n):
    worst = _Worst("normalizer-positive", 1e-12, ">")
    for first, p, q, d in _draws(rng, n, 0.01, 0.99):
        worst.add(_weigh(_cofactors(_matrix_rows(p, q, d)), _ONES), first)
    return worst.result(n)


def _regularity_identity(params, rng, n):
    worst = _Worst("regularity-identity", 1e-10, "<")
    for first, p, q, d in _draws(rng, n, 0.01, 0.99):
        lhs = det4(_EYE - d * np.array(_transition_rows(p, q)))
        d_ones = _weigh(_cofactors(_matrix_rows(p, q, d)), _ONES)
        worst.add(np.abs(lhs - (1.0 - d) * d_ones) / np.abs(d_ones), first)
    return worst.result(n)


def _oracle_triangle(params, rng, n):
    residuals = np.empty((n, 6))
    for i in range(n):
        p = rng.random(5)
        q = rng.random(5)
        d = 0.99 if i == 0 else 0.34 if i == 1 else rng.uniform(0.01, 0.99)
        a = payoff_determinant(p, q, d, params)
        b = payoff_inverse(p, q, d, params)
        c = payoff_series(p, q, d, params, tol=1e-10)
        residuals[i] = (
            abs(a.s_x - b.s_x), abs(a.s_y - b.s_y),
            abs(a.s_x - c.s_x), abs(a.s_y - c.s_y),
            abs(b.s_x - c.s_x), abs(b.s_y - c.s_y),
        )
    worst = _Worst("oracle-triangle", 1e-8, "<")
    worst.add(residuals)
    return worst.result(n)


def _zd_linear_relation(p, d, params, rng, n):
    """The enforcer ``p`` at discount ``d`` against ``n`` random opponents."""
    zd = recover_zd(p, d, params)
    worst = _Worst("zd-linear-relation", 1e-9, "<")
    worst.add(np.fromiter(
        (verify_linear_relation(p, zd, d, params, rng.random(5)) for _ in range(n)), float, n
    ))
    return worst.result(n)


def _factorization_and_signs(params, rng, n):
    """The two gradient routes against random pcZD enforcers: they agree,
    and every conditional component is nonnegative, an exact zero only at
    a corner pattern of ``zero_gradient_condition``."""
    draws = PcZDStream(rng, params, extra=5)
    match = _Worst("factorization-match", 1e-9, "<")
    nonneg = _Worst("gradient-nonnegative", -1e-12, ">=")
    zeros = 0
    unexplained = []
    for first in range(0, n, _CHUNK):
        cols = draws.take(min(_CHUNK, n - first))
        p, q, d = cols[:5], cols[5:10], cols[10]
        gq = _gradient_quotient(p, q, d, params, "x")
        gf = np.array(_gradient_factorized(p, q, d, params)[0])
        denom = np.maximum(np.abs(gq), np.abs(gf))
        with np.errstate(invalid="ignore"):  # 0/0 where both vanish
            rel = np.where(denom == 0.0, 0.0, np.abs(gq - gf) / denom)
        match.add(rel.T, first)
        nonneg.add(gf[1:].T, first)
        for i, k in np.argwhere(np.abs(gf[1:].T) <= 1e-12).tolist():
            zeros += 1
            if not zero_gradient_condition(p[:, i], q[:, i], k + 1):
                unexplained.append(f"zero gradient in q{k + 1} at draw {first + i} "
                                   "matches no corner pattern")
    notes = []
    if not params.theta > 0.0:
        notes.append(f"claim needs 0 < T + S; here T + S = {params.theta:g}")
    return (match.result(n, [f"construction rejections: {draws.rejections}"]),
            nonneg.result(n, notes, unexplained[:20], {"exact zeros": zeros}))


def _corner_tables(params, rng, n):
    """Every applicable table's closed forms against direct evaluation, on
    ``n`` rounds of a random strategy, a random pcZD enforcer and a random
    one with p0 = p1 = 1, whose Table 5 cells must also be positive."""
    worst = _Worst("corner-tables", 1e-12, "<")
    bad: list[str] = []
    checked = 0
    table5_min = math.inf
    for i in range(n):
        p_any = rng.random(5)
        d_any = rng.uniform(0.05, 0.98)
        reports = table_report(p_any, d_any, params, tables=("1", "2"))
        p_zd, _, d_zd = sample_pczd(rng, params)
        reports += table_report(p_zd, d_zd, params, tables=("1", "2", "3", "4"))
        try:
            p_cc, _, d_cc = sample_pczd(rng, params, p0=1.0, kappa=1.0)
            reports += table_report(p_cc, d_cc, params, tables=("4", "5"))
        except RuntimeError:
            pass
        checked += len(reports)
        worst.add([[r.diff for r in reports]], i)
        bad += [r.label() for r in reports if not r.diff <= 1e-12]
        for r in reports:
            if r.table == "Table 5":
                table5_min = min(table5_min, r.closed)
                if not r.closed > 0.0:
                    bad.append(f"{r.label()} closed={r.closed:.3e} is not positive")
    return PropertyResult("corner-tables", not bad, checked, worst.value, 1e-12, "<",
                          bad[:20] + worst.details, {"Table 5 min": table5_min})


def _central_difference(p, q, d, params, j, h):
    plus = q.copy()
    minus = q.copy()
    plus[j] += h
    minus[j] -= h
    return (_payoffs(p, plus, d, params)[1] - _payoffs(p, minus, d, params)[1]) / (2.0 * h)


def _fd_analytic_match(params, rng, n):
    h = 1e-3
    worst = _Worst("fd-analytic-match", 1e-7, "<")
    for first, p, q, d in _draws(rng, n, 0.05, 0.95):
        g = _gradient_quotient(p, q, d, params, "y")
        rel = np.zeros_like(g)
        for j in range(5):
            # components at or below 1e-6 are skipped; a NaN one is kept
            live = ~(np.abs(g[j]) <= 1e-6)
            pj, qj, dj, gj = p[:, live], q[:, live], d[live], g[j, live]
            # Richardson extrapolation cancels the centred difference's h^2
            # error term, so h can be large enough for the rounding error
            # (about eps/h) to stay small beside gradients near the filter.
            fd = (
                4.0 * _central_difference(pj, qj, dj, params, j, h / 2)
                - _central_difference(pj, qj, dj, params, j, h)
            ) / 3.0
            rel[j, live] = np.abs(fd - gj) / np.abs(gj)
        worst.add(rel.T, first)
    return worst.result(n)


def run_verification(params: PayoffParams, seed: int = 0, scale: float = 1.0) -> list[PropertyResult]:
    """Run every property at ``scale`` times its default sample count."""
    if not (math.isfinite(scale) and scale > 0.0):
        raise DomainError(f"sample scale must be finite and positive, got {scale}")

    def stream(key, base, least=1):
        return _rng_for(seed, key), max(least, int(base * scale))

    results = [
        _normalizer_positive(params, *stream(1, 100_000)),
        _regularity_identity(params, *stream(2, 10_000)),
        # at least the two draws at the pinned discounts
        _oracle_triangle(params, *stream(3, 1_000, least=2)),
    ]
    rng, n = stream(4, 1_000)
    p, _, d = sample_pczd(rng, params)
    results.append(_zd_linear_relation(p, d, params, rng, n))
    results.extend(_factorization_and_signs(params, *stream(5, 10_000)))
    results.append(_corner_tables(params, *stream(6, 100)))
    results.append(_fd_analytic_match(params, *stream(7, 1_000)))
    return results
