"""Randomized property suite behind the ``verify`` CLI command.

Each property draws its own seeded sample stream, reports the worst
residual seen, and passes or fails against a fixed threshold.  Sample
counts scale with a single factor so quick smoke runs and full runs share
one code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import det4
from .errors import DomainError, InfeasibleError
from .game import PayoffParams, transition_matrix
from .gradients import gradient_factorized, gradient_quotient
from .payoffs import payoff_determinant, payoff_inverse, payoff_series, state_determinant
from .tables import table_report
from .zd import recover_zd, sample_pczd, verify_linear_relation

__all__ = ["PropertyResult", "run_verification"]

_ONES = (1.0, 1.0, 1.0, 1.0)


@dataclass
class PropertyResult:
    name: str
    passed: bool
    samples: int
    worst: float
    threshold: float
    comparison: str  # ">" means worst must exceed threshold, "<" stay below
    details: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"{status} {self.name} samples={self.samples} "
            f"worst={self.worst:.3e} (required {self.comparison} {self.threshold:g})"
        )
        if self.details:
            out += "\n" + "\n".join(f"    {d}" for d in self.details)
        return out


def _rng_for(seed, k):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))


def _normalizer_positive(params, seed, scale):
    n = max(1, int(100_000 * scale))
    rng = _rng_for(seed, 1)
    worst = float("inf")
    for _ in range(n):
        p = rng.random(5)
        q = rng.random(5)
        d = rng.uniform(0.01, 0.99)
        worst = min(worst, state_determinant(p, q, d, _ONES))
    return PropertyResult("normalizer-positive", worst > 1e-12, n, worst, 1e-12, ">")


def _regularity_identity(params, seed, scale):
    n = max(1, int(10_000 * scale))
    rng = _rng_for(seed, 2)
    worst = 0.0
    for _ in range(n):
        p = rng.random(5)
        q = rng.random(5)
        d = rng.uniform(0.01, 0.99)
        m = transition_matrix(p, q)
        lhs = det4(tuple(tuple(row) for row in (np.eye(4) - d * m)))
        d_ones = state_determinant(p, q, d, _ONES)
        worst = max(worst, abs(lhs - (1.0 - d) * d_ones) / abs(d_ones))
    return PropertyResult("regularity-identity", worst < 1e-10, n, worst, 1e-10, "<")


def _oracle_triangle(params, seed, scale):
    n = max(2, int(1_000 * scale))
    rng = _rng_for(seed, 3)
    worst = 0.0
    for i in range(n):
        p = rng.random(5)
        q = rng.random(5)
        d = 0.99 if i == 0 else 0.34 if i == 1 else rng.uniform(0.01, 0.99)
        a = payoff_determinant(p, q, d, params)
        b = payoff_inverse(p, q, d, params)
        c = payoff_series(p, q, d, params, tol=1e-10)
        worst = max(
            worst,
            abs(a.s_x - b.s_x), abs(a.s_y - b.s_y),
            abs(a.s_x - c.s_x), abs(a.s_y - c.s_y),
            abs(b.s_x - c.s_x), abs(b.s_y - c.s_y),
        )
    return PropertyResult("oracle-triangle", worst < 1e-8, n, worst, 1e-8, "<")


def _zd_linear_relation(params, seed, scale):
    n = max(1, int(1_000 * scale))
    rng = _rng_for(seed, 4)
    p, _, d = sample_pczd(rng, params)
    zd = recover_zd(p, d, params)
    worst = 0.0
    for _ in range(n):
        worst = max(worst, verify_linear_relation(p, zd, d, params, rng.random(5)))
    return PropertyResult("zd-linear-relation", worst < 1e-9, n, worst, 1e-9, "<")


def _factorization_and_signs(params, seed, scale):
    n = max(1, int(10_000 * scale))
    rng = _rng_for(seed, 5)
    worst_rel = 0.0
    min_grad = float("inf")
    rejections = 0
    for _ in range(n):
        while True:
            try:
                p, _, d = sample_pczd(rng, params, tries=1)
                break
            except (RuntimeError, InfeasibleError):
                rejections += 1
        q = rng.random(5)
        gq = gradient_quotient(p, q, d, params, payoff="x")
        gf, _ = gradient_factorized(p, q, d, params)
        for j in range(5):
            denom = max(abs(gq[j]), abs(gf[j]))
            if denom > 0.0:
                worst_rel = max(worst_rel, abs(gq[j] - gf[j]) / denom)
        min_grad = min(min_grad, gf.g1, gf.g2, gf.g3, gf.g4)
    match = PropertyResult(
        "factorization-match", worst_rel < 1e-9, n, worst_rel, 1e-9, "<",
        details=[f"construction rejections: {rejections}"],
    )
    nonneg = PropertyResult("gradient-nonnegative", min_grad >= -1e-12, n, min_grad, -1e-12, ">=")
    return match, nonneg


def _corner_tables(params, seed, scale):
    n = max(1, int(100 * scale))
    rng = _rng_for(seed, 6)
    worst = 0.0
    bad: list[str] = []
    checked = 0
    for _ in range(n):
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
        for r in reports:
            checked += 1
            worst = max(worst, r.diff)
            if r.diff > 1e-12 and len(bad) < 20:
                bad.append(r.label())
    return PropertyResult("corner-tables", not bad, checked, worst, 1e-12, "<", details=bad)


def _central_difference(p, q, d, params, j, h):
    plus = q.copy()
    minus = q.copy()
    plus[j] += h
    minus[j] -= h
    return (
        payoff_determinant(p, plus, d, params).s_y - payoff_determinant(p, minus, d, params).s_y
    ) / (2.0 * h)


def _fd_analytic_match(params, seed, scale):
    n = max(1, int(1_000 * scale))
    rng = _rng_for(seed, 7)
    h = 1e-3
    worst = 0.0
    for _ in range(n):
        p = rng.random(5)
        q = rng.random(5)
        d = rng.uniform(0.05, 0.95)
        g = gradient_quotient(p, q, d, params, payoff="y")
        for j in range(5):
            if abs(g[j]) <= 1e-6:
                continue
            # Richardson extrapolation cancels the centred difference's h^2
            # error term, so h can be large enough for the rounding error
            # (about eps/h) to stay small beside gradients near the filter.
            fd = (
                4.0 * _central_difference(p, q, d, params, j, h / 2)
                - _central_difference(p, q, d, params, j, h)
            ) / 3.0
            worst = max(worst, abs(fd - g[j]) / abs(g[j]))
    return PropertyResult("fd-analytic-match", worst < 1e-7, n, worst, 1e-7, "<")


def run_verification(params: PayoffParams, seed: int = 0, scale: float = 1.0) -> list[PropertyResult]:
    """Run every property at ``scale`` times its default sample count."""
    if not (math.isfinite(scale) and scale > 0.0):
        raise DomainError(f"sample scale must be finite and positive, got {scale}")
    results = [
        _normalizer_positive(params, seed, scale),
        _regularity_identity(params, seed, scale),
        _oracle_triangle(params, seed, scale),
        _zd_linear_relation(params, seed, scale),
    ]
    results.extend(_factorization_and_signs(params, seed, scale))
    results.append(_corner_tables(params, seed, scale))
    results.append(_fd_analytic_match(params, seed, scale))
    return results
