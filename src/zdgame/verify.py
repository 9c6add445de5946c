"""Randomized property suite behind the ``verify`` CLI command.

Each property takes a random stream and a sample count, reports the worst
residual seen, and passes or fails against a fixed threshold; a residual
that is not finite fails its property.  :func:`run_verification` gives
each property a stream of one seed and scales all counts by one factor;
the acceptance criteria call the same functions on their own streams.

Each compiled kernel of ``_native`` that verify calls has one Python
twin here, called the same way, and each caller picks its route in one
expression, ``_native.kernel(...) or <twin>``: the kernel gives None
where the library cannot be built.  :func:`_rng_for`'s streams are
numpy's seeded PCG64, drawn by the library (``_native.stream``), so that
verify loads no ``numpy.random``, or numpy's generator itself.  Verify
reads a stream through ``random()`` and ``random(size)`` alone, and the
compiled kernels through its ``bit_generator``.

Most properties run as numpy passes over their draws: the payoff,
gradient and table kernels take arrays element by element, each element
equals its float result, and so the report is the one a draw-by-draw
loop gives.  The normalizer and regularity properties take chunks of at
most ``_CHUNK`` draws, each chunk one call of ``_native.residuals``,
which reads the stream itself and repeats the passes' operations bit for
bit, or of its twin :func:`_residuals`, one numpy pass.  The
finite-difference property takes chunks too; the oracle triangle takes
all of its draws at once and sums their payoff series in one call of the
compiled loop (``payoffs._series_payoffs``), and the corner tables check
each table column in one pass over its corners and all the strategies of
a kind.
The pcZD enforcers come from walks that :func:`_walker` picks: of
``_native.pczd``, which reads the stream itself, or of its twin
:func:`_walk`, which calls ``zd._try_pczd``, the kernel's try in Python,
once per draw.  Factorization-and-signs draws them in chunks from
:func:`_enforcer_chunks`; the corner tables draw theirs one per call
from two walkers, as their stream interleaves a plain strategy between
its two enforcers.  The finite differences are the ascent's own,
``adaptive._fd_move``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from ._linalg import det4
from .adaptive import _fd_move
from .errors import DomainError
from .game import PayoffParams, _stream_argument, _transition_rows, strategy_tuple, validate_delta
from .gradients import _gradient_factorized, _gradient_quotient, zero_gradient_condition
from .payoffs import (
    _cofactors,
    _inverse_payoffs,
    _matrix_rows,
    _payoffs,
    _series_payoffs,
)
from .tables import _TOL, _report
from .zd import (
    _INT64_MAX,
    _TRIES,
    _delta_low,
    _line_residual,
    _no_draw,
    _try_pczd,
    _uniform,
    critical_discount,
    recover_zd,
    sample_pczd,
)

# Draws per pass, and the size of the compiled passes' buffers.  At 256,
# 512, 1 024 and 2 048 draws the four chunked properties took ~114, 88, 75
# and 61 ms (best of 7) as numpy passes, and the README verify run peaked
# at 38.6, 38.6, 38.6 and 38.5-38.7 MB VmHWM: factorization-and-signs
# frees a chunk's arrays before the stream's next pass, so the two do not
# stack.  1 024 keeps one chunk's gradient arrays near 0.35 MB (2-vCPU x86
# VM, Python 3.11, numpy 2.4), and the normalizer and enforcer buffers at
# 8 and 88 KB.
_CHUNK = 1024

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

    def result(self, samples: int, details=(), failures=(), figures=None) -> PropertyResult:
        """The property's result, with ``figures`` as its ``extra``; a line
        of ``failures`` fails it as well."""
        passed = (not self.details and not failures
                  and _COMPARE[self.comparison](self.value, self.threshold))
        return PropertyResult(self.name, passed, samples, self.value, self.threshold,
                              self.comparison, [*details, *failures, *self.details],
                              figures or {})


def _rng_for(seed, k):
    """The stream of ``numpy.random.default_rng(SeedSequence(entropy=seed,
    spawn_key=(k,)))``: drawn by the compiled library's PCG64
    (``_native.stream``), or, where it cannot be built, numpy's generator
    itself.  Either raises :class:`DomainError` for a seed or key that is
    not a non-negative integer."""
    from . import _native

    seed, k = _stream_argument("seed", seed), _stream_argument("key", k)
    return (_native.stream(seed, k)
            or np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,))))


def _draws(rng, n, lo, hi):
    """``n`` draws of p, q uniform in [0, 1)^5 and delta uniform in [lo, hi):
    p and q as ``(5, n)`` arrays, from a ``(n, 11)`` block: n rounds of
    ``random(5)``, ``random(5)``, ``_uniform(lo, hi, random())``."""
    u = rng.random((n, 11)).T.copy()
    return u[:5], u[5:10], _uniform(lo, hi, u[10])


def _normalizer(p, q, d):
    """The normalizer ``D(p, q, d, 1)`` of each draw, its four cofactors
    summed: normalizer-positive's residual."""
    c0, c1, c2, c3 = _cofactors(_matrix_rows(p, q, d))
    return c0 + c1 + c2 + c3


def _regularity(p, q, d):
    """``|det(I - d*M) - (1 - d) * D| / |D|`` of each draw, with ``D`` its
    normalizer: regularity-identity's residual."""
    # I - d*M entry by entry, so that no (4, 4, chunk) stack is held
    lhs = det4([[float(i == j) - d * m for j, m in enumerate(row)]
                for i, row in enumerate(_transition_rows(p, q))])
    d_ones = _normalizer(p, q, d)
    return np.abs(lhs - (1.0 - d) * d_ones) / np.abs(d_ones)


def _residuals(rng, n, lo, hi, identity):
    """The residuals of :func:`_regularity` where ``identity`` is set, else
    of :func:`_normalizer`, on the next ``n`` draws of ``_draws(rng, n, lo,
    hi)``, in one numpy pass: the twin of ``_native.residuals``."""
    return (_regularity if identity else _normalizer)(*_draws(rng, n, lo, hi))


def _residual_property(worst, rng, n, identity):
    """``worst`` fed the :func:`_residuals` of ``n`` draws with delta in
    [0.01, 0.99), in chunks of at most ``_CHUNK``, each one call of the
    compiled ``_native.residuals``, which reads ``rng`` itself and
    overwrites one buffer, or of its twin."""
    from . import _native  # imported on first use, so that importing zdgame loads no library

    take = (_native.residuals(rng, min(_CHUNK, n), 0.01, 0.99, identity)
            or functools.partial(_residuals, rng, lo=0.01, hi=0.99, identity=identity))
    for first in range(0, n, _CHUNK):
        worst.add(take(min(_CHUNK, n - first)), first)
    return worst.result(n)


def _normalizer_positive(params, rng, n):
    return _residual_property(_Worst("normalizer-positive", 1e-12, ">"), rng, n, False)


def _regularity_identity(params, rng, n):
    return _residual_property(_Worst("regularity-identity", 1e-10, "<"), rng, n, True)


def _oracle_triangle(params, rng, n):
    """The determinant, inverse and series payoffs of ``n`` random pairs
    agree; the first two draws are at delta = 0.99 and 0.34.  A pinned
    draw takes ``random(5)`` and ``random(5)``, the others are
    :func:`_draws` with delta in [0.01, 0.99)."""
    pinned = (0.99, 0.34)[:n]
    head = rng.random((len(pinned), 10)).T
    p, q, d = _draws(rng, n - len(pinned), 0.01, 0.99)
    p, q = np.hstack([head[:5], p]), np.hstack([head[5:], q])
    d = np.concatenate([pinned, d])
    a = _payoffs(p, q, d, params)
    b = _inverse_payoffs(p, q, d, params)
    c = _series_payoffs(p, q, d, params, 1e-10)
    worst = _Worst("oracle-triangle", 1e-8, "<")
    worst.add(np.abs([a[0] - b[0], a[1] - b[1], a[0] - c[0], a[1] - c[1],
                      b[0] - c[0], b[1] - c[1]]).T)
    return worst.result(n)


def _zd_linear_relation(p, d, params, rng, n):
    """The enforcer ``p`` at discount ``d`` against ``n`` random opponents."""
    zd = recover_zd(p, d, params)
    q = rng.random((n, 5)).T.copy()
    worst = _Worst("zd-linear-relation", 1e-9, "<")
    worst.add(_line_residual(*_payoffs(strategy_tuple(p), q, validate_delta(d), params), zd))
    return worst.result(n)


def _walk(rng, n, params, p0=None, kappa=None, tries=_INT64_MAX, q=True):
    """``n`` draws of ``sample_pczd(rng, params, p0=p0, kappa=kappa,
    tries=tries)``, each accepted try followed, where ``q`` is set, by
    ``rng.random(5)``: the ``(11, k)`` columns (p0..p4, the five values as
    q, delta), or ``(6, k)`` without q, and the tries rejected.  A draw
    whose ``tries`` tries are all rejected ends the walk, so ``k < n`` only
    then; by default no draw runs out.  Each draw is one call of
    ``zd._try_pczd``.  This is the twin of ``_native.pczd``, whose
    function of the draw count is ``zd_pczd`` in ``_climb.c``, this loop
    compiled."""
    cols, rejected = np.empty((11 if q else 6, n)), 0
    d_lo = _delta_low(critical_discount(params))
    for k in range(n):
        draw, t = _try_pczd(rng, params, tries, d_lo, p0=p0, kappa=kappa)
        rejected += t
        if draw is None:
            return cols[:, :k], rejected
        p, _, d = draw
        cols[:, k] = [*p, *rng.random(5), d] if q else [*p, d]
    return cols, rejected


def _walker(rng, size, params, p0=None, kappa=None, tries=_INT64_MAX, q=True):
    """A function from a count ``k <= size`` to the next ``k`` draws of
    :func:`_walk` on ``rng``: the compiled ``_native.pczd``'s walk, or,
    where the library cannot be built, ``_walk`` itself."""
    from . import _native  # imported on first use, so that importing zdgame loads no library

    return (_native.pczd(rng, size, params, p0, kappa, tries, q)
            or functools.partial(_walk, rng, params=params, p0=p0, kappa=kappa,
                                 tries=tries, q=q))


def _enforcer_chunks(rng, params, n):
    """The draws of :func:`_walk`, ``n`` of them in chunks of at most
    ``_CHUNK``, each chunk in one call of a :func:`_walker`: yields
    ``(first, p, q, delta, rejections)``, p and q as ``(5, k)`` arrays and
    ``rejections`` the tries rejected so far; the compiled walk's next
    chunk overwrites them.  Both routes read ``rng`` value by value, so
    after each chunk it stands where the draw-by-draw loop leaves it.
    """
    walk = _walker(rng, min(_CHUNK, n), params)
    rejections = 0
    for first in range(0, n, _CHUNK):
        cols, rejected = walk(min(_CHUNK, n - first))
        rejections += rejected
        yield first, cols[:5], cols[5:10], cols[10], rejections


def _factorization_and_signs(params, rng, n):
    """The two gradient routes against random pcZD enforcers: they agree,
    and every conditional component is nonnegative, an exact zero only at
    a corner pattern of ``zero_gradient_condition``."""
    match = _Worst("factorization-match", 1e-9, "<")
    nonneg = _Worst("gradient-nonnegative", -1e-12, ">=")
    zeros = rejections = 0
    unexplained = []
    for first, p, q, d, rejections in _enforcer_chunks(rng, params, n):
        gq = np.array(_gradient_quotient(p, q, d, params, "x"))
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
        del p, q, d, gq, gf, denom, rel  # not held through the next chunk's arrays
    notes = []
    if not params.theta > 0.0:
        notes.append(f"claim needs 0 < T + S; here T + S = {params.theta:g}")
    return (match.result(n, [f"construction rejections: {rejections}"]),
            nonneg.result(n, notes, unexplained[:20], {"exact zeros": zeros}))


def _table_cells(draws, rows, n, tables, theta):
    """The cells of ``tables`` on the ``(p0..p4, delta)`` strategies
    ``draws`` of rounds ``rows`` out of ``n``: their labels and those of
    the Table 5 cells, and their diffs and Table 5 closed forms as arrays
    with one row per round.  A round without such a strategy gets a diff
    of 0.0 and a closed form of inf, which move neither the worst nor the
    min."""
    cols = np.array(draws, dtype=float).reshape(-1, 6).T.copy()
    labels, labels5, diff, closed5 = [], [], [], []
    for t in tables:
        for r in _report(t, cols[:5], cols[5], theta):
            labels.append(r.label())
            diff.append(r.diff)
            if r.table == "Table 5":
                labels5.append(labels[-1])
                closed5.append(np.broadcast_to(r.closed, r.diff.shape))
    diff_rows = np.zeros((n, len(diff)))
    diff_rows[rows] = np.array(diff).T
    closed5_rows = np.full((n, len(closed5)), math.inf)
    closed5_rows[rows] = np.array(closed5).T
    return labels, labels5, diff_rows, closed5_rows


def _corner_tables(params, rng, n):
    """Every applicable table's closed forms against direct evaluation, on
    ``n`` rounds of a random strategy, a random pcZD enforcer and a random
    one with p0 = p1 = 1, whose Table 5 cells must also be positive.

    The rounds draw first, in stream order: a round whose p0 = p1 = 1 draw
    finds no enforcer has no tables 4-5, and a pcZD draw that finds none
    raises ``sample_pczd``'s error.  Then each table column is checked in
    one pass over its corners and all the strategies of its kind."""
    plain, zd, coop, has_coop = [], [], [], []
    # one draw of sample_pczd per call, without q
    enforcer = _walker(rng, 1, params, tries=_TRIES, q=False)
    cooperative = _walker(rng, 1, params, 1.0, 1.0, _TRIES, False)
    for i in range(n):
        plain.append((*rng.random(5), _uniform(0.05, 0.98, rng.random())))
        cols, _ = enforcer(1)
        if not cols.shape[1]:
            raise _no_draw(params, _TRIES)
        zd.append(cols[:, 0].tolist())
        cols, _ = cooperative(1)
        if cols.shape[1]:
            coop.append(cols[:, 0].tolist())
            has_coop.append(i)
    theta = params.theta
    kinds = [_table_cells(plain, slice(None), n, ("1", "2"), theta),
             _table_cells(zd, slice(None), n, ("1", "2", "3", "4"), theta),
             _table_cells(coop, has_coop, n, ("4", "5"), theta)]
    labels = [label for kind in kinds for label in kind[0]]
    labels5 = [label for kind in kinds for label in kind[1]]
    diff = np.hstack([kind[2] for kind in kinds])
    closed5 = np.hstack([kind[3] for kind in kinds]).tolist()
    worst = _Worst("corner-tables", _TOL, "<")
    worst.add(diff)
    bad: list[str] = []
    for i in range(n):
        bad += [labels[j] for j in np.flatnonzero(~(diff[i] < _TOL))]
        bad += [f"{label} closed={v:.3e} is not positive"
                for label, v in zip(labels5, closed5[i]) if not v > 0.0]
    samples = sum(len(d) * len(kind[0]) for d, kind in zip((plain, zd, coop), kinds))
    return worst.result(samples, failures=bad[:20], figures={
        "Table 5 min": min([math.inf, *(v for row in closed5 for v in row)])})


def _fd_analytic_match(params, rng, n):
    h = 1e-3
    worst = _Worst("fd-analytic-match", 1e-7, "<")
    for first in range(0, n, _CHUNK):
        p, q, d = _draws(rng, min(_CHUNK, n - first), 0.05, 0.95)
        g = np.array(_gradient_quotient(p, q, d, params, "y"))
        rel = np.zeros_like(g)
        for j in range(5):
            # components at or below 1e-6 are skipped; a NaN one is kept
            live = ~(np.abs(g[j]) <= 1e-6)
            pj, qj, dj, gj = p[:, live], q[:, live], d[live], g[j, live]
            # Richardson extrapolation cancels the centred difference's h^2
            # error term, so h can be large enough for the rounding error
            # (about eps/h) to stay small beside gradients near the filter.
            fd = (
                4.0 * _fd_move(qj, j, 1.0, h / 2, pj, dj, params)
                - _fd_move(qj, j, 1.0, h, pj, dj, params)
            ) / 3.0
            rel[j, live] = np.abs(fd - gj) / np.abs(gj)
        worst.add(rel.T, first)
    return worst.result(n)


def run_verification(params: PayoffParams, seed: int = 0, scale: float = 1.0) -> list[PropertyResult]:
    """Run every property at ``scale`` times its default sample count."""
    seed = _stream_argument("seed", seed)
    if not (math.isfinite(scale) and scale > 0.0):
        raise DomainError(f"sample scale must be finite and positive, got {scale}")

    def stream(key, base, least=1):
        # normalizer-positive, the first property, has the largest base, so
        # a scale whose counts overflow is rejected before any property runs
        count = base * scale
        if not math.isfinite(count):
            raise DomainError(f"sample scale {scale} gives a non-finite sample count")
        return _rng_for(seed, key), max(least, int(count))

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
