"""Gradient-ascent adaptation of player Y against a fixed opponent.

Y repeatedly nudges every strategy entry along the gradient of its own
discounted payoff, clamping into [0, 1], until the update step all but
vanishes.  Against a positively correlated enforcer every such path ends
in unconditional cooperation; the terminal classifier checks which of the
two endpoint patterns was reached.

A sweep runs each path's whole ascent in one call of a compiled loop
(``_climb.c``, built on first use by ``_native``), which performs the
operations of :func:`_climb` in the same order, so every path ends
exactly as it would alone.  Where the loop cannot be built or loaded, or
where any function bound in this module, ``payoffs``, ``gradients`` or
``_linalg`` has been rebound since import (by a tracer counting calls,
say), each path runs on :func:`_climb` itself.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass, field
from types import FunctionType
from typing import NamedTuple

from . import _linalg, _pcg, gradients, payoffs
from .errors import DomainError, MaxStepsError
from .game import PayoffParams, Strategy, _stream_argument, strategy_tuple, validate_delta
from .gradients import TerminalClassification, _gradient_quotient, classify_terminal
from .payoffs import _payoffs
from .zd import is_pczd


GRADIENT_MODES = ("finite_difference", "analytic")

_NOT_PCZD = ("opponent strategy is not a positively correlated enforcer; "
             "the path may not end in unconditional cooperation")


@dataclass(frozen=True)
class SimConfig:
    """Ascent parameters.

    ``nu`` is the learning rate, ``dq`` the centered-difference probe step
    (from machine epsilon up to 1, the width of the strategy cube), and
    ``step_tol`` the termination threshold on the update size (at most
    sqrt(5), the largest update the cube allows).
    """

    nu: float = 0.1
    dq: float = 1e-4
    step_tol: float = 1e-12
    max_steps: int = 1_000_000
    gradient_mode: str = "finite_difference"

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > 0.0):
            raise DomainError(f"learning rate must be finite and positive, got {self.nu}")
        # from machine epsilon up, both probes move every entry in [0, 1];
        # below it a probe can round back onto its entry (at 1e-300 both
        # probes of every nonzero entry do), and one a cube width away
        # resolves no gradient
        if not sys.float_info.epsilon <= self.dq < 1.0:
            raise DomainError(f"difference step must lie in [{sys.float_info.epsilon:g}, 1), "
                              f"got {self.dq}")
        # no update in the cube exceeds sqrt(5), each of five entries moving
        # at most 1, so a larger threshold would stop every path at step 0
        if not 0.0 < self.step_tol <= math.sqrt(5.0):
            raise DomainError(
                f"termination threshold must lie in (0, sqrt(5)], got {self.step_tol}")
        cap = self.max_steps
        if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
            raise DomainError(f"max_steps must be an integer of at least 1, got {cap!r}")
        if self.gradient_mode not in GRADIENT_MODES:
            raise DomainError(
                f"gradient_mode must be one of {GRADIENT_MODES}, got {self.gradient_mode!r}"
            )


class PathStep(NamedTuple):
    n: int
    q: tuple[float, float, float, float, float]
    s_y: float
    s_x: float


@dataclass
class AdaptingPath:
    """Recorded ascent trajectory plus its termination data."""

    steps: list[PathStep] = field(default_factory=list)
    terminal: TerminalClassification | None = None
    terminated_at: int = 0
    converged: bool = False
    monotonic_violations: int = 0
    last_step_euclidean: float = math.inf
    last_step_max: float = math.inf

    @property
    def final_q(self):
        return self.steps[-1].q


def fd_gradient(q, j: int, config: SimConfig, p, delta, params: PayoffParams) -> float:
    """Learning-rate-scaled centered difference of Y's payoff in entry ``j``.

    The probe points are not clamped into [0, 1]; the payoff determinant
    extrapolates polynomially outside the cube.
    """
    pt, qt = strategy_tuple(p), strategy_tuple(q)
    return _fd_move(qt, j, config, pt, validate_delta(delta), params)


def _fd_move(qt, j, config, pt, delta, params):
    plus, minus = list(qt), list(qt)
    plus[j] += config.dq
    minus[j] -= config.dq
    s_plus = _payoffs(pt, tuple(plus), delta, params)[1]
    s_minus = _payoffs(pt, tuple(minus), delta, params)[1]
    return config.nu * (s_plus - s_minus) / (2.0 * config.dq)


def _ascent_update(qt, config, pt, delta, params):
    if config.gradient_mode == "finite_difference":
        moves = [_fd_move(qt, j, config, pt, delta, params) for j in range(5)]
    else:
        grad = _gradient_quotient(pt, qt, delta, params, "y")
        moves = [config.nu * g for g in grad]
    return tuple(min(max(qj + m, 0.0), 1.0) for qj, m in zip(qt, moves))


def _sum_squares(d):
    """Squared Euclidean norm of a 5-entry update, summed left to right."""
    return d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + d[3] * d[3] + d[4] * d[4]


def _finite(name, t):
    """``t``, unless an entry is NaN or infinite: the ascent would take
    every step up to the cap on it."""
    if not all(map(math.isfinite, t)):
        raise DomainError(f"{name} has a non-finite entry: {t}")
    return t


def _ascent_inputs(p, delta, params):
    """``p`` as a tuple and ``delta`` as a float, checked as every ascent
    needs them: finite entries, a discount in (0, 1) and 0 < T + S,
    since the endpoint classification is only guaranteed there."""
    pt = _finite("p", strategy_tuple(p))
    delta = validate_delta(delta)
    if not params.theta > 0.0:
        raise DomainError("endpoint guarantees need strict payoffs (0 < T + S)")
    return pt, delta


def step(q, config: SimConfig, p, delta, params: PayoffParams) -> Strategy:
    """One ascent update: every entry moves by its scaled gradient, then clamps."""
    qt, pt = strategy_tuple(q), strategy_tuple(p)
    return Strategy(*_ascent_update(qt, config, pt, validate_delta(delta), params))


def run_path(q0, config: SimConfig, p, delta, params: PayoffParams,
             check_pczd: bool = True) -> AdaptingPath:
    """Iterate ascent updates until the step size drops below ``step_tol``.

    Termination uses the Euclidean norm of the update (the max norm of the
    final step is recorded alongside).  Requires 0 < T + S, since the
    endpoint classification is only guaranteed there.  Raises
    :class:`MaxStepsError` carrying the partial path when the cap is hit.
    Entries of ``q0`` outside [0, 1] are clamped by the first step, but a
    NaN or infinite entry of ``q0`` or ``p`` raises :class:`DomainError`.
    """
    pt, delta = _ascent_inputs(p, delta, params)
    qt = _finite("q0", strategy_tuple(q0))
    if check_pczd and not is_pczd(pt, delta, params):
        warnings.warn(_NOT_PCZD, stacklevel=2)
    path = _climb(qt, config, pt, delta, params)
    if not path.converged:
        raise MaxStepsError(f"no convergence within {config.max_steps} steps", path=path)
    return path


def _climb(qt, config, pt, delta, params) -> AdaptingPath:
    """Ascend from ``qt`` until the update vanishes (``converged``) or step
    ``max_steps`` is taken.

    Records the starting point and every step.
    """
    path = AdaptingPath()

    def record(n, q):
        s_x, s_y = _payoffs(pt, q, delta, params)
        if path.steps and s_y < path.steps[-1].s_y - 1e-12:
            path.monotonic_violations += 1
        path.steps.append(PathStep(n, q, s_y, s_x))

    n = 0
    record(n, qt)
    while True:
        q_next = _ascent_update(qt, config, pt, delta, params)
        diffs = [a - b for a, b in zip(q_next, qt)]
        euclid = math.sqrt(_sum_squares(diffs))
        if euclid < config.step_tol:
            path.converged = True
            path.last_step_euclidean = euclid
            path.last_step_max = max(abs(d) for d in diffs)
            break
        n += 1
        qt = q_next
        record(n, qt)
        if n >= config.max_steps:
            break
    path.terminated_at = n
    path.terminal = classify_terminal(pt, qt)
    return path


def initial_strategy(seed: int, index: int) -> Strategy:
    """Uniform draw from the strategy cube on the (seed, index) stream.

    The five entries are, bit for bit, those of
    ``numpy.random.default_rng(SeedSequence(entropy=seed, spawn_key=(index,))).random(5)``,
    computed here and in ``_pcg`` in plain integers so that a sweep never
    loads ``numpy.random``.  Streams are independent per index, so a path's
    start does not depend on how many paths the sweep runs.
    """
    seed, index = _stream_argument("seed", seed), _stream_argument("index", index)
    return Strategy(*_pcg.doubles(seed, index, 5))


@dataclass(frozen=True)
class PathResult:
    """One sweep entry: where the path started, where it ended, and how."""

    index: int
    seed: int
    initial: tuple
    final: tuple
    terminal: str
    steps: int
    converged: bool


def _ascent_functions():
    """Every function bound in this module, ``payoffs``, ``gradients`` and
    ``_linalg``, which between them define and bind all that a path's
    ascent calls."""
    return tuple(f for module in (globals(), vars(payoffs), vars(gradients), vars(_linalg))
                 for f in module.values() if isinstance(f, FunctionType))


def _climb_end(q0, config, pt, delta, params):
    path = _climb(q0, config, pt, delta, params)
    return path.final_q, path.terminated_at, path.converged


def sweep(n_paths: int, seed: int, config: SimConfig, p, delta,
          params: PayoffParams) -> list[PathResult]:
    """Run ascent paths from ``n_paths`` seeded random initial strategies.

    The paths run one after another, each in one call of the compiled
    loop, or, without it, on :func:`_climb`.  Every path ends exactly as
    :func:`run_path` would end it.  Paths that hit the step cap are
    recorded with ``converged=False`` rather than aborting the sweep.
    Results are ordered by path index.
    """
    n_paths = _stream_argument("n_paths", n_paths)
    if n_paths < 1:
        raise DomainError(f"n_paths must be at least 1, got {n_paths}")
    pt, delta = _ascent_inputs(p, delta, params)
    starts = [initial_strategy(seed, i).as_tuple() for i in range(n_paths)]
    climb = functools.partial(_climb_end, config=config, pt=pt, delta=delta, params=params)
    if _ascent_functions() == _AS_IMPORTED:
        from . import _native  # imported by the first sweep, so no other command loads it

        climb = _native.climber(config, pt, delta, params) or climb
    ends = [climb(q0) for q0 in starts]
    return [
        PathResult(
            index=i,
            seed=seed,
            initial=q0,
            final=final,
            terminal=classify_terminal(pt, final).tag,
            steps=steps,
            converged=converged,
        )
        for i, (q0, (final, steps, converged)) in enumerate(zip(starts, ends))
    ]


# The functions as bound at import, once all of this module's are.  A
# tuple, which patches of module namespaces and their dicts leave alone.
_AS_IMPORTED = _ascent_functions()
