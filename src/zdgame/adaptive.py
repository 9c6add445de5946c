"""Gradient-ascent adaptation of player Y against a fixed opponent.

Y repeatedly nudges every strategy entry along the gradient of its own
discounted payoff, clamping into [0, 1], until the update step all but
vanishes.  Against a positively correlated enforcer every such path ends
in unconditional cooperation; the terminal classifier checks which of the
two endpoint patterns was reached.

A sweep runs its paths as one lockstep batch: the strategies are held as
five numpy columns and take each step together, through the same payoff
and gradient kernels and the same operations as a single path, so every
path ends exactly as it would alone.  A path leaves the batch when its
update vanishes; once only a few remain (fewer than 2 with finite
differences, 6 with the analytic gradient), each finishes on the scalar
loop, which is cheaper there.  The determinants of one iteration are
evaluated as stacks: one 3x3 call for the payoffs, and with the analytic
gradient one 4x4 call for its nine derivative determinants.  ``workers``
splits the path indices into contiguous chunks, one batch per process.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, MaxStepsError
from .game import PayoffParams, Strategy, strategy_tuple, validate_delta
from .gradients import TerminalClassification, _gradient_quotient, classify_terminal
from .payoffs import _payoffs
from .zd import is_pczd

__all__ = [
    "SimConfig",
    "PathStep",
    "AdaptingPath",
    "PathResult",
    "fd_gradient",
    "step",
    "run_path",
    "sweep",
    "initial_strategy",
]

GRADIENT_MODES = ("finite_difference", "analytic")


@dataclass(frozen=True)
class SimConfig:
    """Ascent parameters.

    ``nu`` is the learning rate, ``dq`` the centered-difference probe step
    (below 1, the width of the strategy cube), and ``step_tol`` the
    termination threshold on the update size.
    """

    nu: float = 0.1
    dq: float = 1e-4
    step_tol: float = 1e-12
    max_steps: int = 1_000_000
    gradient_mode: str = "finite_difference"

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > 0.0):
            raise DomainError(f"learning rate must be finite and positive, got {self.nu}")
        # a probe one cube width away cannot resolve a gradient; at 1e130
        # and beyond every centred difference rounds to exactly 0
        if not 0.0 < self.dq < 1.0:
            raise DomainError(f"difference step must lie in (0, 1), got {self.dq}")
        if not (math.isfinite(self.step_tol) and self.step_tol > 0.0):
            raise DomainError(
                f"termination threshold must be finite and positive, got {self.step_tol}"
            )
        if self.max_steps < 1:
            raise DomainError(f"max_steps must be at least 1, got {self.max_steps}")
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
    """Squared Euclidean norm of a 5-entry update, summed left to right;
    the entries may be floats or arrays."""
    return d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + d[3] * d[3] + d[4] * d[4]


def step(q, config: SimConfig, p, delta, params: PayoffParams) -> Strategy:
    """One ascent update: every entry moves by its scaled gradient, then clamps."""
    qt, pt = strategy_tuple(q), strategy_tuple(p)
    return Strategy(*_ascent_update(qt, config, pt, validate_delta(delta), params))


def run_path(q0, config: SimConfig, p, delta, params: PayoffParams,
             check_pczd: bool = True) -> AdaptingPath:
    """Iterate ascent updates until the step size drops below ``step_tol``.

    Termination uses the Euclidean norm of the update (the max norm of the
    final step is recorded alongside).  Requires strict payoffs, since the
    endpoint classification is only guaranteed there.  Raises
    :class:`MaxStepsError` carrying the partial path when the cap is hit.
    """
    pt, qt = strategy_tuple(p), strategy_tuple(q0)
    delta = validate_delta(delta)
    if not params.strict:
        raise DomainError("endpoint guarantees need strict payoffs (0 < T + S)")
    if check_pczd and not is_pczd(pt, delta, params):
        warnings.warn(
            "opponent strategy is not a positively correlated enforcer; "
            "the path may not end in unconditional cooperation",
            stacklevel=2,
        )
    path = _climb(qt, 0, config, pt, delta, params)
    if not path.converged:
        raise MaxStepsError(f"no convergence within {config.max_steps} steps", path=path)
    return path


def _climb(qt, n, config, pt, delta, params) -> AdaptingPath:
    """Ascend from ``qt``, already ``n`` steps along, until the update
    vanishes (``converged``) or step ``max_steps`` is taken.

    Records the starting point and every step.
    """
    path = AdaptingPath()

    def record(n, q):
        s_x, s_y = _payoffs(pt, q, delta, params)
        if path.steps and s_y < path.steps[-1].s_y - 1e-12:
            path.monotonic_violations += 1
        path.steps.append(PathStep(n, q, s_y, s_x))

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

    Streams are independent per index, so parallel and serial sweeps
    produce identical draws.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    return Strategy(*(float(v) for v in rng.random(5)))


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


# A lockstep iteration costs about the same for any batch of up to ~100
# paths, so once fewer paths than this stay active, each finishes on the
# scalar loop.  On a 2-vCPU VM (Python 3.11, numpy 2.4) a finite-difference
# iteration took 80-150 us against 30-45 us per scalar step, an analytic
# one, with its nine derivative determinants in one stack, 100-150 us at
# 1 to 40 paths against 22-31 us; the 40-path analytic benchmark sweep
# took 1.9-2.8 s for thresholds 4 to 10 against 2.5-3.1 s at 3 and
# 3.4-3.8 s at 16.  With the fd value of 2, a 1-path sweep makes exactly
# the calls of run_path.
_SCALAR_BELOW = {"finite_difference": 2, "analytic": 6}


def _batch_moves(qs, config, pt, delta, params):
    """Scaled gradients of the (5, m) strategy columns ``qs``, shaped (5, m).

    Same arithmetic as the scalar update, element by element: the ten
    finite-difference probes of all m strategies go through one kernel call.
    """
    if config.gradient_mode == "analytic":
        return config.nu * _gradient_quotient(pt, qs, delta, params, "y")
    m = qs.shape[1]
    probes = np.repeat(qs[:, None, :], 10, axis=1)  # entry j's +/- probes in slots 2j, 2j+1
    for j in range(5):
        probes[j, 2 * j] += config.dq
        probes[j, 2 * j + 1] -= config.dq
    s_y = _payoffs(pt, probes.reshape(5, 10 * m), delta, params)[1].reshape(5, 2, m)
    return config.nu * (s_y[:, 0] - s_y[:, 1]) / (2.0 * config.dq)


def _lockstep(starts, config, pt, delta, params):
    """(final q, steps, converged) of the path from each start.

    All active paths take their n-th step together; a path leaves the batch
    when its update vanishes, and the step cap ends every remaining path.
    """
    ends = [None] * len(starts)
    live = np.arange(len(starts))
    qs = np.array(starts).T
    n = 0
    while len(live) >= _SCALAR_BELOW[config.gradient_mode]:
        moved = qs + _batch_moves(qs, config, pt, delta, params)
        # min(max(x, 0.0), 1.0) of each entry, NaN and signed zeros included
        moved = np.where(moved < 0.0, 0.0, moved)
        moved = np.where(moved > 1.0, 1.0, moved)
        done = np.sqrt(_sum_squares(moved - qs)) < config.step_tol
        for k in np.flatnonzero(done):
            ends[live[k]] = (tuple(qs[:, k].tolist()), n, True)
        n += 1
        keep = ~done
        if n >= config.max_steps:
            for k in np.flatnonzero(keep):
                ends[live[k]] = (tuple(moved[:, k].tolist()), n, False)
            return ends
        live, qs = live[keep], moved[:, keep]
    for k, i in enumerate(live):
        path = _climb(tuple(qs[:, k].tolist()), n, config, pt, delta, params)
        ends[i] = (path.final_q, path.terminated_at, path.converged)
        del path  # free its recorded steps before the next path records its own
    return ends


def _chunks(n_paths: int, workers: int) -> list[range]:
    """Contiguous index ranges of near-equal size, one per worker process:
    min(workers, CPU count, n_paths) of them."""
    k = max(1, min(workers, os.cpu_count() or 1, n_paths))
    size, extra = divmod(n_paths, k)
    bounds = [i * size + min(i, extra) for i in range(k + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _sweep_chunk(args) -> list[PathResult]:
    indices, seed, config, pt, delta, params = args
    starts = [initial_strategy(seed, i).as_tuple() for i in indices]
    ends = _lockstep(starts, config, pt, delta, params)
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
        for i, q0, (final, steps, converged) in zip(indices, starts, ends)
    ]


def sweep(n_paths: int, seed: int, config: SimConfig, p, delta,
          params: PayoffParams, workers: int = 1) -> list[PathResult]:
    """Run ascent paths from ``n_paths`` seeded random initial strategies.

    The paths advance in lockstep as one batch, the last few on the scalar
    loop; ``workers`` > 1 splits the indices into contiguous chunks, one
    batch per worker process.  Every path ends exactly as :func:`run_path`
    would end it.  Paths that hit the step cap are recorded with
    ``converged=False`` rather than aborting the sweep.  Results are
    ordered by path index.
    """
    if n_paths < 1:
        raise DomainError(f"n_paths must be at least 1, got {n_paths}")
    if workers < 1:
        raise DomainError(f"workers must be at least 1, got {workers}")
    pt = strategy_tuple(p)
    delta = validate_delta(delta)
    if not params.strict:
        raise DomainError("endpoint guarantees need strict payoffs (0 < T + S)")
    args = [(chunk, seed, config, pt, delta, params) for chunk in _chunks(n_paths, workers)]
    if len(args) == 1:
        return _sweep_chunk(args[0])
    # imported here, so that a start without workers leaves multiprocessing unloaded
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(args)) as pool:
        return [r for part in pool.map(_sweep_chunk, args) for r in part]
