"""Gradient-ascent adaptation of player Y against a fixed opponent.

Y repeatedly nudges every strategy entry along the gradient of its own
discounted payoff, clamping into [0, 1], until the update step all but
vanishes.  Against a positively correlated enforcer every such path ends
in unconditional cooperation; the terminal classifier checks which of the
two endpoint patterns was reached.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, MaxStepsError
from .game import PayoffParams, Strategy, strategy_tuple, validate_delta
from .gradients import TerminalClassification, classify_terminal, gradient_quotient
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

    ``nu`` is the learning rate, ``dq`` the centered-difference probe step,
    ``step_tol`` the termination threshold on the update size, and
    ``record_stride`` thins the recorded trajectory for very long runs
    (first and last points are always kept).
    """

    nu: float = 0.1
    dq: float = 1e-4
    step_tol: float = 1e-12
    max_steps: int = 1_000_000
    gradient_mode: str = "finite_difference"
    record_stride: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > 0.0):
            raise DomainError(f"learning rate must be finite and positive, got {self.nu}")
        if not (math.isfinite(self.dq) and self.dq > 0.0):
            raise DomainError(f"difference step must be finite and positive, got {self.dq}")
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
        if self.record_stride < 1:
            raise DomainError(f"record_stride must be at least 1, got {self.record_stride}")


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
        grad = gradient_quotient(pt, qt, delta, params, payoff="y")
        moves = [config.nu * g for g in grad]
    return tuple(min(max(qj + m, 0.0), 1.0) for qj, m in zip(qt, moves))


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
    path = AdaptingPath()

    def record(n, q):
        s_x, s_y = _payoffs(pt, q, delta, params)
        if path.steps and s_y < path.steps[-1].s_y - 1e-12:
            path.monotonic_violations += 1
        path.steps.append(PathStep(n, q, s_y, s_x))

    record(0, qt)
    n = 0
    while True:
        q_next = _ascent_update(qt, config, pt, delta, params)
        diffs = [a - b for a, b in zip(q_next, qt)]
        euclid = math.sqrt(sum(d * d for d in diffs))
        if euclid < config.step_tol:
            path.converged = True
            path.last_step_euclidean = euclid
            path.last_step_max = max(abs(d) for d in diffs)
            break
        n += 1
        qt = q_next
        if n % config.record_stride == 0:
            record(n, qt)
        if n >= config.max_steps:
            if path.steps[-1].n != n:
                record(n, qt)
            path.terminated_at = n
            path.terminal = classify_terminal(pt, qt)
            raise MaxStepsError(f"no convergence within {config.max_steps} steps", path=path)
    if path.steps[-1].n != n:
        record(n, qt)
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


def _run_indexed(args) -> PathResult:
    index, seed, config, p, delta, T, S, strict = args
    params = PayoffParams(T=T, S=S, strict=strict)
    q0 = initial_strategy(seed, index)
    try:
        path = run_path(q0, config, p, delta, params, check_pczd=False)
    except MaxStepsError as exc:
        path = exc.path
    return PathResult(
        index=index,
        seed=seed,
        initial=q0.as_tuple(),
        final=path.final_q,
        terminal=path.terminal.tag,
        steps=path.terminated_at,
        converged=path.converged,
    )


def sweep(n_paths: int, seed: int, config: SimConfig, p, delta,
          params: PayoffParams, workers: int = 1) -> list[PathResult]:
    """Run ascent paths from ``n_paths`` seeded random initial strategies.

    Paths that hit the step cap are recorded with ``converged=False``
    rather than aborting the sweep.  Results are ordered by path index
    regardless of worker scheduling.
    """
    if n_paths < 1:
        raise DomainError(f"n_paths must be at least 1, got {n_paths}")
    pt = strategy_tuple(p)
    delta = validate_delta(delta)
    if not params.strict:
        raise DomainError("endpoint guarantees need strict payoffs (0 < T + S)")
    args = [
        (i, seed, config, pt, delta, params.T, params.S, params.strict)
        for i in range(n_paths)
    ]
    if workers <= 1:
        return [_run_indexed(a) for a in args]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_indexed, args))
