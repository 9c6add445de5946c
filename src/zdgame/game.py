"""Normalized prisoner's dilemma payoffs, memory-one strategies, and game matrices.

The stage game is normalized to mutual-cooperation payoff 1 and
mutual-defection payoff 0, leaving the temptation T and sucker's payoff S
as the only free parameters.  Joint outcomes are always indexed in the
order (CC, CD, DC, DD), written from player X's perspective: the first
letter is X's action.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class PayoffParams:
    """Normalized PD payoffs.

    ``strict`` additionally requires T + S > 0, the regime in which the
    adaptive-convergence guarantees hold; plain payoff evaluation does not
    need it.
    """

    T: float
    S: float
    strict: bool = False

    def __post_init__(self):
        T, S = float(self.T), float(self.S)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "S", S)
        if not (S < 0.0):
            raise DomainError(f"sucker payoff must satisfy S < 0, got S={S}")
        if not (T > 1.0):
            raise DomainError(f"temptation must satisfy T > 1, got T={T}")
        if not (T + S < 2.0):
            raise DomainError(f"payoffs must satisfy T + S < 2, got T+S={T + S}")
        if self.strict and not (T + S > 0.0):
            raise DomainError(f"strict mode requires 0 < T + S, got T+S={T + S}")

    @property
    def theta(self) -> float:
        """Combined off-diagonal payoff T + S."""
        return self.T + self.S

    def payoff_vector_x(self) -> tuple[float, float, float, float]:
        """X's payoff per joint outcome (CC, CD, DC, DD)."""
        return (1.0, self.S, self.T, 0.0)

    def payoff_vector_y(self) -> tuple[float, float, float, float]:
        """Y's payoff per joint outcome (CC, CD, DC, DD)."""
        return (1.0, self.T, self.S, 0.0)


def validate_payoffs(T: float, S: float, strict: bool = False) -> PayoffParams:
    """Validate (T, S) against the normalized PD constraints and return the params."""
    return PayoffParams(T=T, S=S, strict=strict)


def validate_delta(delta: float) -> float:
    """Check that the discount factor lies strictly inside (0, 1)."""
    delta = float(delta)
    if not (0.0 < delta < 1.0):
        raise DomainError(f"discount factor must lie in (0, 1), got {delta}")
    return delta


def _stream_argument(name, value):
    """``value`` as a Python int, unless it is a bool, not an integer, or
    negative."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {value!r}")
    return n


@dataclass(frozen=True)
class Strategy:
    """Memory-one strategy: first-round cooperation probability plus four
    conditional cooperation probabilities.

    Entries are owner-perspective: ``x1`` applies after (own C, opp C),
    ``x2`` after (own C, opp D), ``x3`` after (own D, opp C), ``x4`` after
    (own D, opp D).  ``x0`` is the unconditional first-round probability.
    """

    x0: float
    x1: float
    x2: float
    x3: float
    x4: float

    def __post_init__(self):
        for name in ("x0", "x1", "x2", "x3", "x4"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not (0.0 <= v <= 1.0):
                raise DomainError(f"strategy entry {name}={v} outside [0, 1]")

    @classmethod
    def from_iterable(cls, values) -> "Strategy":
        return cls(*strategy_tuple(values))

    @classmethod
    def parse(cls, text: str) -> "Strategy":
        """Parse a comma-separated 5-tuple such as ``"0.0,0.75,0.25,0.5,0.0"``."""
        try:
            parts = [float(t) for t in text.split(",")]
        except ValueError as exc:
            raise DomainError(f"cannot parse strategy {text!r}: {exc}") from None
        return cls.from_iterable(parts)

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.x0, self.x1, self.x2, self.x3, self.x4)

    def __iter__(self):
        return iter(self.as_tuple())


def strategy_tuple(s) -> tuple[float, float, float, float, float]:
    """Coerce a :class:`Strategy` or any length-5 sequence of numbers to a
    plain tuple; anything else raises :class:`DomainError`.

    No range check: numeric kernels evaluate polynomial extrapolations at
    probe points slightly outside the cube.
    """
    if isinstance(s, Strategy):
        return s.as_tuple()
    try:
        vals = tuple(float(v) for v in s)
    except (TypeError, ValueError):
        raise DomainError(f"a strategy needs 5 numbers, got {s!r}") from None
    if len(vals) != 5:
        raise DomainError(f"a strategy needs exactly 5 entries, got {len(vals)}")
    return vals


@dataclass(frozen=True)
class StateDistribution:
    """Distribution over joint outcomes (CC, CD, DC, DD) from X's perspective."""

    v: tuple[float, float, float, float]

    def validate(self, tol: float = 1e-12) -> "StateDistribution":
        if any(x < -tol for x in self.v):
            raise DomainError(f"distribution has a negative entry: {self.v}")
        if abs(sum(self.v) - 1.0) > tol:
            raise DomainError(f"distribution entries sum to {sum(self.v)}, not 1")
        return self

    def __iter__(self):
        return iter(self.v)


def _transition_rows(p, q):
    """Rows of the one-round transition matrix as nested tuples.

    Row i conditions on prior joint state i in (CC, CD, DC, DD) order.  Y's
    entries are owner-perspective, so the mixed states pick the opposite
    middle entry: row CD pairs (p2, q3), row DC pairs (p3, q2).
    """
    _, p1, p2, p3, p4 = p
    _, q1, q2, q3, q4 = q
    x = (p1, p2, p3, p4)
    y = (q1, q3, q2, q4)
    return tuple(
        (xi * yi, xi * (1.0 - yi), (1.0 - xi) * yi, (1.0 - xi) * (1.0 - yi))
        for xi, yi in zip(x, y)
    )


def transition_matrix(p, q) -> np.ndarray:
    """4x4 row-stochastic transition matrix of the joint outcome chain."""
    return np.array(_transition_rows(strategy_tuple(p), strategy_tuple(q)))


def _initial_terms(p0, q0):
    """First-round outcome probabilities (CC, CD, DC, DD); floats or
    arrays, element by element."""
    return (p0 * q0, p0 * (1.0 - q0), (1.0 - p0) * q0, (1.0 - p0) * (1.0 - q0))


def initial_distribution(p0: float, q0: float) -> StateDistribution:
    """First-round outcome distribution from the two first-round cooperation probabilities."""
    return StateDistribution(_initial_terms(float(p0), float(q0)))
