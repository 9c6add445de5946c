import contextlib
import ctypes
import math
import threading
import types

import numpy as np
import pytest
from hypothesis import strategies as st

from zdgame import _native, validate_payoffs

# Known positively correlated enforcers with exact rational entries, each
# paired with a discount factor above critical and its payoff setting.
PCZD_A = ((0.0, 0.75, 0.25, 0.5, 0.0), 0.99, (1.5, -0.5))
PCZD_B = ((0.0, 1.0, 0.0, 1.0, 0.0), 0.34, (1.5, -0.5))
PCZD_C = ((1.0, 1.0, 0.5, 0.8, 0.3), 0.99, (1.5, -0.5))
PCZD_D = ((1.0, 1.0, 0.0, 1.0, 0.0), 0.34, (1.5, -0.5))
PCZD_E = ((0.95, 0.7, 0.2, 0.13, 0.0), 0.9, (2.0, -0.1))

ROSTER = (PCZD_A, PCZD_B, PCZD_C, PCZD_D, PCZD_E)

# Batch sizes and exact entries (signed zero included) on which the kernels,
# given numpy arrays, must reproduce their float results bit for bit.
BATCH_SIZES = (1, 2, 9, 40)
EXACT_ENTRIES = (0.0, 1.0, -0.0)
exact_or_unit = st.sampled_from(EXACT_ENTRIES) | st.floats(min_value=0.0, max_value=1.0)
strategy_with_exact_entries = st.tuples(*[exact_or_unit] * 5)
strategy_columns = st.sampled_from(BATCH_SIZES).flatmap(
    lambda m: st.lists(strategy_with_exact_entries, min_size=m, max_size=m)
).map(lambda cols: np.array(cols).T)


def draw_columns(rng, m):
    """(5, m) strategies from the cube, about a third of the entries exact."""
    qs = rng.random((5, m))
    exact = rng.random((5, m)) < 1 / 3
    qs[exact] = rng.choice(EXACT_ENTRIES, size=int(exact.sum()))
    return qs


def bits(values):
    """Raw bytes of float values, so that 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=float).tobytes()


# Payoff settings on which verify's pcZD sampler is checked against its
# references.
SAMPLER_SETTINGS = [(1.5, -0.5), (2.0, -0.1), (1.1, -1.0)]


# uniforms at and next to the ends of [0, 1]: delta at the critical value
# + 0.01 and next to 0.995, chi at 1 + 1e-6, kappa and p0 at 0 and 1 in
# the pcZD stream, delta at 0.01 and next to 0.99 in the normalizer stream
EDGE = math.nextafter(1.0, 0.0)


class ListRng:
    """A generator whose ``rng.random()`` values are ``values``, then those
    of ``default_rng(0)``, with the whole stream contract: read through
    ``random`` by the Python routes and through ``bit_generator``'s lock
    and ctypes ``next_double`` by the compiled ones.  ``held`` records, per value,
    whether the lock was held.  (ctypes prints an exception raised in a
    callback and returns 0.0, so the values never run out.)"""

    def __init__(self, values):
        self._values, self._rest = iter(values), np.random.default_rng(0)
        self.held = []
        lock = threading.Lock()
        next_double = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)(lambda _: self._next())
        self.bit_generator = types.SimpleNamespace(lock=lock, ctypes=types.SimpleNamespace(
            next_double=next_double, state_address=None))

    def _next(self):
        self.held.append(self.bit_generator.lock.locked())
        u = next(self._values, None)
        return self._rest.random() if u is None else u

    def random(self, size=None):
        if size is None:
            return self._next()
        return np.array([self._next() for _ in range(math.prod(np.atleast_1d(size)))]).reshape(size)


@pytest.fixture(scope="session")
def params_main():
    return validate_payoffs(1.5, -0.5, strict=True)


@pytest.fixture(scope="session")
def params_wide():
    return validate_payoffs(2.0, -0.1, strict=True)


@pytest.fixture(scope="session")
def params_tight():
    return validate_payoffs(1.1, -1.0, strict=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240)


# How sweeps run their paths, the oracle triangle sums its payoff series,
# verify's pcZD walks run their tries, its normalizer and regularity
# properties take their draws and its streams are drawn: the compiled
# loops of _climb.c, or the Python twins each caller names after an `or`
# (adaptive._climb, payoffs._series_rounds, verify._walk, whose tries are
# zd._try_pczd's, verify._residuals, a numpy pass over verify._draws, and
# numpy's own generator), which stand in for them where no C compiler is
# found.  Every kernel of _native gives None once _kernel() does.
KERNELS = ("compiled", "python")


@contextlib.contextmanager
def kernel_forced(mode):
    """Inside, every route takes the compiled loops ("compiled"; the test
    is skipped if they cannot be built) or their Python twins ("python",
    with ``_native._kernel`` nulled)."""
    if mode == "compiled" and _native._kernel() is None:
        pytest.skip("the compiled loops could not be built")
    with pytest.MonkeyPatch.context() as mp:
        if mode == "python":
            mp.setattr(_native, "_kernel", lambda: None)
        yield mode


@pytest.fixture(params=KERNELS)
def kernel(request):
    with kernel_forced(request.param) as mode:
        yield mode
