import contextlib

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


# How sweeps run their paths: the compiled ascent loop, or adaptive._climb,
# which stands in for it where no C compiler is found.
KERNELS = ("compiled", "python")


@contextlib.contextmanager
def kernel_forced(mode):
    """Sweeps inside take the compiled loop ("compiled"; the test is skipped
    if it cannot be built) or run each path on adaptive._climb ("python")."""
    if mode == "compiled" and _native._kernel() is None:
        pytest.skip("the compiled ascent loop could not be built")
    with pytest.MonkeyPatch.context() as mp:
        if mode == "python":
            mp.setattr(_native, "climber", lambda *args: None)
        yield mode


@pytest.fixture(params=KERNELS)
def kernel(request):
    with kernel_forced(request.param) as mode:
        yield mode
