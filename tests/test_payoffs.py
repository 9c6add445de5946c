import contextlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdgame import (
    NumericalError,
    payoff_determinant,
    payoff_inverse,
    payoff_series,
    series_horizon,
    state_determinant,
    transition_matrix,
    validate_payoffs,
)
from zdgame._linalg import det4
from zdgame import payoffs as payoffs_mod
from zdgame.payoffs import _cofactors, _matrix_rows, _payoff_terms, _weigh
from conftest import (
    BATCH_SIZES,
    KERNELS,
    bits,
    draw_columns,
    kernel_forced,
    strategy_columns,
    strategy_with_exact_entries,
)

ONES = (1.0, 1.0, 1.0, 1.0)

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
strategy5 = st.tuples(probs, probs, probs, probs, probs)
deltas = st.floats(min_value=0.01, max_value=0.99)


def resolvent_det(p, q, delta):
    """Independent evaluation of det(I - delta*M) by direct 4x4 expansion."""
    m = transition_matrix(p, q)
    return det4(tuple(tuple(row) for row in (np.eye(4) - delta * m)))


class TestStateDeterminant:
    @pytest.mark.parametrize("delta", [0.1, 0.34, 0.99])
    def test_all_cooperate_normalizer_is_one(self, delta):
        # closed form 1 - delta*p1 + delta*p3 at p = all ones
        assert state_determinant((1, 1, 1, 1, 1), (1, 1, 1, 1, 1), delta, ONES) == pytest.approx(1.0, abs=1e-15)

    def test_defecting_opponent_closed_form(self, rng):
        for _ in range(25):
            p = rng.random(5)
            delta = rng.uniform(0.05, 0.95)
            q = (rng.random(), 0, 0, 0, 0)
            expected = 1.0 - delta * p[2] + delta * p[4]
            assert state_determinant(p, q, delta, ONES) == pytest.approx(expected, abs=1e-14)

    def test_matches_resolvent_determinant(self, rng):
        for _ in range(50):
            p, q = rng.random(5), rng.random(5)
            delta = rng.uniform(0.05, 0.95)
            d = state_determinant(p, q, delta, ONES)
            assert resolvent_det(p, q, delta) == pytest.approx((1.0 - delta) * d, rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(strategy5, strategy5, deltas)
    def test_normalizer_positive(self, p, q, delta):
        assert state_determinant(p, q, delta, ONES) > 1e-12

    @settings(max_examples=60, deadline=None)
    @given(strategy5, strategy5, deltas, probs)
    def test_normalizer_independent_of_first_round_q(self, p, q, delta, q0_new):
        base = state_determinant(p, q, delta, ONES)
        moved = state_determinant(p, (q0_new, *q[1:]), delta, ONES)
        assert abs(base - moved) < 1e-14


class TestPayoffDeterminant:
    def test_mutual_cooperation(self, params_main):
        pair = payoff_determinant((1, 1, 1, 1, 1), (1, 1, 1, 1, 1), 0.7, params_main)
        assert pair.s_x == pytest.approx(1.0, abs=1e-15)
        assert pair.s_y == pytest.approx(1.0, abs=1e-15)

    def test_mutual_defection(self, params_main):
        pair = payoff_determinant((0, 0, 0, 0, 0), (0, 0, 0, 0, 0), 0.7, params_main)
        assert pair.s_x == pytest.approx(0.0, abs=1e-15)
        assert pair.s_y == pytest.approx(0.0, abs=1e-15)

    def test_one_sided_exploitation(self, params_main):
        # X always defects, Y always cooperates: X earns T, Y earns S.
        pair = payoff_determinant((0, 0, 0, 0, 0), (1, 1, 1, 1, 1), 0.5, params_main)
        assert pair.s_x == pytest.approx(params_main.T, abs=1e-15)
        assert pair.s_y == pytest.approx(params_main.S, abs=1e-15)

    def test_enforcer_vs_full_cooperation_matches_series(self, params_main):
        p = (0.0, 0.75, 0.25, 0.5, 0.0)
        q = (1.0, 1.0, 1.0, 1.0, 1.0)
        det_pair = payoff_determinant(p, q, 0.99, params_main)
        ser_pair = payoff_series(p, q, 0.99, params_main, tol=1e-11)
        assert det_pair.s_x == pytest.approx(ser_pair.s_x, abs=1e-9)
        assert det_pair.s_y == pytest.approx(ser_pair.s_y, abs=1e-9)

    def test_rejects_vanishing_normalizer(self, params_main):
        # delta ~ 1 is outside the domain; force it through the raw kernel
        with pytest.raises(NumericalError):
            payoff_determinant(
                (1, 1, 1, 1, 1), (1, 1, 1, 0, 1), 1.0 - 1e-16, params_main
            )

    @settings(max_examples=60, deadline=None)
    @given(strategy5, strategy5, deltas)
    def test_payoffs_within_game_range(self, p, q, delta):
        params = validate_payoffs(1.5, -0.5)
        pair = payoff_determinant(p, q, delta, params)
        assert params.S - 1e-12 <= pair.s_x <= params.T + 1e-12
        assert params.S - 1e-12 <= pair.s_y <= params.T + 1e-12


class TestPayoffInverse:
    def test_agrees_with_determinant(self, params_main, rng):
        for _ in range(60):
            p, q = rng.random(5), rng.random(5)
            delta = rng.uniform(0.01, 0.99)
            a = payoff_determinant(p, q, delta, params_main)
            b = payoff_inverse(p, q, delta, params_main)
            assert a.s_x == pytest.approx(b.s_x, abs=1e-10)
            assert a.s_y == pytest.approx(b.s_y, abs=1e-10)

    def test_small_delta_dominated_by_first_round(self, params_main, rng):
        delta = 0.01
        for _ in range(10):
            p, q = rng.random(5), rng.random(5)
            pair = payoff_inverse(p, q, delta, params_main)
            v0 = (p[0] * q[0], p[0] * (1 - q[0]), (1 - p[0]) * q[0], (1 - p[0]) * (1 - q[0]))
            first = sum(a * b for a, b in zip(v0, params_main.payoff_vector_x()))
            assert abs(pair.s_x - first) < 0.05

    def test_alternator_vs_defector(self, params_main):
        pair = payoff_inverse((0, 1, 0, 1, 0), (0, 0, 0, 0, 0), 0.34, params_main)
        ser = payoff_series((0, 1, 0, 1, 0), (0, 0, 0, 0, 0), 0.34, params_main, tol=1e-12)
        for v, w in zip(pair, ser):
            assert params_main.S <= v <= params_main.T
            assert v == pytest.approx(w, abs=1e-10)


class TestPayoffSeries:
    def test_mutual_cooperation_tight_tolerance(self, params_main):
        pair = payoff_series((1, 1, 1, 1, 1), (1, 1, 1, 1, 1), 0.9, params_main, tol=1e-12)
        assert pair.s_x == pytest.approx(1.0, abs=1e-12)

    def test_matches_determinant_within_tolerance(self, params_main, rng):
        for _ in range(25):
            p, q = rng.random(5), rng.random(5)
            delta = rng.uniform(0.05, 0.99)
            tol = 1e-9
            a = payoff_determinant(p, q, delta, params_main)
            b = payoff_series(p, q, delta, params_main, tol=tol)
            assert abs(a.s_x - b.s_x) < 2 * tol
            assert abs(a.s_y - b.s_y) < 2 * tol

    def test_horizon_is_minimal(self, params_main):
        delta, tol = 0.99, 1e-9
        h = series_horizon(delta, params_main, tol)
        bound = lambda n: delta ** (n + 1) * 1.5 / (1.0 - delta)
        assert bound(h) < tol
        assert bound(h - 1) >= tol

    @pytest.mark.parametrize("delta, tol", [
        (0.5, 5e-324), (0.99, 5e-324), (0.99, 1e-320), (0.9999999999999999, 5e-324),
        # a subnormal first guess lies ~1e17 rounds off here
        (0.9999999999999999, 1e-300),
    ])
    def test_horizon_is_minimal_down_to_the_smallest_tolerance(self, params_main, delta, tol):
        """tol * (1 - delta) / m underflows to 0 at the smallest tolerances,
        whose log is a math domain error."""
        h = series_horizon(delta, params_main, tol)
        bound = lambda n: delta ** (n + 1) * 1.5 / (1.0 - delta)
        assert bound(h) < tol <= bound(h - 1)

    def test_horizon_scales_with_delta(self, params_main):
        slow = series_horizon(0.99, params_main, 1e-9)
        fast = series_horizon(0.34, params_main, 1e-9)
        assert slow > 1000 > fast

    def test_rejects_bad_tolerance(self, params_main):
        with pytest.raises(ValueError):
            payoff_series((1, 1, 1, 1, 1), (1, 1, 1, 1, 1), 0.9, params_main, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_tolerance_that_is_not_finite_and_positive(self, params_main, tol):
        message = re.escape(f"tolerance must be finite and positive, got {tol}")
        with pytest.raises(ValueError, match=message):
            series_horizon(0.9, params_main, tol)
        with pytest.raises(ValueError, match=message):
            payoff_series((1, 1, 1, 1, 1), (1, 1, 1, 1, 1), 0.9, params_main, tol=tol)


class TestThreeWayAgreement:
    @pytest.mark.parametrize("delta", [0.34, 0.99])
    def test_fixed_deltas(self, params_main, rng, delta):
        for _ in range(20):
            p, q = rng.random(5), rng.random(5)
            a = payoff_determinant(p, q, delta, params_main)
            b = payoff_inverse(p, q, delta, params_main)
            c = payoff_series(p, q, delta, params_main, tol=1e-10)
            for u, v in [(a, b), (a, c), (b, c)]:
                assert abs(u.s_x - v.s_x) < 1e-8
                assert abs(u.s_y - v.s_y) < 1e-8


def test_resolvent_identity_relative(params_main, rng):
    worst = 0.0
    for _ in range(300):
        p, q = rng.random(5), rng.random(5)
        delta = rng.uniform(0.01, 0.99)
        d = state_determinant(p, q, delta, ONES)
        worst = max(worst, abs(resolvent_det(p, q, delta) - (1.0 - delta) * d) / abs(d))
    assert worst < 1e-10


def test_state_determinant_is_linear_in_weights(rng):
    p, q, delta = rng.random(5), rng.random(5), 0.4
    f = rng.normal(size=4)
    g = rng.normal(size=4)
    lhs = state_determinant(p, q, delta, 2.0 * f + 3.0 * g)
    rhs = 2.0 * state_determinant(p, q, delta, f) + 3.0 * state_determinant(p, q, delta, g)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestArrayKernel:
    def test_array_elements_equal_float_results(self, params_main, rng):
        p = tuple(map(float, rng.random(5)))
        qs = rng.random((5, 50))
        terms = _payoff_terms(_cofactors(_matrix_rows(p, qs, 0.9)), params_main)
        for k in range(50):
            q = tuple(float(v) for v in qs[:, k])
            expected = _payoff_terms(_cofactors(_matrix_rows(p, q, 0.9)), params_main)
            assert tuple(float(t[k]) for t in terms) == expected

    def test_one_vanished_normalizer_rejects_the_array(self, params_main, rng):
        p = (1.0, 1.0, 1.0, 1.0, 1.0)
        qs = rng.random((5, 4))
        qs[:, 2] = (1.0, 1.0, 1.0, 0.0, 1.0)  # two closed classes: normalizer ~ 1 - delta
        delta = 1.0 - 1e-16
        with pytest.raises(NumericalError, match="normalizing determinant"):
            _payoff_terms(_cofactors(_matrix_rows(p, qs, delta)), params_main)
        # the other three alone pass the floor
        _payoff_terms(_cofactors(_matrix_rows(p, qs[:, [0, 1, 3]], delta)), params_main)


def assert_cofactors_match(p, qs, delta):
    stacked = np.array(_cofactors(_matrix_rows(p, qs, delta)))
    assert stacked.shape == (4, qs.shape[1])
    for k in range(qs.shape[1]):
        alone = _cofactors(_matrix_rows(p, tuple(qs[:, k].tolist()), delta))
        assert bits(stacked[:, k]) == bits(alone)


class TestStackedCofactors:
    @pytest.mark.parametrize("m", BATCH_SIZES)
    def test_seeded_elements_equal_float_results(self, rng, m):
        p = tuple(draw_columns(rng, 1)[:, 0].tolist())
        assert_cofactors_match(p, draw_columns(rng, m), 0.9)

    @settings(max_examples=60, deadline=None)
    @given(strategy_with_exact_entries, strategy_columns, deltas)
    def test_elements_equal_float_results(self, p, qs, delta):
        assert_cofactors_match(p, qs, delta)

    @pytest.mark.parametrize("m", BATCH_SIZES)
    def test_per_column_strategies_and_discounts(self, rng, m):
        """p and delta may vary by column too: the weighted determinant of
        each column equals state_determinant on that column's floats."""
        ps, qs = draw_columns(rng, m), draw_columns(rng, m)
        deltas = rng.uniform(0.05, 0.95, m)
        for f in (ONES, tuple(rng.normal(size=4))):
            stacked = _weigh(_cofactors(_matrix_rows(ps, qs, deltas)), f)
            alone = [state_determinant(ps[:, k], qs[:, k], deltas[k], f) for k in range(m)]
            assert bits(stacked) == bits(alone)


def stacked_draws(rng, m):
    """(5, m) strategies and m discounts, the first pinned at 0.99 (the
    longest series horizon) and the others in [0.01, 0.99)."""
    deltas = rng.uniform(0.01, 0.99, m)
    deltas[0] = 0.99
    return draw_columns(rng, m), draw_columns(rng, m), deltas


class TestStackedRoutes:
    """The verify suite's stacked inverse and series routes: each column
    equals payoff_inverse / payoff_series on that column's floats."""

    @pytest.mark.parametrize("m", (*BATCH_SIZES, 100))
    def test_inverse_columns_equal_float_results(self, params_main, rng, m):
        ps, qs, deltas = stacked_draws(rng, m)
        stacked = payoffs_mod._inverse_payoffs(ps, qs, deltas, params_main)
        alone = [payoff_inverse(ps[:, k], qs[:, k], deltas[k], params_main) for k in range(m)]
        assert bits(np.array(stacked).T) == bits(alone)

    # each forced route, then the route the module picks itself with 0 or 4
    # short-horizon pairs (delta 0.01) appended to the long ones
    @pytest.mark.parametrize("route, short", [
        *(pytest.param(route, 0, id=route) for route in KERNELS),
        *(pytest.param(None, short, id=str(short)) for short in (0, 4)),
    ])
    @pytest.mark.parametrize("m", (*BATCH_SIZES, 100))
    def test_series_columns_equal_float_results(self, params_main, rng, route, short, m):
        ps, qs, deltas = stacked_draws(rng, m)
        if short:
            ps = np.hstack([ps, draw_columns(rng, short)])
            qs = np.hstack([qs, draw_columns(rng, short)])
            deltas = np.concatenate([deltas, np.full(short, 0.01)])
            m += short
        with kernel_forced(route) if route else contextlib.nullcontext():
            stacked = payoffs_mod._series_payoffs(ps, qs, deltas, params_main, 1e-10)
        alone = [payoff_series(ps[:, k], qs[:, k], deltas[k], params_main, tol=1e-10)
                 for k in range(m)]
        assert bits(np.array(stacked).T) == bits(alone)

    def test_singular_stacked_solve_is_a_numerical_error(self, params_main):
        # at delta = 1 a chain that stays at CC makes I - delta*M singular
        ones = np.ones((5, 2))
        with pytest.raises(NumericalError, match="resolvent solve failed"):
            payoffs_mod._inverse_payoffs(ones, ones, np.full(2, 1.0), params_main)
