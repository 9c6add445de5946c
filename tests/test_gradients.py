import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdgame import (
    NotRelayError,
    classify_relay,
    classify_terminal,
    common_factor,
    gradient_factorized,
    gradient_quotient,
    minor_dets,
    payoff_determinant,
    q0_reduction_vector,
    reduced_det_q0,
    reduced_dets,
    row_reduction_vector,
    sample_pczd,
    state_determinant,
    validate_payoffs,
    zero_gradient_condition,
)
from zdgame.gradients import (
    ZERO_CONDITIONS,
    _gradient_factorized,
    _gradient_quotient,
    _q0_derivative_det,
)
from zdgame.payoffs import _matrix_rows
from conftest import (
    BATCH_SIZES,
    PCZD_A,
    PCZD_B,
    PCZD_C,
    PCZD_D,
    bits,
    draw_columns,
    strategy_columns,
    strategy_with_exact_entries,
)

ONES = (1.0, 1.0, 1.0, 1.0)


def fd_oracle(p, q, delta, params, j, payoff, h=1e-5):
    plus, minus = list(q), list(q)
    plus[j] += h
    minus[j] -= h
    a = payoff_determinant(p, plus, delta, params)
    b = payoff_determinant(p, minus, delta, params)
    diff = (a.s_x - b.s_x) if payoff == "x" else (a.s_y - b.s_y)
    return diff / (2.0 * h)


class TestQuotientGradient:
    @pytest.mark.parametrize("payoff", ["x", "y"])
    def test_matches_finite_differences(self, params_main, rng, payoff):
        for _ in range(40):
            p, q = rng.random(5), rng.random(5)
            delta = rng.uniform(0.05, 0.95)
            g = gradient_quotient(p, q, delta, params_main, payoff)
            for j in range(5):
                ref = fd_oracle(p, q, delta, params_main, j, payoff)
                assert g[j] == pytest.approx(ref, rel=1e-6, abs=1e-8)

    def test_conditional_components_nonnegative_for_enforcer(self, params_main, rng):
        for _ in range(300):
            p, _, delta = sample_pczd(rng, params_main)
            g = gradient_quotient(p, rng.random(5), delta, params_main, "y")
            assert min(g.g1, g.g2, g.g3, g.g4) >= -1e-12

    def test_vanishes_at_zero_condition_corner(self, params_main, rng):
        p, delta, _ = PCZD_A
        for _ in range(20):
            q = (0.0, rng.random(), rng.random(), 0.0, 0.0)
            g = gradient_quotient(p, q, delta, params_main, "x")
            assert abs(g.g1) < 1e-11


class TestFactorizedGradient:
    def test_matches_quotient_on_enforcer_manifold(self, rng):
        for T, S in [(1.5, -0.5), (2.0, -0.1), (1.1, -1.0)]:
            params = validate_payoffs(T, S, strict=True)
            for _ in range(150):
                p, _, delta = sample_pczd(rng, params)
                q = rng.random(5)
                gq = gradient_quotient(p, q, delta, params, "x")
                gf, _ = gradient_factorized(p, q, delta, params)
                for a, b in zip(gq, gf):
                    assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-12)

    def test_decomposition_reconstructs_gradient(self, params_main, rng):
        p, _, delta = sample_pczd(rng, params_main)
        q = rng.random(5)
        d_ones = state_determinant(p, q, delta, ONES)
        grad, decomp = gradient_factorized(p, q, delta, params_main)
        first = decomp[0]
        assert first.minor is None
        assert first.scalar * first.common * first.reduced == pytest.approx(
            d_ones * grad.g0, rel=1e-12, abs=1e-12
        )
        for ell in range(1, 5):
            d = decomp[ell]
            assert d.scalar == delta
            product = d.scalar * d.common * d.minor * d.reduced
            assert product == pytest.approx(d_ones * d_ones * grad[ell], rel=1e-12, abs=1e-12)

    def test_common_factor_positive_everywhere(self, rng):
        params = validate_payoffs(1.5, -0.5)
        for _ in range(200):
            p = rng.random(5)
            delta = rng.uniform(0.01, 0.99)
            assert common_factor(p, delta, params) > 0.0

    def test_minor_sign_alternation(self, params_main, rng):
        for _ in range(200):
            p, _, delta = sample_pczd(rng, params_main)
            m = minor_dets(p, rng.random(5), delta)
            for ell, value in enumerate(m, start=1):
                assert (-1.0) ** ell * value >= -1e-13

    def test_reduced_det_sign_alternation_strict(self, rng):
        for T, S in [(1.5, -0.5), (2.0, -0.1), (1.1, -1.0)]:
            params = validate_payoffs(T, S, strict=True)
            for _ in range(150):
                p, _, delta = sample_pczd(rng, params)
                d = reduced_dets(p, rng.random(5), delta, params)
                for ell, value in enumerate(d, start=1):
                    assert (-1.0) ** ell * value > 0.0

    def test_reduction_vectors_ignore_first_round_and_own_entry(self, params_main, rng):
        p, q = rng.random(5), rng.random(5)
        delta = 0.77
        for ell in range(1, 5):
            base = row_reduction_vector(p, q, delta, ell)
            moved = list(q)
            moved[0] = rng.random()
            moved[ell] = rng.random()
            again = row_reduction_vector(p, moved, delta, ell)
            assert np.allclose(base, again, atol=1e-15)

    def test_q0_reduction_ignores_first_round(self, params_main, rng):
        p, q = rng.random(5), rng.random(5)
        u = q0_reduction_vector(p, q, 0.6)
        moved = (rng.random(), *q[1:])
        assert np.allclose(u, q0_reduction_vector(p, moved, 0.6), atol=1e-15)

    def test_first_round_reduced_det_can_be_negative(self, params_main):
        # the (0,1,1,0) corner is the canonical negative witness: an
        # enforcer that always opens with cooperation but punishes hard
        from zdgame import ZDParams, make_zd

        delta = 0.99
        phi = 0.208
        kappa = 0.01 / 0.208
        p = make_zd(ZDParams(phi=phi, chi=2.0, kappa=kappa), 1.0, delta, params_main)
        assert p.x1 == pytest.approx(0.8, abs=1e-12)
        value = reduced_det_q0(p, (0.5, 0, 1, 1, 0), delta, params_main)
        assert value < -0.1

    def test_first_round_reduced_det_positive_at_relay_corners(self, params_main, rng):
        # all-conditional-ones and the two one-coordinate-off relay corners
        relay_qs = [(0.2, 1, 1, 1, 1), (0.2, 1, 1, 0, 1), (0.2, 1, 1, 1, 0)]
        for _ in range(100):
            p, _, delta = sample_pczd(rng, params_main)
            for q in relay_qs:
                assert reduced_det_q0(p, q, delta, params_main) > 0.0


class TestZeroConditions:
    # (ell, roster strategy, fixed entries) for every catalogued pattern
    CASES = []
    _BY_NAME = {"A": PCZD_A, "B": PCZD_B, "C": PCZD_C, "D": PCZD_D}
    _PICK = {
        1: ["A", "A", "A", "B", "A", "B", "A", "B", "B", "D", "B"],
        2: ["A", "C", "A", "C"],
        3: ["A", "C", "A", "A"],
        4: ["A", "C", "C", "B", "B", "D", "B", "D", "C", "D", "D", "B"],
    }
    for ell, names in _PICK.items():
        for cond, name in zip(ZERO_CONDITIONS[ell], names):
            CASES.append((ell, name, cond))

    @pytest.mark.parametrize("ell,name,cond", CASES)
    def test_every_catalogued_pattern_zeroes_the_gradient(self, ell, name, cond, rng):
        p, delta, (T, S) = self._BY_NAME[name]
        params = validate_payoffs(T, S, strict=True)
        q = list(rng.uniform(0.05, 0.95, size=5))
        for vec, idx, value in cond:
            if vec == "p":
                assert abs(p[idx] - value) < 1e-15, "roster strategy does not fit pattern"
            else:
                q[idx] = float(value)
        assert zero_gradient_condition(p, q, ell)
        g = gradient_quotient(p, q, delta, params, "x")
        assert abs(g[ell]) < 1e-11

    def test_interior_points_do_not_match(self, params_main, rng):
        p, delta, _ = PCZD_A
        for _ in range(20):
            q = rng.uniform(0.05, 0.95, size=5)
            for ell in range(1, 5):
                assert not zero_gradient_condition(p, q, ell)
                assert gradient_quotient(p, q, delta, params_main, "x")[ell] > 0.0

    def test_non_matching_corners_have_positive_gradient(self, rng):
        for p, delta, (T, S) in [PCZD_A, PCZD_B, PCZD_C]:
            params = validate_payoffs(T, S, strict=True)
            for _ in range(40):
                q = tuple(float(v) for v in rng.integers(0, 2, size=5))
                g = gradient_quotient(p, q, delta, params, "x")
                for ell in range(1, 5):
                    if not zero_gradient_condition(p, q, ell):
                        assert g[ell] > 1e-13

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            zero_gradient_condition((0, 0, 0, 0, 0), (0, 0, 0, 0, 0), 5)


class TestRelayClassification:
    def test_full_cooperation_head_is_r1(self, params_main):
        p, delta, _ = PCZD_A
        result = classify_relay(p, (1, 1, 1, 0.47, 0.12), delta, params_main)
        assert result.tags == ("R1",)
        assert result.tag == "R1"

    def test_stalled_third_entry_is_r3(self, params_main):
        p, delta, _ = PCZD_A
        result = classify_relay(p, (0.3, 1, 1, 0, 1), delta, params_main)
        assert "R3" in result.tags

    def test_all_conditional_ones_is_r5(self, params_main):
        p, delta, _ = PCZD_A
        result = classify_relay(p, (0.4, 1, 1, 1, 1), delta, params_main)
        assert "R5" in result.tags
        assert "R1" not in result.tags

    def test_mutual_cooperation_lock_matches_r2(self, params_main):
        p, delta, _ = PCZD_C
        result = classify_relay(p, (1, 1, 0.3, 1, 1), delta, params_main)
        assert "R2" in result.tags

    def test_moving_point_is_rejected(self, params_main, rng):
        p, delta, _ = PCZD_A
        with pytest.raises(NotRelayError):
            classify_relay(p, (0.2, 0.3, 0.4, 0.5, 0.6), delta, params_main)

    def test_first_round_gradient_positive_at_relays(self, params_main):
        # at every relay state the first-round entry still wants to grow
        p, delta, _ = PCZD_A
        for q in [(0.3, 1, 1, 0, 1), (0.4, 1, 1, 1, 1), (0.2, 1, 1, 0.47, 0.12)]:
            if q[1:3] != (1, 1):
                continue
            g = gradient_quotient(p, q, delta, params_main, "y")
            if q[0] < 1.0:
                assert g.g0 > 0.0


class TestTerminalClassification:
    def test_t1(self):
        result = classify_terminal((0.0, 0.75, 0.25, 0.5, 0.0), (1, 1, 1, 0.47, 0.12))
        assert result.tag == "T1"
        assert result == "T1"

    def test_t2(self):
        result = classify_terminal((1, 1, 0.5, 0.8, 0.3), (1, 1, 0.3, 0.9, 0.2))
        assert result.tag == "T2"
        assert not result.both_satisfied

    def test_other_when_first_round_low(self):
        result = classify_terminal((0.0, 0.75, 0.25, 0.5, 0.0), (0.5, 1, 1, 1, 1))
        assert result.tag == "T2" or result.tag == "OTHER"
        assert result.tag == "OTHER"

    def test_t2_priority_with_both(self):
        result = classify_terminal((1, 1, 0.5, 0.8, 0.3), (1, 1, 1, 1, 1))
        assert result.tag == "T2"
        assert result.both_satisfied

    def test_tolerance_respected(self):
        result = classify_terminal((0, 0.75, 0.25, 0.5, 0), (1 - 1e-7, 1, 1, 0.5, 0.5))
        assert result.tag == "T1"
        result = classify_terminal((0, 0.75, 0.25, 0.5, 0), (1 - 1e-4, 1, 1, 0.5, 0.5))
        assert result.tag == "OTHER"

    # (p0 = p1 = 1, q0 = q1 = 1, q2 = 1) -> (tag, both_satisfied): T1 needs
    # the last two, T2 the first two
    @pytest.mark.parametrize("p_cc, q_01, q_2, tag, both", [
        (False, False, False, "OTHER", False),
        (False, False, True, "OTHER", False),
        (False, True, False, "OTHER", False),
        (False, True, True, "T1", False),
        (True, False, False, "OTHER", False),
        (True, False, True, "OTHER", False),
        (True, True, False, "T2", False),
        (True, True, True, "T2", True),
    ])
    def test_every_pattern_combination(self, p_cc, q_01, q_2, tag, both):
        p = (1.0, 1.0, 0.5, 0.8, 0.3) if p_cc else (1.0, 0.75, 0.25, 0.5, 0.0)
        q = (1.0, 1.0 if q_01 else 0.5, 1.0 if q_2 else 0.3, 0.9, 0.2)
        result = classify_terminal(p, q)
        assert (result.tag, result.both_satisfied) == (tag, both)


def test_normalizer_q0_derivative_is_exactly_zero(rng):
    # gradient_quotient drops this determinant from the q0 component
    for _ in range(2000):
        p, q = rng.random(5), rng.random(5)
        delta = rng.uniform(0.01, 0.99)
        rows = _matrix_rows(tuple(map(float, p)), tuple(map(float, q)), delta)
        assert _q0_derivative_det(rows, ONES, float(p[0]), delta) == 0.0


def test_gradient_scale_invariance_of_normalizer(params_main, rng):
    # doubling the weight vector doubles the determinant but not the payoff
    p, q = rng.random(5), rng.random(5)
    delta = 0.5
    doubled = state_determinant(p, q, delta, (2.0, 2.0, 2.0, 2.0))
    assert doubled == pytest.approx(2.0 * state_determinant(p, q, delta, ONES), rel=1e-12)


def test_array_gradient_elements_equal_float_gradients(params_main, rng):
    p = tuple(map(float, rng.random(5)))
    qs = rng.random((5, 30))
    grads = _gradient_quotient(p, qs, 0.9, params_main, "y")
    for k in range(30):
        q = tuple(float(v) for v in qs[:, k])
        expected = gradient_quotient(p, q, 0.9, params_main, "y")
        assert tuple(float(g[k]) for g in grads) == expected


def assert_stacked_gradient_matches(p, qs, delta, params, payoff):
    stacked = np.array(_gradient_quotient(p, qs, delta, params, payoff))
    assert stacked.shape == (5, qs.shape[1])
    for k in range(qs.shape[1]):
        alone = _gradient_quotient(p, tuple(qs[:, k].tolist()), delta, params, payoff)
        assert bits(stacked[:, k]) == bits(alone)


class TestStackedGradient:
    @pytest.mark.parametrize("payoff", ["x", "y"])
    @pytest.mark.parametrize("m", BATCH_SIZES)
    def test_seeded_elements_equal_float_gradients(self, params_main, rng, m, payoff):
        p = tuple(draw_columns(rng, 1)[:, 0].tolist())
        assert_stacked_gradient_matches(p, draw_columns(rng, m), 0.9, params_main, payoff)

    @settings(max_examples=40, deadline=None)
    @given(strategy_with_exact_entries, strategy_columns,
           st.floats(min_value=0.01, max_value=0.99), st.sampled_from(["x", "y"]))
    def test_elements_equal_float_gradients(self, p, qs, delta, payoff):
        params = validate_payoffs(1.5, -0.5, strict=True)
        assert_stacked_gradient_matches(p, qs, delta, params, payoff)

    @pytest.mark.parametrize("m", BATCH_SIZES)
    def test_per_column_strategies_and_discounts(self, params_main, rng, m):
        """With p, q and delta all varying by column, each element of both
        array gradients equals the public float gradient, signed zeros
        included, and so do the factored route's pieces."""
        ps, qs = draw_columns(rng, m), draw_columns(rng, m)
        deltas = rng.uniform(0.05, 0.95, m)
        quotient = {payoff: np.array(_gradient_quotient(ps, qs, deltas, params_main, payoff))
                    for payoff in ("x", "y")}
        grads, common, minors, reduced = _gradient_factorized(ps, qs, deltas, params_main)
        for k in range(m):
            p, q, delta = ps[:, k], qs[:, k], deltas[k]
            for payoff, stacked in quotient.items():
                alone = gradient_quotient(p, q, delta, params_main, payoff)
                assert bits(stacked[:, k]) == bits(alone)
            alone, decomp = gradient_factorized(p, q, delta, params_main)
            assert bits([g[k] for g in grads]) == bits(alone)
            assert bits([common[k]]) == bits([decomp[0].common])
            assert bits([v[k] for v in minors]) == bits([d.minor for d in decomp[1:]])
            assert bits([v[k] for v in reduced]) == bits([d.reduced for d in decomp])
