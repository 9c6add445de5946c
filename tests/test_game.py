import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdgame import (
    DomainError,
    Strategy,
    initial_distribution,
    transition_matrix,
    validate_delta,
    validate_payoffs,
)
from zdgame.game import strategy_tuple

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
strategy5 = st.tuples(probs, probs, probs, probs, probs)


class TestValidatePayoffs:
    def test_paper_setting(self):
        params = validate_payoffs(1.5, -0.5, strict=True)
        assert params.theta == 1.0

    def test_wide_setting(self):
        params = validate_payoffs(2.0, -0.1, strict=True)
        assert params.theta == pytest.approx(1.9)

    @pytest.mark.parametrize(
        "T,S",
        [(0.9, -0.5), (1.5, 0.1), (1.5, 0.0), (3.0, -0.5)],
    )
    def test_rejects_non_pd(self, T, S):
        with pytest.raises(DomainError):
            validate_payoffs(T, S)

    def test_strict_rejects_nonpositive_theta(self):
        validate_payoffs(1.4, -1.5)  # fine without strict
        with pytest.raises(DomainError):
            validate_payoffs(1.4, -1.5, strict=True)

    def test_payoff_vectors(self):
        params = validate_payoffs(1.5, -0.5)
        assert params.payoff_vector_x() == (1.0, -0.5, 1.5, 0.0)
        assert params.payoff_vector_y() == (1.0, 1.5, -0.5, 0.0)


class TestStrategy:
    def test_parse_round_trip(self):
        s = Strategy.parse("0.0,0.75,0.25,0.5,0.0")
        assert s.as_tuple() == (0.0, 0.75, 0.25, 0.5, 0.0)

    @pytest.mark.parametrize("bad", ["0.1,0.2,0.3,0.4", "1.2,0,0,0,0", "a,b,c,d,e"])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(DomainError):
            Strategy.parse(bad)

    def test_iterating_yields_entries(self):
        assert list(Strategy(1, 1, 1, 1, 1)) == [1.0] * 5

    @pytest.mark.parametrize("values", [(0.1, 0.2, 0.3, 0.4), [0.0] * 6, ()])
    def test_from_iterable_has_the_length_rule_of_strategy_tuple(self, values):
        with pytest.raises(DomainError) as got:
            Strategy.from_iterable(values)
        with pytest.raises(DomainError) as want:
            strategy_tuple(values)
        message = f"a strategy needs exactly 5 entries, got {len(values)}"
        assert str(got.value) == str(want.value) == message


@pytest.mark.parametrize("values, shown", [
    (["a"] * 5, "['a', 'a', 'a', 'a', 'a']"), (None, "None"), (5, "5"), ("abcde", "'abcde'"),
])
def test_strategy_tuple_rejects_what_is_not_numbers(values, shown):
    with pytest.raises(DomainError) as info:
        strategy_tuple(values)
    assert str(info.value) == f"a strategy needs 5 numbers, got {shown}"


class TestTransitionMatrix:
    def test_all_cooperate_absorbs_cc(self):
        m = transition_matrix((1, 1, 1, 1, 1), (1, 1, 1, 1, 1))
        assert np.allclose(m, np.tile([1, 0, 0, 0], (4, 1)))

    def test_all_defect_absorbs_dd(self):
        m = transition_matrix((0, 0, 0, 0, 0), (0, 0, 0, 0, 0))
        assert np.allclose(m, np.tile([0, 0, 0, 1], (4, 1)))

    def test_rows_sum_to_one(self):
        m = transition_matrix((0, 0.75, 0.25, 0.5, 0), (0.5, 0.071, 0.593, 0.968, 0.420))
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) < 1e-15

    @settings(max_examples=60, deadline=None)
    @given(strategy5, strategy5)
    def test_row_sums_property(self, p, q):
        m = transition_matrix((0.5, *p[1:]), (0.5, *q[1:]))
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) < 1e-15

    @settings(max_examples=60, deadline=None)
    @given(strategy5, strategy5)
    def test_mixed_rows_swap_opponent_entries(self, p, q):
        m = transition_matrix(p, q)
        assert m[1, 0] == p[2] * q[3]
        assert m[2, 0] == p[3] * q[2]


class TestInitialState:
    @pytest.mark.parametrize(
        "p0,q0,expected",
        [
            (1.0, 1.0, (1, 0, 0, 0)),
            (0.5, 0.5, (0.25, 0.25, 0.25, 0.25)),
            (0.0, 1.0, (0, 0, 1, 0)),
        ],
    )
    def test_known_points(self, p0, q0, expected):
        v = initial_distribution(p0, q0)
        assert np.allclose(v.v, expected)

    @settings(max_examples=60, deadline=None)
    @given(probs, probs)
    def test_sums_to_one(self, p0, q0):
        v = initial_distribution(p0, q0).validate(tol=1e-14)
        assert abs(sum(v.v) - 1.0) < 1e-14



class TestDelta:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            validate_delta(bad)

    def test_accepts_interior(self):
        assert validate_delta(0.99) == 0.99
