import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdgame import (
    DegenerateError,
    DomainError,
    InfeasibleError,
    NotZD,
    ZDParams,
    critical_discount,
    feasible_phi_interval,
    is_pczd,
    make_zd,
    payoff_determinant,
    recover_zd,
    sample_pczd,
    validate_payoffs,
    verify_linear_relation,
    zd_consistency_residual,
)
from zdgame import zd as zd_mod
from conftest import PCZD_A, PCZD_B, PCZD_C, ROSTER, bits


class TestCriticalDiscount:
    def test_paper_setting_is_exactly_one_third(self, params_main):
        assert abs(critical_discount(params_main) - 1.0 / 3.0) < 1e-15

    def test_wide_setting(self, params_wide):
        assert critical_discount(params_wide) == pytest.approx(0.5, abs=1e-15)

    def test_tight_setting(self, params_tight):
        assert critical_discount(params_tight) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_in_payoffs(self):
        # growing T or falling S can only push the threshold up
        grid = [(1.2, -0.3), (1.5, -0.3), (1.8, -0.3)]
        values = [critical_discount(validate_payoffs(T, S)) for T, S in grid]
        assert values == sorted(values)
        grid = [(1.5, -0.2), (1.5, -0.6), (1.5, -0.9)]
        values = [critical_discount(validate_payoffs(T, S)) for T, S in grid]
        assert values == sorted(values)

    def test_always_inside_unit_interval(self, rng):
        for _ in range(100):
            T = rng.uniform(1.01, 2.5)
            S = rng.uniform(-2.0, -0.01)
            if T + S >= 2.0:
                continue
            dc = critical_discount(validate_payoffs(T, S))
            assert 0.0 < dc < 1.0


class TestMakeRecover:
    def test_round_trip_from_paper_strategy(self, params_main):
        p, delta, _ = PCZD_A
        zd = recover_zd(p, delta, params_main)
        back = make_zd(zd, p[0], delta, params_main)
        assert np.max(np.abs(np.array(back.as_tuple()) - np.array(p))) < 1e-12

    def test_constructed_strategy_is_consistent(self, params_main, rng):
        for _ in range(50):
            p, _, delta = sample_pczd(rng, params_main)
            assert zd_consistency_residual(p, delta, params_main) < 1e-12

    def test_recovered_slope_of_paper_strategies(self, params_main):
        zd = recover_zd(PCZD_A[0], PCZD_A[1], params_main)
        assert zd.chi == pytest.approx(2.4061433447098976, rel=1e-12)
        assert abs(zd.kappa) < 1e-12
        zd = recover_zd(PCZD_C[0], PCZD_C[1], params_main)
        assert zd.kappa == pytest.approx(1.0, abs=1e-12)

    def test_tit_for_tat_like_strategy_is_zd(self, params_main):
        p, delta, _ = PCZD_B
        assert zd_consistency_residual(p, delta, params_main) < 1e-12
        zd = recover_zd(p, delta, params_main)
        assert zd.chi > 1.0

    def test_random_strategy_is_not_zd(self, params_main, rng):
        for _ in range(20):
            result = recover_zd(rng.random(5), 0.9, params_main)
            assert isinstance(result, NotZD)
            assert result.residual > 1e-10
            assert not result

    def test_equalizer_branch_raises(self, params_main):
        # all-ones is ZD with alpha < 0 but chi < 1; build a true equalizer:
        # alpha = 0, beta = -phi, gamma = phi*kappa fixes the opponent payoff.
        # Solve the four equations directly for entries.
        delta, kappa, phi = 0.9, 0.5, 0.2
        T, S = params_main.T, params_main.S
        p0 = 0.5
        base = (1.0 - delta) * p0
        p1 = (1.0 - phi + phi * kappa - base) / delta
        p2 = (1.0 - phi * T + phi * kappa - base) / delta
        p3 = (-phi * S + phi * kappa - base) / delta
        p4 = (phi * kappa - base) / delta
        with pytest.raises(DegenerateError):
            recover_zd((p0, p1, p2, p3, p4), delta, params_main)

    def test_infeasible_below_critical(self, params_main, rng):
        # no positively correlated enforcer exists at delta = 0.2 < 1/3
        for _ in range(200):
            zd = ZDParams(
                phi=rng.uniform(0.01, 1.0),
                chi=rng.uniform(1.0, 6.0),
                kappa=rng.uniform(0.0, 1.0),
            )
            with pytest.raises(InfeasibleError):
                make_zd(zd, rng.uniform(0.0, 1.0), 0.2, params_main)

    def test_feasible_interval_empty_below_critical(self, params_main, rng):
        for _ in range(200):
            window = feasible_phi_interval(
                rng.uniform(1.0, 6.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                0.2, params_main,
            )
            assert window is None

    def test_infeasible_error_names_entries(self, params_main):
        zd = ZDParams(phi=0.5, chi=2.0, kappa=0.5)
        with pytest.raises(InfeasibleError) as exc:
            make_zd(zd, 0.0, 0.2, params_main)
        assert exc.value.violations
        names = {name for name, _ in exc.value.violations}
        assert names <= {"p1", "p2", "p3", "p4"}

    def test_zero_phi_rejected(self):
        with pytest.raises(DomainError):
            ZDParams(phi=0.0, chi=2.0, kappa=0.5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_sampled_enforcers_round_trip(self, seed):
        params = validate_payoffs(1.5, -0.5, strict=True)
        rng = np.random.default_rng(seed)
        p, zd, delta = sample_pczd(rng, params)
        recovered = recover_zd(p, delta, params)
        assert not isinstance(recovered, NotZD)
        assert recovered.chi == pytest.approx(zd.chi, rel=1e-8)


class TestIsPcZD:
    def test_generous_enforcer(self, params_main):
        report = is_pczd(PCZD_C[0], PCZD_C[1], params_main)
        assert report
        assert report.chi >= 1.0
        assert report.ordering_ok

    def test_all_ones_rejected(self, params_main):
        assert not is_pczd((1, 1, 1, 1, 1), 0.9, params_main)

    def test_roster_orderings(self):
        for p, delta, (T, S) in ROSTER:
            params = validate_payoffs(T, S, strict=True)
            report = is_pczd(p, delta, params)
            assert report
            assert p[1] > p[2] and p[3] > p[4]

    def test_rejects_at_critical_delta(self, params_main):
        # delta must exceed the critical value strictly
        p, _, _ = PCZD_A
        report = is_pczd(p, 1.0 / 3.0, params_main)
        assert not report.delta_ok

    def test_random_strategy_not_pczd(self, params_main, rng):
        assert not is_pczd(rng.random(5), 0.9, params_main)

    def test_report_on_each_recovery_outcome(self, params_main, rng):
        # an equalizer (alpha = 0, beta = -0.2, gamma = 0.1, so the enforcer
        # equations' right sides are 0.9, 0.8, 0.2, 0.1) at delta = 0.9, p0 = 0.5
        delta, base = 0.9, 0.05
        equalizer = (0.5, *((b - base) / delta for b in (0.9, 0.8, 0.2, 0.1)))
        fields = lambda r: (r.is_pczd, r.chi is None, r.zd_ok, r.equalizer, r.chi_ok)
        assert fields(is_pczd(equalizer, delta, params_main)) == (False, True, True, True, False)
        assert fields(is_pczd(rng.random(5), delta, params_main)) == \
            (False, True, False, False, False)
        report = is_pczd((1, 1, 1, 1, 1), delta, params_main)  # ZD with chi < 1
        assert fields(report) == (False, False, True, False, False)
        assert report.kappa is not None and report.delta_ok and not report.ordering_ok


class TestLinearRelation:
    def test_residual_small_over_many_opponents(self, params_main, rng):
        p, delta, _ = PCZD_A
        zd = recover_zd(p, delta, params_main)
        worst = 0.0
        for _ in range(300):
            worst = max(worst, verify_linear_relation(p, zd, delta, params_main, rng.random(5)))
        assert worst < 1e-9

    @pytest.mark.parametrize("q", [(1, 1, 1, 1, 1), (0, 0, 0, 0, 0)])
    def test_residual_at_pure_opponents(self, params_main, q):
        p, delta, _ = PCZD_A
        zd = recover_zd(p, delta, params_main)
        assert verify_linear_relation(p, zd, delta, params_main, q) < 1e-12

    def test_slope_sign_links_payoffs(self, params_main, rng):
        # against a pcZD opponent, whatever helps Y helps X
        p, delta, _ = PCZD_A
        base = payoff_determinant(p, (0.2, 0.2, 0.2, 0.2, 0.2), delta, params_main)
        better = payoff_determinant(p, (1, 1, 1, 1, 1), delta, params_main)
        assert better.s_y > base.s_y
        assert better.s_x > base.s_x


def retry_loop(rng, params, n, extra):
    """Reference for PcZDStream: ``sample_pczd(tries=1)`` retried draw by
    draw, each accepted draw followed by ``rng.random(extra)``."""
    cols = np.empty((6 + extra, n))
    rejections = 0
    for k in range(n):
        while True:
            try:
                p, _, d = sample_pczd(rng, params, tries=1)
                break
            except (RuntimeError, InfeasibleError):
                rejections += 1
        cols[:5, k] = p.as_tuple()
        cols[5:5 + extra, k] = rng.random(extra)
        cols[5 + extra, k] = d
    return cols, rejections


def stream_columns(rng, params, sizes, extra):
    stream = zd_mod.PcZDStream(rng, params, extra=extra)
    cols = np.concatenate([stream.take(k) for k in sizes], axis=1)
    return cols, stream.rejections


class CountingRng:
    """A numpy Generator that counts the uniforms drawn through it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.drawn = 0

    def random(self, size):
        self.drawn += size
        return self._rng.random(size)

    def uniform(self, lo, hi):
        self.drawn += 1
        return self._rng.uniform(lo, hi)


SAMPLER_SETTINGS = [(1.5, -0.5), (2.0, -0.1), (1.1, -1.0)]


class TestStackedSampler:
    @pytest.mark.parametrize("T, S", SAMPLER_SETTINGS)
    # seed 77 is the stream of acceptance C06/C07
    @pytest.mark.parametrize("seed", [0, 1, 2, 77])
    def test_equals_draw_by_draw_retry_loop(self, T, S, seed):
        params = validate_payoffs(T, S, strict=True)
        want, want_rejections = retry_loop(np.random.default_rng(seed), params, 600, 5)
        got, rejections = stream_columns(np.random.default_rng(seed), params, [1, 255, 256, 88], 5)
        assert rejections == want_rejections
        assert bits(got) == bits(want)

    # a block shorter than an accepted try, one as long as a try with
    # extra = 5, and two primes, so that walks cross refills at many phases;
    # and the module's own block, 4 096, which one walk of 120 draws fills
    @pytest.mark.parametrize("block", [3, 10, 13, 37, 4096])
    @pytest.mark.parametrize("extra", [0, 5])
    def test_walks_across_block_refills(self, monkeypatch, params_main, block, extra):
        monkeypatch.setattr(zd_mod, "_BLOCK", block)
        want, want_rejections = retry_loop(np.random.default_rng(7), params_main, 120, extra)
        got, rejections = stream_columns(np.random.default_rng(7), params_main, [1, 2, 0, 40, 77],
                                         extra)
        assert rejections == want_rejections > 0
        assert bits(got) == bits(want)

    def test_no_room_above_critical_discount(self):
        # delta_c = 150/151: delta_c + 0.01 is not below the drawn range's
        # upper end 0.995, so nothing is drawn
        params = validate_payoffs(1.5, -150.0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="critical discount 0.9933"):
            sample_pczd(rng, params)
        with pytest.raises(DomainError, match="critical discount 0.9933"):
            zd_mod.PcZDStream(rng, params, extra=5)
        assert rng.bit_generator.state == state
        # a fixed delta above the critical value still draws
        p, _, delta = sample_pczd(rng, params, delta=0.999)
        assert delta == 0.999 and is_pczd(p, delta, params)


@pytest.mark.parametrize("block", [3, 13, 4096])
def test_stream_reads_a_block_only_when_a_draw_needs_it(monkeypatch, params_main, block):
    # after each take the stream has read the fewest whole blocks that hold
    # every uniform the draw-by-draw loop has used
    monkeypatch.setattr(zd_mod, "_BLOCK", block)
    want, got = CountingRng(7), CountingRng(7)
    stream = zd_mod.PcZDStream(got, params_main, extra=5)
    for k in [1, 2, 0, 40, 77]:
        retry_loop(want, params_main, k, 5)
        stream.take(k)
        assert got.drawn == -(-want.drawn // block) * block
