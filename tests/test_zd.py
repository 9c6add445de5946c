import hashlib
import math

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
from zdgame import verify
from zdgame import zd as zd_mod
from conftest import PCZD_A, PCZD_B, PCZD_C, ROSTER, SAMPLER_SETTINGS, bits


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

    @pytest.mark.parametrize("zd, p0, delta, detail, violations", [
        (ZDParams(phi=0.2, chi=3.0, kappa=0.0), 0.5, 0.5, "p2=-0.5, p4=-0.5",
         [("p2", -0.5), ("p4", -0.5)]),
        (ZDParams(phi=0.5, chi=math.inf, kappa=0.5), 0.5, 0.9, "p1=-inf, p2=nan, p3=inf, p4=inf",
         [("p1", -math.inf), ("p2", math.nan), ("p3", math.inf), ("p4", math.inf)]),
    ])
    def test_infeasible_error_lists_each_entry_outside_the_cube(self, params_main, zd, p0, delta,
                                                                 detail, violations):
        with pytest.raises(InfeasibleError) as exc:
            make_zd(zd, p0, delta, params_main)
        assert str(exc.value) == (f"no valid strategy for phi={zd.phi}, chi={zd.chi}, "
                                  f"kappa={zd.kappa}, p0={p0}, delta={delta}: {detail}")
        assert [name for name, _ in exc.value.violations] == [name for name, _ in violations]
        # NaN equals NaN here, whatever its sign bit
        np.testing.assert_array_equal([v for _, v in exc.value.violations],
                                      [v for _, v in violations])

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


class TestSamplePcZD:
    # sha256 of the float bytes of 200 draws (p0..p4, phi, chi, kappa,
    # delta) and the stream's next uniform, seeds 0-2 on each setting
    @pytest.mark.parametrize("fixed, digest", [
        ({}, "602de2310d583a163c3b165aba657f445ad50ed424dfdf05f0cbf566252875a1"),
        ({"p0": 1.0, "kappa": 1.0},
         "edc8ed39e101ddc60d261a436618d79b32fd1c34f1a164fc77abe2c8e792cf43"),
        ({"delta": 0.9}, "e05649a29f605ff8c2773887d97be947415e091295fb98dfdf019c8c6ba99e05"),
        ({"delta": 0.999, "p0": 0.3},
         "49a8c4ddd46be3273bfe3803df05cd773542e4cfa8e49cc052d7cc8e360958ad"),
    ])
    def test_draws_are_pinned(self, fixed, digest):
        h = hashlib.sha256()
        for T, S in [(1.5, -0.5), (2.0, -0.1)]:
            params = validate_payoffs(T, S)
            for seed in range(3):
                rng = np.random.default_rng(seed)
                for _ in range(200):
                    p, zd, d = sample_pczd(rng, params, **fixed)
                    h.update(bits([*p, zd.phi, zd.chi, zd.kappa, d]))
                h.update(bits(rng.random()))
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("fixed, message", [
        ({"kappa": math.nan}, "kappa must be a number, got nan"),
        ({"p0": math.nan}, "p0=nan outside [0, 1]"),
        ({"p0": 1.5}, "p0=1.5 outside [0, 1]"),
        ({"delta": math.nan}, "delta=nan not above critical value 0.3333333333333333"),
        ({"delta": 0.2}, "delta=0.2 not above critical value 0.3333333333333333"),
        ({"tries": 0}, "tries must be a positive integer, got 0"),
        ({"tries": -1}, "tries must be a positive integer, got -1"),
        ({"tries": 2.5}, "tries must be a positive integer, got 2.5"),
        ({"tries": True}, "tries must be a positive integer, got True"),
    ])
    def test_rejects_bad_fixed_arguments_before_any_draw(self, params_main, fixed, message):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DomainError) as info:
            sample_pczd(rng, params_main, **fixed)
        assert str(info.value) == message
        assert rng.bit_generator.state == state

    def test_accepts_the_closed_cube(self):
        # phi, then p1..p4
        tries = [(0.1, 0.0, 1.0, 0.5, 0.0), (1e-300, 1.0, 1.0, 1.0, 1.0),
                 (0.0, 0.5, 0.5, 0.5, 0.5), (-0.1, 0.5, 0.5, 0.5, 0.5),
                 (0.1, 0.5, np.nextafter(1.0, 2.0), 0.5, 0.5), (0.1, 0.5, 0.5, -5e-324, 0.5),
                 (0.1, 0.5, 0.5, 0.5, math.nan), (math.nan, 0.5, 0.5, 0.5, 0.5)]
        got = [zd_mod._accepts(phi, entries) for phi, *entries in tries]
        assert got == [True, True, False, False, False, False, False, False]

    @pytest.mark.parametrize("kappa", [-1.0, 2.0, math.inf])
    def test_a_kappa_outside_the_unit_interval_finds_no_draw(self, params_main, kappa):
        with pytest.raises(RuntimeError, match="no feasible pcZD draw in 50 tries"):
            sample_pczd(np.random.default_rng(0), params_main, kappa=kappa, tries=50)


def retry_loop(rng, params, n):
    """Reference for verify._enforcer_chunks: ``sample_pczd(tries=1)``
    retried draw by draw, each accepted draw followed by ``rng.random(5)``.
    Returns the ``(11, n)`` columns (p0..p4, q, delta) and the count of
    rejected tries."""
    cols = np.empty((11, n))
    rejections = 0
    for k in range(n):
        while True:
            try:
                p, _, d = sample_pczd(rng, params, tries=1)
                break
            except RuntimeError:
                rejections += 1
        cols[:5, k] = p.as_tuple()
        cols[5:10, k] = rng.random(5)
        cols[10, k] = d
    return cols, rejections


def chunk_columns(rng, params, n):
    """The columns of every chunk of ``_enforcer_chunks`` side by side, and
    the rejection count of the last.  Each chunk is copied as it comes, as
    the next one overwrites the compiled stream's buffer."""
    firsts, cols = [], []
    for first, p, q, d, rejections in verify._enforcer_chunks(rng, params, n):
        firsts.append(first)
        cols.append(np.vstack([p, q, d]))
    assert firsts == list(range(0, n, verify._CHUNK))
    return np.concatenate(cols, axis=1), rejections


def same_state(a, b):
    """Whether two ``bit_generator.state`` values are equal; some hold
    arrays (MT19937's key, Philox's counter, SFC64's words)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


# chunks of one draw, two sizes that leave remainders of 120 draws, and the
# module's own, which one chunk of 120 fits
CHUNKS = [1, 40, 77, 1024]


# each on the compiled walk and on verify._walk
@pytest.mark.usefixtures("kernel")
class TestStackedSampler:
    @pytest.mark.parametrize("T, S", SAMPLER_SETTINGS)
    # seed 77 is the stream of acceptance C06/C07
    @pytest.mark.parametrize("seed", [0, 1, 2, 77])
    def test_equals_draw_by_draw_retry_loop(self, T, S, seed):
        params = validate_payoffs(T, S, strict=True)
        want, want_rejections = retry_loop(np.random.default_rng(seed), params, 600)
        got, rejections = chunk_columns(np.random.default_rng(seed), params, 600)
        assert rejections == want_rejections
        assert bits(got) == bits(want)

    @pytest.mark.parametrize("T, S", SAMPLER_SETTINGS)
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_each_chunk_reads_the_rng_as_the_retry_loop(self, monkeypatch, T, S, chunk):
        # after each chunk the generator stands where the draw-by-draw loop
        # leaves it, with the same columns and rejections so far
        monkeypatch.setattr(verify, "_CHUNK", chunk)
        params = validate_payoffs(T, S, strict=True)
        got, want = np.random.default_rng(7), np.random.default_rng(7)
        want_rejections = 0
        for _, p, q, d, rejections in verify._enforcer_chunks(got, params, 120):
            want_cols, rejected = retry_loop(want, params, p.shape[1])
            want_rejections += rejected
            assert bits(np.vstack([p, q, d])) == bits(want_cols)
            assert rejections == want_rejections
            assert got.bit_generator.state == want.bit_generator.state
        assert rejections > 0

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_tries_after_the_last_draw_are_not_counted(self, monkeypatch, params_main, chunk):
        # the try after the 120th draw is rejected; the stream neither counts
        # it nor reads its values, whether the 120th draw ends a chunk or not
        monkeypatch.setattr(verify, "_CHUNK", chunk)
        want = np.random.default_rng(7)
        _, want_rejections = retry_loop(want, params_main, 120)
        used = want.bit_generator.state
        _, more = retry_loop(want, params_main, 1)
        assert more > 0
        got = np.random.default_rng(7)
        _, rejections = chunk_columns(got, params_main, 120)
        assert rejections == want_rejections
        assert got.bit_generator.state == used

    # one chunk of one draw, a chunk less one, a whole chunk, a chunk and
    # one, two chunks less one, two whole chunks and two chunks and one
    @pytest.mark.parametrize("n", [1, 39, 40, 41, 79, 80, 81])
    def test_draw_counts_around_a_chunk_boundary(self, monkeypatch, params_main, n):
        monkeypatch.setattr(verify, "_CHUNK", 40)
        want, want_rejections = retry_loop(np.random.default_rng(5), params_main, n)
        got, rejections = chunk_columns(np.random.default_rng(5), params_main, n)
        assert got.shape == (11, n) and rejections == want_rejections
        assert bits(got) == bits(want)

    # the compiled walk reads through each one's own ctypes next_double
    @pytest.mark.parametrize("bit_generator", ["PCG64", "PCG64DXSM", "MT19937", "Philox",
                                               "SFC64"])
    def test_reads_every_numpy_bit_generator_as_the_retry_loop(self, params_main,
                                                               bit_generator):
        def rng():
            return np.random.Generator(getattr(np.random, bit_generator)(11))

        got, want = rng(), rng()
        want_cols, want_rejections = retry_loop(want, params_main, 200)
        cols, rejections = chunk_columns(got, params_main, 200)
        assert rejections == want_rejections
        assert bits(cols) == bits(want_cols)
        assert same_state(got.bit_generator.state, want.bit_generator.state)

    def test_no_room_above_critical_discount(self):
        # delta_c = 150/151: delta_c + 0.01 is not below the drawn range's
        # upper end 0.995, so nothing is drawn
        params = validate_payoffs(1.5, -150.0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="critical discount 0.9933"):
            sample_pczd(rng, params)
        with pytest.raises(DomainError, match="critical discount 0.9933"):
            next(verify._enforcer_chunks(rng, params, 5))
        assert rng.bit_generator.state == state
        # a fixed delta above the critical value still draws
        p, _, delta = sample_pczd(rng, params, delta=0.999)
        assert delta == 0.999 and is_pczd(p, delta, params)
