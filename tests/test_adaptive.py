import math

import pytest

from zdgame import (
    DomainError,
    MaxStepsError,
    SimConfig,
    Strategy,
    fd_gradient,
    gradient_quotient,
    initial_strategy,
    payoff_determinant,
    run_path,
    step,
    sweep,
    validate_payoffs,
)
from conftest import PCZD_A, PCZD_C

FIG3_Q0 = (0.863, 0.071, 0.593, 0.968, 0.420)


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.nu == 0.1
        assert cfg.dq == 1e-4
        assert cfg.step_tol == 1e-12
        assert cfg.gradient_mode == "finite_difference"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nu": 0.0},
            {"dq": -1.0},
            {"step_tol": 0.0},
            {"nu": math.nan},
            {"nu": math.inf},
            {"dq": math.nan},
            {"dq": math.inf},
            {"step_tol": math.nan},
            {"step_tol": math.inf},
            {"max_steps": 0},
            {"gradient_mode": "exact"},
            {"record_stride": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            SimConfig(**kwargs)


class TestFdGradient:
    def test_matches_analytic_gradient(self, params_main):
        p, delta, _ = PCZD_A
        cfg = SimConfig(nu=1.0, dq=1e-4)
        q = (1.0, 1.0, 1.0, 1.0, 1.0)
        analytic = gradient_quotient(p, q, delta, params_main, "y")
        for j in range(5):
            assert fd_gradient(q, j, cfg, p, delta, params_main) == pytest.approx(
                analytic[j], abs=1e-7
            )

    def test_second_order_stencil(self, params_main):
        # halving the probe step shrinks the error by about four
        p, delta, _ = PCZD_A
        q = (0.3, 0.4, 0.5, 0.6, 0.7)
        exact = gradient_quotient(p, q, delta, params_main, "y").g3
        cfg_wide = SimConfig(nu=1.0, dq=2e-3)
        cfg_narrow = SimConfig(nu=1.0, dq=1e-3)
        err_wide = abs(fd_gradient(q, 3, cfg_wide, p, delta, params_main) - exact)
        err_narrow = abs(fd_gradient(q, 3, cfg_narrow, p, delta, params_main) - exact)
        assert err_wide / err_narrow == pytest.approx(4.0, rel=0.2)

    def test_learning_rate_scales_result(self, params_main):
        p, delta, _ = PCZD_A
        q = (0.3, 0.4, 0.5, 0.6, 0.7)
        g1 = fd_gradient(q, 2, SimConfig(nu=0.1), p, delta, params_main)
        g2 = fd_gradient(q, 2, SimConfig(nu=0.2), p, delta, params_main)
        assert g2 == pytest.approx(2.0 * g1, rel=1e-12)

    def test_first_round_gradient_positive_at_cooperation_head(self, params_main):
        # once the first three entries reach 1, raising q0 can only help,
        # so the clamp freezes it at the top
        p, delta, _ = PCZD_A
        cfg = SimConfig()
        q = (1.0, 1.0, 1.0, 0.5, 0.3)
        assert fd_gradient(q, 0, cfg, p, delta, params_main) > 0.0


class TestStep:
    def test_converged_point_is_fixed(self, params_main):
        p, delta, _ = PCZD_A
        cfg = SimConfig()
        path = run_path(FIG3_Q0, cfg, p, delta, params_main)
        q_star = path.final_q
        moved = step(q_star, cfg, p, delta, params_main)
        assert math.dist(moved.as_tuple(), q_star) < cfg.step_tol

    def test_upper_clamp_holds(self, params_main):
        p, delta, _ = PCZD_A
        q_top = (1.0, 1.0, 1.0, 1.0, 1.0)
        # entries whose gradient is strictly positive stay pinned at 1
        moved = step(q_top, SimConfig(), p, delta, params_main)
        assert moved.as_tuple()[:3] == (1.0, 1.0, 1.0)
        # the remaining entries have exactly zero gradient there; probe
        # noise in finite-difference mode stays inside the stopping radius
        assert all(v >= 1.0 - 1e-12 for v in moved)
        # with exact gradients the point is fully fixed
        exact = step(q_top, SimConfig(gradient_mode="analytic"), p, delta, params_main)
        assert exact.as_tuple() == q_top

    def test_payoff_increases_along_step(self, params_main):
        p, delta, _ = PCZD_A
        q = (0.863, 0.071, 0.593, 0.968, 0.420)
        moved = step(q, SimConfig(), p, delta, params_main)
        before = payoff_determinant(p, q, delta, params_main).s_y
        after = payoff_determinant(p, moved, delta, params_main).s_y
        assert after > before


class TestRunPath:
    def test_reproduces_published_trajectory_endpoint(self, params_main):
        p, delta, _ = PCZD_A
        path = run_path(FIG3_Q0, SimConfig(), p, delta, params_main)
        assert path.converged
        assert path.terminal.tag == "T1"
        assert path.terminated_at == 247
        assert len(path.steps) == 248
        assert path.monotonic_violations == 0
        assert min(path.final_q[:3]) >= 1.0 - 1e-6

    def test_records_payoffs_consistently(self, params_main):
        p, delta, _ = PCZD_A
        path = run_path(FIG3_Q0, SimConfig(), p, delta, params_main)
        mid = path.steps[100]
        pair = payoff_determinant(p, mid.q, delta, params_main)
        assert mid.s_y == pair.s_y
        assert mid.s_x == pair.s_x

    def test_conditional_entries_never_decrease(self, params_main):
        p, delta, _ = PCZD_A
        path = run_path(FIG3_Q0, SimConfig(), p, delta, params_main)
        for earlier, later in zip(path.steps, path.steps[1:]):
            for j in range(1, 5):
                assert later.q[j] >= earlier.q[j] - 1e-12

    def test_first_round_entry_may_dip(self, params_wide):
        # a cooperative opener against a harsh enforcer first lowers its
        # first-round cooperation before climbing back to 1
        p = (0.95, 0.7, 0.2, 0.13, 0.0)
        path = run_path((0.5, 0.0, 0.8, 0.7, 0.8), SimConfig(), p, 0.9, params_wide)
        q0_track = [s.q[0] for s in path.steps]
        assert min(q0_track) < q0_track[0]
        assert path.terminal.tag == "T1"

    def test_analytic_mode_matches_fd_mode(self, params_main):
        p, delta, _ = PCZD_A
        fd_path = run_path(FIG3_Q0, SimConfig(), p, delta, params_main)
        an_path = run_path(
            FIG3_Q0, SimConfig(gradient_mode="analytic"), p, delta, params_main
        )
        assert fd_path.terminal.tag == an_path.terminal.tag
        assert max(
            abs(a - b) for a, b in zip(fd_path.final_q, an_path.final_q)
        ) < 1e-4

    def test_max_steps_carries_partial_path(self, params_main):
        p, delta, _ = PCZD_A
        with pytest.raises(MaxStepsError) as exc:
            run_path(FIG3_Q0, SimConfig(max_steps=10), p, delta, params_main)
        assert exc.value.path is not None
        assert exc.value.path.terminated_at == 10
        assert not exc.value.path.converged

    def test_stride_thins_recording_but_keeps_ends(self, params_main):
        p, delta, _ = PCZD_A
        full = run_path(FIG3_Q0, SimConfig(), p, delta, params_main)
        thin = run_path(FIG3_Q0, SimConfig(record_stride=50), p, delta, params_main)
        assert thin.terminated_at == full.terminated_at
        assert thin.steps[0].n == 0
        assert thin.steps[-1].n == full.terminated_at
        assert len(thin.steps) < len(full.steps)

    def test_requires_strict_payoffs(self):
        loose = validate_payoffs(1.4, -1.5, strict=False)
        with pytest.raises(DomainError):
            run_path(FIG3_Q0, SimConfig(), PCZD_A[0], 0.9, loose)

    def test_warns_for_non_enforcer_opponent(self, params_main, rng):
        with pytest.warns(UserWarning):
            try:
                run_path(
                    FIG3_Q0,
                    SimConfig(max_steps=5),
                    tuple(rng.random(5)),
                    0.9,
                    params_main,
                )
            except MaxStepsError:
                pass

    def test_terminal_t2_against_cooperative_enforcer(self, params_main):
        p, delta, _ = PCZD_C
        path = run_path((0.877, 0.449, 0.751, 0.684, 0.04), SimConfig(), p, delta, params_main)
        assert path.terminal.tag == "T2"
        assert path.final_q[0] >= 1 - 1e-6 and path.final_q[1] >= 1 - 1e-6

    def test_entries_below_one_have_stalled_gradients(self, params_main):
        # at the endpoint every unclamped entry's update has fallen below
        # the stopping threshold
        p, delta, _ = PCZD_A
        cfg = SimConfig()
        path = run_path(FIG3_Q0, cfg, p, delta, params_main)
        for j, value in enumerate(path.final_q):
            if value < 1.0 - 1e-6:
                move = fd_gradient(path.final_q, j, cfg, p, delta, params_main)
                assert abs(move) < cfg.step_tol


class TestSweep:
    def test_deterministic_under_same_seed(self, params_main):
        p, delta, _ = PCZD_A
        cfg = SimConfig()
        first = sweep(5, 991, cfg, p, delta, params_main)
        second = sweep(5, 991, cfg, p, delta, params_main)
        assert first == second

    def test_parallel_equals_serial(self, params_main):
        p, delta, _ = PCZD_A
        cfg = SimConfig()
        serial = sweep(4, 991, cfg, p, delta, params_main, workers=1)
        parallel = sweep(4, 991, cfg, p, delta, params_main, workers=2)
        assert serial == parallel

    def test_single_path_matches_run_path(self, params_main):
        p, delta, _ = PCZD_A
        cfg = SimConfig()
        result = sweep(1, 1234, cfg, p, delta, params_main)[0]
        path = run_path(initial_strategy(1234, 0), cfg, p, delta, params_main,
                        check_pczd=False)
        assert result.final == path.final_q
        assert result.steps == path.terminated_at

    def test_nonconvergent_paths_recorded_not_raised(self, params_main):
        p, delta, _ = PCZD_A
        results = sweep(3, 77, SimConfig(max_steps=5), p, delta, params_main)
        assert len(results) == 3
        assert not any(r.converged for r in results)

    def test_low_discount_cooperative_enforcer_locks_cooperation(self, params_main):
        # p0 = p1 = 1 family at a discount barely above critical: every
        # endpoint has the first two entries at 1
        from conftest import PCZD_D

        p, delta, _ = PCZD_D
        results = sweep(5, 31, SimConfig(), p, delta, params_main)
        for r in results:
            assert r.converged
            assert r.final[0] >= 1 - 1e-6 and r.final[1] >= 1 - 1e-6
            assert r.terminal in ("T1", "T2")

    def test_rejects_empty_sweep(self, params_main):
        with pytest.raises(DomainError):
            sweep(0, 7, SimConfig(), PCZD_A[0], 0.99, params_main)


def test_initial_strategy_streams_are_stable():
    a = initial_strategy(42, 0)
    b = initial_strategy(42, 0)
    c = initial_strategy(42, 1)
    assert a == b
    assert a != c
    assert all(0.0 <= v <= 1.0 for v in a)


def test_strategy_type_round_trips_through_step(params_main):
    p, delta, _ = PCZD_A
    out = step(Strategy(*FIG3_Q0), SimConfig(), p, delta, params_main)
    assert isinstance(out, Strategy)
