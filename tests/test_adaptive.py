import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from zdgame.adaptive import PathResult
from conftest import PCZD_A, PCZD_C, bits

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
            {"dq": 1e130},
            {"dq": 1.0},
            {"dq": 1e-300},
            {"dq": sys.float_info.epsilon / 2},
            {"step_tol": math.nan},
            {"step_tol": math.inf},
            {"step_tol": 3.0},
            {"step_tol": math.nextafter(math.sqrt(5.0), 3.0)},
            {"max_steps": 0},
            {"max_steps": math.nan},
            {"max_steps": math.inf},
            {"max_steps": 5.5},
            {"max_steps": 5.0},
            {"max_steps": True},
            {"max_steps": "10"},
            {"gradient_mode": "exact"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            SimConfig(**kwargs)

    def test_largest_step_tol_is_the_cubes_largest_update(self):
        """Moving every entry from 0 to 1, an update reaches sqrt(5), so a
        threshold of sqrt(5) can still fail the stopping check."""
        cfg = SimConfig(step_tol=math.sqrt(5.0))
        assert not math.dist((0.0,) * 5, (1.0,) * 5) < cfg.step_tol

    @example(q=1.0)
    @example(q=math.nextafter(1.0, 0.0))
    @example(q=0.0)
    @given(q=st.floats(0.0, 1.0))
    def test_smallest_dq_moves_both_probes_of_every_entry(self, q):
        dq = SimConfig(dq=sys.float_info.epsilon).dq
        assert q - dq < q < q + dq


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("vector", ["q0", "p"])
    def test_rejects_non_finite_entries(self, params_main, vector, value):
        # a small cap, so that a missing check fails fast instead of spinning
        q0, p = list(FIG3_Q0), list(PCZD_A[0])
        (q0 if vector == "q0" else p)[3] = value
        with pytest.raises(DomainError, match=f"{vector} has a non-finite entry"):
            run_path(q0, SimConfig(max_steps=50), p, PCZD_A[1], params_main)

    def test_clamps_finite_start_outside_cube(self, params_main):
        p, delta, _ = PCZD_A
        path = run_path((1.5, -0.25, 0.593, 0.968, 0.420), SimConfig(), p, delta, params_main)
        assert path.steps[1].q[:2] == (1.0, 0.0)
        assert path.converged and all(0.0 <= v <= 1.0 for v in path.final_q)

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

    def test_workers_keyword_is_gone(self, params_main):
        with pytest.raises(TypeError, match="workers"):
            sweep(2, 7, SimConfig(), PCZD_A[0], PCZD_A[1], params_main, workers=2)

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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_opponent(self, params_main, kernel, value):
        p = list(PCZD_A[0])
        p[2] = value
        with pytest.raises(DomainError, match="p has a non-finite entry"):
            sweep(3, 7, SimConfig(max_steps=50), p, PCZD_A[1], params_main)


# One bad argument at a time, with the exception each entry point raises.
BAD_ASCENT_INPUTS = [
    ("p", (0.0, 0.75, math.nan, 0.5, 0.0), DomainError,
     "p has a non-finite entry: (0.0, 0.75, nan, 0.5, 0.0)"),
    ("p", (0.0, 0.75, 0.25, 0.5), DomainError, "a strategy needs exactly 5 entries, got 4"),
    ("p", "abcde", DomainError, "a strategy needs 5 numbers, got 'abcde'"),
    ("delta", 1.0, DomainError, "discount factor must lie in (0, 1), got 1.0"),
    ("delta", math.nan, DomainError, "discount factor must lie in (0, 1), got nan"),
    ("params", validate_payoffs(1.4, -1.5), DomainError,
     "endpoint guarantees need strict payoffs (0 < T + S)"),
]


@pytest.mark.parametrize("entry", ["run_path", "sweep"])
@pytest.mark.parametrize("name, value, error, message", BAD_ASCENT_INPUTS,
                         ids=["p-nan", "p-short", "p-text", "delta-1", "delta-nan", "loose"])
def test_run_path_and_sweep_reject_each_bad_argument_alike(params_main, entry, name, value,
                                                           error, message):
    args = {"p": PCZD_A[0], "delta": PCZD_A[1], "params": params_main, name: value}
    config = SimConfig(max_steps=50)
    with pytest.raises(error) as info:
        if entry == "run_path":
            run_path(FIG3_Q0, config, args["p"], args["delta"], args["params"])
        else:
            sweep(2, 7, config, args["p"], args["delta"], args["params"])
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("entry", ["run_path", "sweep"])
def test_run_path_and_sweep_test_t_plus_s_not_the_strict_flag(params_main, entry):
    """(1.5, -0.5) without ``strict`` still has 0 < T + S, and each entry
    point ends on it as on the strict ``params_main``."""
    plain = validate_payoffs(params_main.T, params_main.S)
    assert not plain.strict and plain.theta > 0.0
    p, delta, _ = PCZD_A
    if entry == "run_path":
        ends = [run_path(FIG3_Q0, SimConfig(), p, delta, params) for params in (plain, params_main)]
    else:
        ends = [sweep(3, 7, SimConfig(), p, delta, params) for params in (plain, params_main)]
    assert repr(ends[0]) == repr(ends[1])


# Against PCZD_C, seed 5 paths take 36..1807 steps: a 600-step cap ends
# some of them and not others.
EQUIV_SEED = 5
EQUIV_CAP = 600
MODES = ("finite_difference", "analytic")


@pytest.fixture(scope="module")
def scalar_reference(params_main):
    """Per mode, the first 40 paths of the seed, each run alone by run_path."""
    p, delta, _ = PCZD_C
    reference = {}
    for mode in MODES:
        cfg = SimConfig(max_steps=EQUIV_CAP, gradient_mode=mode)
        results = []
        for i in range(40):
            q0 = initial_strategy(EQUIV_SEED, i)
            try:
                path = run_path(q0, cfg, p, delta, params_main, check_pczd=False)
            except MaxStepsError as exc:
                path = exc.path
            results.append(PathResult(i, EQUIV_SEED, q0.as_tuple(), path.final_q,
                                      path.terminal.tag, path.terminated_at, path.converged))
        reference[mode] = results
    return reference


class TestSweepPaths:
    """A sweep ends every path as run_path does."""

    def test_reference_has_capped_and_converged_paths(self, scalar_reference):
        for results in scalar_reference.values():
            assert {r.converged for r in results} == {True, False}

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_paths", [1, 2, 5, 6, 7, 17, 40])
    def test_sweep_equals_run_path(self, scalar_reference, params_main, mode, n_paths):
        p, delta, _ = PCZD_C
        cfg = SimConfig(max_steps=EQUIV_CAP, gradient_mode=mode)
        assert sweep(n_paths, EQUIV_SEED, cfg, p, delta, params_main) == \
            scalar_reference[mode][:n_paths]

    def test_final_entries_are_plain_floats(self, params_main):
        p, delta, _ = PCZD_A
        for r in sweep(3, 991, SimConfig(), p, delta, params_main):
            assert all(type(v) is float for v in r.final)


def test_initial_strategy_streams_are_stable():
    a = initial_strategy(42, 0)
    b = initial_strategy(42, 0)
    c = initial_strategy(42, 1)
    assert a == b
    assert a != c
    assert all(0.0 <= v <= 1.0 for v in a)


def numpy_start(seed, index):
    """The start's reference: numpy's SeedSequence spawn and PCG64 draws."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    return rng.random(5)


EDGE_WORDS = (0, 2**32 - 1, 2**32, 2**64, 10**30)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**130), st.integers(0, 2**40))
@example(2024, 0)
@example(7, 99)
def test_initial_strategy_is_numpys_stream(seed, index):
    assert bits(initial_strategy(seed, index).as_tuple()) == bits(numpy_start(seed, index))


@pytest.mark.parametrize("seed", EDGE_WORDS)
@pytest.mark.parametrize("index", EDGE_WORDS)
def test_initial_strategy_is_numpys_stream_at_word_edges(seed, index):
    assert bits(initial_strategy(seed, index).as_tuple()) == bits(numpy_start(seed, index))


def test_initial_strategy_takes_numpy_integers():
    assert initial_strategy(np.int64(2024), np.uint32(3)) == initial_strategy(2024, 3)


@pytest.mark.parametrize("seed, index, name", [
    (-1, 0, "seed"), (0, -1, "index"), (1.5, 0, "seed"), (0, 2.0, "index"),
    (True, 0, "seed"), (0, False, "index"), ("7", 0, "seed"), (None, 0, "seed"),
    (np.int64(-2), 0, "seed"),
])
def test_initial_strategy_rejects_bad_stream_arguments(seed, index, name):
    with pytest.raises(DomainError, match=f"^{name} must be a non-negative integer"):
        initial_strategy(seed, index)


@pytest.mark.parametrize("seed", [-3, 2.5, True])
def test_sweep_rejects_bad_seed(params_main, seed):
    p, delta, _ = PCZD_A
    with pytest.raises(DomainError, match="^seed must be a non-negative integer"):
        sweep(2, seed, SimConfig(), p, delta, params_main)


@pytest.mark.parametrize("n_paths, message", [
    (True, "a non-negative integer, got True"), (False, "a non-negative integer"),
    (1.5, "a non-negative integer"), (3.0, "a non-negative integer"),
    ("3", "a non-negative integer, got '3'"), (None, "a non-negative integer"),
    (-2, "a non-negative integer"), (0, "at least 1, got 0"), (np.int64(0), "at least 1"),
])
def test_sweep_rejects_bad_path_count(params_main, n_paths, message):
    p, delta, _ = PCZD_A
    with pytest.raises(DomainError, match=f"^n_paths must be {message}"):
        sweep(n_paths, 1, SimConfig(), p, delta, params_main)


def test_sweep_takes_a_numpy_path_count(params_main):
    p, delta, _ = PCZD_A
    assert sweep(np.int64(3), 1, SimConfig(), p, delta, params_main) == \
        sweep(3, 1, SimConfig(), p, delta, params_main)


def test_strategy_type_round_trips_through_step(params_main):
    p, delta, _ = PCZD_A
    out = step(Strategy(*FIG3_Q0), SimConfig(), p, delta, params_main)
    assert isinstance(out, Strategy)
