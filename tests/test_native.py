"""The compiled loops against their references, ``adaptive._climb``,
``payoffs._series_rounds``, ``verify._walk``, ``zd.sample_pczd`` and the
numpy passes over verify's normalizer draws, and their build: the cache,
the silent fallback, concurrent builds, the removal of older builds, and
the promise that importing zdgame loads none."""

import collections
import ctypes
import functools
import hashlib
import inspect
import math
import re
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zdgame import (
    DomainError,
    NumericalError,
    SimConfig,
    critical_discount,
    initial_strategy,
    payoff_series,
    run_path,
    sample_pczd,
    series_horizon,
    sweep,
    validate_payoffs,
)
from zdgame import _linalg, _native, adaptive, gradients, payoffs, verify, zd
from zdgame._linalg import det3
from zdgame.adaptive import _climb
from zdgame.cli import main
from conftest import (
    BATCH_SIZES,
    EDGE,
    KERNELS,
    PCZD_A,
    SAMPLER_SETTINGS,
    ListRng,
    bits,
    exact_or_unit,
    kernel_forced,
    strategy_with_exact_entries,
)

SRC = str(Path(_native.__file__).parents[1])
MODES = ("finite_difference", "analytic")


@pytest.fixture(scope="module")
def compiled():
    with kernel_forced("compiled"):
        yield


def outcome(climb):
    """(final q as bytes, steps, converged) of a climb, or its error text.

    A NaN entry counts as one value: IEEE arithmetic leaves the sign and
    payload of a NaN result open, the C compiler may order the operands of
    a commutative operation either way, and every NaN prints as ``nan``.
    """
    try:
        final, steps, converged = climb()
    except NumericalError as exc:
        return str(exc)
    return bits([math.nan if math.isnan(v) else v for v in final]), steps, converged


def both_outcomes(q0, config, pt, delta, params):
    def reference():
        path = _climb(q0, config, pt, delta, params)
        return path.final_q, path.terminated_at, path.converged

    kernel = _native.climber(config, pt, delta, params)
    return outcome(lambda: kernel(q0)), outcome(reference)


@st.composite
def games(draw):
    """(params, delta): delta anywhere in (0, 1), at its ends, or just above
    the critical discount."""
    T = draw(st.floats(1.0, 3.0, exclude_min=True))
    S = draw(st.floats(-3.0, 0.0, exclude_max=True))
    assume(T + S < 2.0)
    params = validate_payoffs(T, S)
    dc = critical_discount(params)
    edges = [d for d in (math.nextafter(dc, 1.0), dc + 1e-9) if 0.0 < d < 1.0]
    edges += [math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)]
    delta = draw(st.sampled_from(edges)
                 | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return params, delta


configs = st.builds(
    SimConfig,
    nu=st.sampled_from([0.1, 1.0]) | st.floats(1e-3, 10.0),
    dq=st.sampled_from([1e-4]) | st.floats(1e-6, 0.5),
    step_tol=st.sampled_from([1e-12]) | st.floats(1e-14, 1e-3),
    # most paths take hundreds to thousands of steps, so some hit the cap
    max_steps=st.integers(1, 200),
    gradient_mode=st.sampled_from(MODES),
)


# starts off the cube and NaN entries take the clamp's other branches
starts = strategy_with_exact_entries | st.tuples(
    *[exact_or_unit | st.sampled_from([math.nan, -0.5, 1.5])] * 5)


@settings(max_examples=300, deadline=None)
@given(game=games(), p=strategy_with_exact_entries, q0=starts, config=configs)
def test_kernel_ends_every_path_as_climb(compiled, game, p, q0, config):
    params, delta = game
    kernel, reference = both_outcomes(q0, config, p, delta, params)
    assert kernel == reference


# Paths that meet a vanished normalizer, the discount being within 1e-13
# of 1.  Mathematically the normalizer does not depend on q0, so the first
# finite-difference probe usually repeats a recorded point's value; at the
# recorded points below it differs in its last bits.
@pytest.mark.parametrize("mode, delta, p, q0, nu, dq, cap", [
    # at the start
    ("finite_difference", 1 - 1e-16, (0.25, 0.25, 0.5, 0.0, 0.0), (1.0, 0.75, 1.0, 0.75, 0.0),
     0.1, 0.01, 50),
    ("analytic", 1 - 1e-16, (0.25, 0.25, 0.5, 0.0, 0.0), (1.0, 0.75, 1.0, 0.75, 0.0),
     0.1, 0.01, 50),
    # at a finite-difference probe
    ("finite_difference", 1 - 1e-13, (0.0, 1.0, 0.0, 0.5, 0.0), (1.0, 1.0, 0.0, 1.0, 0.0),
     0.1, 0.3, 50),
    # at a point the finite-difference loop records, after some steps
    ("finite_difference", 1 - 1e-14, (0.75, 1.0, 1.0, 0.0, 0.25), (0.75, 0.25, 1.0, 1.0, 1.0),
     1.0, 0.01, 30),
    # at the point where the analytic loop reaches its cap
    ("analytic", 1 - 1e-14, (0.5, 1.0, 1.0, 0.0, 0.0), (1.0, 0.25, 0.25, 0.5, 0.25),
     10.0, 1e-4, 1),
])
def test_vanished_normalizer_raises_the_same_error(compiled, mode, delta, p, q0, nu, dq, cap):
    config = SimConfig(nu=nu, dq=dq, max_steps=cap, gradient_mode=mode)
    kernel, reference = both_outcomes(q0, config, p, delta, validate_payoffs(1.5, -0.5))
    assert isinstance(reference, str)
    assert kernel == reference


def test_huge_step_cap_runs_like_run_path(kernel, params_main):
    p, delta, _ = PCZD_A
    config = SimConfig(max_steps=2**70)
    if kernel == "compiled":
        assert _native.climber(config, p, delta, params_main) is not None
    result = sweep(1, 1234, config, p, delta, params_main)[0]
    path = run_path(initial_strategy(1234, 0), config, p, delta, params_main,
                    check_pczd=False)
    assert (result.final, result.steps, result.converged) == \
        (path.final_q, path.terminated_at, True)


@pytest.mark.parametrize("gradient", ["fd", "analytic"])
def test_cli_sweep_bytes_do_not_depend_on_the_kernel(tmp_path, gradient):
    out = {}
    for mode in KERNELS:
        out[mode] = tmp_path / f"{mode}.csv"
        with kernel_forced(mode):
            assert main(["sweep", "--T", "2.0", "--S", "-0.1", "--delta", "0.51",
                         "--p", "0.75,1.0,0.0,0.13529411764705881,0.0", "--seed", "7",
                         "--n-paths", "6", "--max-steps", "3000", "--gradient", gradient,
                         "--out", str(out[mode])]) in (0, 2)
    assert out["compiled"].read_bytes() == out["python"].read_bytes()


@pytest.fixture
def fresh_kernel(monkeypatch):
    """A monkeypatch under which the kernel is looked up afresh, and after
    which the real one is found again."""
    _native._kernel.cache_clear()
    yield monkeypatch
    _native._kernel.cache_clear()


def fallback_is_silent(capfd, params):
    p, delta, _ = PCZD_A
    got = sweep(3, 991, SimConfig(), p, delta, params)
    assert _native._kernel() is None
    with kernel_forced("python"):
        assert got == sweep(3, 991, SimConfig(), p, delta, params)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("compiler", [
    ["no-such-compiler-for-zdgame"],
    [sys.executable, "-c", "import sys; sys.exit('cc: error: cannot compile')"],
])
def test_no_working_compiler_falls_back_silently(fresh_kernel, tmp_path, capfd,
                                                 params_main, compiler):
    fresh_kernel.setattr(_native, "_compiler", lambda: compiler)
    fresh_kernel.setattr(_native, "CACHE_DIR", tmp_path / "cache")
    fallback_is_silent(capfd, params_main)
    assert list((tmp_path / "cache").iterdir()) == []  # no temporary file left


def test_unwritable_cache_falls_back_silently(fresh_kernel, tmp_path, capfd, params_main):
    # a directory below a regular file cannot be made, even by root
    blocker = tmp_path / "file"
    blocker.write_text("")
    fresh_kernel.setattr(_native, "CACHE_DIR", blocker / "__pycache__")
    fallback_is_silent(capfd, params_main)


def test_world_writable_cache_is_not_used(fresh_kernel, tmp_path, capfd, params_main):
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o777)
    fresh_kernel.setattr(_native, "CACHE_DIR", shared)
    fallback_is_silent(capfd, params_main)
    assert list(shared.iterdir()) == []


def test_sweep_takes_the_compiled_loop(compiled, monkeypatch, params_main):
    made, climber = [], _native.climber

    def spy(*args):
        made.append(climber(*args))
        return made[-1]

    p, delta, _ = PCZD_A
    with monkeypatch.context() as mp:
        mp.setattr(_native, "climber", spy)
        sweep(2, 991, SimConfig(), p, delta, params_main)
    assert len(made) == 1 and made[0] is not None


# One function of each module that the sweep's rebind check watches.
# Nothing calls _linalg.det3 by that name: payoffs binds its own det3.
REBOUND = [(adaptive, "_sum_squares"), (payoffs, "_cofactors"),
           (gradients, "_row_derivative_det"), (_linalg, "det3")]


@pytest.mark.parametrize("module, name", [*REBOUND, (None, None)],
                         ids=[f"{m.__name__}.{name}" for m, name in REBOUND] + ["none"])
def test_a_rebound_function_sends_sweeps_to_climb(compiled, monkeypatch, params_main,
                                                  module, name):
    p, delta, _ = PCZD_A
    config = SimConfig(gradient_mode="analytic")
    compiled_results = sweep(3, 991, config, p, delta, params_main)
    made, climber = [], _native.climber

    def spy(*args):
        made.append(climber(*args))
        return made[-1]

    monkeypatch.setattr(_native, "climber", spy)
    if module is not None:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: original(*args))
    assert sweep(3, 991, config, p, delta, params_main) == compiled_results
    if module is None:
        assert len(made) == 1 and made[0] is not None
    else:
        assert made == []


def test_sweep_calls_a_rebound_function(compiled, monkeypatch, params_main):
    """A patched kernel function (here a counting det3) is called by a
    sweep as by run_path: one recorded payoff per step and the start, ten
    probes per update, four minors per payoff."""
    calls = []

    def counted(*rows):
        calls.append(None)
        return det3(*rows)

    p, delta, _ = PCZD_A
    monkeypatch.setattr(payoffs, "det3", counted)
    [result] = sweep(1, 2024, SimConfig(), p, delta, params_main)
    assert result.converged
    assert len(calls) == 4 * (11 * result.steps + 11)


# --- the payoff series -----------------------------------------------------

# discounts at and next to the ends of verify's range, where the series
# horizon is shortest and longest
series_deltas = st.sampled_from([0.01, math.nextafter(0.01, 1.0), 0.99,
                                 math.nextafter(0.99, 0.0)]) | st.floats(0.01, 0.99)


@st.composite
def series_pairs(draw):
    """(p, q, delta): (5, m) strategy columns with exact entries, m discounts."""
    m = draw(st.sampled_from(BATCH_SIZES))
    columns = st.lists(strategy_with_exact_entries, min_size=m, max_size=m)
    p, q = np.array(draw(columns)).T, np.array(draw(columns)).T
    return p, q, np.array(draw(st.lists(series_deltas, min_size=m, max_size=m)))


def test_a_loose_tolerance_at_a_small_discount_gives_horizon_1(params_main):
    assert series_horizon(0.01, params_main, 1e-2) == 1


@settings(max_examples=200, deadline=None)
# one pair of horizon 1 with a -0.0 and a 1.0 entry
@example(pairs=(np.array([[-0.0, 1.0, 0.5, 0.0, 1.0]]).T, np.array([[1.0, 0.0, -0.0, 1.0, 0.25]]).T,
                np.array([0.01])), tol=1e-2)
@given(pairs=series_pairs(), tol=st.sampled_from([1e-10, 1e-2]))
def test_series_kernel_sums_as_payoff_series(compiled, params_main, pairs, tol):
    p, q, delta = pairs
    columns = payoffs._series_payoffs(p, q, delta, params_main, tol)
    alone = [payoff_series(p[:, k], q[:, k], delta[k], params_main, tol=tol)
             for k in range(len(delta))]
    assert bits(np.array(columns).T) == bits(alone)


def test_series_rejects_inputs_of_the_wrong_shape(compiled):
    # the C loop reads raw pointers, so a short array must not reach it
    with pytest.raises(ValueError, match=r"for 2 pairs have shapes .*\(4, 1\)"):
        _native.series([3, 3], np.zeros((4, 1)), np.zeros((4, 4, 2)), np.full(2, 0.5),
                       (1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))


# --- the pcZD enforcer stream ---------------------------------------------

edge_uniforms = st.sampled_from([0.0, EDGE, 1.0]) | st.floats(0.0, 1.0)

# The delta, chi, kappa and p0 uniforms of tries at T = 1.5, S = -0.5
# whose phi window empties on the cut (1 to 4) named, with a flat slope or
# not; each is rejected after its four values.
EMPTYING_TRIES = {(1, True): (0.0, 0.0, 1.0, 0.0), (2, False): (0.0, 0.0, 0.0, 0.0),
                  (3, False): (0.0, 0.0, 0.0, 1.0), (4, False): (0.0, 0.75, 0.5, 0.75),
                  (4, True): (0.0, 0.75, 0.0, 0.5)}
# those five tries, then two accepted draws next to delta = 0.995 with
# their q: one with p0 = p1 = 1, one with p0 = 0 and p4 = 0
EDGE_STREAM = [*(u for try_ in EMPTYING_TRIES.values() for u in try_),
               EDGE, EDGE, 1.0, 1.0, 0.5, 0.0, EDGE, 1.0, 0.5, 0.25,
               EDGE, 1.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.0, EDGE, 0.75]
# p0 and kappa as drawn, fixed as verify's corner tables fix them, and
# fixed elsewhere
FIXED = [(None, None), (1.0, 1.0), (0.25, 0.5)]
# tries per draw: few enough that a draw runs out, sample_pczd's, and (None)
# the walks' default, no limit
TRIES = [1, 2, 500, None]


def test_the_edge_block_empties_the_window_on_each_cut(monkeypatch, params_main):
    calls, narrow = [], zd._narrow

    def recorded(lo, hi, const, slope, delta):
        window = narrow(lo, hi, const, slope, delta)
        calls.append((lo < hi and not window[0] < window[1], abs(slope) < 1e-300))
        return window

    monkeypatch.setattr(zd, "_narrow", recorded)
    rng = ListRng(EDGE_STREAM)
    cols, rejected = verify._walk(rng, 2, params_main)
    assert {(k % 4 + 1, flat) for k, (emptied, flat) in enumerate(calls) if emptied} == set(
        EMPTYING_TRIES)
    assert (cols.shape, rejected, len(rng.held)) == ((11, 2), 5, len(EDGE_STREAM))
    p = cols[:5]
    assert (p[0, 0], p[1, 0], p[0, 1], p[4, 1]) == (1.0, 1.0, 0.0, 0.0)


def walk_args(fixed, tries, q):
    """The arguments after ``(rng, n, params)`` shared by ``_native.pczd``
    and ``verify._walk``: ``tries`` left out where None."""
    return (*fixed,), {"q": q, **({} if tries is None else {"tries": tries})}


@settings(max_examples=300, deadline=None)
@example(setting=SAMPLER_SETTINGS[0], u=EDGE_STREAM, n=2, fixed=FIXED[0], tries=None, q=True)
@example(setting=SAMPLER_SETTINGS[0], u=EDGE_STREAM, n=3, fixed=FIXED[0], tries=None, q=True)
# the edge stream's first try is rejected, so one try per draw ends the walk
@example(setting=SAMPLER_SETTINGS[0], u=EDGE_STREAM, n=3, fixed=FIXED[0], tries=1, q=False)
@given(setting=st.sampled_from(SAMPLER_SETTINGS), u=st.lists(edge_uniforms, max_size=60),
       n=st.integers(1, 6), fixed=st.sampled_from(FIXED), tries=st.sampled_from(TRIES),
       q=st.booleans())
def test_pczd_kernel_walks_as_verify_walk(compiled, setting, u, n, fixed, tries, q):
    """Columns, rejection count and values read bit for bit, with p0 and
    kappa fixed or drawn, with q values or without, and with a limit on
    the tries or none, on streams that start with edge and plain uniforms;
    the kernel holds the lock for every value it reads."""
    params = validate_payoffs(*setting, strict=True)
    args, kwargs = walk_args(fixed, tries, q)
    got, want = ListRng(u), ListRng(u)
    cols, rejected = _native.pczd(got, n, params, *args, **kwargs)(n)
    want_cols, want_rejected = verify._walk(want, n, params, *args, **kwargs)
    assert cols.shape == want_cols.shape
    assert bits(cols) == bits(want_cols) and rejected == want_rejected
    assert len(got.held) == len(want.held) and all(got.held)
    assert not got.bit_generator.lock.locked()


@pytest.mark.parametrize("q", [True, False])
@pytest.mark.parametrize("tries", TRIES)
@pytest.mark.parametrize("fixed", FIXED)
@pytest.mark.parametrize("setting", SAMPLER_SETTINGS)
def test_pczd_kernel_walks_a_pcg64_as_verify_walk(compiled, setting, fixed, tries, q):
    """On two equal numpy generators: the same columns and rejection
    count, and the same generator state after the walk, also where a draw
    runs out of its tries and ends the walk early."""
    params = validate_payoffs(*setting, strict=True)
    args, kwargs = walk_args(fixed, tries, q)
    got, want, n = np.random.default_rng(4), np.random.default_rng(4), 40
    cols, rejected = _native.pczd(got, n, params, *args, **kwargs)(n)
    want_cols, want_rejected = verify._walk(want, n, params, *args, **kwargs)
    assert cols.shape == want_cols.shape == (11 if q else 6, cols.shape[1])
    assert bits(cols) == bits(want_cols) and rejected == want_rejected
    assert got.bit_generator.state == want.bit_generator.state
    assert (cols.shape[1] < n) if tries in (1, 2) else (cols.shape[1] == n)


def test_the_compiled_walk_enters_the_generators_lock(compiled, params_main):
    # numpy's own lock attribute is read-only, so a recording lock stands
    # in for it around the real bit generator's ctypes interface
    real = np.random.default_rng(7).bit_generator
    entered = []

    class RecordingLock:
        def __enter__(self):
            entered.append(real.lock.acquire(blocking=False))

        def __exit__(self, *exc):
            real.lock.release()
            entered.append("left")

    rng = types.SimpleNamespace(bit_generator=types.SimpleNamespace(
        lock=RecordingLock(), ctypes=real.ctypes))
    cols, rejected = _native.pczd(rng, 30, params_main)(30)
    want_cols, want_rejected = verify._walk(np.random.default_rng(7), 30, params_main)
    assert entered == [True, "left"]
    assert bits(cols) == bits(want_cols) and rejected == want_rejected


# one accepted try at T = 1.5, S = -0.5: delta and chi next to their upper
# ends, kappa = p0 = 1 and phi mid-window
ACCEPTED_TRY = [EDGE, EDGE, 1.0, 1.0, 0.5]
# a try that reads only zeros is rejected: after four values with p0 and
# kappa drawn (the window empties on cut 2), after two with p0 = kappa = 1
# fixed; so these many zeros run a draw out of its 500 tries
ZEROS_DRAWN, ZEROS_FIXED = [0.0] * 2000, [0.0] * 1000


def draw_one(rng, params, fixed, q):
    """``sample_pczd(rng, params, p0=p0, kappa=kappa)`` for ``fixed`` =
    ``(p0, kappa)``, as the kernel's column (p0..p4, the five values as q
    where ``q``, delta); an empty list where it raises."""
    try:
        p, _, d = sample_pczd(rng, params, p0=fixed[0], kappa=fixed[1])
    except RuntimeError:
        return []
    return [*p, *(rng.random(5) if q else []), d]


@settings(max_examples=300, deadline=None)
# a draw, then one that runs out of tries, with and without p0 and kappa
# fixed (the fixed try reads no kappa or p0 value)
@example(setting=SAMPLER_SETTINGS[0], fixed=FIXED[0], q=True,
         u=ACCEPTED_TRY + [0.5] * 5 + ZEROS_DRAWN, n=3)
@example(setting=SAMPLER_SETTINGS[0], fixed=FIXED[1], q=False,
         u=ACCEPTED_TRY[:2] + ACCEPTED_TRY[4:] + ZEROS_FIXED, n=2)
@example(setting=SAMPLER_SETTINGS[0], fixed=FIXED[1], q=True, u=EDGE_STREAM, n=3)
@given(setting=st.sampled_from(SAMPLER_SETTINGS), fixed=st.sampled_from(FIXED),
       q=st.booleans(), u=st.lists(edge_uniforms, max_size=60), n=st.integers(1, 4))
def test_pczd_kernel_draws_as_sample_pczd(compiled, setting, fixed, q, u, n):
    """With p0 and kappa fixed or drawn, with q values or without, 500
    tries per draw: each draw's column and the values it reads are those
    of ``sample_pczd`` bit for bit, and a draw that runs out of tries ends
    the call where ``sample_pczd`` raises.  One call of ``n`` draws gives
    the columns of ``n`` calls of one."""
    params = validate_payoffs(*setting, strict=True)
    got, want, whole = ListRng(u), ListRng(u), ListRng(u)
    walk, drawn = _native.pczd(got, 1, params, *fixed, 500, q), []
    for _ in range(n):
        cols, _ = walk(1)
        column = draw_one(want, params, fixed, q)
        assert cols.shape == (11 if q else 6, len(column) and 1)
        assert bits(cols.T) == bits(column) and len(got.held) == len(want.held)
        drawn.append(cols.copy())  # the next call overwrites the buffer
        if not column:
            break
    cols, _ = _native.pczd(whole, n, params, *fixed, 500, q)(n)
    assert bits(cols) == bits(np.hstack(drawn)) and len(whole.held) == len(got.held)
    assert all(got.held) and all(whole.held)


@pytest.mark.parametrize("fixed", FIXED)
@pytest.mark.parametrize("setting", SAMPLER_SETTINGS)
def test_pczd_kernel_reads_a_pcg64_as_sample_pczd(compiled, setting, fixed):
    """Draw by draw on numpy's own generator: the same columns, and the
    same generator state after each draw."""
    params = validate_payoffs(*setting, strict=True)
    got, want = np.random.default_rng(3), np.random.default_rng(3)
    walk = _native.pczd(got, 1, params, *fixed, 500, False)
    for _ in range(100):
        cols, _ = walk(1)
        assert bits(cols.T) == bits(draw_one(want, params, fixed, False))
        assert got.bit_generator.state == want.bit_generator.state


def test_a_corner_round_whose_draw_runs_out_of_tries(kernel, params_main):
    """On both routes: a p0 = p1 = 1 draw that finds no enforcer in 500
    tries leaves its round without tables 4-5, and a pcZD draw that finds
    none raises ``sample_pczd``'s error; each reads the values
    ``sample_pczd`` reads."""
    plain = [0.5] * 6
    rng = ListRng(plain + ACCEPTED_TRY + ZEROS_FIXED)
    result = verify._corner_tables(params_main, rng, 1)
    assert result.samples == 208 and result.passed, result.line()
    assert len(rng.held) == 6 + 5 + 1000
    want = ListRng(ZEROS_DRAWN)
    with pytest.raises(RuntimeError) as raised:
        sample_pczd(want, params_main)
    rng = ListRng(plain + ZEROS_DRAWN)
    with pytest.raises(RuntimeError) as info:
        verify._corner_tables(params_main, rng, 1)
    assert str(info.value) == str(raised.value)
    assert str(info.value).startswith("no feasible pcZD draw in 500 tries (delta=None, ")
    assert len(rng.held) == 6 + len(want.held) == 6 + 2000


# --- the normalizer and regularity draws ------------------------------------

# each draw reads p, q, then delta's uniform: with the edge uniforms delta
# sits at 0.01 and next to 0.99, and p and q at the cube's faces; here, a
# draw at the cube's far corner with delta next to 0.99, then one at its
# origin with delta at 0.01, and one with a NaN value
EDGE_DRAWS = [*[1.0] * 10, EDGE, *[0.0] * 11, 0.5, math.nan, *[0.5] * 9]


def numpy_residuals(rng, n, identity):
    """The residuals of ``n`` draws by the numpy pass, the kernel's twin."""
    return verify._residuals(rng, n, 0.01, 0.99, identity)


@settings(max_examples=300, deadline=None)
@example(identity=False, u=EDGE_DRAWS, n=3)
@example(identity=True, u=EDGE_DRAWS, n=3)
@given(identity=st.booleans(), u=st.lists(edge_uniforms, max_size=60), n=st.integers(1, 6))
def test_residuals_kernel_equals_the_numpy_passes(compiled, identity, u, n):
    """Residuals and values read bit for bit, on streams that start with
    edge and plain uniforms; the kernel holds the lock for every value it
    reads."""
    got, want = ListRng(u), ListRng(u)
    residuals = _native.residuals(got, n, 0.01, 0.99, identity)(n)
    assert bits(residuals) == bits(numpy_residuals(want, n, identity))
    assert len(got.held) == len(want.held) == 11 * n and all(got.held)
    assert not got.bit_generator.lock.locked()


@pytest.mark.parametrize("identity", [False, True])
def test_residuals_kernel_reads_a_pcg64_as_the_numpy_passes(compiled, identity):
    """Chunk by chunk into one buffer, on numpy's own generator: the
    residuals of the numpy passes, and the same generator state after
    each chunk."""
    got, want = np.random.default_rng(3), np.random.default_rng(3)
    take = _native.residuals(got, 50, 0.01, 0.99, identity)
    for k in (50, 1, 17, 50):
        assert bits(take(k)) == bits(numpy_residuals(want, k, identity))
        assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("n", [4, -1])
def test_a_call_past_its_buffer_is_refused(compiled, params_main, n):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for take in (_native.residuals(rng, 3, 0.01, 0.99, False), _native.pczd(rng, 3, params_main)):
        with pytest.raises(ValueError, match=f"^{n} draws do not fit a buffer of 3$"):
            take(n)
    assert rng.bit_generator.state == state


# --- verify's own PCG64 stream -------------------------------------------------

def numpy_stream(seed, key):
    """The stream's reference: numpy's SeedSequence spawn and PCG64."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


# the size of one random() call on both generators
stream_sizes = st.sampled_from([None, (), 0, 1, 5, 11, (3, 4), (2, 0)])


@settings(max_examples=300, deadline=None)
@example(seed=0, key=1, sizes=[None, 1, (2, 0)])
@example(seed=2**128 - 1, key=2**32, sizes=[()])
@example(seed=2**128, key=2**64, sizes=[11])
@given(seed=st.integers(0, 2**130), key=st.integers(0, 2**70),
       sizes=st.lists(stream_sizes, min_size=1, max_size=10))
def test_stream_draws_as_numpys_generator(compiled, seed, key, sizes):
    """Interleaved scalar and shaped draws give numpy's values, types and
    shapes bit for bit."""
    got, want = _native.stream(seed, key), numpy_stream(seed, key)
    for size in sizes:
        a, b = got.random(size), want.random(size)
        assert type(a) is type(b) and np.shape(a) == np.shape(b) and bits(a) == bits(b)


@settings(max_examples=50, deadline=None)
@example(seed=0, key=5, identity=False)
@given(seed=st.integers(0, 2**130), key=st.integers(0, 2**40), identity=st.booleans())
def test_stream_stands_where_numpys_does_after_each_kernel(compiled, params_main,
                                                           seed, key, identity):
    """The compiled residuals and pcZD chunks read the stream through
    ``zd_pcg_double`` as they read numpy's generator through its
    ``next_double``: the same results, and the same next values."""
    got, want = _native.stream(seed, key), numpy_stream(seed, key)
    residuals = [_native.residuals(rng, 7, 0.01, 0.99, identity)(7) for rng in (got, want)]
    assert bits(residuals[0]) == bits(residuals[1])
    assert bits(got.random(3)) == bits(want.random(3))
    (cols, rejected), (want_cols, want_rejected) = (
        _native.pczd(rng, 6, params_main)(6) for rng in (got, want))
    assert bits(cols) == bits(want_cols) and rejected == want_rejected
    assert bits(got.random()) == bits(want.random())


def test_threads_sharing_a_stream_lose_no_draw(compiled):
    """ctypes releases the GIL for each draw, so the stream's lock alone
    keeps two draws from stepping one state: after the threads' draws the
    stream stands where numpy's does after as many."""
    got, switch = _native.stream(11, 2), sys.getswitchinterval()

    def draw():
        for _ in range(100):
            got.random(20_000)
            got.random()

    try:
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=draw) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    want = numpy_stream(11, 2)
    want.bit_generator.advance(4 * 100 * 20_001)
    assert bits(got.random(5)) == bits(want.random(5))


@pytest.mark.parametrize("seed, key, name", [
    (-1, 0, "seed"), (1.5, 0, "seed"), (True, 0, "seed"), (0, -1, "key"), (0, 2.0, "key"),
])
def test_stream_rejects_bad_stream_arguments(compiled, seed, key, name):
    """A negative seed is not masked into 32-bit words."""
    with pytest.raises(DomainError, match=f"^{name} must be a non-negative integer"):
        _native.stream(seed, key)


def wrap_every_function(monkeypatch, module):
    """Wrap, with ``functools.wraps``, every function that ``module``
    defines, in every zdgame namespace and module-level dict that binds
    it, as a call tracer does; gives the wrappers' call counts by name."""
    calls = collections.Counter()

    def wrap(f):
        @functools.wraps(f)
        def counted(*args, **kwargs):
            calls[f.__name__] += 1
            return f(*args, **kwargs)

        return counted

    replace = {id(f): wrap(f) for f in vars(module).values()
               if inspect.isfunction(f) and f.__module__ == module.__name__}
    for name, namespace in list(sys.modules.items()):
        if name == "zdgame" or name.startswith("zdgame."):
            tables = [vars(namespace), *(v for v in vars(namespace).values() if type(v) is dict)]
            for table in tables:
                for key, value in list(table.items()):
                    if id(value) in replace:
                        monkeypatch.setitem(table, key, replace[id(value)])
    return calls


def test_wrapped_payoff_functions_leave_the_oracle_on_the_compiled_series(
        compiled, monkeypatch, params_main):
    """A call tracer's wrappers do not send the oracle triangle's series
    to the Python loop: the compiled series runs whenever it builds."""
    want = verify._oracle_triangle(params_main, verify._rng_for(3, 3), 30)
    summed, series = [], _native.series
    monkeypatch.setattr(_native, "series", lambda *args: summed.append(series(*args)) or summed[-1])
    calls = wrap_every_function(monkeypatch, payoffs)
    got = verify._oracle_triangle(params_main, verify._rng_for(3, 3), 30)
    assert got == want and bits(got.worst) == bits(want.worst)
    assert len(summed) == 1 and summed[0] is not None
    assert calls["_series_payoffs"] == 1 and calls["_series_rounds"] == 0


RACE = """
import sys
import types
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from zdgame import _native
_native.CACHE_DIR = Path(sys.argv[2])
sys.exit(0 if _native._kernel() is not None else 1)
"""


def test_concurrent_builds_into_a_fresh_cache_both_succeed(compiled, tmp_path):
    cache = tmp_path / "cache"
    procs = [subprocess.Popen([sys.executable, "-c", RACE, SRC, str(cache)])
             for _ in range(2)]
    assert [proc.wait(timeout=300) for proc in procs] == [0, 0]
    assert [f.suffix for f in cache.iterdir()] == [".so"]


def test_a_build_removes_older_builds(compiled, fresh_kernel, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    older = cache / "_climb-000000000000000000000000.so"
    older.write_bytes(b"a build of an older source")
    in_flight = cache / "_climb-111111111111111111111111.so.x1y2z3.tmp"
    in_flight.write_bytes(b"")
    fresh_kernel.setattr(_native, "CACHE_DIR", cache)
    built = Path(_native._kernel()._name)
    assert built.parent == cache
    assert {f.name for f in cache.iterdir()} == {built.name, in_flight.name}


LOADS = """
import sys
sys.path.insert(0, sys.argv[1])
import zdgame.cli

def loaded():
    try:
        with open("/proc/self/maps") as fh:
            mapped = "_climb-" in fh.read()
    except OSError:
        mapped = False
    return "zdgame._native" in sys.modules or mapped

assert not loaded(), "import"
zdgame.cli.main(["verify", "--T", "1.5", "--S", "-0.5", "--sample-scale", "0.002",
                 "--out", sys.argv[2]])
print(loaded())
"""


def test_import_and_verify_load_no_kernel(tmp_path):
    """Importing the CLI loads no library.  Verify loads it, for the oracle
    triangle's payoff series, exactly where it can be built."""
    run = subprocess.run([sys.executable, "-c", LOADS, SRC, str(tmp_path / "verify.txt")],
                         check=True, capture_output=True, text=True)
    assert run.stdout.splitlines()[-1] == str(_native._kernel() is not None)


NO_LEAN_SHA256 = """
import sys
sys.path.insert(0, sys.argv[1])
sys.modules["_sha2"] = sys.modules["_sha256"] = None  # unimportable
import hashlib
from zdgame import _native
assert _native.sha256 is hashlib.sha256
print(_native._library(_native.SOURCE.read_bytes(), _native._compiler()))
"""


def test_cache_name_without_the_lean_sha256():
    """hashlib's sha256, the fallback, names the library as the lean module
    does, so no cache built under either goes cold."""
    run = subprocess.run([sys.executable, "-c", NO_LEAN_SHA256, SRC],
                         check=True, capture_output=True, text=True)
    assert run.stdout.strip() == str(_native._library(_native.SOURCE.read_bytes(),
                                                      _native._compiler()))


# sha256 of `zdgame run --T 1.5 --S -0.5 --delta 0.99 --p 0.0,0.75,0.25,0.5,0.0
# --seed 7`, as written when the start was drawn through numpy.random
RUN_SEED7_SHA256 = "85ca5912a26db1bfcc8cb91582472a237defa61c07055cc7b3fb385af33d2097"

SKIPS_HEAVY_IMPORTS = """
import sys
sys.path.insert(0, sys.argv[1])
import zdgame.cli

game = ["--T", "1.5", "--S", "-0.5", "--delta", "0.99", "--p", "0.0,0.75,0.25,0.5,0.0"]
zdgame.cli.main(["sweep", *game, "--seed", "2024", "--n-paths", "3", "--out", sys.argv[2]])
zdgame.cli.main(["run", *game, "--seed", "7", "--out", sys.argv[3]])
print(sorted({"numpy.random", "hashlib", "_hashlib"} & set(sys.modules)))
"""


def test_sweep_and_seeded_run_load_neither_numpy_random_nor_openssl(tmp_path):
    """The starts come from adaptive's own generator and the library's
    name from the lean sha256, with the bytes unchanged."""
    trajectory = tmp_path / "run.csv"
    run = subprocess.run([sys.executable, "-c", SKIPS_HEAVY_IMPORTS, SRC,
                          str(tmp_path / "sweep.csv"), str(trajectory)],
                         check=True, capture_output=True, text=True)
    assert run.stdout.splitlines()[-1] == "[]"
    assert hashlib.sha256(trajectory.read_bytes()).hexdigest() == RUN_SEED7_SHA256


VERIFY_LOADS = """
import sys
sys.path.insert(0, sys.argv[1])
import zdgame.cli
from zdgame import _native

if sys.argv[3] == "numpy":
    _native.stream = lambda *args: None
zdgame.cli.main(["verify", "--T", "1.5", "--S", "-0.5", "--sample-scale", "0.01",
                 "--out", sys.argv[2]])
print(sorted({"numpy.random", "hashlib", "_hashlib"} & set(sys.modules)))
"""


def test_compiled_verify_loads_neither_numpy_random_nor_openssl(compiled, tmp_path):
    """Verify's streams come from the library's PCG64, and numpy's
    generator, where ``_native.stream`` gives none, writes the same
    bytes."""
    loaded, written = {}, {}
    for route in ("stream", "numpy"):
        out = tmp_path / f"{route}.txt"
        run = subprocess.run([sys.executable, "-c", VERIFY_LOADS, SRC, str(out), route],
                             check=True, capture_output=True, text=True)
        loaded[route], written[route] = run.stdout.splitlines()[-1], out.read_bytes()
    assert loaded["stream"] == "[]"
    assert "numpy.random" in loaded["numpy"]
    assert written["stream"] == written["numpy"]


# The ctypes types that stand for the C types of _climb.c's entry points.
# A Game is twelve doubles, passed as a pointer to the first.
C_SCALARS = {"double": ctypes.c_double, "int": ctypes.c_int, "int64_t": ctypes.c_int64,
             "void": None, "Game": ctypes.c_double}


def c_prototypes(source):
    """Each function of ``source`` that is not ``static``, with its return
    type and its parameters' types, in order."""
    prototypes = {}
    for ret, name, params in re.findall(r"^(?!static)(\w+) (\w+)\((.*?)\)\n\{", source,
                                        re.M | re.S):
        # split at the commas outside a function pointer's own parentheses
        types_, depth, start = [], 0, 0
        for i, ch in enumerate(params + ","):
            depth += (ch == "(") - (ch == ")")
            if ch == "," and depth == 0:
                types_.append(" ".join(params[start:i].split()))
                start = i + 1
        prototypes[name] = ret, types_
    return prototypes


def expected_argtypes(param):
    """The ctypes types that may stand for the C parameter ``param``."""
    if "(*" in param:  # a function pointer, such as next(state)
        return {ctypes.c_void_p}
    words = param.replace("*", " * ").split()
    base = [w for w in words if w != "const"][0]
    if "*" in words:
        return {ctypes.c_void_p, ctypes.POINTER(C_SCALARS[base])}
    return {C_SCALARS[base]}


def test_argtypes_match_the_c_prototypes(compiled):
    """Every entry point of ``_climb.c`` has its argument and return types
    set by ``_kernel()``, each of the C type's width, in the C order."""
    prototypes = c_prototypes(_native.SOURCE.read_text())
    defined = re.findall(r"^\w[^;\n]*\b(zd_\w+)\(", _native.SOURCE.read_text(), re.M)
    assert sorted(prototypes) == sorted(defined) and prototypes
    lib = _native._kernel()
    for name, (ret, params) in prototypes.items():
        function = getattr(lib, name)
        assert function.restype is C_SCALARS[ret], name
        assert function.argtypes is not None and len(function.argtypes) == len(params), name
        for i, (argtype, param) in enumerate(zip(function.argtypes, params)):
            assert argtype in expected_argtypes(param), (name, i, param)
