"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
suite executes.  Seeds, sample counts and tolerances are pinned and are not
meant to be tuned; C02-C08 run the property functions of ``zdgame.verify``,
which hold their tolerances, on the seeds and counts pinned here.
"""

import contextlib
import math

import numpy as np
import pytest

from zdgame import (
    SimConfig,
    critical_discount,
    gradient_quotient,
    is_pczd,
    payoff_determinant,
    run_path,
    sweep,
    validate_payoffs,
)
from zdgame import _native, verify
from zdgame import payoffs as payoffs_mod
from zdgame._linalg import det3
from conftest import kernel_forced

SETTINGS = [(1.5, -0.5), (2.0, -0.1), (1.1, -1.0)]

FIG3_P = (0.0, 0.75, 0.25, 0.5, 0.0)
FIG3_Q0 = (0.863, 0.071, 0.593, 0.968, 0.420)
FIG4_P = (0.0, 1.0, 0.0, 1.0, 0.0)
FIG4_Q0 = (0.102, 0.171, 0.634, 0.532, 0.368)
T2_P = (1.0, 1.0, 0.5, 0.8, 0.3)
DIP_P = (0.95, 0.7, 0.2, 0.13, 0.0)
DIP_Q0 = (0.5, 0.0, 0.8, 0.7, 0.8)
SWEEP_B_P = (0.750, 1.0, 0.0, 0.135, 0.0)
# the exact enforcer near SWEEP_B_P: p3 = 0.069 / 0.51 puts it on the ZD line
WIDE_P = (0.75, 1.0, 0.0, 0.069 / 0.51, 0.0)

SWEEP_SEED = 2024


def report(number, passed, detail):
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def finite(value, number, draw):
    """``value``, after failing criterion ``number`` if it is not finite:
    ``min`` and ``max`` would drop a NaN and let the criterion pass."""
    if not math.isfinite(value):
        report(number, False, f"non-finite residual {value} at draw {draw}")
    return value


@pytest.fixture(scope="module")
def main_params():
    return validate_payoffs(1.5, -0.5, strict=True)


def failures(result, where=""):
    """The detail lines of a failed property result, for a criterion's line."""
    return "" if result.passed else "".join(f"; {where}{d}" for d in result.details)


def setting_failures(results):
    return "".join(failures(r, f"T={T}, S={S}: ") for (T, S), r in results.items())


def factorization_results():
    """Verify's factorization-and-signs property on 10^4 draws of (enforcer,
    opponent, discount) per payoff setting: its match and sign results."""
    return {
        (T, S): verify._factorization_and_signs(
            validate_payoffs(T, S, strict=True), np.random.default_rng(77), 10_000
        )
        for T, S in SETTINGS
    }


@pytest.fixture(scope="module")
def factorization_grid():
    """Shared by the factorization-identity and gradient-positivity criteria."""
    return factorization_results()


@pytest.fixture(scope="module")
def sweep_t1_main(main_params):
    return sweep(100, SWEEP_SEED, SimConfig(), FIG3_P, 0.99, main_params)


@pytest.fixture(scope="module")
def sweep_t1_wide():
    params = validate_payoffs(2.0, -0.1, strict=True)
    return sweep(100, SWEEP_SEED, SimConfig(), SWEEP_B_P, 0.51, params)


@pytest.fixture(scope="module")
def sweep_t2_main(main_params):
    return sweep(100, SWEEP_SEED, SimConfig(), T2_P, 0.99, main_params)


@pytest.fixture(scope="module")
def sweep_t1_exact():
    params = validate_payoffs(2.0, -0.1, strict=True)
    return sweep(40, SWEEP_SEED, SimConfig(gradient_mode="analytic"), WIDE_P, 0.51, params)


def test_c01_critical_discount(main_params):
    value = critical_discount(main_params)
    err = abs(value - 1.0 / 3.0)
    report(1, err < 1e-15, f"critical discount {value!r}, |err|={err:.1e} (tol 1e-15)")


def test_c02_normalizer_positive(main_params):
    r = verify._normalizer_positive(main_params, np.random.default_rng(11), 100_000)
    report(
        2,
        r.passed,
        f"normalizer minimum {r.worst:.3e} over {r.samples} draws "
        f"(must exceed {r.threshold:g}){failures(r)}",
    )


def test_c03_resolvent_identity(main_params):
    # det(I - delta*M) equals (1 - delta) times the normalizer; the residual
    # is measured relative to the normalizer
    r = verify._regularity_identity(main_params, np.random.default_rng(12), 10_000)
    report(
        3,
        r.passed,
        f"resolvent identity worst relative residual {r.worst:.3e} "
        f"(tol {r.threshold:g}){failures(r)}",
    )


def test_c04_oracle_triangle(main_params):
    # the first two draws are at delta = 0.99 and 0.34
    r = verify._oracle_triangle(main_params, np.random.default_rng(13), 1_000)
    report(
        4,
        r.passed,
        f"three-route payoff agreement worst {r.worst:.3e} (tol {r.threshold:g}){failures(r)}",
    )


def test_c05_linear_enforcement(main_params):
    r = verify._zd_linear_relation(FIG3_P, 0.99, main_params, np.random.default_rng(14), 1_000)
    report(
        5,
        r.passed,
        f"enforced payoff line worst residual {r.worst:.3e} (tol {r.threshold:g}){failures(r)}",
    )


def test_c06_factorization_identity(factorization_grid):
    match = {ts: m for ts, (m, _) in factorization_grid.items()}
    worst = max(r.worst for r in match.values())
    first = match[SETTINGS[0]]
    report(
        6,
        all(r.passed for r in match.values()),
        f"factorized vs quotient gradients worst relative error {worst:.3e} "
        f"over {len(match)}x{first.samples} draws (tol {first.threshold:g})"
        f"{setting_failures(match)}",
    )


def test_c07_gradient_positivity(factorization_grid):
    # an exact zero fails the property unless it matches a corner pattern
    # of zero_gradient_condition
    signs = {ts: s for ts, (_, s) in factorization_grid.items()}
    worst_min = min(r.worst for r in signs.values())
    zeros = sum(r.extra["exact zeros"] for r in signs.values())
    report(
        7,
        all(r.passed for r in signs.values()),
        f"conditional gradients min {worst_min:.3e} (floor {signs[SETTINGS[0]].threshold:g}); "
        f"{zeros} exact zeros, each to match a corner pattern{setting_failures(signs)}",
    )


def test_c08_corner_tables(main_params):
    # tables 1-2 on a random p, 1-4 on a pcZD p and 4-5 on one with
    # p0 = p1 = 1: 232 cells a draw, so no cooperative draw was skipped
    r = verify._corner_tables(main_params, np.random.default_rng(16), 100)
    report(
        8,
        r.passed and r.samples == 23_200,
        f"corner tables worst |closed-direct| {r.worst:.3e} over {r.samples} cells of 100 draws "
        f"(tol {r.threshold:g}); cooperative-enforcer cells min "
        f"{r.extra['Table 5 min']:.3e} (must be > 0){failures(r)}",
    )


def test_c09_trajectory_fig3(main_params):
    path = run_path(FIG3_Q0, SimConfig(), FIG3_P, 0.99, main_params)
    ok = (
        path.terminal.tag == "T1"
        and min(path.final_q[:3]) >= 1.0 - 1e-6
        and 222 <= path.terminated_at <= 272
    )
    report(
        9,
        ok,
        f"reference trajectory ended {path.terminal.tag} at step {path.terminated_at} "
        f"(window [222, 272])",
    )


def test_c10_trajectory_fig4(main_params):
    path = run_path(FIG4_Q0, SimConfig(), FIG4_P, 0.34, main_params)
    ok = path.terminal.tag == "T1" and 8857 <= path.terminated_at <= 10825
    report(
        10,
        ok,
        f"low-discount trajectory ended {path.terminal.tag} at step {path.terminated_at} "
        f"(window [8857, 10825])",
    )


def test_c11_sweep_terminates_t1(sweep_t1_main, sweep_t1_wide):
    tags_main = [r.terminal for r in sweep_t1_main]
    tags_wide = [r.terminal for r in sweep_t1_wide]
    ok = tags_main.count("T1") == 100 and tags_wide.count("T1") == 100
    report(
        11,
        ok,
        f"T1 sweeps: {tags_main.count('T1')}/100 (delta=0.99) and "
        f"{tags_wide.count('T1')}/100 (delta=0.51) classified T1",
    )


def test_c12_sweep_terminates_t2(sweep_t2_main):
    good = sum(
        1 for r in sweep_t2_main if r.final[0] >= 1 - 1e-6 and r.final[1] >= 1 - 1e-6
    )
    report(12, good == 100, f"T2 sweep: {good}/100 paths ended with first two entries at 1")


def test_c13_first_round_dip():
    params = validate_payoffs(2.0, -0.1, strict=True)
    path = run_path(DIP_Q0, SimConfig(), DIP_P, 0.9, params)
    track = [s.q[0] for s in path.steps]
    dips = sum(1 for a, b in zip(track, track[1:]) if b < a - 1e-12)
    ok = dips >= 1 and path.terminal.tag == "T1"
    report(
        13,
        ok,
        f"first-round entry decreased {dips} times before ending {path.terminal.tag}",
    )


def test_c14_high_learning_rate(main_params):
    path = run_path(FIG3_Q0, SimConfig(nu=1.0), FIG3_P, 0.99, main_params)
    report(
        14,
        path.terminal.tag == "T1",
        f"unit learning rate still ends {path.terminal.tag} (step {path.terminated_at})",
    )


def test_c15_gradient_crosscheck(main_params):
    rng = np.random.default_rng(17)
    h = 1e-5
    worst = 0.0
    for i in range(1_000):
        p, q = rng.random(5), rng.random(5)
        delta = rng.uniform(0.05, 0.95)
        g = gradient_quotient(p, q, delta, main_params, payoff="y")
        for j in range(5):
            if abs(g[j]) <= 1e-6:
                continue
            plus, minus = q.copy(), q.copy()
            plus[j] += h
            minus[j] -= h
            fd = (
                payoff_determinant(p, plus, delta, main_params).s_y
                - payoff_determinant(p, minus, delta, main_params).s_y
            ) / (2.0 * h)
            worst = max(worst, finite(abs(fd - g[j]) / abs(g[j]), 15, i))
    report(
        15,
        worst < 1e-7,
        f"finite-difference vs analytic gradients worst relative error {worst:.3e} (tol 1e-7)",
    )


def test_c16_sweep_against_exact_enforcer(sweep_t1_exact):
    # C11's wide sweep plays SWEEP_B_P, which is not ZD; this one plays the
    # exact enforcer on the same game, the benchmark's sweep-wide-analytic job
    tags = [r.terminal for r in sweep_t1_exact]
    report(
        16,
        tags.count("T1") == 40,
        f"exact-enforcer sweep: {tags.count('T1')}/40 (delta=0.51, analytic) classified T1",
    )


# --- the criteria's own data and failure modes ----------------------------------

def test_enforcers_the_criteria_call_pczd_are_pczd():
    for p, delta, (T, S) in [
        (FIG3_P, 0.99, (1.5, -0.5)),
        (T2_P, 0.99, (1.5, -0.5)),
        (FIG4_P, 0.34, (1.5, -0.5)),
        (DIP_P, 0.9, (2.0, -0.1)),
        (WIDE_P, 0.51, (2.0, -0.1)),
    ]:
        assert is_pczd(p, delta, validate_payoffs(T, S, strict=True)), p
    # C11's pinned wide-sweep opponent misses the ZD line (residual ~1.5e-4),
    # so that sweep does not test a pcZD opponent; C16 does
    assert not is_pczd(SWEEP_B_P, 0.51, validate_payoffs(2.0, -0.1, strict=True)).zd_ok


def nan_det3(*rows):
    return det3(*rows) * math.nan


def nan_residuals(residuals):
    """``_native.residuals``, the compiled normalizer pass, with every
    residual NaN."""
    def patched(*args):
        take = residuals(*args)
        return None if take is None else lambda n: take(n) * math.nan

    return patched


@pytest.mark.parametrize("number", [2, 3, 4, 5, 6, 7, 8, 15])
def test_criterion_fails_on_a_nan_kernel(monkeypatch, capsys, number):
    """A NaN det3 reaches every criterion but C02 and C03 on either route.
    Those two call it only on their numpy route, so they also run with
    the compiled pass's residuals NaN on the other."""
    monkeypatch.setattr(payoffs_mod, "det3", nan_det3)
    monkeypatch.setattr(_native, "residuals", nan_residuals(_native.residuals))
    criterion = {
        2: test_c02_normalizer_positive,
        3: test_c03_resolvent_identity,
        4: test_c04_oracle_triangle,
        5: test_c05_linear_enforcement,
        6: test_c06_factorization_identity,
        7: test_c07_gradient_positivity,
        8: test_c08_corner_tables,
        15: test_c15_gradient_crosscheck,
    }[number]
    if number in (6, 7):
        arg = factorization_results()
    else:
        arg = validate_payoffs(1.5, -0.5, strict=True)
    for route in ("python", "compiled") if number in (2, 3) else (None,):
        with kernel_forced(route) if route else contextlib.nullcontext():
            with pytest.raises(AssertionError):
                criterion(arg)
        assert f"ACCEPTANCE {number:02d} FAIL" in capsys.readouterr().out
