"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
suite executes.  Sample counts and tolerances are pinned here and are not
meant to be tuned.
"""

import math

import numpy as np
import pytest

from zdgame import (
    SimConfig,
    corner_table,
    critical_discount,
    gradient_factorized,
    gradient_quotient,
    is_pczd,
    payoff_determinant,
    payoff_inverse,
    payoff_series,
    recover_zd,
    run_path,
    sample_pczd,
    state_determinant,
    sweep,
    table_report,
    transition_matrix,
    validate_payoffs,
    verify_linear_relation,
    zero_gradient_condition,
)
from zdgame import payoffs as payoffs_mod
from zdgame._linalg import det3, det4

ONES = (1.0, 1.0, 1.0, 1.0)
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


def factorization_draws():
    """10^4 draws of (enforcer, opponent, discount) per payoff setting.

    Per setting: the worst relative gap between the two gradients, the
    lowest conditional gradient, the exact zeros, and the draw at which a
    gradient was not finite (the setting stops there), or None.
    """
    out = {}
    for T, S in SETTINGS:
        params = validate_payoffs(T, S, strict=True)
        rng = np.random.default_rng(77)
        worst_rel = 0.0
        min_grad = np.inf
        zero_events = []
        non_finite = None
        for i in range(10_000):
            p, _, delta = sample_pczd(rng, params)
            q = rng.random(5)
            gq = gradient_quotient(p, q, delta, params, payoff="x")
            gf, _ = gradient_factorized(p, q, delta, params)
            if not all(math.isfinite(g) for g in (*gq, *gf)):
                non_finite = i
                break
            for j in range(5):
                denom = max(abs(gq[j]), abs(gf[j]))
                if denom > 0.0:
                    worst_rel = max(worst_rel, abs(gq[j] - gf[j]) / denom)
            for ell in range(1, 5):
                min_grad = min(min_grad, gf[ell])
                if abs(gf[ell]) <= 1e-12:
                    zero_events.append((tuple(p), tuple(q), ell))
        out[(T, S)] = (worst_rel, min_grad, zero_events, non_finite)
    return out


def non_finite_detail(grid):
    bad = [f"T={T}, S={S} draw {v[3]}" for (T, S), v in grid.items() if v[3] is not None]
    return f"; non-finite gradients at {', '.join(bad)}" if bad else ""


@pytest.fixture(scope="module")
def factorization_grid():
    """Shared by the factorization-identity and gradient-positivity criteria."""
    return factorization_draws()


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


def test_c02_normalizer_positive():
    rng = np.random.default_rng(11)
    worst = np.inf
    for i in range(100_000):
        p, q = rng.random(5), rng.random(5)
        delta = rng.uniform(0.01, 0.99)
        worst = min(worst, finite(state_determinant(p, q, delta, ONES), 2, i))
    report(2, worst > 1e-12, f"normalizer minimum {worst:.3e} over 1e5 draws (must exceed 1e-12)")


def test_c03_resolvent_identity():
    # det(I - delta*M) equals (1 - delta) times the normalizer; the residual
    # is measured relative to the normalizer
    rng = np.random.default_rng(12)
    worst = 0.0
    for i in range(10_000):
        p, q = rng.random(5), rng.random(5)
        delta = rng.uniform(0.01, 0.99)
        m = transition_matrix(p, q)
        direct = det4(tuple(tuple(r) for r in (np.eye(4) - delta * m)))
        d = state_determinant(p, q, delta, ONES)
        worst = max(worst, finite(abs(direct - (1.0 - delta) * d) / abs(d), 3, i))
    report(3, worst < 1e-10, f"resolvent identity worst relative residual {worst:.3e} (tol 1e-10)")


def test_c04_oracle_triangle(main_params):
    rng = np.random.default_rng(13)
    worst = 0.0
    for i in range(1_000):
        p, q = rng.random(5), rng.random(5)
        delta = 0.99 if i == 0 else 0.34 if i == 1 else rng.uniform(0.01, 0.99)
        a = payoff_determinant(p, q, delta, main_params)
        b = payoff_inverse(p, q, delta, main_params)
        c = payoff_series(p, q, delta, main_params, tol=1e-10)
        for u, v in [(a, b), (a, c), (b, c)]:
            worst = max(worst, finite(abs(u.s_x - v.s_x), 4, i), finite(abs(u.s_y - v.s_y), 4, i))
    report(4, worst < 1e-8, f"three-route payoff agreement worst {worst:.3e} (tol 1e-8)")


def test_c05_linear_enforcement(main_params):
    rng = np.random.default_rng(14)
    zd = recover_zd(FIG3_P, 0.99, main_params)
    worst = 0.0
    for i in range(1_000):
        residual = verify_linear_relation(FIG3_P, zd, 0.99, main_params, rng.random(5))
        worst = max(worst, finite(residual, 5, i))
    report(5, worst < 1e-9, f"enforced payoff line worst residual {worst:.3e} (tol 1e-9)")


def test_c06_factorization_identity(factorization_grid):
    worst = max(v[0] for v in factorization_grid.values())
    detail = non_finite_detail(factorization_grid)
    report(
        6,
        worst < 1e-9 and not detail,
        f"factorized vs quotient gradients worst relative error {worst:.3e} "
        f"over 3x1e4 draws (tol 1e-9){detail}",
    )


def test_c07_gradient_positivity(factorization_grid):
    worst_min = min(v[1] for v in factorization_grid.values())
    zero_events = [e for v in factorization_grid.values() for e in v[2]]
    unexplained = [
        (p, q, ell) for p, q, ell in zero_events if not zero_gradient_condition(p, q, ell)
    ]
    detail = non_finite_detail(factorization_grid)
    passed = worst_min >= -1e-12 and not unexplained and not detail
    report(
        7,
        passed,
        f"conditional gradients min {worst_min:.3e} (floor -1e-12); "
        f"{len(zero_events)} exact zeros, {len(unexplained)} without a matching corner pattern"
        f"{detail}",
    )


def test_c08_corner_tables():
    rng = np.random.default_rng(16)
    params = validate_payoffs(1.5, -0.5, strict=True)
    worst = 0.0
    bad = []
    min_t5 = np.inf
    for i in range(100):
        p_any = rng.random(5)
        d_any = rng.uniform(0.05, 0.98)
        reports = table_report(p_any, d_any, params, tables=("1", "2"))
        p_zd, _, d_zd = sample_pczd(rng, params)
        reports += table_report(p_zd, d_zd, params, tables=("3", "4"))
        p_cc, _, d_cc = sample_pczd(rng, params, p0=1.0, kappa=1.0)
        reports += table_report(p_cc, d_cc, params, tables=("5",))
        for r in reports:
            worst = max(worst, finite(r.diff, 8, i))
            if r.diff > 1e-12:
                bad.append(r.label())
        min_t5 = min(min_t5, min(corner_table("5", p_cc, d_cc, params).values()))
    passed = not bad and min_t5 > 0.0
    report(
        8,
        passed,
        f"corner tables worst |closed-direct| {worst:.3e} over 100 draws "
        f"(tol 1e-12); cooperative-enforcer cells min {min_t5:.3e} (must be > 0)",
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


@pytest.mark.parametrize("number", [2, 3, 4, 5, 6, 7, 8, 15])
def test_criterion_fails_on_a_nan_kernel(monkeypatch, capsys, number):
    monkeypatch.setattr(payoffs_mod, "det3", nan_det3)
    params = validate_payoffs(1.5, -0.5, strict=True)
    criterion, *args = {
        2: (test_c02_normalizer_positive,),
        3: (test_c03_resolvent_identity,),
        4: (test_c04_oracle_triangle, params),
        5: (test_c05_linear_enforcement, params),
        6: (test_c06_factorization_identity, factorization_draws()),
        7: (test_c07_gradient_positivity, factorization_draws()),
        8: (test_c08_corner_tables,),
        15: (test_c15_gradient_crosscheck, params),
    }[number]
    with pytest.raises(AssertionError):
        criterion(*args)
    assert f"ACCEPTANCE {number:02d} FAIL" in capsys.readouterr().out
