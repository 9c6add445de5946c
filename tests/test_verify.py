import hashlib
import math

import numpy as np
import pytest

from zdgame import (
    InfeasibleError,
    gradient_factorized,
    gradient_quotient,
    payoff_determinant,
    state_determinant,
    transition_matrix,
    validate_payoffs,
    verify_tables,
)
from zdgame import payoffs as payoffs_mod
from zdgame import tables as tables_mod
from zdgame import verify
from zdgame._linalg import det3, det4
from zdgame.cli import main
from zdgame.verify import PropertyResult
from zdgame.zd import sample_pczd
from conftest import bits

PARAMS = validate_payoffs(1.5, -0.5)
ONES = (1.0, 1.0, 1.0, 1.0)
README_VERIFY = ["verify", "--T", "1.5", "--S", "-0.5", "--seed", "0", "--sample-scale", "1.0"]
README_VERIFY_SHA256 = "436fc103e60a863939411cb2b5cad164c25c5d83f64743768d878747b448ef82"


# Draw-by-draw references of the stacked properties: the same seeded
# draws, the public float functions, and Python's min/max.

def reference_normalizer_positive(params, seed, n):
    rng = verify._rng_for(seed, 1)
    worst = float("inf")
    for _ in range(n):
        p = rng.random(5)
        q = rng.random(5)
        d = rng.uniform(0.01, 0.99)
        worst = min(worst, state_determinant(p, q, d, ONES))
    return PropertyResult("normalizer-positive", worst > 1e-12, n, worst, 1e-12, ">")


def reference_regularity_identity(params, seed, n):
    rng = verify._rng_for(seed, 2)
    worst = 0.0
    for _ in range(n):
        p = rng.random(5)
        q = rng.random(5)
        d = rng.uniform(0.01, 0.99)
        m = transition_matrix(p, q)
        lhs = det4(tuple(tuple(row) for row in (np.eye(4) - d * m)))
        d_ones = state_determinant(p, q, d, ONES)
        worst = max(worst, abs(lhs - (1.0 - d) * d_ones) / abs(d_ones))
    return PropertyResult("regularity-identity", worst < 1e-10, n, worst, 1e-10, "<")


def reference_factorization_and_signs(params, seed, n):
    rng = verify._rng_for(seed, 5)
    worst_rel = 0.0
    min_grad = float("inf")
    rejections = 0
    for _ in range(n):
        while True:
            try:
                p, _, d = sample_pczd(rng, params, tries=1)
                break
            except (RuntimeError, InfeasibleError):
                rejections += 1
        q = rng.random(5)
        gq = gradient_quotient(p, q, d, params, payoff="x")
        gf, _ = gradient_factorized(p, q, d, params)
        for j in range(5):
            denom = max(abs(gq[j]), abs(gf[j]))
            if denom > 0.0:
                worst_rel = max(worst_rel, abs(gq[j] - gf[j]) / denom)
        min_grad = min(min_grad, gf.g1, gf.g2, gf.g3, gf.g4)
    match = PropertyResult(
        "factorization-match", worst_rel < 1e-9, n, worst_rel, 1e-9, "<",
        details=[f"construction rejections: {rejections}"],
    )
    nonneg = PropertyResult("gradient-nonnegative", min_grad >= -1e-12, n, min_grad, -1e-12, ">=")
    return match, nonneg


def reference_central_difference(p, q, d, params, j, h):
    plus = q.copy()
    minus = q.copy()
    plus[j] += h
    minus[j] -= h
    return (
        payoff_determinant(p, plus, d, params).s_y - payoff_determinant(p, minus, d, params).s_y
    ) / (2.0 * h)


def reference_fd_analytic_match(params, seed, n):
    rng = verify._rng_for(seed, 7)
    h = 1e-3
    worst = 0.0
    for _ in range(n):
        p = rng.random(5)
        q = rng.random(5)
        d = rng.uniform(0.05, 0.95)
        g = gradient_quotient(p, q, d, params, payoff="y")
        for j in range(5):
            if abs(g[j]) <= 1e-6:
                continue
            fd = (
                4.0 * reference_central_difference(p, q, d, params, j, h / 2)
                - reference_central_difference(p, q, d, params, j, h)
            ) / 3.0
            worst = max(worst, abs(fd - g[j]) / abs(g[j]))
    return PropertyResult("fd-analytic-match", worst < 1e-7, n, worst, 1e-7, "<")


# property, its reference, the key of its stream in run_verification
STACKED = {
    "normalizer-positive": (verify._normalizer_positive, reference_normalizer_positive, 1),
    "regularity-identity": (verify._regularity_identity, reference_regularity_identity, 2),
    "factorization-and-signs": (verify._factorization_and_signs,
                                reference_factorization_and_signs, 5),
    "fd-analytic-match": (verify._fd_analytic_match, reference_fd_analytic_match, 7),
}


def assert_same_results(stacked, reference):
    stacked = stacked if isinstance(stacked, tuple) else (stacked,)
    reference = reference if isinstance(reference, tuple) else (reference,)
    assert stacked == reference
    assert bits([r.worst for r in stacked]) == bits([r.worst for r in reference])


# (chunk, samples): one draw, chunk - 1, chunk, chunk + 1 and three whole
# chunks on a small chunk, then the boundary on the module's own chunk size
CHUNK_COUNTS = [(4, 1), (4, 3), (4, 4), (4, 5), (4, 12),
                (verify._CHUNK, verify._CHUNK), (verify._CHUNK, verify._CHUNK + 1)]


@pytest.mark.parametrize("name", sorted(STACKED))
@pytest.mark.parametrize("chunk, n", CHUNK_COUNTS)
def test_stacked_property_equals_draw_by_draw_loop(monkeypatch, name, chunk, n):
    monkeypatch.setattr(verify, "_CHUNK", chunk)
    prop, reference, key = STACKED[name]
    result = prop(PARAMS, verify._rng_for(3, key), n)
    assert_same_results(result, reference(PARAMS, 3, n))


def test_fd_analytic_match_passes_on_documented_command():
    # the draws of `zdgame verify --T 1.5 --S -0.5 --seed 0 --sample-scale 1.0`
    result = verify._fd_analytic_match(validate_payoffs(1.5, -0.5), verify._rng_for(0, 7), 1000)
    assert result.passed, result.line()
    assert result.samples == 1000


def test_documented_report_is_unchanged(tmp_path):
    out = tmp_path / "verify.txt"
    assert main([*README_VERIFY, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == README_VERIFY_SHA256


# --- checks beyond the worst residual ------------------------------------------

def with_exact_zero(monkeypatch, draw, ell):
    """Make the factored gradient's q_ell component an exact 0 at ``draw``."""
    factorized = verify._gradient_factorized

    def patched(*args):
        grads, *rest = factorized(*args)
        grads[ell][draw] = 0.0
        return (grads, *rest)

    monkeypatch.setattr(verify, "_gradient_factorized", patched)


def test_exact_zero_off_the_corner_patterns_fails_gradient_nonnegative(monkeypatch):
    with_exact_zero(monkeypatch, draw=4, ell=2)
    _, nonneg = verify._factorization_and_signs(PARAMS, verify._rng_for(3, 5), 6)
    assert nonneg.worst == 0.0
    assert not nonneg.passed
    assert nonneg.details == ["zero gradient in q2 at draw 4 matches no corner pattern"]
    assert nonneg.extra == {"exact zeros": 1}


def test_exact_zero_at_a_corner_pattern_passes(monkeypatch):
    with_exact_zero(monkeypatch, draw=4, ell=2)
    calls = []
    monkeypatch.setattr(verify, "zero_gradient_condition",
                        lambda p, q, ell: calls.append(ell) or True)
    _, nonneg = verify._factorization_and_signs(PARAMS, verify._rng_for(3, 5), 6)
    assert nonneg.passed and nonneg.details == []
    assert calls == [2]


def test_table5_cell_that_is_not_positive_fails_corner_tables(monkeypatch):
    # negate Table 5's closed forms and direct values alike: every cell
    # still matches, but none is positive
    negated = {k: (lambda c, f=f: -f(c)) for k, f in tables_mod.TABLE5.items()}
    monkeypatch.setattr(tables_mod, "TABLE5", negated)
    spec = tables_mod._SPECS["5"]
    monkeypatch.setitem(tables_mod._SPECS, "5",
                        spec._replace(direct=lambda *args: -spec.direct(*args)))
    result = verify._corner_tables(PARAMS, verify._rng_for(3, 6), 2)
    assert result.samples == 2 * 232 and result.worst < 1e-12
    assert not result.passed
    assert len(result.details) == 2 * 8
    assert result.details[0].startswith("Table 5 (0,0,0) d0 closed=-")
    assert result.details[0].endswith(" is not positive")
    assert result.extra["Table 5 min"] < 0.0


# --- residuals that are not finite ---------------------------------------------

def nan_det3(*rows):
    return det3(*rows) * math.nan


def test_every_property_fails_on_a_nan_kernel(monkeypatch):
    monkeypatch.setattr(payoffs_mod, "det3", nan_det3)
    results = verify.run_verification(PARAMS, seed=3, scale=0.002)
    assert len(results) == 8
    for r in results:
        assert not r.passed, r.line()
        assert "non-finite residual at draw 0" in r.details, r.line()
        assert math.isnan(r.worst)


def test_verify_exits_3_on_a_nan_kernel(monkeypatch, capsys):
    monkeypatch.setattr(payoffs_mod, "det3", nan_det3)
    assert main(["verify", "--T", "1.5", "--S", "-0.5", "--seed", "3",
                 "--sample-scale", "0.002"]) == 3
    assert "FAILED: normalizer-positive, regularity-identity" in capsys.readouterr().out


def test_non_finite_residual_names_its_draw(monkeypatch):
    """A NaN in one column of the second chunk fails the property at that
    draw, though the other residuals all pass."""
    monkeypatch.setattr(verify, "_CHUNK", 4)
    calls = []

    def one_nan_column(*rows):
        out = det3(*rows)
        calls.append(1)
        if len(calls) == 5:  # the first of the second chunk's four calls
            out[1] = math.nan
        return out

    monkeypatch.setattr(payoffs_mod, "det3", one_nan_column)
    result = verify._normalizer_positive(PARAMS, verify._rng_for(3, 1), 10)
    assert not result.passed
    assert result.details == ["non-finite residual at draw 5"]
    assert math.isnan(result.worst)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_worst_fails_on_non_finite_values(value):
    worst = verify._Worst("p", 1.0, "<")
    worst.add([[0.5, 0.1], [0.2, 0.3]], 10)
    worst.add([[0.5, 0.1], [0.2, value], [value, 0.0]], 12)
    worst.add([[0.7, 0.1]], 15)
    result = worst.result(16)
    assert not result.passed
    assert result.details == ["non-finite residual at draw 13"]
    assert bits([result.worst]) == bits([value])


def test_worst_keeps_the_first_of_equal_values():
    worst = verify._Worst("p", -1.0, ">=")
    worst.add([0.0, -0.0, 0.0])
    worst.add([-0.0])
    assert bits([worst.result(4).worst]) == bits([0.0])


def test_tables_fail_on_a_nan_kernel(monkeypatch, tmp_path):
    monkeypatch.setattr(payoffs_mod, "det3", nan_det3)
    p, delta = (0.0, 0.75, 0.25, 0.5, 0.0), 0.99
    assert verify_tables(p, delta, PARAMS, tables=("1", "2"))
    code = main(["tables", "--T", "1.5", "--S", "-0.5", "--delta", str(delta),
                 "--p", ",".join(map(str, p)), "--out", str(tmp_path / "tables.txt")])
    assert code == 3


def test_applicable_tables_lets_unexpected_errors_through(monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("bug in recover_zd")

    monkeypatch.setattr(tables_mod, "recover_zd", broken)
    with pytest.raises(ZeroDivisionError):
        tables_mod.applicable_tables((0.0, 0.75, 0.25, 0.5, 0.0), 0.99, PARAMS)


def test_applicable_tables_counts_a_failed_fit_as_not_zd(monkeypatch):
    def no_fit(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(tables_mod, "recover_zd", no_fit)
    assert tables_mod.applicable_tables((0.0, 0.75, 0.25, 0.5, 0.0), 0.99, PARAMS) == ("1", "2")
