import hashlib
import math

import numpy as np
import pytest

from zdgame import (
    DomainError,
    InfeasibleError,
    gradient_factorized,
    gradient_quotient,
    payoff_determinant,
    payoff_inverse,
    payoff_series,
    recover_zd,
    series_horizon,
    state_determinant,
    table_report,
    transition_matrix,
    validate_payoffs,
    verify_linear_relation,
    verify_tables,
)
from zdgame import payoffs as payoffs_mod
from zdgame import tables as tables_mod
from zdgame import _native, verify
from zdgame._linalg import det3, det4
from zdgame.cli import main
from zdgame.verify import PropertyResult
from zdgame.zd import sample_pczd
from conftest import ListRng, bits, kernel_forced

PARAMS = validate_payoffs(1.5, -0.5)
ONES = (1.0, 1.0, 1.0, 1.0)
README_VERIFY = ["verify", "--T", "1.5", "--S", "-0.5", "--seed", "0", "--sample-scale", "1.0"]
README_VERIFY_SHA256 = "436fc103e60a863939411cb2b5cad164c25c5d83f64743768d878747b448ef82"


# Draw-by-draw references of the stacked properties: the same seeded
# draws, taken from numpy's own generator, the public float functions, and
# Python's min/max.

def reference_rng(seed, key):
    """numpy's generator of the stream ``verify._rng_for(seed, key)`` draws."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def reference_normalizer_positive(params, seed, n):
    rng = reference_rng(seed, 1)
    worst = float("inf")
    for _ in range(n):
        p = rng.random(5)
        q = rng.random(5)
        d = rng.uniform(0.01, 0.99)
        worst = min(worst, state_determinant(p, q, d, ONES))
    return PropertyResult("normalizer-positive", worst > 1e-12, n, worst, 1e-12, ">")


def reference_regularity_identity(params, seed, n):
    rng = reference_rng(seed, 2)
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
    rng = reference_rng(seed, 5)
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
    rng = reference_rng(seed, 7)
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


def oracle_draws(seed, n):
    """(p, q, delta) of each draw, the first two at delta = 0.99 and 0.34."""
    rng = reference_rng(seed, 3)
    for i in range(n):
        p = rng.random(5)
        q = rng.random(5)
        yield p, q, 0.99 if i == 0 else 0.34 if i == 1 else rng.uniform(0.01, 0.99)


def oracle_residuals(params, seed, n):
    rows = []
    for p, q, d in oracle_draws(seed, n):
        a = payoff_determinant(p, q, d, params)
        b = payoff_inverse(p, q, d, params)
        c = payoff_series(p, q, d, params, tol=1e-10)
        rows.append([abs(a.s_x - b.s_x), abs(a.s_y - b.s_y), abs(a.s_x - c.s_x),
                     abs(a.s_y - c.s_y), abs(b.s_x - c.s_x), abs(b.s_y - c.s_y)])
    return rows


def reference_oracle_triangle(params, seed, n):
    worst = max((r for row in oracle_residuals(params, seed, n) for r in row), default=0.0)
    return PropertyResult("oracle-triangle", worst < 1e-8, n, worst, 1e-8, "<")


def zd_line(params, rng, n):
    """The zd-line property as run_verification runs it: one enforcer,
    then its opponents, from one stream."""
    p, _, d = sample_pczd(rng, params)
    return verify._zd_linear_relation(p, d, params, rng, n)


def zd_line_residuals(params, seed, n):
    rng = reference_rng(seed, 4)
    p, _, d = sample_pczd(rng, params)
    zd = recover_zd(p, d, params)
    return [[verify_linear_relation(p, zd, d, params, rng.random(5))] for _ in range(n)]


def reference_zd_linear_relation(params, seed, n):
    worst = max((row[0] for row in zd_line_residuals(params, seed, n)), default=0.0)
    return PropertyResult("zd-linear-relation", worst < 1e-9, n, worst, 1e-9, "<")


def corner_reports(params, seed, n, sample=sample_pczd):
    """Each round's table_report cells: tables 1-2 on a random p, 1-4 on a
    pcZD p, and 4-5 on one with p0 = p1 = 1 unless ``sample`` raises."""
    rng = reference_rng(seed, 6)
    for _ in range(n):
        p_any = rng.random(5)
        d_any = rng.uniform(0.05, 0.98)
        reports = table_report(p_any, d_any, params, tables=("1", "2"))
        p_zd, _, d_zd = sample(rng, params)
        reports += table_report(p_zd, d_zd, params, tables=("1", "2", "3", "4"))
        try:
            p_cc, _, d_cc = sample(rng, params, p0=1.0, kappa=1.0)
            reports += table_report(p_cc, d_cc, params, tables=("4", "5"))
        except RuntimeError:
            pass
        yield reports


def corner_residuals(params, seed, n):
    return [[r.diff for r in reports] for reports in corner_reports(params, seed, n)]


def reference_corner_tables(params, seed, n, sample=sample_pczd):
    worst = 0.0
    bad = []
    checked = 0
    table5_min = math.inf
    for reports in corner_reports(params, seed, n, sample):
        checked += len(reports)
        worst = max(worst, *(r.diff for r in reports))
        bad += [r.label() for r in reports if not r.diff < tables_mod._TOL]
        for r in reports:
            if r.table == "Table 5":
                table5_min = min(table5_min, r.closed)
                if not r.closed > 0.0:
                    bad.append(f"{r.label()} closed={r.closed:.3e} is not positive")
    return PropertyResult("corner-tables", not bad, checked, worst, tables_mod._TOL, "<",
                          bad[:20], {"Table 5 min": table5_min})


# property, its reference, the key of its stream in run_verification
STACKED = {
    "normalizer-positive": (verify._normalizer_positive, reference_normalizer_positive, 1),
    "regularity-identity": (verify._regularity_identity, reference_regularity_identity, 2),
    "oracle-triangle": (verify._oracle_triangle, reference_oracle_triangle, 3),
    "zd-linear-relation": (zd_line, reference_zd_linear_relation, 4),
    "factorization-and-signs": (verify._factorization_and_signs,
                                reference_factorization_and_signs, 5),
    "corner-tables": (verify._corner_tables, reference_corner_tables, 6),
    "fd-analytic-match": (verify._fd_analytic_match, reference_fd_analytic_match, 7),
}

# the draw-by-draw residuals of the unchunked properties, one row per draw
RESIDUALS = {
    "oracle-triangle": oracle_residuals,
    "zd-linear-relation": zd_line_residuals,
    "corner-tables": corner_residuals,
}


def assert_same_results(stacked, reference):
    stacked = stacked if isinstance(stacked, tuple) else (stacked,)
    reference = reference if isinstance(reference, tuple) else (reference,)
    assert stacked == reference
    assert bits([r.worst for r in stacked]) == bits([r.worst for r in reference])
    for s, r in zip(stacked, reference):
        assert bits([s.extra[k] for k in r.extra]) == bits(list(r.extra.values()))


# (chunk, samples): one draw, chunk - 1, chunk, chunk + 1 and three whole
# chunks on a small chunk, the boundary on a mid-size one, then one past
# the module's own chunk size
CHUNK_COUNTS = [(4, 1), (4, 3), (4, 4), (4, 5), (4, 12), (256, 256), (256, 257),
                (verify._CHUNK, verify._CHUNK + 1)]


@pytest.mark.parametrize("name", sorted(STACKED))
@pytest.mark.parametrize("chunk, n", CHUNK_COUNTS)
def test_stacked_property_equals_draw_by_draw_loop(monkeypatch, name, chunk, n):
    monkeypatch.setattr(verify, "_CHUNK", chunk)
    prop, reference, key = STACKED[name]
    result = prop(PARAMS, verify._rng_for(3, key), n)
    assert_same_results(result, reference(PARAMS, 3, n))


# the properties whose draws take the compiled pass or the numpy passes
RESIDUAL_PROPERTIES = ["normalizer-positive", "regularity-identity"]


@pytest.mark.usefixtures("kernel")
@pytest.mark.parametrize("name", RESIDUAL_PROPERTIES)
@pytest.mark.parametrize("chunk, n", CHUNK_COUNTS)
def test_residual_property_equals_draw_by_draw_loop_on_both_routes(monkeypatch, name, chunk, n):
    test_stacked_property_equals_draw_by_draw_loop(monkeypatch, name, chunk, n)


@pytest.fixture
def folded(monkeypatch):
    """The residuals that each property folds into its worst value."""
    seen = []
    add = verify._Worst.add

    def record(self, residuals, first_draw=0):
        seen.append(np.array(residuals, dtype=float).reshape(np.shape(residuals)[0], -1))
        return add(self, residuals, first_draw)

    monkeypatch.setattr(verify._Worst, "add", record)
    return seen


@pytest.mark.parametrize("name", sorted(RESIDUALS))
@pytest.mark.parametrize("n", [1, 2, 3, 40])
def test_every_residual_equals_draw_by_draw(folded, name, n):
    """Bit for bit, not only the worst; n = 1, 2 and 3 take the oracle
    stream through both pinned discounts and the first drawn one."""
    prop, _, key = STACKED[name]
    prop(PARAMS, verify._rng_for(3, key), n)
    rows = RESIDUALS[name](PARAMS, 3, n)
    # a corner-tables round without a p0 = p1 = 1 enforcer pads with 0.0
    width = max(map(len, rows))
    assert bits(np.concatenate(folded)) == bits([row + [0.0] * (width - len(row)) for row in rows])


def test_fd_analytic_match_passes_on_documented_command():
    # the draws of `zdgame verify --T 1.5 --S -0.5 --seed 0 --sample-scale 1.0`
    result = verify._fd_analytic_match(validate_payoffs(1.5, -0.5), verify._rng_for(0, 7), 1000)
    assert result.passed, result.line()
    assert result.samples == 1000


def test_documented_report_is_unchanged(tmp_path):
    out = tmp_path / "verify.txt"
    assert main([*README_VERIFY, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == README_VERIFY_SHA256


@pytest.mark.usefixtures("kernel")
@pytest.mark.parametrize("seed, sha256", [
    (1, "273c98e19716ddf8bd64aa89c84fc69336ce8670407c909a195da6b46cff3b78"),
    (2, "5076de5fe80f5af11383f023a19e1dbe56e79951e2f2b7a5472cecab40df753c"),
    (3, "1651036cddaa6f6953d0e90739973827f3857fecebc30a67ba5f321f04583e9c"),
])
def test_wide_reports_are_unchanged_on_both_routes(tmp_path, seed, sha256):
    out = tmp_path / "verify.txt"
    argv = ["verify", "--T", "2.0", "--S", "-0.1", "--sample-scale", "0.3", "--seed", str(seed)]
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


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


def test_a_cell_at_exactly_the_tolerance_fails_corner_tables_by_name(monkeypatch):
    # Table 3's first cell, checked on the pcZD strategy of each round,
    # mismatches by exactly the tolerance
    report = verify._report

    def at_tolerance(which, pt, delta, theta):
        cells = report(which, pt, delta, theta)
        if which == "3":
            cells[0] = cells[0]._replace(diff=np.full(np.shape(cells[0].diff), tables_mod._TOL))
        return cells

    monkeypatch.setattr(verify, "_report", at_tolerance)
    result = verify._corner_tables(PARAMS, verify._rng_for(3, 6), 2)
    assert not result.passed and result.worst == tables_mod._TOL
    assert result.details == ["Table 3 (0,0,0) d1"] * 2


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None, np.int64(-1)])
def test_run_verification_rejects_bad_seed(seed):
    with pytest.raises(DomainError, match="^seed must be a non-negative integer"):
        verify.run_verification(PARAMS, seed=seed, scale=0.002)


# 1e304 overflows only the largest base, normalizer-positive's 100 000
@pytest.mark.parametrize("scale", [1e308, 1e304])
def test_run_verification_rejects_a_non_finite_sample_count(monkeypatch, scale):
    def never(*args):
        raise AssertionError("a property ran")

    for name in ("_normalizer_positive", "_regularity_identity", "_oracle_triangle"):
        monkeypatch.setattr(verify, name, never)
    with pytest.raises(DomainError, match="sample"):
        verify.run_verification(PARAMS, seed=0, scale=scale)


@pytest.mark.usefixtures("kernel")
@pytest.mark.parametrize("seed, key, name", [
    (-1, 1, "seed"), (1.5, 1, "seed"), (True, 1, "seed"),
    (0, -1, "key"), (0, 1.5, "key"), (0, True, "key"),
])
def test_a_stream_rejects_bad_arguments_on_both_routes(seed, key, name):
    """The library's stream and numpy's generator are refused alike: a
    negative seed is never masked into 32-bit words."""
    with pytest.raises(DomainError, match=f"^{name} must be a non-negative integer"):
        verify._rng_for(seed, key)


class StreamContract:
    """A numpy generator seen through the stream contract alone: ``random``
    and ``bit_generator``."""

    def __init__(self, rng):
        self.random, self.bit_generator = rng.random, rng.bit_generator


def walk_bits(rng):
    cols, rejected = verify._walk(rng, 7, PARAMS)
    return bits(cols), rejected


# each reader of pcZD enforcers, as a function of its stream, with its
# result as exact text or bytes
ENFORCER_READERS = {
    "sample_pczd": lambda rng: repr(sample_pczd(rng, PARAMS)),
    "sample_pczd fixed": lambda rng: repr(sample_pczd(rng, PARAMS, delta=0.9, p0=1.0, kappa=1.0)),
    "_walk": walk_bits,
    "_factorization_and_signs": lambda rng: repr(verify._factorization_and_signs(PARAMS, rng, 40)),
    "_corner_tables": lambda rng: repr(verify._corner_tables(PARAMS, rng, 3)),
}


@pytest.mark.usefixtures("kernel")
@pytest.mark.parametrize("name", sorted(ENFORCER_READERS))
def test_enforcers_read_a_stream_through_random_and_bit_generator_alone(name):
    """The same results, bit for bit, and the same generator state after,
    on the bare generator and on one that offers nothing but the contract."""
    bare, narrow = np.random.default_rng(7), np.random.default_rng(7)
    read = ENFORCER_READERS[name]
    assert read(StreamContract(narrow)) == read(bare)
    assert narrow.bit_generator.state == bare.bit_generator.state


def test_run_verification_takes_a_numpy_seed():
    lines = [[r.line() for r in verify.run_verification(PARAMS, seed=seed, scale=0.002)]
             for seed in (np.int64(3), 3)]
    assert lines[0] == lines[1]


# --- residuals that are not finite ---------------------------------------------

def nan_det3(*rows):
    return det3(*rows) * math.nan


def nan_kernel(monkeypatch):
    """A NaN ``det3``, which every property's Python route calls, and a
    NaN first value of the normalizer and regularity streams, which both
    routes of those two read: their compiled pass calls no ``det3``."""
    monkeypatch.setattr(payoffs_mod, "det3", nan_det3)
    rng_for = verify._rng_for
    monkeypatch.setattr(verify, "_rng_for", lambda seed, k: (
        ListRng([math.nan]) if k in (1, 2) else rng_for(seed, k)))


@pytest.mark.usefixtures("kernel")
def test_every_property_fails_on_a_nan_kernel(monkeypatch):
    nan_kernel(monkeypatch)
    results = verify.run_verification(PARAMS, seed=3, scale=0.002)
    assert len(results) == 8
    for r in results:
        assert not r.passed, r.line()
        assert "non-finite residual at draw 0" in r.details, r.line()
        assert math.isnan(r.worst)


@pytest.mark.usefixtures("kernel")
def test_verify_exits_3_on_a_nan_kernel(monkeypatch, capsys):
    nan_kernel(monkeypatch)
    assert main(["verify", "--T", "1.5", "--S", "-0.5", "--seed", "3",
                 "--sample-scale", "0.002"]) == 3
    assert "FAILED: normalizer-positive, regularity-identity" in capsys.readouterr().out


def test_non_finite_residual_names_its_draw(monkeypatch):
    """A NaN in one column of the second chunk fails the property at that
    draw, though the other residuals all pass.  Only the numpy passes call
    ``det3``; :func:`test_a_non_finite_draw_names_its_draw` puts the NaN
    where both routes meet it."""
    monkeypatch.setattr(verify, "_CHUNK", 4)
    calls = []

    def one_nan_column(*rows):
        out = det3(*rows)
        calls.append(1)
        if len(calls) == 5:  # the first of the second chunk's four calls
            out[1] = math.nan
        return out

    monkeypatch.setattr(payoffs_mod, "det3", one_nan_column)
    with kernel_forced("python"):
        result = verify._normalizer_positive(PARAMS, verify._rng_for(3, 1), 10)
    assert not result.passed
    assert result.details == ["non-finite residual at draw 5"]
    assert math.isnan(result.worst)


@pytest.mark.usefixtures("kernel")
@pytest.mark.parametrize("name", RESIDUAL_PROPERTIES)
def test_a_non_finite_draw_names_its_draw(monkeypatch, name):
    """A NaN value in the second chunk's second draw, p3 of draw 5, fails
    the property at that draw on both routes, though the other residuals
    all pass."""
    monkeypatch.setattr(verify, "_CHUNK", 4)
    prop, _, key = STACKED[name]
    u = verify._rng_for(3, key).random(10 * 11)
    u[5 * 11 + 3] = math.nan
    result = prop(PARAMS, ListRng(u), 10)
    assert not result.passed
    assert result.details == ["non-finite residual at draw 5"]
    assert math.isnan(result.worst)


def oracle_horizon_order(n):
    """The draws of the oracle stream, longest series horizon first."""
    horizons = [series_horizon(d, PARAMS, 1e-10) for _, _, d in oracle_draws(3, n)]
    return sorted(range(n), key=lambda i: -horizons[i])


# the draw with the second-longest series horizon is summed on floats, the
# one with the shortest on the arrays
@pytest.mark.parametrize("rank", [1, -1])
def test_non_finite_series_residual_names_its_draw(monkeypatch, rank):
    n = 100
    order = oracle_horizon_order(n)
    draw = order[rank]
    assert order.index(draw) != draw  # the sort moved it
    series = verify._series_payoffs

    def one_nan_draw(p, q, d, params, tol):
        q = q.copy()
        q[1, draw] = math.nan
        return series(p, q, d, params, tol)

    monkeypatch.setattr(verify, "_series_payoffs", one_nan_draw)
    result = verify._oracle_triangle(PARAMS, verify._rng_for(3, 3), n)
    assert not result.passed
    assert result.details == [f"non-finite residual at draw {draw}"]
    assert math.isnan(result.worst)


@pytest.mark.usefixtures("kernel")
def test_corner_tables_align_a_round_without_cooperative_enforcer(monkeypatch):
    """The p0 = p1 = 1 draw of round 1 finds no enforcer, so that round
    lacks tables 4-5; Table 5 negated and one Table 4 cell shifted put
    every round's mismatches and non-positive cells in the details.  The
    fault is put into both routes' pcZD walks, ``_native.pczd``'s and
    ``verify._walk``, and reads no value of the stream, as in the
    reference."""
    negated = {k: (lambda c, f=f: -f(c)) for k, f in tables_mod.TABLE5.items()}
    monkeypatch.setattr(tables_mod, "TABLE5", negated)
    spec = tables_mod._SPECS["5"]
    monkeypatch.setitem(tables_mod._SPECS, "5",
                        spec._replace(direct=lambda *args: -spec.direct(*args)))
    shifted = dict(tables_mod.TABLE4)
    corner = (0, 1, 1, 0)
    shifted[corner] = lambda c, f=shifted[corner]: f(c) + 1e-6
    monkeypatch.setattr(tables_mod, "TABLE4", shifted)

    def flaky(draw, no_draw):
        calls = []

        def sample(rng, params, **fixed):
            if fixed:
                calls.append(1)
                if len(calls) == 2:
                    return no_draw()
            return draw(rng, params, **fixed)

        return sample

    def raises():
        raise RuntimeError("no feasible pcZD draw")

    pczd, walk, calls = _native.pczd, verify._walk, []

    def unless_second_fixed(p0, take):
        """``take()``, but the second draw with p0 fixed finds no enforcer."""
        if p0 is not None:
            calls.append(1)
            if len(calls) == 2:
                return np.empty((6, 0)), 0
        return take()

    def flaky_pczd(rng, size, params, p0=None, *args):
        compiled = pczd(rng, size, params, p0, *args)
        return compiled and (lambda n: unless_second_fixed(p0, lambda: compiled(n)))

    def flaky_walk(rng, n, params, p0=None, **kwargs):
        return unless_second_fixed(p0, lambda: walk(rng, n, params, p0, **kwargs))

    monkeypatch.setattr(_native, "pczd", flaky_pczd)
    monkeypatch.setattr(verify, "_walk", flaky_walk)
    result = verify._corner_tables(PARAMS, verify._rng_for(3, 6), 3)
    reference = reference_corner_tables(PARAMS, 3, 3, flaky(sample_pczd, raises))
    assert_same_results(result, reference)
    assert result.samples == 232 + 208 + 232
    t4 = "Table 4 (0,1,1,0) d0"
    t5 = [f"Table 5 ({a},{b},{c}) d0" for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    rounds = [t4, t4, *t5, t4, t4, t4, *t5]
    assert [d.split(" closed=")[0] for d in result.details] == rounds[:20]
    assert result.extra["Table 5 min"] < 0.0


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


@pytest.mark.parametrize("p, delta", [
    ((0.0, 0.75, 0.25, 0.5, 0.0), 1.5),
    ((0.0, 0.75, 0.25, 0.5, 0.0), math.nan),
    ((0.0, 0.75, 0.25, 0.5), 0.99),
])
def test_applicable_tables_rejects_bad_input(p, delta):
    with pytest.raises(DomainError):
        tables_mod.applicable_tables(p, delta, PARAMS)


def test_applicable_tables_counts_a_failed_fit_as_not_zd(monkeypatch):
    def no_fit(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(tables_mod, "recover_zd", no_fit)
    assert tables_mod.applicable_tables((0.0, 0.75, 0.25, 0.5, 0.0), 0.99, PARAMS) == ("1", "2")
