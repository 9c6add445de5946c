import numpy as np
import pytest

from zdgame import (
    DomainError,
    applicable_tables,
    corner_table,
    minor_dets,
    reduced_det_q0,
    reduced_dets,
    sample_pczd,
    state_determinant,
    table_report,
    validate_payoffs,
    verify_tables,
)
from zdgame import tables as tables_mod
from conftest import PCZD_A, PCZD_C, PCZD_D, bits, draw_columns


def test_generic_strategies_match_tables_1_and_2(params_main, rng):
    for _ in range(30):
        p = rng.random(5)
        delta = rng.uniform(0.05, 0.98)
        assert verify_tables(p, delta, params_main, tables=("1", "2")) == []


def test_enforcers_match_all_tables(rng):
    for T, S in [(1.5, -0.5), (2.0, -0.1), (1.1, -1.0)]:
        params = validate_payoffs(T, S, strict=True)
        for _ in range(20):
            p, _, delta = sample_pczd(rng, params)
            assert verify_tables(p, delta, params, tables=("1", "2", "3", "4")) == []


def test_cooperative_enforcers_match_table_5(params_main, rng):
    for _ in range(20):
        p, _, delta = sample_pczd(rng, params_main, p0=1.0, kappa=1.0)
        mismatches = verify_tables(p, delta, params_main, tables=("5",))
        assert mismatches == []
        # every cell positive: ascent cannot stall before full mutual cooperation
        for value in corner_table("5", p, delta, params_main).values():
            assert value > 0.0


def test_table3_needs_the_enforcer_relation(params_main, rng):
    # a generic opponent violates the simplified closed forms
    found = False
    for _ in range(20):
        p = rng.random(5)
        if verify_tables(p, 0.8, params_main, tables=("3",)):
            found = True
            break
    assert found


def test_applicable_tables_gates_on_strategy_kind(params_main, rng):
    assert applicable_tables(PCZD_A[0], PCZD_A[1], params_main) == ("1", "2", "3", "4")
    assert applicable_tables(rng.random(5), 0.9, params_main) == ("1", "2")
    p, _, delta = sample_pczd(rng, params_main, p0=1.0, kappa=1.0)
    assert applicable_tables(p, delta, params_main) == ("1", "2", "3", "4", "5")


def test_report_covers_every_cell(params_main):
    p, delta, _ = PCZD_A
    report = table_report(p, delta, params_main, tables=("1", "2", "3", "4"))
    counts = {}
    for r in report:
        counts[r.table] = counts.get(r.table, 0) + 1
    assert counts == {"Table 1": 16, "Table 2": 64, "Table 3": 32, "Table 4": 16}


def test_normalizer_table_spot_values(params_main):
    # all-conditional-ones corner reduces to 1 - delta*p1 + delta*p3
    p, delta, _ = PCZD_A
    values = corner_table("1", p, delta, params_main)
    assert values[(1, 1, 1, 1)] == pytest.approx(1 - delta * p[1] + delta * p[3], abs=1e-15)
    assert values[(0, 0, 0, 0)] == pytest.approx(1 - delta * p[2] + delta * p[4], abs=1e-15)


def test_minor_table_spot_values(params_main):
    # at the all-ones corner the first minor column reads delta*p3 + (1-delta)*p0
    p, delta, _ = PCZD_C
    cells = corner_table("2", p, delta, params_main)[(1, 1, 1, 1)]
    assert cells[0] == pytest.approx(delta * p[3] + (1 - delta) * p[0], abs=1e-15)
    assert cells[2] == 0.0
    assert cells[3] == 0.0


def test_reduced_table_spot_values(params_main):
    # the all-ones corner of the reduced determinants: hat(p) + (2-theta)*p
    p, delta, _ = PCZD_A
    cells = corner_table("3", p, delta, params_main)[(1, 1, 1)]
    tm2 = 2.0 - params_main.theta
    assert cells[0] == pytest.approx((1 - p[1]) + tm2 * p[1], abs=1e-15)
    assert cells[3] == pytest.approx((1 - p[4]) + tm2 * p[4], abs=1e-15)


def test_first_round_table_spot_value(params_main):
    p, delta, _ = PCZD_C
    cells = corner_table("4", p, delta, params_main)
    tm2 = 2.0 - params_main.theta
    assert cells[(1, 1, 1, 1)] == pytest.approx(tm2 * p[0] + (1 - p[0]), abs=1e-15)


def test_verify_names_the_flipped_cell(params_main, monkeypatch):
    # flip one closed-form cell and expect the verifier to name it
    broken = dict(tables_mod.TABLE3)
    original = broken[(0, 0, 1)]
    broken[(0, 0, 1)] = (original[0], lambda c: -original[1](c), original[2], original[3])
    monkeypatch.setattr(tables_mod, "TABLE3", broken)
    p, delta, _ = PCZD_A
    assert verify_tables(p, delta, params_main, tables=("3",))[0].label() == \
        "Table 3 (0,0,1) d2"


def test_cell_report_label_format(params_main):
    p, delta, _ = PCZD_A
    report = table_report(p, delta, params_main, tables=("1",))
    assert report[0].label() == "Table 1 (0,0,0,0) D"


# --- direct values against the public scalar functions ----------------------

# the q at which the cell of column ell at corner k is evaluated: the free
# entries at 0.5 (tables 1-2) or q0 = 0.3 and q_ell = 0.7 (tables 3-5)
PLACED = {
    "1": lambda k, ell: (0.5, *k),
    "2": lambda k, ell: (*k[:ell], 0.5, *k[ell:]),
    "3": lambda k, ell: (0.3, *k[:ell - 1], 0.7, *k[ell - 1:]),
    "4": lambda k, ell: (0.3, *k),
    "5": lambda k, ell: (0.3, 1.0, *k),
}


def public_direct(which, p, delta, params, corner, column):
    """A cell's direct value from the public scalar functions at its placed
    q, with the sign ``(-1)**ell`` of its printed column."""
    ell = int(column[1:] or 0)
    q = PLACED[which](corner, ell)
    if which == "1":
        value = state_determinant(p, q, delta, (1.0, 1.0, 1.0, 1.0))
    elif which == "2":
        value = minor_dets(p, q, delta)[ell - 1]
    elif which == "3":
        value = reduced_dets(p, q, delta, params)[ell - 1]
    else:
        value = reduced_det_q0(p, q, delta, params)
    return -value if ell % 2 else value


@pytest.mark.parametrize("which", ["1", "2", "3", "4", "5"])
def test_each_cell_is_the_public_value_at_its_q(params_main, which):
    """Each column is one pass over all the corners; on floats every cell
    holds the float that the public function gives at its own q, bit for
    bit."""
    for p, delta, _ in (PCZD_A, PCZD_C, PCZD_D, ((0.0, 1.0, -0.0, 0.25, 1.0), 0.05, None)):
        for r in table_report(p, delta, params_main, tables=(which,)):
            assert type(r.direct) is float and type(r.diff) is float
            want = public_direct(which, p, delta, params_main, r.corner, r.column)
            assert bits(r.direct) == bits(want), r.label()


@pytest.mark.parametrize("which", ["1", "2", "3", "4", "5"])
def test_each_array_cell_is_the_public_value_per_strategy(params_main, which):
    """On arrays, element i of every cell is the public function's float at
    strategy i."""
    rng = np.random.default_rng(8)
    p, delta = draw_columns(rng, 9), rng.uniform(0.05, 0.98, 9)
    for r in tables_mod._report(which, p, delta, params_main.theta):
        want = [public_direct(which, p[:, i], delta[i], params_main, r.corner, r.column)
                for i in range(9)]
        assert bits(r.direct) == bits(want), r.label()


@pytest.mark.parametrize("which", ["9", "0", "", "Table 1"])
@pytest.mark.parametrize("entry", ["corner_table", "table_report"])
def test_an_unknown_table_is_a_domain_error(params_main, entry, which):
    p, delta, _ = PCZD_A
    with pytest.raises(DomainError) as info:
        if entry == "corner_table":
            corner_table(which, p, delta, params_main)
        else:
            table_report(p, delta, params_main, tables=(which,))
    assert str(info.value) == f'table must be one of "1".."5", got {which!r}'
