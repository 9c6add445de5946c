"""Tests of the benchmark's own checks: each accepts the program's real
output and rejects a corrupted copy of it.

    python3 -m pytest bench/test_checks.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from zdgame import cli  # noqa: E402  (outputs to corrupt come from the program)

MAIN = dict(p=(0.0, 0.75, 0.25, 0.5, 0.0), delta=0.99, T=1.5, S=-0.5)
WIDE = dict(p=(0.75, 1.0, 0.0, 0.069 / 0.51, 0.0), delta=0.51, T=2.0, S=-0.1)
SWEEP_B_P = (0.750, 1.0, 0.0, 0.135, 0.0)  # the acceptance suite's rounded enforcer
SEED = 2024
VERIFY_SCALE = 0.01


def _p_text(p):
    return ",".join(format(v, ".17g") for v in p)


def _sweep(tmp_path, game, n_paths, *extra):
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--T", str(game["T"]), "--S", str(game["S"]),
                     "--delta", str(game["delta"]), "--p", _p_text(game["p"]),
                     "--seed", str(SEED), "--n-paths", str(n_paths), "--out", str(out), *extra])
    assert code == 0
    return out.read_text()


@pytest.fixture(scope="module")
def main_csv(tmp_path_factory):
    return _sweep(tmp_path_factory.mktemp("main"), MAIN, 3)


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "verify.txt"
    code = cli.main(["verify", "--T", "1.5", "--S", "-0.5", "--seed", "0",
                     "--sample-scale", str(VERIFY_SCALE), "--out", str(out)])
    return out.read_text(), code


def _check_main(text, p=MAIN["p"]):
    return checks.check_sweep(text, SEED, 3, p, MAIN["delta"], MAIN["T"], MAIN["S"],
                              np.random.default_rng(0))


def _edit_row(text, index, column, value):
    lines = text.splitlines()
    cells = lines[1 + index].split(",")
    cells[column] = value
    lines[1 + index] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_sweep_outputs_pass(main_csv, tmp_path):
    result = _check_main(main_csv)
    assert (result.failed, result.problems) == ([], [])
    assert result.steps > 0
    wide = _sweep(tmp_path, WIDE, 2, "--gradient", "analytic")
    result = checks.check_sweep(wide, SEED, 2, WIDE["p"], WIDE["delta"], WIDE["T"], WIDE["S"],
                                np.random.default_rng(0))
    assert (result.failed, result.problems) == ([], [])


def test_sweep_rejects_wrong_initial_strategy(main_csv):
    cells = main_csv.splitlines()[2].split(",")
    nudged = repr(float(np.nextafter(float(cells[4]), 2.0)))
    assert _check_main(_edit_row(main_csv, 1, 4, nudged)).failed == [1]


def test_sweep_rejects_endpoint_short_of_t1(main_csv):
    assert _check_main(_edit_row(main_csv, 0, 8, "0.99")).failed == [0]


def test_sweep_rejects_non_stationary_endpoint(main_csv):
    # Still T1 by the 1e-6 tolerance, but q0 sits inside the cube with a live gradient.
    corrupted = _edit_row(main_csv, 2, 7, "0.99999990000000005")
    assert _check_main(corrupted).failed == [2]
    final = [float(v) for v in corrupted.splitlines()[3].split(",")[7:12]]
    assert all(v >= 1 - checks.T1_TOL for v in final[:3])
    assert not checks.is_stationary(MAIN["p"], final, MAIN["delta"], MAIN["T"], MAIN["S"])


def test_sweep_rejects_wrong_class_and_aggregate(main_csv):
    result = _check_main(_edit_row(main_csv, 0, 12, "OTHER"))
    assert result.failed == [0]
    assert result.problems  # the trailer still counts three T1 paths
    result = _check_main(main_csv.replace("# T1: 3", "# T1: 2"))
    assert result.failed == [] and result.problems


def test_sweep_rejects_missing_row(main_csv):
    lines = main_csv.splitlines()
    result = _check_main("\n".join(lines[:2] + lines[3:]) + "\n")
    assert result.problems and 2 in result.failed


def test_zd_line_rejects_rounded_enforcer(main_csv):
    rng = np.random.default_rng(0)
    assert checks.zd_line_holds(WIDE["p"], WIDE["delta"], WIDE["T"], WIDE["S"], rng)
    assert not checks.zd_line_holds(SWEEP_B_P, WIDE["delta"], WIDE["T"], WIDE["S"], rng)
    _, chi, kappa, residual = checks.zd_line(WIDE["p"], WIDE["delta"], WIDE["T"], WIDE["S"])
    assert abs(chi - 52.45) < 1e-9 and abs(kappa - 0.75) < 1e-12 and residual < 1e-12
    # A sweep against a non-ZD opponent fails every path.
    assert _check_main(main_csv, p=(0.0, 0.75, 0.25, 0.49, 0.0)).failed == [0, 1, 2]


def test_verify_report_passes(verify_report):
    text, code = verify_report
    result = checks.check_verify(text, code, 0, VERIFY_SCALE)
    assert result.problems == []
    reported = [ln.split()[1] for ln in text.splitlines() if ln.startswith("FAIL ")]
    assert result.failed == reported


def _verify_line(text, name):
    return next(ln for ln in text.splitlines() if ln.split()[1:2] == [name])


@pytest.mark.parametrize("name, pattern, new", [
    ("regularity-identity", r"samples=\d+", "samples=99"),  # wrong sample count
    ("oracle-triangle", r"^PASS", "FAIL"),  # verdict contradicts worst < threshold
    ("zd-linear-relation", r"worst=\S+", "worst=2.000e-09"),  # PASS with worst > threshold
    ("normalizer-positive", r"worst=\S+", "worst=2.500e-02"),  # not the recomputed minimum
    ("factorization-match", r"worst=\S+", "worst=n/a"),  # unreadable
])
def test_verify_rejects_corrupted_line(verify_report, name, pattern, new):
    text, code = verify_report
    line = _verify_line(text, name)
    corrupted = re.sub(pattern, new, line, count=1)
    assert corrupted != line
    result = checks.check_verify(text.replace(line, corrupted), code, 0, VERIFY_SCALE)
    assert name in result.failed


def test_verify_rejects_missing_line_and_wrong_exit_code(verify_report):
    text, code = verify_report
    line = _verify_line(text, "corner-tables")
    assert "corner-tables" in checks.check_verify(text.replace(line + "\n", ""), code, 0,
                                                  VERIFY_SCALE).failed
    assert checks.check_verify(text, 3 - code, 0, VERIFY_SCALE).problems


def test_normalizer_block_draw_matches_sequential_draws():
    scale = 1e-3
    n = max(1, int(100_000 * scale))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(1,)))
    seq = np.array([np.concatenate([rng.random(5), rng.random(5), [rng.uniform(0.01, 0.99)]])
                    for _ in range(n)])
    block = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(1,))).random((n, 11))
    block[:, 10] = 0.01 + (0.99 - 0.01) * block[:, 10]
    assert np.array_equal(seq, block)
    worst = min(
        np.linalg.det(np.eye(4) - row[10] * checks.transition(row[:5], row[5:10])) / (1 - row[10])
        for row in seq
    )
    assert checks.normalizer_minimum(0, scale) == pytest.approx(worst, rel=1e-14)


def test_tracer_counts_one_fd_path(tmp_path):
    result, trace, out = tmp_path / "r.json", tmp_path / "t.json", tmp_path / "s.csv"
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(result), str(trace), "sweep", "--T", "1.5",
         "--S", "-0.5", "--delta", "0.99", "--p", _p_text(MAIN["p"]), "--seed", str(SEED),
         "--n-paths", "1", "--out", str(out)],
        check=True, capture_output=True,
    )
    report = json.loads(trace.read_text())
    calls = {f["name"]: f["calls"] for f in report["functions"]}
    steps = int(out.read_text().splitlines()[1].split(",")[-1])
    # One recorded payoff per step plus the start; ten probes per update,
    # including the final update that is not taken.
    assert calls["payoffs._cofactors"] == 11 * steps + 11
    assert calls["_linalg.det3"] == 4 * calls["payoffs._cofactors"]
    assert report["made"]["adaptive.PathStep"] == steps + 1
    assert calls["cli.cmd_sweep"] == 1  # reached through the dispatch table
    assert json.loads(result.read_text())["exit_code"] == 0
