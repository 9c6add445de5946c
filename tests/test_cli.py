import argparse
import dataclasses
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zdgame
from zdgame import DomainError
from zdgame import tables as tables_mod
from zdgame.cli import RunSpec, build_parser, main, spec_from_args
from conftest import kernel_forced

FIG3 = [
    "--T", "1.5", "--S", "-0.5", "--delta", "0.99",
    "--p", "0.0,0.75,0.25,0.5,0.0",
    "--q0", "0.863,0.071,0.593,0.968,0.420",
]


def read_lines(path):
    return path.read_text().strip().split("\n")


class TestRun:
    def test_trajectory_csv(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["run", *FIG3, "--out", str(out)])
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == "n,q0,q1,q2,q3,q4,s_Y,s_X"
        assert len(lines) == 1 + 248  # header plus rows n=0..247
        assert lines[1].split(",")[0] == "0"
        assert lines[-1].split(",")[0] == "247"
        assert "terminal=T1" in capsys.readouterr().out

    def test_csv_round_trips_exactly(self, tmp_path):
        from zdgame import SimConfig, run_path, validate_payoffs

        out = tmp_path / "traj.csv"
        main(["run", *FIG3, "--out", str(out)])
        params = validate_payoffs(1.5, -0.5, strict=True)
        path = run_path(
            (0.863, 0.071, 0.593, 0.968, 0.420), SimConfig(),
            (0.0, 0.75, 0.25, 0.5, 0.0), 0.99, params,
        )
        for line, step in zip(read_lines(out)[1:], path.steps):
            cells = line.split(",")
            assert int(cells[0]) == step.n
            assert tuple(float(c) for c in cells[1:6]) == step.q
            assert float(cells[6]) == step.s_y
            assert float(cells[7]) == step.s_x

    def test_json_format(self, tmp_path):
        out = tmp_path / "traj.json"
        code = main(["run", *FIG3, "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["terminal"] == "T1"
        assert doc["terminated_at"] == 247
        assert len(doc["steps"]) == 248

    def test_seeded_initial_when_q0_missing(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main([
            "run", "--T", "1.5", "--S", "-0.5", "--delta", "0.99",
            "--p", "0.0,0.75,0.25,0.5,0.0", "--seed", "7", "--out", str(out),
        ])
        assert code == 0

    def test_missing_q0_and_seed_fails(self, capsys):
        code = main([
            "run", "--T", "1.5", "--S", "-0.5", "--delta", "0.99",
            "--p", "0.0,0.75,0.25,0.5,0.0",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_payoffs_fail_with_diagnostic(self, capsys):
        code = main(["run", "--T", "0.9", "--S", "-0.5", "--delta", "0.9",
                     "--p", "0,1,0,1,0", "--q0", "0,0,0,0,0"])
        assert code == 1
        assert "T > 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--nu", "nan"], ["--dq", "inf"], ["--step-tol", "inf"]])
    def test_non_finite_config_fails_with_one_line(self, tmp_path, capsys, flag):
        code = main(["run", *FIG3, *flag, "--out", str(tmp_path / "traj.csv")])
        assert code == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "traj.csv").exists()

    def test_non_enforcer_opponent_warns_in_one_line(self, tmp_path, capsys):
        code = main(["run", "--T", "1.5", "--S", "-0.5", "--delta", "0.99",
                     "--p", "0.5,0.5,0.5,0.5,0.5", "--seed", "1",
                     "--out", str(tmp_path / "traj.csv")])
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: opponent strategy is not a positively correlated enforcer; "
            "the path may not end in unconditional cooperation\n"
        )

    def test_vanishing_normalizer_fails_with_one_line(self, capsys):
        # delta within 1e-16 of 1 leaves the valid domain; fd probes hit the floor
        code = main(["run", "--T", "1.5", "--S", "-0.5", "--delta", "0.9999999999999999",
                     "--p", "1,1,1,1,1", "--q0", "1,1,1,0,1", "--max-steps", "5"])
        assert code == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error: normalizing determinant")

    def test_output_to_directory_fails_cleanly(self, tmp_path, capsys):
        code = main(["run", *FIG3, "--out", str(tmp_path)])
        assert code == 1
        assert "i/o error" in capsys.readouterr().err

    def test_non_convergence_exit_code(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["run", *FIG3, "--max-steps", "10", "--out", str(out)])
        assert code == 2
        assert len(read_lines(out)) == 1 + 11

    def test_max_norm_recorded_alongside(self, tmp_path):
        # both stopping norms are tracked on the path object
        from zdgame import SimConfig, run_path, validate_payoffs

        params = validate_payoffs(1.5, -0.5, strict=True)
        path = run_path(
            (0.863, 0.071, 0.593, 0.968, 0.420), SimConfig(),
            (0.0, 0.75, 0.25, 0.5, 0.0), 0.99, params,
        )
        assert path.last_step_max <= path.last_step_euclidean < 1e-12


class TestSweep:
    def test_summary_schema_and_aggregate(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--T", "1.5", "--S", "-0.5", "--delta", "0.99",
            "--p", "0.0,0.75,0.25,0.5,0.0", "--seed", "5", "--n-paths", "4",
            "--out", str(out),
        ])
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == (
            "path,seed,init_q0,init_q1,init_q2,init_q3,init_q4,"
            "final_q0,final_q1,final_q2,final_q3,final_q4,class,steps"
        )
        assert len(lines) == 1 + 4 + 1
        assert lines[-1].startswith("# T1:")
        assert "T1: 4" in capsys.readouterr().out

    def test_same_seed_identical_files(self, tmp_path):
        args = [
            "sweep", "--T", "1.5", "--S", "-0.5", "--delta", "0.99",
            "--p", "0.0,0.75,0.25,0.5,0.0", "--seed", "9", "--n-paths", "3",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_workers_flag_is_gone(self, capsys):
        args = ["sweep", *GAME, "--seed", "9", "--n-paths", "3", "--workers", "2"]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --workers 2\n"

    def test_workers_config_key_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"workers": 2}))
        assert main(["sweep", *GAME, "--seed", "9", "--n-paths", "3", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: unknown config keys for sweep: ['workers']\n"

    def test_nonconvergence_exit_code_still_writes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--T", "1.5", "--S", "-0.5", "--delta", "0.99",
            "--p", "0.0,0.75,0.25,0.5,0.0", "--seed", "5", "--n-paths", "2",
            "--max-steps", "5", "--out", str(out),
        ])
        assert code == 2
        assert len(read_lines(out)) == 1 + 2 + 1

    # the README sweep and the CI workflow's wide analytic sweep
    @pytest.mark.parametrize("argv, sha256", [
        (["--T", "1.5", "--S", "-0.5", "--delta", "0.99", "--p", "0.0,0.75,0.25,0.5,0.0",
          "--seed", "2024", "--n-paths", "100"],
         "2e5a07d1cf73629a96ecf6a86b08ab3ff75b9aa8dff53179818da3ea07b8ce26"),
        (["--gradient", "analytic", "--T", "2.0", "--S", "-0.1", "--delta", "0.51",
          "--p", "0.75,1.0,0.0,0.13529411764705884,0.0", "--seed", "2024", "--n-paths", "10"],
         "27758bc4a183c96cf4da77d514aa17ed4221869bc9249fc6220c2ba273782287"),
    ])
    def test_pinned_sweep_bytes_are_unchanged(self, tmp_path, argv, sha256):
        out = tmp_path / "sweep.csv"
        with kernel_forced("compiled"):
            assert main(["sweep", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "--T", "1.5", "--S", "-0.5", "--delta", "0.99",
            "--p", "0.0,0.75,0.25,0.5,0.0", "--seed", "5", "--n-paths", "2",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["aggregate"]["T1"] == 2
        assert len(doc["paths"]) == 2


GAME = ["--T", "1.5", "--S", "-0.5", "--delta", "0.99", "--p", "0.0,0.75,0.25,0.5,0.0"]
# delta within 1e-16 of 1: against this opponent the seed's paths reach a
# vanished normalizer
VANISHING = ["sweep", "--T", "1.5", "--S", "-0.5", "--delta", "0.9999999999999999",
             "--p", "0,1,1,0,0", "--seed", "1", "--max-steps", "200"]


class TestInvalidInput:
    @pytest.mark.parametrize("argv, config", [
        (["sweep", *GAME, "--seed", "-1", "--n-paths", "2"], None),
        (["run", *GAME, "--seed", "-1"], None),
        (["verify", "--T", "1.5", "--S", "-0.5", "--seed", "-1"], None),
        (["run", *GAME[2:], "--seed", "1"], {"T": "abc"}),
        (["sweep", *GAME, "--n-paths", "2"], {"seed": 1.5}),
        (["sweep", *GAME, "--seed", "1", "--n-paths", "2"], {"gradient": "exact"}),
        (["sweep", *GAME, "--seed", "1", "--n-paths", "2", "--workers", "-5"], None),
        (["sweep", *GAME, "--seed", "1", "--n-paths", "2", "--workers", "0"], None),
        (["tables", *GAME, "--tol", "nan"], None),
        (["tables", *GAME, "--tol", "-1"], None),
        (["verify", "--T", "1.5", "--S", "-0.5", "--sample-scale", "nan"], None),
        (["verify", "--T", "1.5", "--S", "-0.5", "--sample-scale", "-1"], None),
        (["verify", "--T", "1.5", "--S", "-0.5", "--sample-scale", "1e308"], None),
        ([*VANISHING, "--n-paths", "3"], None),
        ([*VANISHING, "--n-paths", "20", "--gradient", "analytic"], None),
        (["run", *FIG3, "--dq", "1e130"], None),
        # below machine epsilon every probe rounds back onto its entry
        (["run", *GAME, "--seed", "1", "--dq", "1e-300"], None),
        (["sweep", *GAME, "--seed", "1", "--n-paths", "2", "--dq", "1e-300"], None),
        # no update in the cube exceeds sqrt(5), so every path would stop at step 0
        (["run", *GAME, "--seed", "1", "--step-tol", "3"], None),
        (["sweep", *GAME, "--seed", "1", "--n-paths", "2", "--step-tol", "3"], None),
        (["run", *GAME, "--seed", "1", "--T", "abc"], None),
        (["sweep", *GAME, "--seed", "1", "--n-paths", "1.5"], None),
        (["run", *GAME, "--seed", "1", "--gradient", "bogus"], None),
        (["sweep", *GAME, "--seed", "1", "--n-paths", "2", "--format", "xml"], None),
        (["run", *FIG3, "--max-steps", "0"], None),
        (["sweep", *GAME, "--seed", "1", "--n-paths", "2", "--max-steps", "5.5"], None),
        (["sweep", *GAME, "--seed", "1", "--n-paths", "2"], {"max_steps": True}),
        (["run", *FIG3], {"max_steps": "inf"}),
        # T + S <= 0: the ascent itself rejects it
        (["run", *GAME, "--seed", "1", "--T", "1.4", "--S", "-1.5"], None),
        (["sweep", *GAME, "--seed", "1", "--n-paths", "2", "--T", "1.4", "--S", "-1.5"], None),
    ])
    def test_fails_with_one_error_line(self, tmp_path, capsys, argv, config):
        if config is not None:
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg)]
        assert main([*argv, "--out", str(tmp_path / "out.txt")]) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--n-paths", "2"]])
    def test_step_tol_below_the_largest_update_runs(self, tmp_path, command):
        out = tmp_path / "out.txt"
        assert main([*command, *GAME, "--seed", "1", "--step-tol", "2.2", "--out", str(out)]) == 0
        assert out.exists()


class TestVerify:
    def test_small_scale_passes(self, capsys):
        code = main(["verify", "--T", "1.5", "--S", "-0.5", "--seed", "3",
                     "--sample-scale", "0.002"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS normalizer-positive" in out
        assert "all properties passed" in out

    def test_no_room_to_draw_delta_fails_with_one_line(self, tmp_path, capsys):
        # delta_c = 150/151, so no delta in [delta_c + 0.01, 0.995) to draw
        out = tmp_path / "verify.txt"
        code = main(["verify", "--T", "1.5", "--S", "-150", "--seed", "0",
                     "--sample-scale", "0.01", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error: critical discount 0.9933")
        assert not out.exists()

    def test_fault_injection_names_cell(self, capsys, monkeypatch):
        broken = dict(tables_mod.TABLE3)
        original = broken[(0, 0, 1)]
        broken[(0, 0, 1)] = (
            original[0], lambda c: original[1](c) + 1e-6, original[2], original[3]
        )
        monkeypatch.setattr(tables_mod, "TABLE3", broken)
        code = main(["verify", "--T", "1.5", "--S", "-0.5", "--seed", "3",
                     "--sample-scale", "0.002"])
        assert code == 3
        out = capsys.readouterr().out
        assert "FAIL corner-tables" in out
        assert "Table 3 (0,0,1) d2" in out


    def test_non_strict_payoffs_name_the_claims_domain(self, capsys):
        code = main(["verify", "--T", "1.5", "--S", "-2", "--seed", "0",
                     "--sample-scale", "0.1"])
        assert code == 3
        lines = capsys.readouterr().out.split("\n")
        i = lines.index("FAIL gradient-nonnegative samples=1000 worst=-4.636e-01 "
                        "(required >= -1e-12)")
        assert lines[i + 1] == "    claim needs 0 < T + S; here T + S = -0.5"
        assert lines[i + 2].startswith("PASS corner-tables")


class TestZd:
    def test_recover_paper_strategy(self, capsys):
        code = main(["zd", "--T", "1.5", "--S", "-0.5", "--delta", "0.99",
                     "--p", "0.0,0.75,0.25,0.5,0.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "delta_c = 0.33333333333333331" in out
        assert "pcZD: yes" in out
        assert "consistency residual = 0" in out

    def test_construct_from_parameters(self, capsys):
        code = main(["zd", "--T", "1.5", "--S", "-0.5", "--delta", "0.99",
                     "--phi", "0.183125", "--chi", "2.4061433447098994",
                     "--kappa", "0.0", "--p0", "0.0"])
        assert code == 0
        assert "pcZD: yes" in capsys.readouterr().out

    def test_low_slope_with_pczd_flag_fails(self, capsys):
        code = main(["zd", "--T", "1.5", "--S", "-0.5", "--delta", "0.99",
                     "--phi", "0.1", "--chi", "0.5", "--kappa", "0.0",
                     "--p0", "0.0", "--pczd"])
        assert code == 1
        assert "chi" in capsys.readouterr().err

    def test_infeasible_construction_names_bounds(self, capsys):
        code = main(["zd", "--T", "1.5", "--S", "-0.5", "--delta", "0.2",
                     "--phi", "0.5", "--chi", "2.0", "--kappa", "0.5",
                     "--p0", "0.0"])
        assert code == 1
        err = capsys.readouterr().err
        assert "p" in err and "no valid strategy" in err

    def test_non_zd_strategy_reported(self, capsys):
        code = main(["zd", "--T", "1.5", "--S", "-0.5", "--delta", "0.9",
                     "--p", "0.1,0.9,0.8,0.7,0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "not ZD" in out
        assert "pcZD: no" in out


class TestTables:
    def test_enforcer_passes(self, tmp_path):
        out = tmp_path / "tables.txt"
        code = main(["tables", "--T", "1.5", "--S", "-0.5", "--delta", "0.99",
                     "--p", "0.0,0.75,0.25,0.5,0.0", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "Table 1 (0,0,0,0) D" in text
        assert "0 mismatches" in text

    # the README command, and a cooperative enforcer that Table 5 applies to
    @pytest.mark.parametrize("p, cells, sha256", [
        ("0.0,0.75,0.25,0.5,0.0", 128,
         "88169eee1d4fe237c9890d036504a43599c64c0e6e4aa1e8ac25aa35eb726ed1"),
        ("1.0,1.0,0.5,0.8,0.3", 136,
         "efc3e7ff83c437485b693db575dc1369ee0a0eeeb32a486d7b9aa3bd2ddab312"),
    ])
    def test_report_bytes_are_unchanged(self, tmp_path, p, cells, sha256):
        out = tmp_path / "tables.txt"
        code = main(["tables", "--T", "1.5", "--S", "-0.5", "--delta", "0.99",
                     "--p", p, "--out", str(out)])
        assert code == 0
        text = out.read_bytes()
        assert text.endswith(f"{cells} cells checked, 0 mismatches (tol 1e-12)\n".encode())
        assert hashlib.sha256(text).hexdigest() == sha256

    def test_generic_strategy_checks_fewer_tables(self, capsys):
        code = main(["tables", "--T", "1.5", "--S", "-0.5", "--delta", "0.9",
                     "--p", "0.1,0.9,0.8,0.7,0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 3" not in out


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "T": 1.5, "S": -0.5, "delta": 0.99,
            "p": [0.0, 0.75, 0.25, 0.5, 0.0],
            "q0": "0.863,0.071,0.593,0.968,0.420",
            "max_steps": 10,
        }))
        out = tmp_path / "a.csv"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 2  # config capped the steps
        out2 = tmp_path / "b.csv"
        code = main(["run", "--config", str(cfg), "--max-steps", "1000000",
                     "--out", str(out2)])
        assert code == 0  # flag overrides config

    def test_config_numbers_as_strings_and_nulls_accepted(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"T": "1.5", "max_steps": "10", "seed": None}))
        code = main(["run", "--config", str(cfg), *FIG3[2:], "--out", str(tmp_path / "a.csv")])
        assert code == 2  # the string cap of 10 steps was applied

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"learning_rate": 0.1}))
        code = main(["run", "--config", str(cfg)])
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_key_of_another_command_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_paths": 3}))
        assert main(["run", *FIG3, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: unknown config keys for run: ['n_paths']\n"


# Every flag each subcommand takes, written out rather than read from the parser.
FLAGS = {
    "run": {"--T", "--S", "--config", "--delta", "--p", "--seed", "--nu", "--dq",
            "--step-tol", "--max-steps", "--gradient", "--format", "--out", "--q0"},
    "sweep": {"--T", "--S", "--config", "--delta", "--p", "--seed", "--nu", "--dq",
              "--step-tol", "--max-steps", "--gradient", "--format", "--out",
              "--n-paths"},
    "verify": {"--T", "--S", "--config", "--strict-payoffs", "--seed", "--sample-scale",
               "--out"},
    "zd": {"--T", "--S", "--config", "--strict-payoffs", "--delta", "--p", "--phi",
           "--chi", "--kappa", "--p0", "--pczd"},
    "tables": {"--T", "--S", "--config", "--strict-payoffs", "--delta", "--p", "--tol",
               "--out"},
}
SWITCHES = {"--strict-payoffs", "--pczd"}
# flags that were removed, which every subcommand must now reject
REMOVED = {"--workers"}
# a valid call of each subcommand, to which a foreign flag is added
VALID = {
    "run": ["run", *FIG3],
    "sweep": ["sweep", *GAME, "--seed", "1", "--n-paths", "1"],
    "verify": ["verify", "--T", "1.5", "--S", "-0.5", "--seed", "3", "--sample-scale", "0.002"],
    "zd": ["zd", *GAME],
    "tables": ["tables", *GAME],
}


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


class TestFlags:
    def test_each_command_takes_its_own_flags(self):
        subs = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
        taken = {name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
                 for name, sub in subs.items()}
        assert taken == FLAGS
        assert sum(map(len, taken.values())) == 54

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in FLAGS
        for flag in sorted(set().union(REMOVED, *FLAGS.values()) - FLAGS[command])
    ])
    def test_foreign_flag_fails_with_one_line(self, capsys, command, flag):
        given = [flag] if flag in SWITCHES else [flag, "1"]
        assert main([*VALID[command], *given]) == 1
        assert _one_error_line(capsys) == f"error: unrecognized arguments: {' '.join(given)}"

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in FLAGS for flag in sorted(FLAGS[command])
    ])
    def test_every_listed_spelling_parses(self, command, flag):
        given = [flag] if flag in SWITCHES else [flag, "1"]
        args = build_parser().parse_args([command, *given])
        assert getattr(args, flag[2:].replace("-", "_")) == (True if flag in SWITCHES else "1")

    # prefixes of --max-steps and --sample-scale, which abbreviation would accept
    @pytest.mark.parametrize("argv", [
        ["run", *FIG3, "--max", "5"],
        ["verify", "--T", "1.5", "--S", "-0.5", "--sample", "0.002"],
    ])
    def test_abbreviated_flag_fails_with_one_line(self, capsys, argv):
        assert main(argv) == 1
        assert _one_error_line(capsys) == f"error: unrecognized arguments: {' '.join(argv[-2:])}"

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["run", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["frob"], "argument command: invalid choice"),
        (["run", *FIG3, "--T"], "argument --T: expected one argument"),
        (["zd", "--T", "1.5", "--S", "-inf", *GAME[4:]], "argument --S: expected one argument"),
        (["zd", "--T", "1.5", "--S", "-nan", *GAME[4:]], "argument --S: expected one argument"),
        (["zd", *GAME, "--phi", "0.1"], "zd takes either --p"),
        (["zd", *GAME, "--pczd"], "zd takes either --p"),
        (["zd", "--T", "1.5", "--S", "-0.5", "--phi", "0.1"], "zd needs either --p"),
    ])
    def test_usage_errors_fail_with_one_line(self, capsys, argv, message):
        assert main(argv) == 1
        assert _one_error_line(capsys).startswith(f"error: {message}")

    # argparse's own pattern before Python 3.13 misses exponents, so it took
    # the first, second and last spellings for flags
    @pytest.mark.parametrize("spelling, number", [
        ("-5e-1", "-0.5"), ("-5E-1", "-0.5"), ("-.5", "-0.5"), ("-1E-9", "-0.000000001")])
    def test_a_negative_number_in_any_notation_is_a_value(self, capsys, spelling, number):
        outputs = []
        for value in (spelling, number):
            assert main(["zd", "--T", "1.99", "--S", value, *GAME[4:]]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    # each subcommand parser is a _Parser and reads the exponent too
    @pytest.mark.parametrize("command", sorted(VALID))
    def test_every_command_reads_a_negative_exponent_as_a_value(self, capsys, command):
        argv = VALID[command]
        at = argv.index("--S") + 1
        assert argv[at] == "-0.5"
        outputs = []
        for value in ("-0.5", "-5e-1"):
            assert main([*argv[:at], value, *argv[at + 1:]]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--q0" in capsys.readouterr().out

    def test_readme_commands_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        code = readme.split("```")[1::2]  # the insides of the fenced blocks
        calls = [shlex.split(line)[1:]
                 for block in code for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("zdgame ")]
        assert {argv[0] for argv in calls} == set(FLAGS)
        for argv in calls:
            assert build_parser().parse_args(argv).command == argv[0]


def test_import_leaves_multiprocessing_unloaded():
    src = str(Path(zdgame.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, zdgame.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    assert out == "False\n"


# RunSpec field -> (types its value may have, whether None is allowed)
_SPEC_FIELDS = {
    f.name: ({"float": (float,), "int": (int,), "str": (str,), "bool": (bool,)}[
        f.type.split(" | ")[0]], f.type.endswith("| None"))
    for f in dataclasses.fields(RunSpec)
}
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
            | st.integers().map(str) | st.floats().map(repr))
_JSON = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)
_CONFIG_TEXT = (
    st.dictionaries(st.sampled_from(sorted(_SPEC_FIELDS)) | st.text(max_size=6), _JSON,
                    max_size=4).map(json.dumps)
    | _JSON.map(json.dumps)
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
)


# the RunSpec fields each command reads, as namespace attributes
_OWN_FIELDS = {command: sorted(flag[2:].replace("-", "_") for flag in flags - {"--config"})
               for command, flags in FLAGS.items()}


def _assert_valid_spec(spec: RunSpec):
    for name, (types, optional) in _SPEC_FIELDS.items():
        value = getattr(spec, name)
        if value is None:
            assert optional, name
            continue
        assert type(value) in types, (name, value)
        if type(value) is float:
            assert math.isfinite(value), name
    assert spec.gradient in ("fd", "analytic") and spec.format in ("csv", "json")
    assert spec.seed is None or spec.seed >= 0


class TestSpecFuzz:
    """spec_from_args on arbitrary flag values and config files returns a
    valid RunSpec or raises DomainError, never another exception."""

    @settings(max_examples=400, deadline=None)
    @given(
        job=st.sampled_from(sorted(_OWN_FIELDS)).flatmap(lambda command: st.tuples(
            st.just(command),
            st.dictionaries(st.sampled_from(_OWN_FIELDS[command]), _SCALARS, max_size=6))),
        config=st.none() | _CONFIG_TEXT,
    )
    @example(job=("sweep", {"seed": "1" + "0" * 400}), config=None)
    @example(job=("sweep", {"max_steps": 10 ** 400}), config=None)
    @example(job=("run", {}), config=json.dumps({"T": 10 ** 400}))
    @example(job=("zd", {}), config='{"T": [')
    @example(job=("zd", {}), config="[" * 100_000)
    def test_returns_a_valid_spec_or_rejects(self, job, config):
        command, flags = job
        with tempfile.TemporaryDirectory() as tmp:
            path = None
            if config is not None:
                path = Path(tmp) / "config.json"
                path.write_text(config, encoding="utf-8")
            values = {**dict.fromkeys(_OWN_FIELDS[command]), **flags,
                      "command": command, "config": path and str(path)}
            try:
                spec = spec_from_args(argparse.Namespace(**values))
            except DomainError:
                return
        _assert_valid_spec(spec)
        assert spec.command == command

    def test_invalid_json_config_fails_with_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"T": [')
        assert main(["zd", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error: config file")
