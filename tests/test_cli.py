import json

import pytest

from zdgame import tables as tables_mod
from zdgame.cli import main

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

    @pytest.mark.filterwarnings("ignore:opponent strategy is not")
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

    def test_workers_do_not_change_output(self, tmp_path):
        args = [
            "sweep", "--T", "1.5", "--S", "-0.5", "--delta", "0.99",
            "--p", "0.0,0.75,0.25,0.5,0.0", "--seed", "9", "--n-paths", "3",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*args, "--workers", "1", "--out", str(a)]) == 0
        assert main([*args, "--workers", "2", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_nonconvergence_exit_code_still_writes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--T", "1.5", "--S", "-0.5", "--delta", "0.99",
            "--p", "0.0,0.75,0.25,0.5,0.0", "--seed", "5", "--n-paths", "2",
            "--max-steps", "5", "--out", str(out),
        ])
        assert code == 2
        assert len(read_lines(out)) == 1 + 2 + 1

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


class TestVerify:
    def test_small_scale_passes(self, capsys):
        code = main(["verify", "--T", "1.5", "--S", "-0.5", "--seed", "3",
                     "--sample-scale", "0.002"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS normalizer-positive" in out
        assert "all properties passed" in out

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

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"learning_rate": 0.1}))
        code = main(["run", "--config", str(cfg)])
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err
