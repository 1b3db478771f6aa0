import json
from dataclasses import replace

import numpy as np
import pytest

import drci.dro_solvers
from drci.cli_io import ColumnMap, Report, RunConfig, load_csv, main, run, sweep
from drci.dro_solvers import minimal_achievable_ks

FIXTURE = """y,t
0,0
1,0
2,0
2,1
3,1
"""


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(FIXTURE)
    return str(path)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,t\n1.5,1\n2.5,1\n0.5,0\n0.0,0\n")
        data = load_csv(str(path))
        assert (data.n, data.n1, data.n0) == (4, 2, 2)

    def test_nonbinary_treatment_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,t\n1,1\n2,0\n3,2\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(str(path))

    def test_baseline_column_mapped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,t,pre\n1,1,0.5\n2,0,0.25\n")
        data = load_csv(str(path), ColumnMap(baseline="pre"))
        assert data.y_b.tolist() == [0.5, 0.25]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,t\n1,1\n2,0\n")
        with pytest.raises(ValueError, match="missing baseline column"):
            load_csv(str(path), ColumnMap(baseline="pre"))

    def test_missing_value_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,t\n1,1\n,0\n2,0\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(str(path))

    def test_covariates_natural_order(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,t,x2,x10,x1\n1,1,a2,b2,c2\n".replace("a2", "9")
                        .replace("b2", "8").replace("c2", "7")
                        + "2,0,1,2,3\n")
        data = load_csv(str(path))
        assert data.x[0].tolist() == [7.0, 9.0, 8.0]  # x1, x2, x10

    def test_empty_arm(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,t\n1,1\n2,1\n")
        with pytest.raises(ValueError, match="arms"):
            load_csv(str(path))


class TestRun:
    def test_marginal_gamma_one(self, fixture_csv):
        config = RunConfig(command="att", model="marginal", gamma=1.0,
                           input=fixture_csv)
        report = run(config)
        assert report.status == "optimal"
        assert report.estimate == pytest.approx(1.5)
        assert (report.n, report.n1, report.n0) == (5, 2, 3)
        assert report.weights is None  # only emitted on request

    def test_infeasible_delta(self, fixture_csv):
        data = load_csv(fixture_csv)
        threshold = minimal_achievable_ks(data, gamma=1.5, m=4,
                                          ks_mode="exact_atoms")
        assert threshold > 0
        config = RunConfig(command="att", model="distributional", gamma=1.5,
                           delta=max(0.0, threshold - 1e-6), m=4,
                           ks_mode="exact_atoms", input=fixture_csv)
        report = run(config)
        assert report.status == "infeasible"
        assert report.estimate is None

    def test_report_round_trip(self, fixture_csv):
        config = RunConfig(command="att", model="distributional", gamma=2.0,
                           delta=0.8, m=3, input=fixture_csv,
                           emit_weights=True)
        report = run(config)
        clone = Report.from_json(report.to_json())
        assert clone == report
        assert clone.weights is not None
        warned = replace(report, warnings=("stratum (t=0, z=1) is small",))
        assert Report.from_json(warned.to_json()) == warned
        # reports written before the warnings field existed still load
        legacy = json.loads(report.to_json())
        del legacy["warnings"]
        assert Report.from_json(json.dumps(legacy)) == report

    def test_log_outcome(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,t\n0,0\n1,0\n2,1\n3,1\n")
        config = RunConfig(command="att", model="marginal", gamma=1.0,
                           input=str(path), log_outcome=True, log_offset=1.0)
        report = run(config)
        expected = np.log([3.0, 4.0]).mean() - np.log([1.0, 2.0]).mean()
        assert report.estimate == pytest.approx(expected)

    def test_command_model_compatibility(self):
        with pytest.raises(ValueError):
            RunConfig(command="did", model="marginal")

    def test_deterministic_reports(self, fixture_csv):
        config = RunConfig(command="att", model="tv", lambda_tv=0.25,
                           input=fixture_csv)
        a, b = run(config), run(config)
        ja = json.loads(a.to_json())
        jb = json.loads(b.to_json())
        ja.pop("runtime_ms"), jb.pop("runtime_ms")
        assert ja == jb


class TestSweep:
    def test_single_cell_matches_run(self, fixture_csv):
        config = RunConfig(command="sweep", model="distributional",
                           input=fixture_csv, m=3)
        text = sweep(config, [2.0], [0.9])
        header, row = text.strip().splitlines()
        assert header == "gamma,delta,lower,upper,se_lower,se_upper,status"
        cells = row.split(",")
        low = run(RunConfig(command="att", model="distributional", gamma=2.0,
                            delta=0.9, m=3, direction="lower",
                            input=fixture_csv))
        up = run(RunConfig(command="att", model="distributional", gamma=2.0,
                           delta=0.9, m=3, direction="upper",
                           input=fixture_csv))
        assert float(cells[2]) == pytest.approx(low.estimate, abs=1e-6)
        assert float(cells[3]) == pytest.approx(up.estimate, abs=1e-6)
        assert cells[6] == "optimal"

    def test_monotone_in_gamma(self, fixture_csv):
        config = RunConfig(command="sweep", model="distributional",
                           input=fixture_csv, m=3)
        text = sweep(config, [1.0, 2.0, 3.0], [1.0])
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        lowers = [float(r[2]) for r in rows]
        uppers = [float(r[3]) for r in rows]
        assert lowers == sorted(lowers, reverse=True)
        assert uppers == sorted(uppers)

    def test_empty_grid_rejected(self, fixture_csv):
        config = RunConfig(command="sweep", input=fixture_csv)
        with pytest.raises(ValueError):
            sweep(config, [], [0.1])


class TestMain:
    def test_att_exit_zero(self, fixture_csv, capsys):
        code = main(["att", "--input", fixture_csv, "--model", "marginal",
                     "--gamma", "1.0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["estimate"] == pytest.approx(1.5)

    def test_infeasible_exit_two(self, fixture_csv, capsys):
        code = main(["att", "--input", fixture_csv, "--model",
                     "distributional", "--gamma", "1.0", "--delta", "0.0",
                     "--m", "3", "--ks-mode", "exact_atoms"])
        assert code == 2

    def test_error_exit_one(self, capsys):
        code = main(["att", "--input", "/nonexistent.csv"])
        assert code == 1

    def test_lp_failure_exit_one(self, tmp_path, capsys, monkeypatch):
        def failing_solve_lp(problem):
            raise RuntimeError("simplex iteration limit exceeded")

        path = tmp_path / "cov.csv"
        path.write_text("y,t,x1\n0,0,0\n1,0,1\n2,0,2\n2,1,1\n3,1,2\n")
        monkeypatch.setattr(drci.dro_solvers, "solve_lp", failing_solve_lp)
        code = main(["att", "--input", str(path), "--model", "distributional",
                     "--balance-lambda", "0.5", "--m", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: simplex iteration limit exceeded\n"
        assert captured.out == ""

    def test_iv_warning_reaches_report(self, tmp_path, capsys):
        path = tmp_path / "iv.csv"
        path.write_text("y,t,z\n0,0,0\n0.5,0,1\n1,0,1\n2,1,0\n3,1,0\n"
                        "4,1,1\n5,1,1\n")
        code = main(["iv", "--input", str(path), "--delta", "1.0", "--m", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["warnings"] == [
            "stratum (t=0, z=0) has fewer than 2 units; "
            "bounds may be overly conservative"
        ]

    def test_config_file_with_flag_override(self, fixture_csv, tmp_path, capsys):
        conf = tmp_path / "cfg.json"
        conf.write_text(json.dumps({
            "model": "marginal", "gamma": 1.0, "input": fixture_csv,
        }))
        code = main(["att", "--config", str(conf), "--gamma", "2.0",
                     "--direction", "upper"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gamma"] == 2.0  # flag wins over file
        assert report["estimate"] == pytest.approx(2.0)

    def test_output_file_written_atomically(self, fixture_csv, tmp_path):
        out = tmp_path / "report.json"
        code = main(["att", "--input", fixture_csv, "--model", "marginal",
                     "--gamma", "1.0", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["status"] == "optimal"
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers

    def test_simulate_emits_bias_table(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["simulate", "--tau1", "2", "--tau2", "3", "--p", "0.5",
                     "--n", "60", "--reps", "5", "--gammas", "2",
                     "--models", "marginal", "--delta", "0.1", "--m", "5",
                     "--seed", "7", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "model,gamma,n,delta,bias,sd,replications"
        assert lines[1].startswith("marginal,2,60,0.1,")

    def test_sweep_command(self, fixture_csv, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--input", fixture_csv, "--model",
                     "distributional", "--gammas", "1,2", "--deltas", "1.0",
                     "--m", "3", "--output", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_did_requires_baseline_column(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("y,t,y_b\n1,1,0\n2,0,1\n3,0,2\n4,1,3\n")
        code = main(["did", "--input", str(path), "--gamma", "2",
                     "--delta", "1.0", "--epsilon", "10", "--m", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "optimal"

    def test_iv_command(self, tmp_path, capsys):
        rng = np.random.default_rng(47)
        rows = ["y,t,z"]
        for t in (0, 1):
            for z in (0, 1):
                for _ in range(3):
                    rows.append(f"{rng.normal(t, 1):.4f},{t},{z}")
        path = tmp_path / "iv.csv"
        path.write_text("\n".join(rows) + "\n")
        code = main(["iv", "--input", str(path), "--gamma", "3",
                     "--delta", "1.0", "--m", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "optimal"
        assert report["config"]["m"] == 2

    def test_iv_default_grid_resolution(self, tmp_path, capsys):
        rng = np.random.default_rng(48)
        rows = ["y,t,z"]
        for t in (0, 1):
            for z in (0, 1):
                for _ in range(2):
                    rows.append(f"{rng.normal(t, 1):.4f},{t},{z}")
        path = tmp_path / "iv.csv"
        path.write_text("\n".join(rows) + "\n")
        code = main(["iv", "--input", str(path), "--gamma", "2",
                     "--delta", "1.0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["m"] == 20
        assert report["config"]["model"] == "distributional"
