import csv
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drci.dro_solvers
from drci import cli_io
from drci.cli_io import ColumnMap, Report, RunConfig, load_csv, main, run, sweep
from drci.distributions import Dataset
from drci.dro_solvers import (SensitivityConfig, distributional_att_bound,
                               minimal_achievable_ks)
from drci.extensions import cic_att_bound, did_att_bound

FIXTURE = """y,t
0,0
1,0
2,0
2,1
3,1
"""


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which strict JSON does not allow")


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

    def test_byte_order_mark(self, tmp_path):
        text = "y,t,x1\n1.5,1,2\n2.5,0,3\n0.5,0,4\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        a, b = load_csv(str(plain)), load_csv(str(marked))
        for name in ("y", "t", "x"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_empty_arm(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,t\n1,1\n2,1\n")
        with pytest.raises(ValueError, match="arms"):
            load_csv(str(path))


def _parsed(loader, path, columns):
    """Every Dataset array as (dtype, shape, bytes), or the error raised."""
    try:
        data = loader(path, columns)
    except (ValueError, csv.Error) as exc:
        return type(exc), str(exc)
    arrays = {f: getattr(data, f) for f in ("y", "t", "y_b", "z", "x")}
    return {f: None if a is None else (a.dtype.str, a.shape, a.tobytes())
            for f, a in arrays.items()}


_LONG_NUMBER = "0" * 200_000 + "1"

# (id, file text, columns, whether the columnar read takes the file)
EDGE_FILES = [
    ("plain", "y,t\n1.5,0\n2,1\n", None, True),
    ("crlf", "y,t\r\n1.5,0\r\n2,1\r\n", None, True),
    ("lone_cr", "y,t\r1.5,0\r2,1\r", None, False),
    ("blank_lines", "y,t\n1,0\n\n2,1\n\n", None, True),
    ("whitespace_line", "y,t\n1,0\n   \n2,1\n", None, False),
    ("trailing_comma", "y,t,\n1,0,\n2,1,\n", None, True),
    ("long_row", "y,t\n1,0,9,9\n2,1\n", None, True),
    ("short_row", "y,t,x1\n1,0,3\n2,1\n", None, False),
    ("hash", "y,t\n1,0\n#2,1\n", None, False),
    ("quoted", 'y,t,name\n1,0,"Smith, John"\n"2",1,"a"\n', None, False),
    ("quoted_before", 'name,y,t\n"a,5,1,b",0,1\n"c",2,0\n', None, False),
    ("whitespace", "y,t\n 1.5 ,\t0\n2 , 1 \n", None, True),
    ("nbsp", "y,t\n\xa01.5,0\n2,1\n", None, True),
    ("nonbinary_t", "y,t\n1,0\n2,2\n3,1\n", None, False),
    ("nonbinary_z", "y,t,z\n1,0,0\n2,1,3\n3,1,1\n", ColumnMap(instrument="z"), False),
    ("one_row", "y,t\n1,0\n", None, True),
    ("no_rows", "y,t\n", None, False),
    ("blank_body", "y,t\n\n\n", None, False),
    ("empty_file", "", None, False),
    ("nan", "y,t\nnan,0\n2,1\n", None, True),
    ("inf", "y,t\n1,0\n-Infinity,1\n", None, True),
    ("bom", "\ufeffy,t\n1,0\n2,1\n", None, True),
    ("underscore", "y,t\n1_000,0\n2,1\n", None, False),
    ("arabic_digit", "y,t\n\u0661,0\n2,1\n", None, False),
    ("negative_zero", "y,t\n-0,0\n2,-0\n3,1\n", None, True),
    ("subnormal", "y,t\n4.9e-324,0\n2.2250738585072014e-308,1\n1e-320,0\n", None, True),
    ("empty_field", "y,t\n1,\n2,1\n", None, False),
    ("missing_column", "y,t\n1,0\n2,1\n", ColumnMap(baseline="pre"), False),
    ("repeated_name", "y,t,y\n1,0,5\n2,1,6\n", None, True),
    ("all_columns", "y,t,y_b,x10,x2,z\n1,0,0.5,7,8,1\n2,1,0.25,9,1e3,0\n",
     ColumnMap(baseline="y_b", instrument="z"), True),
    ("long_number", f"y,t\n{_LONG_NUMBER},0\n2,1\n", None, False),
    # past the first 8 KiB read, where the two reads would place it apart
    ("bad_utf8", b"y,t\n" + b"1,0\n2,1\n" * 3000 + b"\xff,1\n", None, False),
    ("lone_cr_late", b"y,t\n" + b"1,0\n2,1\n" * 3000 + b"3,0\r4,1\n", None, False),
    ("crlf_bom", "\ufeffy,t\r\n1.5,0\r\n2,1\r\n", None, True),
    ("quoted_header_newline", '"a\nb",y,t\n1,0,0\n2,1,1\n', None, True),
]


class TestColumnarRead:
    @pytest.mark.parametrize("text,columns,columnar",
                             [case[1:] for case in EDGE_FILES],
                             ids=[case[0] for case in EDGE_FILES])
    def test_matches_row_parser(self, tmp_path, text, columns, columnar):
        path = tmp_path / "d.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        columns = columns or ColumnMap()
        assert _parsed(load_csv, str(path), columns) == \
            _parsed(cli_io._load_rows, str(path), columns)
        try:
            taken = cli_io._load_columnar(str(path), columns) is not None
        except ValueError:  # parsed, then refused by the Dataset checks
            taken = True
        assert taken == columnar

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_a_pipe(self, tmp_path):
        # a pipe cannot be read twice: the columnar read parses the text it
        # screened, as it does for a file
        path = tmp_path / "pipe"
        os.mkfifo(path)
        text = "\ufeffy,t\r\n1.5,0\r\n2,1\r\n"
        writer = threading.Thread(target=path.write_text, args=(text,),
                                  kwargs={"encoding": "utf-8"})
        writer.start()
        try:
            data = cli_io._load_columnar(str(path), ColumnMap())
        finally:
            writer.join()
        assert data.y.tolist() == [1.5, 2.0] and data.t.tolist() == [0, 1]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_row_parser_reads_a_pipe(self, tmp_path):
        # the columnar read refuses the quotes, and the row parser parses the
        # bytes already read: the pipe's writer has written once and gone
        text = 'y,t,name\n1,0,"a"\n2,1,"b"\n3,0,"c"\n'
        path = tmp_path / "pipe"
        os.mkfifo(path)
        got = []
        writer = threading.Thread(target=path.write_text, args=(text,))
        reader = threading.Thread(
            target=lambda: got.append(_parsed(load_csv, str(path), ColumnMap())), daemon=True)
        writer.start()
        reader.start()
        reader.join(timeout=10)
        blocked = reader.is_alive()
        if blocked:  # a second open waits for a writer: give it an empty one
            with open(path, "w"):
                pass
            reader.join()
        writer.join()
        assert not blocked, "load_csv opened the pipe a second time"
        plain = tmp_path / "d.csv"
        plain.write_text(text)
        assert got == [_parsed(load_csv, str(plain), ColumnMap())]
        assert got[0]["y"] == ("<f8", (3,), np.array([1.0, 2.0, 3.0]).tobytes())

    @pytest.mark.parametrize("name", ["d.csv.gz", "d.csv.bz2", "d.csv.xz", "d.csv.lzma",
                                      "http://localhost/d.csv"])
    def test_plain_text_under_any_name(self, tmp_path, monkeypatch, name):
        # np.loadtxt picks a decompressor by a path's ending and fetches a
        # path that parses as a URL; a plain CSV under such a name is read as
        # text, from this directory, as any other name is
        import urllib.request

        def no_fetch(*args, **kwargs):
            raise AssertionError("the read went to the network")

        monkeypatch.setattr(urllib.request, "urlopen", no_fetch)
        monkeypatch.chdir(tmp_path)
        os.makedirs(os.path.dirname(name) or ".", exist_ok=True)
        with open(name, "w", newline="") as fh:
            fh.write("y,t\r\n1.5,0\r\n2,1\r\n")
        data = cli_io._load_columnar(name, ColumnMap())
        assert data.y.tolist() == [1.5, 2.0] and data.t.tolist() == [0, 1]
        assert main(["att", "--input", name, "--output", "r.json"]) == 0

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.floats(-1e300, 1e300),
                           min_size=2, max_size=30),
           fmt=st.sampled_from(["{!r}", "{:.17g}", "{:.6g}", "{:.12e}",
                                "{:+.3E}", "{:.20f}"]))
    def test_floats_bit_identical(self, tmp_path_factory, values, fmt):
        path = tmp_path_factory.mktemp("floats") / "d.csv"
        texts = [fmt.format(v) for v in values]
        rows = [f"{v},{i % 2}" for i, v in enumerate(texts)]
        path.write_text("y,t\n" + "\n".join(rows) + "\n")
        data = cli_io._load_columnar(str(path), ColumnMap())
        expected = np.array([float(v) for v in texts])
        assert data.y.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("body,measured,columnar", [
        # long_number from EDGE_FILES, the file of
        # TestMain.test_oversized_field_exit_one, and a body of short lines
        # that is longer than the field size limit
        (f"{_LONG_NUMBER},0\n2,1\n", True, False),
        ("1,0\n" + "a" * 200_000 + ",1\n", True, False),
        ("1.5,0\n2,1\n" * 20_000, False, True),
    ], ids=["long_number", "oversized_field", "long_body"])
    def test_line_screen_measures_only_long_lines(self, tmp_path, monkeypatch,
                                                  body, measured, columnar):
        path = tmp_path / "d.csv"
        path.write_text("y,t\n" + body)
        assert len(body) > csv.field_size_limit()
        calls, measure = [], cli_io._longest_line
        monkeypatch.setattr(cli_io, "_longest_line",
                            lambda text: calls.append(1) or measure(text))
        assert (cli_io._load_columnar(str(path), ColumnMap()) is not None) == columnar
        assert bool(calls) == measured

    @settings(max_examples=150, deadline=None)
    @given(text=st.text(alphabet="ab\n", max_size=60), limit=st.integers(1, 14))
    def test_line_screen_matches_line_lengths(self, text, limit):
        longest = max(len(line) for line in text.split("\n"))
        assert cli_io._lines_fit(text, limit) == (longest <= limit)


# integers next to each power of ten, and integers with trailing zeros, whose
# text is a prefix of other keys' text
_KEYS = st.one_of(
    st.integers(0, 15).flatmap(lambda k: st.integers(max(0, 10**k - 2), 10**k + 2)),
    st.builds(lambda a, k: a * 10**k, st.integers(0, 999), st.integers(0, 12)),
    st.integers(0, 10**15),
)


class TestWeightOrder:
    @settings(max_examples=60, deadline=None)
    @given(keys=st.sets(_KEYS, max_size=40))
    def test_integer_order_is_text_order(self, keys):
        index = np.array(sorted(keys), dtype=np.int64)
        order = cli_io._text_order(index)
        assert [str(i) for i in index[order].tolist()] == sorted(map(str, keys))


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

    def test_to_json_matches_asdict_dump(self, fixture_csv):
        def reference(r):
            return json.dumps(asdict(r), indent=2, sort_keys=True, allow_nan=False)

        config = RunConfig(command="att", model="distributional", gamma=2.0,
                           delta=0.8, m=3, input=fixture_csv)
        plain = run(config)
        weighted = run(replace(config, emit_weights=True))
        assert plain.weights is None and weighted.weights
        # keys sort as strings; -0.0, repeats, float subclasses and ints keep json's text
        many = {str(k): v for k, v in enumerate(
            [0.1, -0.0, 0.0, 0.1, 1 / 3, 5e-324, np.float64(2.5e-5)] * 2)}
        for report in (plain, weighted,
                       replace(weighted, weights={}),
                       replace(weighted, weights=many),
                       replace(weighted, weights={"0": 1}),
                       replace(weighted, warnings=("stratum (t=0, z=1) is small",)),
                       replace(plain, warnings=("Γ ≥ 2: «bound» may be loose",
                                                'a "quoted"\nline'))):
            assert report.to_json() == reference(report)
        with pytest.raises(ValueError):
            replace(weighted, weights={"0": float("nan")}).to_json()

    def test_weights_json_byte_identical(self):
        # n >= 120, so keys "9", "10" and "100" sort differently as text
        rng = np.random.default_rng(9)
        n = 150
        t = (rng.random(n) < 0.3).astype(int)
        t[[9, 10, 100]] = 0
        data = Dataset(y=rng.normal(t, 1.0), t=t)
        config = RunConfig(command="att", model="distributional", gamma=2.0,
                           delta=0.3, m=5, emit_weights=True)
        report = run(config, data)
        result = distributional_att_bound(data, config.sensitivity())
        old = {str(k): v for k, v in sorted(result.weights.items())}
        assert {"9", "10", "100"} <= old.keys()
        assert report.weights == old
        assert list(report.weights) == sorted(old) != list(old)
        assert report.to_json() == json.dumps(
            asdict(replace(report, weights=old)), indent=2, sort_keys=True,
            allow_nan=False)

    def test_log_outcome(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,t\n0,0\n1,0\n2,1\n3,1\n")
        config = RunConfig(command="att", model="marginal", gamma=1.0,
                           input=str(path), log_outcome=True, log_offset=1.0)
        report = run(config)
        expected = np.log([3.0, 4.0]).mean() - np.log([1.0, 2.0]).mean()
        assert report.estimate == pytest.approx(expected)

    @pytest.mark.parametrize("command,bound", [("did", did_att_bound),
                                               ("cic", cic_att_bound)])
    def test_log_outcome_with_baseline(self, tmp_path, command, bound):
        rng = np.random.default_rng(17)
        path = tmp_path / "d.csv"
        path.write_text("y,t,y_b\n" + "".join(
            f"{rng.uniform(-0.4, 5):.4f},{t},{rng.uniform(-0.4, 4):.4f}\n"
            for t in (0, 1) * 30))
        knobs = {"gamma": 2.0, "delta": 0.3, "m": 10, "epsilon": 0.2}
        report = run(RunConfig(command=command, model="distributional", input=str(path),
                               columns=ColumnMap(baseline="y_b"), log_outcome=True,
                               log_offset=0.5, emit_weights=True, **knobs))
        data = load_csv(str(path), ColumnMap(baseline="y_b"))
        logged = Dataset(y=np.log(data.y + 0.5), t=data.t, y_b=np.log(data.y_b + 0.5))
        want = bound(logged, SensitivityConfig(**knobs))
        assert report.status == want.status == "optimal"
        assert (report.estimate, report.active_shift, report.se) == \
            (want.estimate, want.active_shift, want.se)
        assert report.weights == {str(k): v for k, v in want.weights.items()}

    @pytest.mark.parametrize("column,named", [("y", "outcome"), ("y_b", "baseline")])
    def test_log_outcome_needs_positive_shifted_values(self, tmp_path, capsys, column,
                                                       named):
        path = tmp_path / "d.csv"
        rows = [{"y": 1.0 + i, "t": i % 2, "y_b": 2.0 + i} for i in range(6)]
        rows[3][column] = -1.0  # -1 + offset 1 is not positive
        path.write_text("y,t,y_b\n" + "".join(f"{r['y']},{r['t']},{r['y_b']}\n"
                                              for r in rows))
        assert main(["did", "--input", str(path), "--log-outcome", "--log-offset", "1"]) == 1
        assert capsys.readouterr().err == f"error: log transform needs {named} + offset > 0\n"

    def test_sensitivity_knobs_are_run_knobs(self):
        # RunConfig.sensitivity() reads SensitivityConfig's fields by name
        run_fields = {f.name: f.default for f in fields(RunConfig)}
        for f in fields(SensitivityConfig):
            assert f.name in run_fields and run_fields[f.name] == f.default, f.name
        knobs = {"gamma": 3.0, "delta": 0.2, "epsilon": 0.1, "lambda_tv": 0.4, "m": 7,
                 "balance_lambda": 0.5, "direction": "upper", "ks_mode": "exact_atoms"}
        assert RunConfig(command="att", **knobs).sensitivity() == SensitivityConfig(**knobs)

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


def _covariate_files(tmp_path):
    """The same sample with and without an ``x1`` column whose row 7 holds
    text."""
    rng = np.random.default_rng(16)
    header, rows = "y,t,y_b,z", []
    for i in range(40):
        t, z = i % 2, (i // 2) % 2
        rows.append(f"{rng.normal(t, 1):.4f},{t},{rng.normal(0, 1):.4f},{z}")
    plain, with_x = tmp_path / "plain.csv", tmp_path / "with_x.csv"
    plain.write_text("\n".join([header] + rows) + "\n")
    x = [f"{v:.3f}" for v in rng.normal(size=len(rows))]
    x[6] = "abc"
    with_x.write_text("\n".join([header + ",x1"] + [
        f"{row},{v}" for row, v in zip(rows, x)]) + "\n")
    return str(plain), str(with_x)


class TestCovariatesReadOnDemand:
    @pytest.mark.parametrize("argv", [
        ["att", "--model", "distributional", "--gamma", "2", "--delta", "0.5",
         "--m", "3", "--emit-weights"],
        ["atc", "--model", "marginal", "--gamma", "2"],
        ["did", "--gamma", "2", "--delta", "0.5", "--epsilon", "0.5", "--m", "3"],
        ["cic", "--gamma", "2", "--delta", "0.5", "--epsilon", "0.5", "--m", "3"],
        ["iv", "--gamma", "2", "--delta", "1", "--m", "2"],
        ["sweep", "--model", "distributional", "--gammas", "1.5,2",
         "--deltas", "0.3,0.6", "--m", "3"],
        ["sweep", "--model", "tv", "--lambda-tv", "0.2"],
    ], ids=["att", "atc", "did", "cic", "iv", "sweep", "sweep_tv"])
    def test_runs_ignore_a_bad_covariate(self, tmp_path, capsys, argv):
        outputs = []
        for path in _covariate_files(tmp_path):
            assert main(argv + ["--input", path]) == 0
            text = capsys.readouterr().out
            if argv[0] != "sweep":
                report = json.loads(text)
                assert report["config"].pop("input") == path
                assert report["config"]["columns"]["covariate_prefix"] == "x"
                report.pop("runtime_ms")
                text = report
            outputs.append(text)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["att", "did", "sweep"])
    def test_balance_run_reads_covariates(self, tmp_path, capsys, command):
        _, with_x = _covariate_files(tmp_path)
        code = main([command, "--input", with_x, "--model", "distributional",
                     "--balance-lambda", "0.5", "--m", "3"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: bad input rows: row 7: non-numeric value 'abc' in column 'x1'\n")

    def test_load_csv_reads_covariates_by_default(self, tmp_path):
        plain, with_x = _covariate_files(tmp_path)
        with pytest.raises(ValueError, match="row 7: non-numeric value 'abc'"):
            load_csv(with_x)
        assert load_csv(plain).x is None
        assert load_csv(with_x, ColumnMap(covariate_prefix=None)).x is None


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

    def test_cells_match_run_with_log_outcome(self, tmp_path):
        # gamma = 1 with delta = 0 has no feasible shift: that cell's
        # estimates and standard errors are written as empty fields
        path = tmp_path / "d.csv"
        path.write_text("y,t\n1,0\n2,0\n4,0\n3,1\n5,1\n9,1\n")
        config = RunConfig(command="sweep", model="distributional", m=3,
                           input=str(path), log_outcome=True)
        gammas, deltas = [1.0, 2.0], [0.0, 0.5]
        rows = sweep(config, gammas, deltas).splitlines()[1:]
        expected = []
        for g in gammas:
            for d in deltas:
                low, up = (run(replace(config, command="att", gamma=g, delta=d,
                                       direction=direction))
                           for direction in ("lower", "upper"))
                status = ("optimal" if low.status == up.status == "optimal"
                          else "infeasible")
                expected.append(",".join(
                    [f"{g:g}", f"{d:g}"]
                    + ["" if x is None else f"{x:.6f}"
                       for x in (low.estimate, up.estimate, low.se, up.se)]
                    + [status]))
        assert rows == expected
        assert rows[0] == "1,0,,,,,infeasible"
        assert rows[-1].endswith(",optimal")

    def test_empty_grid_rejected(self, fixture_csv):
        config = RunConfig(command="sweep", input=fixture_csv)
        with pytest.raises(ValueError):
            sweep(config, [], [0.1])

    @pytest.mark.parametrize("ks_mode,m", [("grid", 30), ("exact_atoms", 8)])
    def test_cells_bit_identical_to_separate_bounds(self, monkeypatch, ks_mode, m):
        # earnings-scale outcomes rounded to 100, a third of them zero, so
        # most control atoms are tied
        rng = np.random.default_rng(70)
        n = 2000
        t = (rng.random(n) < 0.3).astype(int)
        raw = np.round(np.exp(rng.normal(9.6 + 0.1 * t, 0.75, n)) / 100.0) * 100.0
        y = np.where(rng.random(n) < 0.3, 0.0, raw)
        data = Dataset(y=y, t=t)
        gammas, deltas = [1.0, 2.0, 4.0], [0.0, 0.02, 0.2]
        seen = []

        def recording(*args):
            for pair in drci.dro_solvers._distributional_sweep(*args):
                seen.append(pair)
                yield pair

        monkeypatch.setattr(cli_io, "_distributional_sweep", recording)
        config = RunConfig(command="sweep", model="distributional", m=m,
                           ks_mode=ks_mode)
        rows = sweep(config, gammas, deltas, data).splitlines()[1:]
        assert len(seen) == len(rows) == 9
        statuses = set()
        for (g, d), pair in zip([(g, d) for g in gammas for d in deltas], seen):
            for got, direction in zip(pair, ("lower", "upper")):
                want = distributional_att_bound(data, SensitivityConfig(
                    gamma=g, delta=d, m=m, ks_mode=ks_mode, direction=direction))
                statuses.add(want.status)
                assert got.status == want.status
                assert got.direction == want.direction
                assert got.active_shift == want.active_shift
                np.testing.assert_array_equal(
                    [got.estimate, got.se], [want.estimate, want.se], strict=True)
                np.testing.assert_array_equal(got.weight_index, want.weight_index,
                                              strict=True)
                np.testing.assert_array_equal(got.weight_values, want.weight_values,
                                              strict=True)
        assert statuses == {"optimal", "infeasible"}

    def test_marginal_cells_match_separate_bounds(self, fixture_csv):
        config = RunConfig(command="sweep", model="marginal", input=fixture_csv)
        data = load_csv(fixture_csv)
        gammas, deltas = [1.0, 3.0], [0.1, 0.5]
        rows = sweep(config, gammas, deltas).splitlines()[1:]
        expected = []
        for g in gammas:
            low, up = (drci.dro_solvers.marginal_att_bound(data, g, direction)
                       for direction in ("lower", "upper"))
            for d in deltas:
                expected.append(f"{g:g},{d:g},{low.estimate:.6f},{up.estimate:.6f},"
                                f"{low.se:.6f},{up.se:.6f},optimal")
        assert rows == expected


class TestMain:
    def test_att_exit_zero(self, fixture_csv, capsys):
        code = main(["att", "--input", fixture_csv, "--model", "marginal",
                     "--gamma", "1.0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["estimate"] == pytest.approx(1.5)

    def test_parser_reuse_matches_fresh_processes(self, tmp_path):
        rng = np.random.default_rng(12)
        path = tmp_path / "d.csv"
        path.write_text("y,t\n" + "".join(
            f"{rng.normal(t, 1):.4f},{t}\n" for t in [0, 1, 0] * 8))
        argvs = [
            ["att", "--input", str(path), "--model", "distributional",
             "--gamma", "2", "--delta", "0.5", "--m", "3", "--emit-weights"],
            ["atc", "--input", str(path), "--model", "marginal",
             "--gamma", "1.5", "--direction", "upper"],
        ]

        # the output path is echoed in the report, so both runs share it
        outs = [tmp_path / f"report{i}.json" for i in range(len(argvs))]
        argvs = [argv + ["--output", str(out)] for argv, out in zip(argvs, outs)]

        def report(out):
            text = json.loads(out.read_text())
            text.pop("runtime_ms")
            return text

        same_process = []
        for argv, out in zip(argvs, outs):
            assert main(argv) == 0
            same_process.append(report(out))
        assert cli_io._build_parser() is cli_io._build_parser()

        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(cli_io.__file__)))
        for argv, out, expected in zip(argvs, outs, same_process):
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; from drci.cli_io import main; "
                 "sys.exit(main(sys.argv[1:]))", *argv],
                env=env, check=True)
            assert report(out) == expected
        assert same_process[0]["weights"]
        assert same_process[1]["weights"] is None
        assert same_process[1]["config"]["emit_weights"] is False

    @pytest.mark.parametrize("command", ["att", "atc", "did", "cic", "iv"])
    def test_report_file_is_the_asdict_dump(self, tmp_path, command):
        # n >= 150 with tied outcomes, and controls 9, 10 and 100, whose keys
        # sort differently as text
        rng = np.random.default_rng(11)
        n = 160
        t = (rng.random(n) < 0.4).astype(int)
        t[[9, 10, 100]] = 0
        z = rng.integers(0, 2, n)
        y = np.round(rng.normal(t, 1.0) * 4) / 4
        y_b = np.round(y - rng.normal(0.2, 0.5, n), 1)
        path = tmp_path / "d.csv"
        path.write_text("y,t,y_b,z\n" + "".join(
            f"{a!r},{b},{c!r},{d}\n" for a, b, c, d in zip(y.tolist(), t, y_b.tolist(), z)))
        out = tmp_path / "report.json"
        argv = [command, "--input", str(path), "--output", str(out), "--model",
                "distributional", "--gamma", "2", "--delta", "0.3", "--m", "5",
                "--epsilon", "0.5", "--emit-weights"]
        assert main(argv) == 0
        text = out.read_text(encoding="utf-8")
        report = run(cli_io.build_config(cli_io._build_parser().parse_args(argv)))
        assert report.weights
        if command != "atc":  # atc weighs the treated
            assert {"9", "10", "100"} <= report.weights.keys()
        report = replace(report, runtime_ms=json.loads(text)["runtime_ms"])
        assert text == json.dumps(asdict(report), indent=2, sort_keys=True, allow_nan=False)

    def test_infeasible_exit_two(self, fixture_csv, capsys):
        code = main(["att", "--input", fixture_csv, "--model",
                     "distributional", "--gamma", "1.0", "--delta", "0.0",
                     "--m", "3", "--ks-mode", "exact_atoms"])
        assert code == 2

    def test_error_exit_one(self, capsys):
        code = main(["att", "--input", "/nonexistent.csv"])
        assert code == 1

    @pytest.mark.parametrize("knob,value", [
        ("gamma", math.nan), ("epsilon", math.nan), ("balance_lambda", math.nan),
        ("balance_epsilon", math.nan), ("m", 2.5), ("gamma", math.inf),
        ("balance_lambda", math.inf),
    ])
    def test_nan_or_fractional_knob_exit_one(self, fixture_csv, tmp_path, capsys,
                                             knob, value):
        with pytest.raises(ValueError, match=knob):
            SensitivityConfig(**{knob: value})
        if knob == "m":  # --m parses integers only; a config file passes 2.5 on
            conf = tmp_path / "cfg.json"
            conf.write_text(json.dumps({knob: value}))
            flags = ["--config", str(conf)]
        else:
            flags = ["--" + knob.replace("_", "-"), str(value)]
        code = main(["att", "--input", fixture_csv, "--model", "marginal", *flags])
        assert code == 1
        assert knob in capsys.readouterr().err

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

    def test_both_balance_forms_exit_one(self, tmp_path, capsys):
        path = tmp_path / "cov.csv"
        path.write_text("y,t,x1\n" + "".join(
            f"{i * 0.37 % 2:.3f},{i % 2},{i * 0.61 % 1:.3f}\n" for i in range(20)))
        code = main(["att", "--input", str(path), "--model", "distributional",
                     "--gamma", "2", "--delta", "0.3", "--m", "10",
                     "--balance-lambda", "1", "--balance-epsilon", "0.2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: balance_lambda and balance_epsilon exclude")
        assert captured.out == ""

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

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_infinite_balance_epsilon_reports_strict_json(self, tmp_path, capsys,
                                                          direction):
        # an infinite cap is accepted and solved; the report must still be
        # strict JSON, with the knob echoed as null
        rng = np.random.default_rng(15)
        path = tmp_path / "cov.csv"
        path.write_text("y,t,x1\n" + "".join(
            f"{rng.normal(t, 1):.4f},{t},{rng.random():.3f}\n" for t in (0, 1) * 10))
        code = main(["att", "--input", str(path), "--model", "distributional",
                     "--gamma", "2", "--delta", "0.3", "--m", "10",
                     "--balance-epsilon", "inf", "--direction", direction])
        assert code == 0
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert report["config"]["balance_epsilon"] is None
        free = distributional_att_bound(load_csv(str(path)), SensitivityConfig(
            gamma=2.0, delta=0.3, m=10, direction=direction))
        assert report["estimate"] == pytest.approx(free.estimate, abs=1e-8)

    def test_infinite_config_file_value_reports_strict_json(self, fixture_csv, tmp_path,
                                                            capsys):
        conf = tmp_path / "cfg.json"
        conf.write_text('{"model": "marginal", "p": Infinity}')
        code = main(["att", "--config", str(conf), "--input", fixture_csv])
        assert code == 0
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert report["config"]["p"] is None

    def test_non_finite_list_values_echo_as_null(self, fixture_csv, tmp_path, capsys):
        # a setting the bound does not read, but the report echoes
        conf = tmp_path / "cfg.json"
        conf.write_text('{"deltas": [NaN], "gammas": [2.0, Infinity]}')
        code = main(["att", "--config", str(conf), "--input", fixture_csv])
        assert code == 0
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert report["config"]["deltas"] == [None]
        assert report["config"]["gammas"] == [2.0, None]

    def test_overflowing_outcomes_exit_1(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("y,t\n-1e308,0\n0,1\n1,0\n1e308,1\n2,0\n-3,1\n")
        with np.errstate(over="ignore"):
            code = main(["att", "--input", str(path), "--model", "distributional",
                         "--gamma", "2", "--delta", "0.5", "--m", "3"])
        assert code == 1
        assert "overflow" in capsys.readouterr().err

    def test_output_file_written_atomically(self, fixture_csv, tmp_path):
        out = tmp_path / "report.json"
        code = main(["att", "--input", fixture_csv, "--model", "marginal",
                     "--gamma", "1.0", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["status"] == "optimal"
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640)],
                             ids=["umask022", "umask027"])
    def test_output_file_mode_follows_umask(self, fixture_csv, tmp_path,
                                            umask, mode):
        out = tmp_path / "report.json"
        old = os.umask(umask)
        try:
            code = main(["att", "--input", fixture_csv, "--model", "marginal",
                         "--output", str(out)])
        finally:
            os.umask(old)
        assert code == 0
        assert out.stat().st_mode & 0o777 == mode

    def test_oversized_field_exit_one(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("y,t\n1,0\n" + "a" * 200_000 + ",1\n")
        code = main(["att", "--input", str(path), "--model", "marginal"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: field larger than field limit (131072)\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flags,message", [
        (["--gamma", "abc"], "argument --gamma: invalid float value: 'abc'"),
        (["--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["--direction", "sideways"], "argument --direction: invalid choice: 'sideways'"),
    ], ids=["bad_float", "unknown_flag", "bad_choice"])
    def test_usage_error_exit_one(self, fixture_csv, capsys, flags, message):
        code = main(["att", "--input", fixture_csv, "--model", "marginal", *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.err.startswith("usage: drci")
        assert captured.out == ""

    def test_help_exit_zero(self, capsys):
        assert main(["att", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: drci att")

    @pytest.mark.parametrize("argv,named", [
        (["att", "--model", "marginal", "--balance-lambda", "5"], "balance_lambda"),
        (["atc", "--model", "tv", "--balance-epsilon", "0"], "balance_epsilon"),
        (["sweep", "--model", "marginal", "--balance-lambda", "5"], "balance_lambda"),
        (["iv", "--balance-epsilon", "0", "--m", "2"], "balance_epsilon"),
    ], ids=["att_marginal", "atc_tv", "sweep_marginal", "iv"])
    def test_balance_knob_without_balance_terms_exit_one(self, tmp_path, capsys,
                                                         argv, named):
        path = tmp_path / "d.csv"
        path.write_text("y,t,z,x1\n" + "".join(
            f"{i},{i % 2},{(i // 2) % 2},{i % 3}\n" for i in range(12)))
        assert main(argv + ["--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} is not supported by ")
        assert ("iv" if argv[0] == "iv" else argv[2]) in err

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

    def test_simulate_drops_one_arm_draws(self, tmp_path):
        # 5 of these 300 draws of 6 units leave an arm empty
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--n", "6", "--reps", "300", "--gammas", "2,3",
                     "--delta", "0.3", "--seed", "0", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5
        assert [line.split(",")[0] for line in lines[1:]] == [
            "distributional", "distributional", "marginal", "marginal"]
        assert [line.rsplit(",", 1)[1] for line in lines[3:]] == ["295", "295"]

    @pytest.mark.parametrize("flag,value", [("--reps", "0"), ("--n", "1")])
    def test_simulate_rejects_bad_sizes(self, capsys, flag, value):
        assert main(["simulate", flag, value]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag,value", [("--tau1", "nan"), ("--tau2", "inf")])
    def test_simulate_rejects_nonfinite_effects(self, capsys, flag, value):
        assert main(["simulate", flag, value]) == 1
        assert capsys.readouterr().err == "error: tau1 and tau2 must be finite\n"

    def test_simulate_rejects_a_null_seed(self, capsys, tmp_path):
        conf = tmp_path / "sim.json"
        conf.write_text('{"seed": null, "reps": 2}')
        assert main(["simulate", "--config", str(conf)]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be a non-negative integer")

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
