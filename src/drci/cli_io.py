"""CSV ingestion, configuration, reporting, and the ``drci`` command line.

Commands: ``att``, ``atc``, ``did``, ``cic``, ``iv`` produce a JSON report
(solver warnings included); ``simulate`` emits the Monte Carlo bias table as
CSV; ``sweep`` solves both directions over a gamma x delta grid and emits
CSV.  Configuration comes from an optional JSON file with CLI flags taking
precedence.  Exit codes: 0 optimal, 2 infeasible, 1 error (a usage error, bad
input or a failed linear program).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .distributions import Dataset
from .dro_solvers import (BoundResult, SensitivityConfig, _att_bound, _distributional_sweep,
                          atc_bound)
from .extensions import cic_att_bound, did_att_bound, iv_att_bound
from .synthetic import Scenario, run_monte_carlo

__all__ = ["ColumnMap", "RunConfig", "Report", "load_csv", "run", "sweep", "main"]

_COMMANDS = ("att", "atc", "did", "cic", "iv", "simulate", "sweep")
_MODELS = ("marginal", "distributional", "tv")


@dataclass(frozen=True)
class ColumnMap:
    """Input column names; ``baseline``/``instrument`` are opt-in, and a
    ``covariate_prefix`` of ``None`` reads no covariates."""

    outcome: str = "y"
    treatment: str = "t"
    baseline: str | None = None
    instrument: str | None = None
    covariate_prefix: str | None = "x"


@dataclass
class RunConfig:
    """Merged configuration for one CLI invocation."""

    command: str
    model: str = "marginal"
    gamma: float = 1.0
    delta: float = 1.0
    epsilon: float = math.inf
    lambda_tv: float = 0.0
    m: int = 50
    balance_lambda: float = 0.0
    balance_epsilon: float | None = None
    direction: str = "lower"
    ks_mode: str = "grid"
    input: str | None = None
    output: str | None = None
    columns: ColumnMap = field(default_factory=ColumnMap)
    seed: int = 0
    log_outcome: bool = False
    log_offset: float = 1.0
    emit_weights: bool = False
    # simulate-only knobs
    tau1: float = 2.0
    tau2: float = 3.0
    p: float = 0.5
    n: int = 100
    reps: int = 1000
    gammas: tuple[float, ...] = (2.0, 3.0, 5.0)
    deltas: tuple[float, ...] = ()
    models: tuple[str, ...] = ("distributional", "marginal")

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.model not in _MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.command in ("did", "cic", "iv") and self.model != "distributional":
            raise ValueError(f"{self.command} requires the distributional model")

    def sensitivity(self) -> SensitivityConfig:
        """The :class:`SensitivityConfig` of this run's same-named fields."""
        return SensitivityConfig(**{f.name: getattr(self, f.name)
                                    for f in fields(SensitivityConfig)})

    def echo(self) -> dict:
        # the round trip normalizes containers, so that the report round-trips
        # through JSON exactly, and reads every non-finite float (epsilon = inf
        # by default), at any depth, as null
        return json.loads(json.dumps(asdict(self)), parse_constant=lambda _: None)


def _json_float(x):
    """Map non-finite floats to None so reports stay strict-JSON."""
    if x is None or (isinstance(x, float) and not math.isfinite(x)):
        return None
    return x


@dataclass(frozen=True)
class Report:
    """JSON-serializable result of one solve; round-trips losslessly."""

    estimate: float | None
    direction: str
    gamma: float
    delta: float
    epsilon: float | None
    active_shift: float | None
    se: float | None
    status: str
    n: int
    n1: int
    n0: int
    weights: dict[str, float] | None
    runtime_ms: float
    config: dict
    warnings: tuple[str, ...] = ()

    def to_json(self) -> str:
        """Strict JSON, keys sorted, indented by 2."""
        return json.dumps(asdict(self), indent=2, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        raw = json.loads(text)
        raw["warnings"] = tuple(raw.get("warnings", ()))
        return cls(**raw)


def _report_json(report: Report, weights: str | None) -> str:
    """``report`` as :meth:`Report.to_json` writes it, with ``weights``, the
    text of the weights object (:func:`_weights_json`), in place of
    ``report.weights`` (``None`` writes ``null``)."""
    head = {f.name: getattr(report, f.name) for f in fields(report)}
    head["weights"] = None
    text = json.dumps(head, indent=2, sort_keys=True, allow_nan=False)
    if weights is None:
        return text
    # json escapes newlines in strings and indents nested keys deeper,
    # so only the top-level key matches
    return text.replace('\n  "weights": null', '\n  "weights": ' + weights, 1)


def _weights_json(index: np.ndarray, values: np.ndarray) -> str:
    """The weights object as an ``indent=2`` dump writes it one level deep,
    for the unit indices ``index`` (ascending, below 10**18) with weights
    ``values``: keys in text order (:func:`_text_order`), each value as
    ``float.__repr__`` writes it.  Weights take few distinct values, so each
    distinct value is formatted once."""
    if not index.size:
        return "{}"
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    order = _text_order(index)
    # distinct bit patterns, so that -0.0 keeps its sign
    bits, inverse = np.unique(values[order].view(np.int64), return_inverse=True)
    texts = np.array([float.__repr__(v) for v in bits.view(np.float64).tolist()],
                     dtype=object)[inverse].tolist()
    items = [f'"{k}": {v}' for k, v in zip(index[order].tolist(), texts)]
    return "{\n    " + ",\n    ".join(items) + "\n  }"


def load_csv(path: str, columns: ColumnMap | None = None) -> Dataset:
    """Parse a UTF-8 CSV with a header row into a Dataset.

    Bad rows are reported by 1-based data-row number; the treatment column
    must be exactly 0 or 1.  Covariates are every column starting with the
    covariate prefix (natural-ordered when the suffixes are numeric).  A
    leading byte-order mark is ignored.

    The needed columns are parsed in one ``np.loadtxt`` call, which reads
    the file itself after the header; the text after the header is only
    screened.  A file that read does not take as is (a quote after the
    header, a lone carriage return, a line over the csv field size limit,
    text that is not UTF-8, a bad or non-binary value, a missing column, no
    data rows) is parsed again row by row, which accepts everything
    ``float()`` does and names the bad rows.  An input that is not a
    regular file, such as a pipe, can be read only once: its bytes are read
    whole first, and both parsers read those.
    """
    columns = columns or ColumnMap()
    if not os.path.isfile(path):
        with open(path, "rb") as fh:
            path = io.BytesIO(fh.read())
    data = _load_columnar(path, columns)
    return data if data is not None else _load_rows(path, columns)


def _open_text(source):
    """``source``, a path or an input's bytes read whole, as CSV text."""
    if not isinstance(source, io.BytesIO):
        return open(source, newline="", encoding="utf-8-sig")
    # a copy, so that closing it leaves ``source`` to the next reader
    return io.TextIOWrapper(io.BytesIO(source.getvalue()), newline="", encoding="utf-8-sig")


# names that np.loadtxt opens as compressed files, whatever they hold
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _load_columnar(path, columns: ColumnMap) -> Dataset | None:
    """The columnar read of :func:`_open_text`'s ``source``; ``None`` for
    any input the row parser must see."""
    try:
        with _open_text(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            body = fh.read()
    except (UnicodeDecodeError, csv.Error):  # reported by the row parser
        return None
    if header is None or not _body_fits(body):
        return None
    name = path if isinstance(path, io.BytesIO) else os.fspath(path)
    if isinstance(name, str) and os.path.isfile(name) and not name.endswith(_COMPRESSED):
        # NumPy reads the file itself, past the header's physical lines; with
        # no lone carriage return left, its universal newlines split the
        # rest as the csv module does.  Anchored at the working directory,
        # the name is never taken for a URL.
        source, header_lines = os.path.join(os.getcwd(), name), reader.line_num
        del body
    else:  # a pipe cannot be read twice
        source, header_lines = io.StringIO(body), 0
    cov_cols = _covariate_columns(header, columns)
    wanted = [c for c in (columns.outcome, columns.treatment, columns.baseline,
                          columns.instrument) if c is not None] + cov_cols
    # a repeated name reads its last column, as csv.DictReader does
    index = {name: i for i, name in enumerate(header)}
    if any(c not in index for c in wanted):
        return None
    try:
        table = np.loadtxt(source, delimiter=",", comments=None, encoding="utf-8-sig",
                           skiprows=header_lines, usecols=[index[c] for c in wanted],
                           ndmin=2)
    except ValueError:
        return None

    def column(name):
        return None if name is None else table[:, wanted.index(name)].copy()

    t, z = column(columns.treatment), column(columns.instrument)
    if not all(np.isin(b, (0.0, 1.0)).all() for b in (t, z) if b is not None):
        return None
    x = table[:, len(wanted) - len(cov_cols):].copy() if cov_cols else None
    return Dataset(y=column(columns.outcome), t=t, y_b=column(columns.baseline),
                   z=z, x=x)


def _body_fits(body: str) -> bool:
    """Whether the columnar read may take the text after the header: some
    non-blank text, no quote, no carriage return outside a CRLF line end,
    and no line longer than the csv module's field size limit (the row
    parser refuses such fields)."""
    if not body or body.isspace() or '"' in body:
        return False
    if "\r" in body and body.count("\r") != body.count("\r\n"):
        return False
    limit = csv.field_size_limit()
    return len(body) <= limit or _lines_fit(body, limit)


def _lines_fit(text: str, limit: int) -> bool:
    """Whether no line of ``text`` is longer than ``limit``.  When every
    aligned block of ``limit // 2`` characters holds a newline, a line spans
    at most two blocks less a character, and the lines are not measured."""
    block = limit // 2
    if block and all(text.find("\n", i, i + block) >= 0
                     for i in range(0, len(text) - block + 1, block)):
        return True
    return _longest_line(text) <= limit


def _longest_line(text: str) -> int:
    """Length of the longest line in UTF-8 bytes (at least its characters)."""
    raw = np.frombuffer(text.encode("utf-8"), np.uint8)
    ends = np.concatenate(([-1], np.flatnonzero(raw == ord("\n")), [raw.size]))
    return int(np.diff(ends).max()) - 1


def _load_rows(path, columns: ColumnMap) -> Dataset:
    """The row parser: ``csv.DictReader`` and ``float()`` per cell."""
    with _open_text(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError("input CSV is empty")
        header = list(reader.fieldnames)
        for name, col in (("outcome", columns.outcome),
                          ("treatment", columns.treatment),
                          ("baseline", columns.baseline),
                          ("instrument", columns.instrument)):
            if col is not None and col not in header:
                raise ValueError(f"missing {name} column {col!r}")
        cov_cols = _covariate_columns(header, columns)
        rows = list(reader)
    if not rows:
        raise ValueError("input CSV has no data rows")

    y, t, yb, z, x = [], [], [], [], []
    problems = []
    for rownum, row in enumerate(rows, start=1):
        try:
            y.append(_parse_float(row, columns.outcome))
            t.append(_parse_binary(row, columns.treatment))
            if columns.baseline is not None:
                yb.append(_parse_float(row, columns.baseline))
            if columns.instrument is not None:
                z.append(_parse_binary(row, columns.instrument))
            x.append([_parse_float(row, c) for c in cov_cols])
        except ValueError as exc:
            problems.append(f"row {rownum}: {exc}")
    if problems:
        raise ValueError("bad input rows: " + "; ".join(problems[:10]))
    return Dataset(
        y=np.asarray(y),
        t=np.asarray(t),
        y_b=np.asarray(yb) if yb else None,
        z=np.asarray(z) if z else None,
        x=np.asarray(x) if cov_cols else None,
    )


def _covariate_columns(header, columns: ColumnMap) -> list[str]:
    if columns.covariate_prefix is None:
        return []
    reserved = {columns.outcome, columns.treatment, columns.baseline,
                columns.instrument}
    cands = [c for c in header
             if c not in reserved and c.startswith(columns.covariate_prefix)]
    suffixes = [c[len(columns.covariate_prefix):] for c in cands]
    if cands and all(re.fullmatch(r"\d+", s) for s in suffixes):
        cands.sort(key=lambda c: int(c[len(columns.covariate_prefix):]))
    else:
        cands.sort()
    return cands


def _parse_float(row: dict, col: str) -> float:
    raw = (row.get(col) or "").strip()
    if not raw:
        raise ValueError(f"missing value in column {col!r}")
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"non-numeric value {raw!r} in column {col!r}") from None


def _parse_binary(row: dict, col: str) -> int:
    value = _parse_float(row, col)
    if value not in (0.0, 1.0):
        raise ValueError(f"column {col!r} must be 0/1, got {value:g}")
    return int(value)


def _log_transform(data: Dataset, offset: float) -> Dataset:
    shifted = data.y + offset
    if np.any(shifted <= 0):
        raise ValueError("log transform needs outcome + offset > 0")
    y = np.log(shifted)
    y_b = None
    if data.y_b is not None:
        shifted_b = data.y_b + offset
        if np.any(shifted_b <= 0):
            raise ValueError("log transform needs baseline + offset > 0")
        y_b = np.log(shifted_b)
    return Dataset(y=y, t=data.t, y_b=y_b, z=data.z, x=data.x)


def _dataset(config: RunConfig, data: Dataset | None, balance: bool) -> Dataset:
    """``data``, or else ``config.input`` read without its covariates unless
    the run has ``balance`` terms (their only reader), log-transformed if
    asked."""
    if data is None:
        if config.input is None:
            raise ValueError("no input file configured")
        columns = config.columns if balance else \
            replace(config.columns, covariate_prefix=None)
        data = load_csv(config.input, columns)
    if config.log_outcome:
        data = _log_transform(data, config.log_offset)
    return data


def _solve(config: RunConfig, sens: SensitivityConfig, data: Dataset) -> BoundResult:
    if config.command == "att":
        return _att_bound(data, config.model, sens)
    if config.command == "atc":
        return atc_bound(data, config.model, sens)
    if config.command == "did":
        return did_att_bound(data, sens)
    if config.command == "cic":
        return cic_att_bound(data, sens)
    if config.command == "iv":
        return iv_att_bound(data, sens)
    raise ValueError(f"run() does not handle command {config.command!r}")


def run(config: RunConfig, data: Dataset | None = None) -> Report:
    """Load (unless given), solve, and wrap the result in a Report."""
    report, emitted = _run(config, data)
    if emitted is None:
        return report
    return replace(report, weights=_report_weights(emitted))


def _run(config: RunConfig, data: Dataset | None = None) -> tuple[Report, BoundResult | None]:
    """:func:`run`'s Report without its weights, and the result whose weights
    it holds (``None`` when it holds none)."""
    start = time.perf_counter()
    sens = config.sensitivity()
    data = _dataset(config, data, sens.wants_balance)
    result = _solve(config, sens, data)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    report = Report(
        estimate=_json_float(result.estimate),
        direction=result.direction,
        gamma=config.gamma,
        delta=config.delta,
        epsilon=_json_float(config.epsilon),
        active_shift=_json_float(result.active_shift),
        se=_json_float(result.se),
        status=result.status,
        n=data.n,
        n1=data.n1,
        n0=data.n0,
        weights=None,
        runtime_ms=runtime_ms,
        config=config.echo(),
        warnings=result.warnings,
    )
    emits = config.emit_weights and result.status == "optimal"
    return report, result if emits else None


def _report_weights(result: BoundResult) -> dict[str, float]:
    """The weights keyed by unit index as text, in the text order the JSON
    report writes them."""
    order = _text_order(result.weight_index)
    keys = map(str, result.weight_index[order].tolist())
    return dict(zip(keys, result.weight_values[order].tolist()))


_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _text_order(index: np.ndarray) -> np.ndarray:
    """The order that sorts strictly ascending integers in [0, 10**18) by
    their decimal text.  Padding ``i`` of ``d`` digits to ``D`` gives
    ``i * 10**(D - d)``; text order is that value's order, and on a tie the
    shorter text, which is the smaller integer, comes first."""
    digits = np.searchsorted(_POW10[1:], index, side="right") + 1
    return np.argsort(index * _POW10[digits.max(initial=0) - digits], kind="stable")


def sweep(config: RunConfig, gamma_list, delta_list, data: Dataset | None = None) -> str:
    """CSV table over the gamma x delta grid, both directions per cell.

    The distributional model without balance terms solves the whole grid
    from one solve plan, one scan per cell for both directions; the other
    models solve each bound on its own.
    """
    if not gamma_list or not delta_list:
        raise ValueError("sweep needs nonempty gamma and delta grids")
    gammas, deltas = [float(g) for g in gamma_list], [float(d) for d in delta_list]
    # every cell's knobs are checked before any solve
    cells = [replace(config, gamma=g, delta=d).sensitivity()
             for g in gammas for d in deltas]
    data = _dataset(config, data, cells[0].wants_balance)
    if config.model == "distributional" and not cells[0].wants_balance:
        bounds = _distributional_sweep(data, cells[0], gammas, deltas)
    else:
        bounds = ((_att_bound(data, config.model, replace(cell, direction="lower")),
                   _att_bound(data, config.model, replace(cell, direction="upper")))
                  for cell in cells)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["gamma", "delta", "lower", "upper",
                     "se_lower", "se_upper", "status"])
    grid = ((g, d) for g in gamma_list for d in delta_list)
    for (g, d), (low, high) in zip(grid, bounds):
        status = "optimal" if (low.status == "optimal" and
                               high.status == "optimal") else "infeasible"
        writer.writerow([
            f"{g:g}", f"{d:g}",
            _fmt(low.estimate), _fmt(high.estimate),
            _fmt(low.se), _fmt(high.se), status,
        ])
    return buf.getvalue()


def _fmt(x) -> str:
    return "" if _json_float(x) is None else f"{x:.6f}"


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(config: RunConfig, text: str) -> None:
    if config.output:
        _write_atomic(config.output, text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# argument parsing


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing does not
    change it)."""
    parser = argparse.ArgumentParser(
        prog="drci",
        description="Distributionally robust treatment-effect bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--input")
        p.add_argument("--output")
        p.add_argument("--model", choices=_MODELS)
        p.add_argument("--gamma", type=float)
        p.add_argument("--delta", type=float)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--lambda-tv", dest="lambda_tv", type=float)
        p.add_argument("--m", type=int)
        p.add_argument("--direction", choices=("lower", "upper"))
        p.add_argument("--ks-mode", dest="ks_mode", choices=("grid", "exact_atoms"))
        p.add_argument("--balance-lambda", dest="balance_lambda", type=float)
        p.add_argument("--balance-epsilon", dest="balance_epsilon", type=float)
        p.add_argument("--log-outcome", dest="log_outcome", action="store_true",
                       default=None)
        p.add_argument("--log-offset", dest="log_offset", type=float)
        p.add_argument("--emit-weights", dest="emit_weights", action="store_true",
                       default=None)
        p.add_argument("--seed", type=int)
        p.add_argument("--outcome-col", dest="outcome_col")
        p.add_argument("--treatment-col", dest="treatment_col")
        p.add_argument("--baseline-col", dest="baseline_col")
        p.add_argument("--instrument-col", dest="instrument_col")
        p.add_argument("--covariate-prefix", dest="covariate_prefix")
        if name == "simulate":
            p.add_argument("--tau1", type=float)
            p.add_argument("--tau2", type=float)
            p.add_argument("--p", type=float)
            p.add_argument("--n", type=int)
            p.add_argument("--reps", type=int)
            p.add_argument("--gammas", type=_float_list)
            p.add_argument("--models")
        if name == "sweep":
            p.add_argument("--gammas", type=_float_list)
            p.add_argument("--deltas", type=_float_list)
    return parser


# IV grids default coarser: the shift-pair enumeration is quadratic in m
_IV_DEFAULT_M = 20


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, JSON config file, then explicit flags."""
    merged: dict = {"command": args.command}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_conf = json.load(fh)
        if not isinstance(file_conf, dict):
            raise ValueError("config file must hold a JSON object")
        merged.update(file_conf)
    col_flags = {
        "outcome": getattr(args, "outcome_col", None),
        "treatment": getattr(args, "treatment_col", None),
        "baseline": getattr(args, "baseline_col", None),
        "instrument": getattr(args, "instrument_col", None),
        "covariate_prefix": getattr(args, "covariate_prefix", None),
    }
    for key, value in vars(args).items():
        if key in ("command", "config") or key.endswith("_col") or \
                key == "covariate_prefix":
            continue
        if value is not None:
            merged[key] = value
    columns_conf = dict(merged.pop("columns", {}))
    columns_conf.update({k: v for k, v in col_flags.items() if v is not None})
    if args.command in ("did", "cic") and "baseline" not in columns_conf:
        columns_conf["baseline"] = "y_b"
    if args.command == "iv" and "instrument" not in columns_conf:
        columns_conf["instrument"] = "z"
    merged["columns"] = ColumnMap(**columns_conf)
    if args.command in ("did", "cic", "iv"):
        merged.setdefault("model", "distributional")
    if args.command == "iv":
        merged.setdefault("m", _IV_DEFAULT_M)
    if isinstance(merged.get("models"), str):
        merged["models"] = tuple(merged["models"].split(","))
    for key in ("gammas", "deltas"):
        if isinstance(merged.get(key), (list, tuple)):
            merged[key] = tuple(float(v) for v in merged[key])
    if merged.get("epsilon") is None:
        merged.pop("epsilon", None)
    return RunConfig(**merged)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has written the help or the usage error
        return 0 if exc.code == 0 else 1
    try:
        config = build_config(args)
        if config.command == "simulate":
            table = run_monte_carlo(
                Scenario(tau1=config.tau1, tau2=config.tau2, p=config.p),
                n=config.n,
                reps=config.reps,
                models=config.models,
                gammas=config.gammas,
                delta=config.delta,
                seed=config.seed,
                m=config.m,
                ks_mode=config.ks_mode,
            )
            _emit(config, table.to_csv())
            return 0
        if config.command == "sweep":
            deltas = config.deltas or (config.delta,)
            text = sweep(config, config.gammas, deltas)
            _emit(config, text)
            return 0
        # the report as run(config).to_json() writes it, with the weights
        # written from the result's arrays, not from a dict of them
        report, emitted = _run(config)
        _emit(config, _report_json(report, None if emitted is None else
                                   _weights_json(emitted.weight_index,
                                                 emitted.weight_values)))
        return 0 if report.status == "optimal" else 2
    except (ValueError, TypeError, OSError, KeyError, RuntimeError,
            csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
