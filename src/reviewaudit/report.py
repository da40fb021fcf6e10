"""CSV ingestion, audit orchestration, and report serialization.

The audit pipeline runs each analysis section independently: agreement,
per-question chi-square, team comparison (t test for two teams, ANOVA for
more), error-rate extrapolation (overall and per reviewer), bias factors,
and optionally difference-in-differences. A section that fails is recorded
as a structured error without aborting the others.

Reports are plain JSON-compatible structures. Floating-point values are
rounded to 12 significant digits when the report is assembled, which makes
emission byte-deterministic and the emit/parse round trip lossless. The
JSON schema is documented in docs/report_schema.md and versioned by the
top-level schema_version field.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass, fields, is_dataclass
from itertools import repeat
from operator import itemgetter
from typing import IO, ContextManager, Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .agreement import OVERALL_KAPPA_MODES, analyze_agreement
from .did import DidPanel, did_estimate, did_with_error_rates
from .errors import CsvFormatError, DatasetValidationError, ReviewAuditError
from .estimation import CI_METHODS, bias_factor_report, binomial_ci
from .hypotheses import chi_square_independence, one_way_anova, two_sample_t
from .model import (
    FIELDS,
    ColumnCoder,
    RecordColumns,
    ReviewDataset,
    ReviewRecord,
    contingency_from,
)
from .simulate import DidPair

SCHEMA_VERSION = 1

REQUIRED_COLUMNS = (
    "product_id",
    "reviewer_id",
    "question_id",
    "answer",
    "final_classification",
)


def _fields(result) -> dict:
    return {f.name: getattr(result, f.name) for f in fields(result)}


def _plain(value, round_floats: bool = True):
    """JSON-ready data: result dataclasses become dicts of their fields (in
    field order), mappings dicts and tuples lists, recursively; floats are
    rounded to 12 significant digits unless round_floats is False."""
    if isinstance(value, float):
        return float(f"{value:.12g}") if round_floats else value
    if value is None or isinstance(value, (int, str)):
        return value
    if is_dataclass(value):
        value = _fields(value)
    if isinstance(value, Mapping):
        return {k: _plain(v, round_floats) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v, round_floats) for v in value]
    raise TypeError(f"unsupported report value type {type(value)!r}")


def _ok(result) -> dict:
    """A section body: status ok, then the result's fields in field order."""
    return {"status": "ok", **_fields(result)}


# --- ingestion ---------------------------------------------------------------

def _open_source(source: str | IO[str]) -> ContextManager[IO[str]]:
    """A path opened for reading, or a caller's stream left open on exit.

    Paths are read as utf-8-sig, so a byte-order mark that a spreadsheet
    wrote is not taken for part of the first column name.
    """
    if isinstance(source, str):
        return open(source, "r", encoding="utf-8-sig", newline="")
    return contextlib.nullcontext(source)


def _check_header(fieldnames: Sequence[str] | None, required: Sequence[str]) -> None:
    """Raise unless a header row exists and names every required column."""
    if fieldnames is None:
        raise CsvFormatError("empty file: no header row")
    missing = [c for c in required if c not in fieldnames]
    if missing:
        raise CsvFormatError(
            f"missing required column(s): {', '.join(missing)}",
            column=missing[0],
        )


def _csv_reader(stream: IO[str], required: Sequence[str]) -> csv.DictReader:
    """A dict reader over a stream whose header names every required column."""
    reader = csv.DictReader(stream)
    _check_header(reader.fieldnames, required)
    return reader


# Rows are coded in batches of this many, so only one batch of raw rows is
# held at a time.
_BATCH = 4096

# How a column's distinct stripped values become labels ("" is blank).
_LABELS = {
    "team": lambda value: value or None,
    "period": lambda value: int(value) if value else None,
}


def _parses_as_int(value: str) -> bool:
    try:
        int(value)
    except ValueError:
        return False
    return True


def _check_row(row: Sequence[str], line: int, position: Mapping[str, int]) -> None:
    """Raise for a row's first bad field: an empty required column, in
    REQUIRED_COLUMNS order, then an unparseable period."""

    def value(column: str) -> str:
        i = position.get(column)
        return row[i].strip() if i is not None and i < len(row) else ""

    for column in REQUIRED_COLUMNS:
        if not value(column):
            raise CsvFormatError(f"empty {column} on row {line}", row=line, column=column)
    period = value("period")
    if period and not _parses_as_int(period):
        raise CsvFormatError(
            f"unparseable period {period!r} on row {line}", row=line, column="period"
        )


def _read_review_csv(
    stream: IO[str], group: bool = False
) -> tuple[RecordColumns, tuple[np.ndarray, tuple[str, ...]] | None]:
    """Parse a review CSV straight into code columns, and the group column's
    codes and labels when group is set.

    Rows are read as csv.DictReader reads them: blank lines are skipped,
    missing trailing fields read as empty, extra fields are ignored and a
    repeated header name means its last column. Values are stripped; team
    and period may be blank. Errors name the offending column and file line.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    _check_header(header, REQUIRED_COLUMNS)
    position = {name: i for i, name in enumerate(header)}
    if group and "group" not in position:
        raise CsvFormatError("review-format DiD input needs a 'group' column", column="group")
    names = [name for name in FIELDS + (("group",) if group else ()) if name in position]
    coders = {name: ColumnCoder(name in _LABELS) for name in names}
    getters = [(name, coders[name], itemgetter(position[name])) for name in names]
    width = max(position[name] for name in names) + 1

    def code(rows: list[list[str]], lines: list[int]) -> None:
        if min(map(len, rows)) < width:
            rows = [row + [""] * (width - len(row)) for row in rows]
        bad = False
        for name, coder, get in getters:
            new = coder.add(list(map(str.strip, map(get, rows))))
            if name in REQUIRED_COLUMNS:
                bad = bad or "" in new
            elif name == "period":
                bad = bad or not all(map(_parses_as_int, new - {""}))
        if bad:
            for row, line in zip(rows, lines):
                _check_row(row, line, position)

    rows: list[list[str]] = []
    lines: list[int] = []
    try:
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
                if len(rows) == _BATCH:
                    code(rows, lines)
                    rows, lines = [], []
    except csv.Error:
        if rows:
            code(rows, lines)  # a bad field on an earlier row is reported first
        raise
    if rows:
        code(rows, lines)

    n_rows = sum(map(len, coders[REQUIRED_COLUMNS[0]].parts))
    coded = [
        coders[name].finish(_LABELS.get(name)) if name in coders
        else (np.zeros(n_rows, np.int32), (None,))
        for name in FIELDS
    ]
    groups = coders["group"].finish() if group else None
    return RecordColumns(*zip(*coded)), groups


def ingest_csv(source: str | IO[str]) -> RecordColumns:
    """Read long-format review records from a CSV path or stream.

    Required columns: product_id, reviewer_id, question_id, answer,
    final_classification. Optional: team (blank means none) and period
    (integer). Errors name the offending column and file line. The result
    is a RecordColumns: a sequence of ReviewRecord held as code columns,
    which validate_dataset keeps without making a record object per row.
    """
    with _open_source(source) as stream:
        records, _ = _read_review_csv(stream)
    if not len(records):
        raise CsvFormatError("no data rows")
    return records


def ingest_csv_groups(source: str | IO[str]) -> dict[str, RecordColumns]:
    """Read a review CSV with a group column into records per group, in
    order of each group's first row."""
    with _open_source(source) as stream:
        records, (codes, labels) = _read_review_csv(stream, group=True)
    first_rows = np.unique(codes, return_index=True)[1]
    return {
        labels[code]: records.take(np.flatnonzero(codes == code))
        for code in np.argsort(first_rows).tolist()
    }


def read_ground_truth_csv(source: str | IO[str]) -> dict[str, str]:
    """Read product_id -> classification pairs."""
    with _open_source(source) as stream:
        reader = _csv_reader(stream, ("product_id", "classification"))
        truth: dict[str, str] = {}
        for row in reader:
            product = (row["product_id"] or "").strip()
            label = (row["classification"] or "").strip()
            if not product or not label:
                raise CsvFormatError(f"blank ground-truth entry on row {reader.line_num}",
                                     row=reader.line_num)
            truth[product] = label
        if not truth:
            raise CsvFormatError("ground-truth file has no data rows")
        return truth


def write_panel_csv(
    stream: IO[str],
    panels: Sequence[tuple[str | None, Iterable[ReviewRecord]]],
) -> None:
    """Write records as CSV; a group column is added when any panel names one.

    Rows are written from code columns and label tables; records given as
    objects are coded first.
    """
    with_group = any(group is not None for group, _ in panels)
    header = list(REQUIRED_COLUMNS) + ["team", "period"]
    if with_group:
        header.append("group")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for group, records in panels:
        if not isinstance(records, RecordColumns):
            records = RecordColumns.from_records(list(records))
        text = [tuple("" if v is None else str(v) for v in table) for table in records.labels]
        cells = [map(table.__getitem__, c.tolist()) for c, table in zip(records.codes, text)]
        if with_group:
            cells.append(repeat(group or "", len(records)))
        writer.writerows(zip(*cells))


def write_ground_truth_csv(stream: IO[str], truth: Mapping[str, str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["product_id", "classification"])
    for product in sorted(truth):
        writer.writerow([product, truth[product]])


def read_outcome_panel_csv(source: str | IO[str]) -> list[tuple[str, int, float]]:
    """Read (group, period, outcome) observations for DiD estimation."""
    with _open_source(source) as stream:
        reader = _csv_reader(stream, ("group", "period", "outcome"))
        rows: list[tuple[str, int, float]] = []
        for row in reader:
            line = reader.line_num
            try:
                rows.append(
                    (
                        (row["group"] or "").strip(),
                        int((row["period"] or "").strip()),
                        float((row["outcome"] or "").strip()),
                    )
                )
            except ValueError:
                raise CsvFormatError(
                    f"unparseable period/outcome on row {line}", row=line
                ) from None
        if not rows:
            raise CsvFormatError("no data rows")
        return rows


# --- audit pipeline ----------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    """Assembled audit report; all fields are JSON-compatible structures."""

    schema_version: int
    toolkit_version: str
    config: dict
    dataset_summary: dict
    sections: dict

    def section(self, name: str) -> dict:
        return self.sections[name]

    def statuses(self) -> dict[str, str]:
        return {name: body["status"] for name, body in self.sections.items()}


def _with_partial(exc: Exception, **partial) -> Exception:
    """Attach what a section computed before failing; the error body keeps it."""
    exc.partial = partial
    return exc


# Each section builder returns its body or raises; run_audit turns the
# error into the section's error body, and the CLI subcommands project the
# same bodies.

def _agreement_section(dataset: ReviewDataset, mode: str) -> dict:
    return _ok(analyze_agreement(dataset, mode))


def _chi_square_section(
    dataset: ReviewDataset, alpha: float, yates: bool,
    questions: Sequence[str] | None = None,
) -> dict:
    per_question = {}
    for q in dataset.questions if questions is None else questions:
        try:
            table = contingency_from(dataset, q)
            result = chi_square_independence(table, alpha=alpha, yates=yates)
            per_question[q] = _ok(result)
        except ReviewAuditError as exc:
            per_question[q] = {"status": "error", "error": str(exc)}
    if all(body["status"] == "error" for body in per_question.values()):
        raise _with_partial(
            ReviewAuditError("no question yields a testable contingency table"),
            per_question=per_question,
        )
    return {"status": "ok", "per_question": per_question}


def _team_section(
    dataset: ReviewDataset,
    ground_truth: Mapping[str, str] | None,
    alpha: float,
    test: str | None = None,
    variant: str = "welch",
    tail: str = "two_sided",
) -> dict:
    """Error rates by team, compared by a t test (two teams) or ANOVA (more).

    test forces "t" or "anova"; variant and tail apply to the t test.
    """
    teams = sorted({unit.team for unit in dataset.units.values()} - {None})
    if not teams:
        return {"status": "skipped", "reason": "no team data"}
    if len(teams) == 1:
        return {"status": "skipped", "reason": f"single team {teams[0]!r}"}
    outcomes, basis = dataset.unit_errors(ground_truth)
    groups: dict[str, list[float]] = {team: [] for team in teams}
    for key, unit in dataset.units.items():
        if unit.team is not None:
            groups[unit.team].append(float(outcomes[key]))
    payload = {
        "outcome_basis": basis,
        "teams": teams,
        "group_sizes": {team: len(groups[team]) for team in teams},
        "group_error_rates": {
            team: (sum(groups[team]) / len(groups[team]) if groups[team] else None)
            for team in teams
        },
    }
    test = test or ("t" if len(teams) == 2 else "anova")
    if test == "t" and len(teams) != 2:
        raise DatasetValidationError(
            f"t test compares exactly 2 teams, found {len(teams)}; use anova"
        )
    try:
        if test == "t":
            result = two_sample_t(
                groups[teams[0]], groups[teams[1]], variant=variant, tail=tail, alpha=alpha
            )
            return {"status": "ok", "test": result, **payload}
        result, decomposition = one_way_anova([groups[t] for t in teams], alpha=alpha)
        return {
            "status": "ok",
            "test": result,
            "anova": {
                "ss_treatment": decomposition.ss_treatment,
                "ss_error": decomposition.ss_error,
                "ms_treatment": decomposition.ms_treatment,
                "ms_error": decomposition.ms_error,
                "group_means": list(decomposition.group_means),
                "grand_mean": decomposition.grand_mean,
            },
            **payload,
        }
    except (ReviewAuditError, ValueError) as exc:
        raise _with_partial(exc, **payload)


def _extrapolation_section(
    dataset: ReviewDataset,
    ground_truth: Mapping[str, str] | None,
    method: str,
    level: float,
) -> dict:
    outcomes, basis = dataset.unit_errors(ground_truth)
    if not outcomes:
        return {"status": "skipped", "reason": "no units to extrapolate"}
    groups: dict[str, list[int]] = {"all": []}
    for (product, reviewer), err in outcomes.items():
        groups["all"].append(err)
        groups.setdefault(f"reviewer:{reviewer}", []).append(err)
    intervals = {}
    for name in sorted(groups):
        values = groups[name]
        intervals[name] = binomial_ci(sum(values), len(values), level=level, method=method)
    return {"status": "ok", "outcome_basis": basis, "groups": intervals}


def _bias_section(dataset: ReviewDataset, factors: Sequence[str] | None = None) -> dict:
    return _ok(bias_factor_report(dataset, factors))


def _did_section(did_panel: DidPanel | DidPair | None, period_balanced: bool = False) -> dict:
    if did_panel is None:
        return {"status": "skipped", "reason": "no difference-in-differences input"}
    if isinstance(did_panel, DidPair):
        result = did_with_error_rates(
            did_panel.treated,
            did_panel.control,
            did_panel.ground_truth,
            did_panel.change_period,
            period_balanced=period_balanced,
        )
    else:
        result = did_estimate(did_panel, period_balanced=period_balanced)
    return _ok(result)


def _run_section(build, *args) -> dict:
    """The section's body, or its error body when the builder raises."""
    try:
        return build(*args)
    except (ReviewAuditError, ValueError) as exc:
        return {"status": "error", "error": str(exc), **getattr(exc, "partial", {})}


def run_audit(
    dataset: ReviewDataset,
    ground_truth: Mapping[str, str] | None = None,
    alpha: float = 0.05,
    overall_kappa_mode: str = "pooled",
    ci_method: str = "clopper_pearson",
    ci_level: float = 0.95,
    yates: bool = False,
    did_panel: DidPanel | DidPair | None = None,
) -> AuditReport:
    """Run every audit section over a validated dataset.

    Sections are independent: one failing is recorded as a structured
    error and the rest still run. The call itself raises only if the
    arguments are invalid.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if overall_kappa_mode not in OVERALL_KAPPA_MODES:
        raise ValueError(
            f"overall_kappa_mode must be one of {OVERALL_KAPPA_MODES}, "
            f"got {overall_kappa_mode!r}"
        )
    if ci_method not in CI_METHODS:
        raise ValueError(f"ci_method must be one of {CI_METHODS}, got {ci_method!r}")
    if not (0.0 < ci_level < 1.0):
        raise ValueError(f"ci_level must be in (0, 1), got {ci_level}")

    sections = {
        "agreement": _run_section(_agreement_section, dataset, overall_kappa_mode),
        "chi_square": _run_section(_chi_square_section, dataset, alpha, yates),
        "team_comparison": _run_section(_team_section, dataset, ground_truth, alpha),
        "error_extrapolation": _run_section(
            _extrapolation_section, dataset, ground_truth, ci_method, ci_level
        ),
        "bias_factors": _run_section(_bias_section, dataset),
        "did": _run_section(_did_section, did_panel),
    }
    config = {
        "alpha": alpha,
        "overall_kappa_mode": overall_kappa_mode,
        "ci_method": ci_method,
        "ci_level": ci_level,
        "yates": yates,
        "ground_truth_provided": ground_truth is not None,
    }
    summary = dataset.summary
    dataset_summary = {
        "n_records": summary.n_records,
        "n_input_records": summary.n_input_records,
        "n_dropped_cells": summary.n_dropped_cells,
        "n_dropped_records": summary.n_dropped_records,
        "incomplete_cell_policy": summary.policy,
        "n_products": len(dataset.products),
        "n_reviewers": len(dataset.reviewers),
        "n_questions": len(dataset.questions),
        "n_raters": dataset.n_raters,
    }
    return AuditReport(
        schema_version=SCHEMA_VERSION,
        toolkit_version=__version__,
        config=_plain(config),
        dataset_summary=_plain(dataset_summary),
        sections=_plain(sections),
    )


# --- serialization -----------------------------------------------------------

def _json_text(payload) -> str:
    """Canonical JSON: sorted keys, two-space indent, and never NaN or Infinity."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def emit_report(report: AuditReport, fmt: str = "json") -> str:
    """Serialize a report: canonical JSON (sorted keys) or readable text."""
    if fmt == "json":
        return _json_text(_fields(report))
    if fmt == "text":
        return render_text(report)
    raise ValueError(f"format must be 'json' or 'text', got {fmt!r}")


def parse_report(text: str) -> AuditReport:
    """Inverse of emit_report(fmt="json")."""
    payload = json.loads(text)
    return AuditReport(
        schema_version=payload["schema_version"],
        toolkit_version=payload["toolkit_version"],
        config=payload["config"],
        dataset_summary=payload["dataset_summary"],
        sections=payload["sections"],
    )


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_text(report: AuditReport) -> str:
    """Human-readable rendering; the disagreement ranking leads."""
    out = io.StringIO()
    w = out.write
    w(f"REVIEW AUDIT REPORT (schema {report.schema_version}, "
      f"toolkit {report.toolkit_version})\n")
    ds = report.dataset_summary
    w(
        f"dataset: {ds['n_records']} records, {ds['n_products']} products, "
        f"{ds['n_reviewers']} reviewers, {ds['n_questions']} questions"
    )
    if ds["n_dropped_cells"]:
        w(f" ({ds['n_dropped_cells']} incomplete cells dropped)")
    w("\n\n")

    agreement = report.sections["agreement"]
    w("== Disagreement ranking (highest disagreement first) ==\n")
    if agreement["status"] == "ok":
        for rank, q in enumerate(agreement["disagreement_ranking"], start=1):
            kappa = agreement["per_question"][q]["kappa"]
            w(f"  {rank}. {q}  kappa={_fmt(kappa)}\n")
        for q, note in agreement["annotations"].items():
            w(f"  -- {q}: {note}\n")
    else:
        w(f"  unavailable: {agreement.get('error')}\n")

    w("\n== Agreement ==\n")
    if agreement["status"] == "ok":
        w(f"  overall kappa ({agreement['overall_mode']}): "
          f"{_fmt(agreement['overall_kappa'])}\n")
        w(f"  consensus agreement rate: {_fmt(agreement['agreement_rate'])}\n")
        for note in agreement["notes"]:
            w(f"  note: {note}\n")

    chi = report.sections["chi_square"]
    w("\n== Chi-square: answer vs classification ==\n")
    if "per_question" in chi:
        for q, body in chi["per_question"].items():
            if body["status"] == "ok":
                w(
                    f"  {q}: statistic={_fmt(body['statistic'])} df={body['df']} "
                    f"p={_fmt(body['p_value'])} reject@{body['alpha']}="
                    f"{body['reject_null']}"
                )
                if body["warnings"]:
                    w(f"  [{'; '.join(body['warnings'])}]")
                w("\n")
            else:
                w(f"  {q}: error: {body['error']}\n")
    else:
        w(f"  unavailable: {chi.get('error')}\n")

    team = report.sections["team_comparison"]
    w("\n== Team comparison ==\n")
    if team["status"] == "ok":
        test = team["test"]
        w(
            f"  {test['test_kind']}: statistic={_fmt(test['statistic'])} "
            f"df={test['df']} p={_fmt(test['p_value'])} "
            f"reject@{test['alpha']}={test['reject_null']}\n"
        )
        w(f"  outcome basis: {team['outcome_basis']}\n")
        for t in team["teams"]:
            w(
                f"  team {t}: n={team['group_sizes'][t]} "
                f"error_rate={_fmt(team['group_error_rates'][t])}\n"
            )
    elif team["status"] == "skipped":
        w(f"  skipped: {team['reason']}\n")
    else:
        w(f"  error: {team.get('error')}\n")

    extrapolation = report.sections["error_extrapolation"]
    w("\n== Error-rate extrapolation ==\n")
    if extrapolation["status"] == "ok":
        w(f"  outcome basis: {extrapolation['outcome_basis']}\n")
        for name, body in extrapolation["groups"].items():
            w(
                f"  {name}: {body['x']}/{body['n']} errors, "
                f"{body['level']:.0%} CI [{_fmt(body['lower'])}, {_fmt(body['upper'])}] "
                f"({body['method']})\n"
            )
    elif extrapolation["status"] == "skipped":
        w(f"  skipped: {extrapolation['reason']}\n")
    else:
        w(f"  error: {extrapolation.get('error')}\n")

    bias = report.sections["bias_factors"]
    w("\n== Bias factors (ranked by influence) ==\n")
    if bias["status"] == "ok":
        w(f"  target: {bias['target_labels'][0]} vs {bias['target_labels'][1]} "
          f"over {bias['n_rows']} units, ranked by {bias['ranked_by']}\n")
        for effect in bias["effects"]:
            w(
                f"  {effect['name']}: ols={_fmt(effect['ols_coefficient'])} "
                f"logistic={_fmt(effect['logistic_coefficient'])}\n"
            )
        if bias["ols_error"]:
            w(f"  ols error: {bias['ols_error']}\n")
        if bias["logistic_error"]:
            w(f"  logistic error: {bias['logistic_error']}\n")
    else:
        w(f"  error: {bias.get('error')}\n")

    did = report.sections["did"]
    w("\n== Difference-in-differences ==\n")
    if did["status"] == "ok":
        w(f"  effect: {_fmt(did['effect'])}\n")
        w(
            f"  treated: pre={_fmt(did['treated_pre_mean'])} "
            f"post={_fmt(did['treated_post_mean'])}; "
            f"control: pre={_fmt(did['control_pre_mean'])} "
            f"post={_fmt(did['control_post_mean'])}\n"
        )
        for group, series in did["per_group_series"].items():
            pairs = " ".join(f"({p}, {_fmt(v)})" for p, v in series)
            w(f"  actual {group} series: {pairs}\n")
        pairs = " ".join(f"({p}, {_fmt(v)})" for p, v in did["counterfactual"])
        w(f"  counterfactual series: {pairs}\n")
        if did["effect_se"] is not None:
            w(f"  bootstrap SE: {_fmt(did['effect_se'])}\n")
    elif did["status"] == "skipped":
        w(f"  skipped: {did['reason']}\n")
    else:
        w(f"  error: {did.get('error')}\n")
    return out.getvalue()
