"""Command-line interface.

Subcommands: agreement, chisq, ttest, anova, ci, regress, did, simulate,
and audit (the full pipeline). Output is canonical JSON by default or a
text rendering with --format text. Exit codes: 0 success, 1 partial (an
analysis section errored) or stdout closed by its reader, 2 invalid input.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import IO

from . import __version__
from .did import DidPanel
from .errors import (
    ConfigError,
    CsvFormatError,
    DatasetValidationError,
    ReviewAuditError,
)
from .estimation import binomial_ci
from .hypotheses import TWO_SAMPLE_VARIANTS
from .model import INCOMPLETE_CELL_POLICIES, ReviewDataset, validate_dataset
from .report import (
    _agreement_section,
    _bias_section,
    _chi_square_section,
    _csv_reader,
    _did_section,
    _extrapolation_section,
    _json_text,
    _open_source,
    _plain,
    _team_section,
    emit_report,
    ingest_csv,
    ingest_csv_groups,
    read_ground_truth_csv,
    read_outcome_panel_csv,
    run_audit,
    write_ground_truth_csv,
    write_panel_csv,
)
from .simulate import DidPair, SimulationConfig, inject_review_change, simulate_panel
from .special import TAILS

CI_METHOD_FLAGS = {"clopper-pearson": "clopper_pearson", "wilson": "wilson"}
KAPPA_MODE_FLAGS = {"pooled": "pooled", "mean": "mean_of_questions"}


def _emit(payload, args, out: IO[str]) -> None:
    """Write a section body or result: rounded JSON, or text at full precision."""
    if args.format == "json":
        out.write(_json_text(_plain(payload)))
    else:
        _write_text(_plain(payload, round_floats=False), out)


def _write_text(payload: dict | list, out: IO[str], indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                out.write(f"{pad}{key}:\n")
                _write_text(value, out, indent + 1)
            else:
                out.write(f"{pad}{key}: {value}\n")
    else:
        for value in payload:
            if isinstance(value, (dict, list)):
                _write_text(value, out, indent)
            else:
                out.write(f"{pad}- {value}\n")


def _load_dataset(args) -> ReviewDataset:
    records = ingest_csv(args.input)
    return validate_dataset(records, policy=args.policy)


def _maybe_truth(args) -> dict[str, str] | None:
    path = getattr(args, "ground_truth", None)
    return read_ground_truth_csv(path) if path else None


def _cmd_agreement(args, out: IO[str]) -> int:
    dataset = _load_dataset(args)
    _emit(_agreement_section(dataset, KAPPA_MODE_FLAGS[args.overall_kappa]), args, out)
    return 0


def _cmd_chisq(args, out: IO[str]) -> int:
    dataset = _load_dataset(args)
    try:
        body = _chi_square_section(
            dataset, args.alpha, args.yates, [args.question] if args.question else None
        )
    except ReviewAuditError as exc:
        body = exc.partial
    per_question = body["per_question"]
    _emit({"per_question": per_question}, args, out)
    return 0 if all(b["status"] == "ok" for b in per_question.values()) else 1


def _team_test(args, out: IO[str], test: str, keys: tuple[str, ...], **options) -> int:
    dataset = _load_dataset(args)
    body = _team_section(dataset, _maybe_truth(args), args.alpha, test, **options)
    if body["status"] == "skipped":
        raise DatasetValidationError(f"team comparison needs >= 2 teams: {body['reason']}")
    _emit({key: body[key] for key in keys}, args, out)
    return 0


def _cmd_ttest(args, out: IO[str]) -> int:
    return _team_test(args, out, "t", ("teams", "test"), variant=args.variant, tail=args.tail)


def _cmd_anova(args, out: IO[str]) -> int:
    return _team_test(args, out, "anova", ("teams", "test", "anova"))


def _cmd_ci(args, out: IO[str]) -> int:
    method = CI_METHOD_FLAGS[args.ci_method]
    if args.x is not None or args.n is not None:
        if args.x is None or args.n is None:
            raise ValueError("--x and --n must be given together")
        interval = binomial_ci(args.x, args.n, level=args.level, method=method)
        _emit(interval, args, out)
        return 0
    if not args.input:
        raise ValueError("provide either --x/--n or --input")
    dataset = _load_dataset(args)
    body = _extrapolation_section(dataset, _maybe_truth(args), method, args.level)
    if body["status"] == "skipped":
        raise ValueError(body["reason"])
    _emit({"outcome_basis": body["outcome_basis"], "groups": body["groups"]}, args, out)
    return 0


def _cmd_regress(args, out: IO[str]) -> int:
    dataset = _load_dataset(args)
    factors = args.factors.split(",") if args.factors else None
    _emit(_bias_section(dataset, factors), args, out)
    return 0


def _cmd_did(args, out: IO[str]) -> int:
    with _csv_reader(args.input, ()) as reader:
        header = reader.fieldnames
    if "outcome" in header:
        observations = read_outcome_panel_csv(args.input)
        did_input = DidPanel(
            observations=tuple(observations), change_period=args.change_period
        )
    else:
        if not args.ground_truth:
            raise ValueError(
                "review-format DiD input needs --ground-truth for error rates"
            )
        by_group = ingest_csv_groups(args.input)
        missing = {"treated", "control"} - set(by_group)
        if missing:
            raise DatasetValidationError(
                f"DiD input lacks group(s): {sorted(missing)}"
            )
        truth = read_ground_truth_csv(args.ground_truth)
        did_input = DidPair(
            treated=validate_dataset(by_group["treated"], policy=args.policy),
            control=validate_dataset(by_group["control"], policy=args.policy),
            ground_truth=truth,
            change_period=args.change_period,
        )
    _emit(_did_section(did_input, args.period_balanced), args, out)
    return 0


def _cmd_simulate(args, out: IO[str]) -> int:
    with _open_source(args.config) as stream:
        config = SimulationConfig.from_json(stream)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.did_pair:
        pair = inject_review_change(config)
        panels = [
            ("control", pair.control.records),
            ("treated", pair.treated.records),
        ]
        truth = pair.ground_truth
    else:
        dataset, truth = simulate_panel(config)
        panels = [(None, dataset.records)]
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as stream:
            write_panel_csv(stream, panels)
    else:
        write_panel_csv(out, panels)
    if args.truth_output:
        with open(args.truth_output, "w", encoding="utf-8", newline="") as stream:
            write_ground_truth_csv(stream, truth)
    return 0


def _cmd_audit(args, out: IO[str]) -> int:
    dataset = _load_dataset(args)
    did_panel = None
    if args.did_input:
        observations = read_outcome_panel_csv(args.did_input)
        if args.change_period is None:
            raise ValueError("--did-input requires --change-period")
        did_panel = DidPanel(
            observations=tuple(observations), change_period=args.change_period
        )
    report = run_audit(
        dataset,
        ground_truth=_maybe_truth(args),
        alpha=args.alpha,
        overall_kappa_mode=KAPPA_MODE_FLAGS[args.overall_kappa],
        ci_method=CI_METHOD_FLAGS[args.ci_method],
        ci_level=args.level,
        yates=args.yates,
        did_panel=did_panel,
    )
    out.write(emit_report(report, args.format))
    return 1 if any(s == "error" for s in report.statuses().values()) else 0


def _add_common(parser, with_input=True):
    if with_input:
        parser.add_argument("--input", required=True, help="long-format review CSV")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--policy", choices=INCOMPLETE_CELL_POLICIES, default="drop",
                        help="incomplete-cell policy (default: drop)")
    parser.add_argument("--output", default=None, help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reviewaudit",
        description="Quantify human-reviewer audit risk from long-format review CSVs.",
    )
    parser.add_argument("--version", action="version", version=f"reviewaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("agreement", help="Fleiss kappa per question and overall")
    _add_common(p)
    p.add_argument("--overall-kappa", choices=tuple(KAPPA_MODE_FLAGS), default="pooled")
    p.set_defaults(func=_cmd_agreement)

    p = sub.add_parser("chisq", help="chi-square answer/classification independence")
    _add_common(p)
    p.add_argument("--question", default=None, help="test a single question")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--yates", action="store_true", help="apply continuity correction")
    p.set_defaults(func=_cmd_chisq)

    p = sub.add_parser("ttest", help="two-team error-rate comparison")
    _add_common(p)
    p.add_argument("--ground-truth", default=None, help="product_id,classification CSV")
    p.add_argument("--variant", choices=TWO_SAMPLE_VARIANTS, default="welch")
    p.add_argument("--tail", choices=TAILS, default="two_sided")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=_cmd_ttest)

    p = sub.add_parser("anova", help="multi-team error-rate comparison")
    _add_common(p)
    p.add_argument("--ground-truth", default=None)
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=_cmd_anova)

    p = sub.add_parser("ci", help="binomial confidence interval for error rates")
    _add_common(p, with_input=False)
    p.add_argument("--input", default=None, help="long-format review CSV")
    p.add_argument("--x", type=int, default=None, help="error count")
    p.add_argument("--n", type=int, default=None, help="sample size")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--ci-method", choices=tuple(CI_METHOD_FLAGS), default="clopper-pearson")
    p.add_argument("--ground-truth", default=None)
    p.set_defaults(func=_cmd_ci)

    p = sub.add_parser("regress", help="bias-factor OLS and logistic coefficients")
    _add_common(p)
    p.add_argument("--factors", default=None,
                   help="comma-separated question ids and/or 'team' (default: all questions)")
    p.set_defaults(func=_cmd_regress)

    p = sub.add_parser("did", help="difference-in-differences estimate")
    _add_common(p)
    p.add_argument("--change-period", type=int, required=True,
                   help="first post-change period")
    p.add_argument("--ground-truth", default=None)
    p.add_argument("--period-balanced", action="store_true",
                   help="weight periods equally within eras")
    p.set_defaults(func=_cmd_did)

    p = sub.add_parser("simulate", help="generate a synthetic review panel")
    p.add_argument("--config", required=True, help="JSON simulation config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--output", default=None, help="panel CSV path (default stdout)")
    p.add_argument("--truth-output", default=None, help="ground-truth CSV path")
    p.add_argument("--did-pair", action="store_true",
                   help="emit paired treated/control panels with the configured treatment")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("audit", help="full audit pipeline")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--overall-kappa", choices=tuple(KAPPA_MODE_FLAGS), default="pooled")
    p.add_argument("--ci-method", choices=tuple(CI_METHOD_FLAGS), default="clopper-pearson")
    p.add_argument("--level", type=float, default=0.95, help="confidence level for CIs")
    p.add_argument("--yates", action="store_true")
    p.add_argument("--ground-truth", default=None)
    p.add_argument("--did-input", default=None,
                   help="group,period,outcome CSV for the DiD section")
    p.add_argument("--change-period", type=int, default=None)
    p.set_defaults(func=_cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "output", None) and args.command != "simulate":
            with open(args.output, "w", encoding="utf-8") as out:
                return args.func(args, out)
        return args.func(args, sys.stdout)
    except BrokenPipeError:
        # the reader has gone, which is no input fault; the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CsvFormatError, ConfigError, DatasetValidationError, OSError, ValueError) as exc:
        print(f"reviewaudit: invalid input: {exc}", file=sys.stderr)
        return 2
    except ReviewAuditError as exc:
        print(f"reviewaudit: analysis failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
