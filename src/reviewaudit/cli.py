"""Command-line interface.

Subcommands: agreement, chisq, ttest, anova, ci, regress, did, simulate,
and audit (the full pipeline). Output is canonical JSON by default or a
text rendering with --format text. Exit codes: 0 success, 1 partial (an
analysis section errored) or stdout closed by its reader, 2 invalid input.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import sys
from typing import IO, Callable

from . import __version__
from .did import DidPanel
from .errors import ConfigError, CsvFormatError, DatasetValidationError, ReviewAuditError
from .estimation import binomial_ci
from .hypotheses import TWO_SAMPLE_VARIANTS
from .model import INCOMPLETE_CELL_POLICIES, ReviewDataset, validate_dataset
from .report import (
    _agreement_section,
    _bias_section,
    _byte_file,
    _chi_square_section,
    _csv_reader,
    _did_section,
    _extrapolation_section,
    _json_text,
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
    return validate_dataset(ingest_csv(args.input), policy=args.policy)


def _maybe_truth(args) -> dict[str, str] | None:
    return None if args.ground_truth is None else read_ground_truth_csv(args.ground_truth)


def _did_panel(source: str | IO[bytes], change_period: int | None) -> Callable[[], DidPanel]:
    """Read a group,period,outcome CSV; return the maker of its DiD panel
    changing at change_period, which the DiD section calls."""
    observations = tuple(read_outcome_panel_csv(source))
    if change_period is None:
        raise ValueError("--did-input requires --change-period")
    return functools.partial(DidPanel, observations, change_period)


def _cmd_agreement(args, out: IO[str]) -> int:
    dataset = _load_dataset(args)
    _emit(_agreement_section(dataset, KAPPA_MODE_FLAGS[args.overall_kappa]), args, out)
    return 0


def _cmd_chisq(args, out: IO[str]) -> int:
    dataset = _load_dataset(args)
    if args.question is not None and args.question not in dataset.questions:
        raise DatasetValidationError(f"question {args.question!r} not present in dataset")
    questions = None if args.question is None else [args.question]
    body = _chi_square_section(dataset, args.alpha, args.yates, questions)
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
        _emit(binomial_ci(args.x, args.n, level=args.level, method=method), args, out)
        return 0
    if args.input is None:
        raise ValueError("provide either --x/--n or --input")
    dataset = _load_dataset(args)
    body = _extrapolation_section(dataset, _maybe_truth(args), method, args.level)
    if body["status"] == "skipped":
        raise ValueError(body["reason"])
    _emit({"outcome_basis": body["outcome_basis"], "groups": body["groups"]}, args, out)
    return 0


def _cmd_regress(args, out: IO[str]) -> int:
    dataset = _load_dataset(args)
    factors = None if args.factors is None else args.factors.split(",")
    _emit(_bias_section(dataset, factors), args, out)
    return 0


def _cmd_did(args, out: IO[str]) -> int:
    # The input is opened once, as a pipe can be read only once: its header
    # tells the format, and the same bytes are then read from their start.
    with _byte_file(args.input) as (panel, _):
        with _csv_reader(panel, ()) as (_, header):
            outcome_panel = "outcome" in header
        if outcome_panel:
            did_input = _did_panel(panel, args.change_period)
        else:
            if args.ground_truth is None:
                raise ValueError("review-format DiD input needs --ground-truth for error rates")
            by_group = ingest_csv_groups(panel)
            missing = {"treated", "control"} - set(by_group)
            if missing:
                raise DatasetValidationError(f"DiD input lacks group(s): {sorted(missing)}")
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
    with open(args.config, encoding="utf-8-sig") as stream:
        config = SimulationConfig.from_json(stream)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.did_pair:
        pair = inject_review_change(config)
        panels = [("control", pair.control.records), ("treated", pair.treated.records)]
        truth = pair.ground_truth
    else:
        dataset, truth = simulate_panel(config)
        panels = [(None, dataset.records)]
    # The truth file is opened before the panel is written, so that one
    # that cannot be opened leaves --output as it was.
    with (contextlib.nullcontext() if args.truth_output is None
          else open(args.truth_output, "w", encoding="utf-8", newline="")) as truth_stream:
        write_panel_csv(out, panels)
        if truth_stream is not None:
            write_ground_truth_csv(truth_stream, truth)
    return 0


def _cmd_audit(args, out: IO[str]) -> int:
    dataset = _load_dataset(args)
    did_panel = None if args.did_input is None else _did_panel(args.did_input, args.change_period)
    report = run_audit(
        dataset, ground_truth=_maybe_truth(args), alpha=args.alpha,
        overall_kappa_mode=KAPPA_MODE_FLAGS[args.overall_kappa],
        ci_method=CI_METHOD_FLAGS[args.ci_method], ci_level=args.level, yates=args.yates,
        did_panel=did_panel,
    )
    out.write(emit_report(report, args.format))
    return 1 if any(s == "error" for s in report.statuses().values()) else 0


# Every option, declared once as its add_argument keywords.
OPTIONS = {
    "--input": dict(required=True, help="long-format review CSV"),
    "--format": dict(choices=("json", "text"), default="json"),
    "--policy": dict(choices=INCOMPLETE_CELL_POLICIES, default="drop",
                     help="incomplete-cell policy (default: drop)"),
    "--output": dict(help="write to file instead of stdout"),
    "--ground-truth": dict(help="product_id,classification CSV"),
    "--alpha": dict(type=float, default=0.05),
    "--yates": dict(action="store_true", help="apply continuity correction"),
    "--overall-kappa": dict(choices=tuple(KAPPA_MODE_FLAGS), default="pooled"),
    "--level": dict(type=float, default=0.95, help="confidence level for CIs"),
    "--ci-method": dict(choices=tuple(CI_METHOD_FLAGS), default="clopper-pearson"),
    "--change-period": dict(type=int, help="first post-change period"),
    "--question": dict(help="test a single question"),
    "--variant": dict(choices=TWO_SAMPLE_VARIANTS, default="welch"),
    "--tail": dict(choices=TAILS, default="two_sided"),
    "--x": dict(type=int, help="error count"),
    "--n": dict(type=int, help="sample size"),
    "--factors": dict(help="comma-separated question ids and/or 'team' (default: all questions)"),
    "--period-balanced": dict(action="store_true", help="weight periods equally within eras"),
    "--config": dict(required=True, help="JSON simulation config"),
    "--seed": dict(type=int, help="override the config seed"),
    "--truth-output": dict(help="ground-truth CSV path"),
    "--did-pair": dict(action="store_true",
                       help="emit paired treated/control panels with the configured treatment"),
    "--did-input": dict(help="group,period,outcome CSV for the DiD section"),
}
_COMMON = ("--input", "--format", "--policy", "--output")

# Each subcommand: its function, its help, and the options it takes, each
# a flag of OPTIONS or (flag, the keywords that differ from OPTIONS).
COMMANDS = {
    "agreement": (_cmd_agreement, "Fleiss kappa per question and overall",
                  (*_COMMON, "--overall-kappa")),
    "chisq": (_cmd_chisq, "chi-square answer/classification independence",
              (*_COMMON, "--question", "--alpha", "--yates")),
    "ttest": (_cmd_ttest, "two-team error-rate comparison",
              (*_COMMON, "--ground-truth", "--variant", "--tail", "--alpha")),
    "anova": (_cmd_anova, "multi-team error-rate comparison",
              (*_COMMON, "--ground-truth", "--alpha")),
    "ci": (_cmd_ci, "binomial confidence interval for error rates",
           (("--input", {"required": False}), *_COMMON[1:], "--x", "--n", "--level",
            "--ci-method", "--ground-truth")),
    "regress": (_cmd_regress, "bias-factor OLS and logistic coefficients",
                (*_COMMON, "--factors")),
    "did": (_cmd_did, "difference-in-differences estimate",
            (*_COMMON, ("--change-period", {"required": True}), "--ground-truth",
             "--period-balanced")),
    "simulate": (_cmd_simulate, "generate a synthetic review panel",
                 ("--config", "--seed", ("--output", {"help": "panel CSV path (default stdout)"}),
                  "--truth-output", "--did-pair")),
    "audit": (_cmd_audit, "full audit pipeline",
              (*_COMMON, "--alpha", "--overall-kappa", "--ci-method", "--level", "--yates",
               "--ground-truth", "--did-input", "--change-period")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reviewaudit",
        description="Quantify human-reviewer audit risk from long-format review CSVs.",
    )
    parser.add_argument("--version", action="version", version=f"reviewaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for option in options:
            flag, changes = option if isinstance(option, tuple) else (option, {})
            p.add_argument(flag, **{**OPTIONS[flag], **changes})
        p.set_defaults(func=func)
    return parser


# main's parser, built at its first call: parsing leaves no state on it.
_parser = functools.cache(build_parser)


class _Output:
    """stdout, or the --output file opened (and so truncated) at the first
    write: a command that fails before it writes leaves the file as it was."""

    def __init__(self, path: str | None) -> None:
        self.path, self.stream = path, (sys.stdout if path is None else None)

    def write(self, text: str) -> int:
        if self.stream is None:
            self.stream = open(self.path, "w", encoding="utf-8", newline="")
        return self.stream.write(text)

    def close(self) -> None:
        if self.path is not None and self.stream is not None:
            self.stream.close()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        with contextlib.closing(_Output(args.output)) as out:
            return args.func(args, out)
    except BrokenPipeError:
        # the reader has gone, which is no input fault; the flush at exit goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (CsvFormatError, ConfigError, DatasetValidationError, OSError, ValueError) as exc:
        print(f"reviewaudit: invalid input: {exc}", file=sys.stderr)
        return 2
    except ReviewAuditError as exc:
        print(f"reviewaudit: analysis failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
