"""Shared builders for hand-made review panels, a comparable form of what
a CSV reader returns or raises, and a traced peak of memory."""

from __future__ import annotations

import tracemalloc
from unittest import mock

from reviewaudit import ReviewRecord, report
from reviewaudit.model import RecordColumns


def rec(
    product: str,
    reviewer: str,
    question: str,
    answer: str,
    classification: str = "approve",
    team: str | None = None,
    period: int | None = None,
) -> ReviewRecord:
    return ReviewRecord(
        product_id=product,
        reviewer_id=reviewer,
        question_id=question,
        answer=answer,
        final_classification=classification,
        team=team,
        period=period,
    )


def panel_from_answers(answers, classification: str = "approve") -> list[ReviewRecord]:
    """answers: {product: {question: {reviewer: answer}}} -> records."""
    records = []
    for product, questions in answers.items():
        for question, by_reviewer in questions.items():
            for reviewer, answer in by_reviewer.items():
                records.append(rec(product, reviewer, question, answer, classification))
    return records


def _comparable(value):
    """value with each RecordColumns as its code lists and label tables."""
    if isinstance(value, RecordColumns):
        return [codes.tolist() for codes in value.codes], value.labels
    if isinstance(value, dict):
        return {key: _comparable(item) for key, item in value.items()}
    return value


def read_outcome(reader, source) -> tuple:
    """(comparable outcome, the result or the error) of reader(source). The
    outcome is ("ok", result) or ("error", class, message, row, column)."""
    try:
        result = reader(source)
    except Exception as exc:  # compared by class and text, then re-raised
        return ("error", type(exc), str(exc), getattr(exc, "row", None),
                getattr(exc, "column", None)), exc
    return ("ok", _comparable(result)), result


def csv_outcome(reader, source) -> tuple:
    """read_outcome(reader, source)[0] with the block reader turned off, so
    that the csv module reads the source: the reference for the block reader."""
    with mock.patch.object(report, "_read_plain_file", lambda *args: None):
        return read_outcome(reader, source)[0]


def traced_peak(run) -> tuple:
    """run()'s result and the peak memory tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
