"""Fleiss kappa against the brute-force pair-counting oracle, plus the
agreement report."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reviewaudit import (
    EmptyMatrixError,
    KappaUndefinedError,
    NoCompleteProductsError,
    agreement_rate,
    analyze_agreement,
    fleiss_kappa,
    rating_matrix,
    validate_dataset,
)
from reviewaudit import pooled_rating_matrix
from reviewaudit.model import RatingMatrix

from _helpers import rec
from _oracles import fleiss_kappa_fsum_oracle, fleiss_kappa_pair_oracle


def matrix(counts, n):
    k = len(counts[0])
    return RatingMatrix(
        counts=tuple(tuple(row) for row in counts),
        n=n,
        categories=tuple(f"c{j}" for j in range(k)),
        subjects=tuple(f"s{i}" for i in range(len(counts))),
    )


def random_matrix(rng, max_subjects=6, max_raters=4, max_categories=3):
    n = rng.randint(2, max_raters)
    k = rng.randint(2, max_categories)
    n_subjects = rng.randint(1, max_subjects)
    rows = []
    for _ in range(n_subjects):
        row = [0] * k
        for _ in range(n):
            row[rng.randrange(k)] += 1
        rows.append(tuple(row))
    return matrix(rows, n)


class TestFleissKappa:
    def test_golden_two_subject_matrix(self):
        result = fleiss_kappa(matrix([(3, 0), (2, 1)], 3))
        assert result.p_bar == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert result.p_e_bar == pytest.approx(13.0 / 18.0, abs=1e-15)
        assert abs(result.kappa - (-0.2)) <= 1e-12
        assert result.n_subjects == 2 and result.n_raters == 3 and result.n_categories == 2

    def test_golden_matches_pair_oracle(self):
        counts = [(3, 0), (2, 1)]
        assert fleiss_kappa(matrix(counts, 3)).kappa == pytest.approx(
            fleiss_kappa_pair_oracle(counts, 3), abs=1e-12
        )

    def test_unanimous_subjects_give_kappa_one(self):
        result = fleiss_kappa(matrix([(3, 0), (0, 3), (3, 0)], 3))
        assert result.kappa == 1.0
        assert result.p_bar == 1.0

    def test_all_ratings_one_category_undefined(self):
        with pytest.raises(KappaUndefinedError):
            fleiss_kappa(matrix([(3, 0), (3, 0)], 3))

    def test_identity_reproducible_from_fields(self):
        rng = random.Random(31)
        for _ in range(50):
            m = random_matrix(rng)
            try:
                r = fleiss_kappa(m)
            except KappaUndefinedError:
                continue
            recomputed = (r.p_bar - r.p_e_bar) / (1.0 - r.p_e_bar)
            assert abs(r.kappa - recomputed) <= 1e-12
            assert r.kappa <= 1.0

    def test_pair_oracle_equivalence_randomized(self):
        rng = random.Random(37)
        checked = 0
        while checked < 200:
            m = random_matrix(rng)
            try:
                ours = fleiss_kappa(m).kappa
            except KappaUndefinedError:
                continue
            oracle = fleiss_kappa_pair_oracle(m.counts, m.n)
            assert ours == pytest.approx(oracle, abs=1e-12)
            checked += 1

    def test_subject_permutation_invariance(self):
        rng = random.Random(41)
        m = random_matrix(rng, max_subjects=8)
        base = fleiss_kappa(m).kappa
        rows = list(m.counts)
        for _ in range(10):
            rng.shuffle(rows)
            assert fleiss_kappa(matrix(rows, m.n)).kappa == pytest.approx(base, abs=1e-15)

    def test_category_relabel_invariance(self):
        rng = random.Random(43)
        for _ in range(20):
            m = random_matrix(rng)
            try:
                base = fleiss_kappa(m).kappa
            except KappaUndefinedError:
                continue
            k = m.n_categories
            perm = list(range(k))
            rng.shuffle(perm)
            permuted = [tuple(row[perm[j]] for j in range(k)) for row in m.counts]
            assert fleiss_kappa(matrix(permuted, m.n)).kappa == pytest.approx(
                base, abs=1e-12
            )

    def test_duplicating_subjects_leaves_kappa_unchanged(self):
        rng = random.Random(47)
        for _ in range(20):
            m = random_matrix(rng)
            try:
                base = fleiss_kappa(m).kappa
            except KappaUndefinedError:
                continue
            doubled = fleiss_kappa(matrix(list(m.counts) * 2, m.n)).kappa
            assert abs(doubled - base) <= 1e-12


@st.composite
def count_rows(draw, max_subjects, n=None):
    """(rows, n): per-subject category counts of n raters over K categories,
    drawn from one multinomial per matrix, so that large matrices repeat
    their per-subject sums of squares many times; some put every rating in
    one category."""
    n = draw(st.integers(2, 12)) if n is None else n
    k = draw(st.integers(2, 8))
    n_subjects = draw(st.integers(1, max_subjects))
    weights = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.multinomial(n, np.array(weights) / sum(weights), size=n_subjects)
    return tuple(map(tuple, rows.tolist())), n


def _bits(*values):
    return [float(v).hex() for v in values]


def _assert_kappa_matches_fsum(m):
    """fleiss_kappa on the matrix's array equals the fsum formula on its
    tuple rows, bit for bit, or both find kappa undefined."""
    expected = fleiss_kappa_fsum_oracle(m.counts, m.n)
    if expected is None:
        with pytest.raises(KappaUndefinedError):
            fleiss_kappa(m)
        return
    r = fleiss_kappa(m)
    assert _bits(r.kappa, r.p_bar, r.p_e_bar) == _bits(*expected)


class TestKappaAgainstFsumFormula:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(count_rows(max_subjects=5000))
    def test_tuple_matrices(self, case):
        rows, n = case
        _assert_kappa_matches_fsum(matrix(rows, n))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.data())
    def test_dataset_matrices(self, data):
        # Two questions rated by the same n reviewers; rater i of a subject
        # gives the i-th of its ratings in category order.
        rows, n = data.draw(count_rows(max_subjects=150))
        per_question = {"q1": rows, "q2": data.draw(count_rows(max_subjects=150, n=n))[0]}
        records = [
            rec(f"p{p:04d}", f"r{i:02d}", question, label)
            for question, rows in per_question.items()
            for p, row in enumerate(rows)
            for i, label in enumerate(f"c{j}" for j, c in enumerate(row) for _ in range(c))
        ]
        ds = validate_dataset(records)
        matrices = [pooled_rating_matrix(ds)]
        for q in ds.questions:
            try:
                matrices.append(rating_matrix(ds, q))
            except KappaUndefinedError:
                continue
        for m in matrices:
            _assert_kappa_matches_fsum(m)


def _consensus_panel():
    # 4 products; p0 and p1 unanimous on both questions, p2 and p3 not
    answers = {
        "p0": {"q1": "yes", "q2": "no"},
        "p1": {"q1": "no", "q2": "no"},
    }
    records = []
    for p, questions in answers.items():
        for q, a in questions.items():
            records += [rec(p, f"r{i}", q, a) for i in range(3)]
    for p in ("p2", "p3"):
        for q in ("q1", "q2"):
            records += [rec(p, "r0", q, "yes"), rec(p, "r1", q, "yes"), rec(p, "r2", q, "no")]
    return records


class TestAgreementRate:
    def test_full_consensus(self):
        records = [
            rec(p, f"r{i}", q, "yes")
            for p in ("p1", "p2")
            for q in ("q1", "q2")
            for i in range(3)
        ]
        assert agreement_rate(validate_dataset(records)) == 1.0

    def test_no_consensus(self):
        records = []
        for p in ("p1", "p2"):
            records += [rec(p, "r0", "q1", "yes"), rec(p, "r1", "q1", "no"), rec(p, "r2", "q1", "no")]
        assert agreement_rate(validate_dataset(records)) == 0.0

    def test_half_consensus(self):
        assert agreement_rate(validate_dataset(_consensus_panel())) == 0.5

    def test_requires_a_complete_product(self):
        records = [rec("p1", "r0", "q1", "yes"), rec("p1", "r1", "q1", "yes")]
        records.append(rec("p2", "r2", "q1", "no"))
        ds = validate_dataset(records)  # every cell incomplete, all dropped
        with pytest.raises(NoCompleteProductsError):
            agreement_rate(ds)


class TestAnalyzeAgreement:
    def test_no_complete_product_notes_the_missing_rate(self):
        # p1 is rated on q1 only and p2 on q2 only
        records = [rec("p1", "r1", "q1", "yes"), rec("p1", "r2", "q1", "no"),
                   rec("p2", "r1", "q2", "yes"), rec("p2", "r2", "q2", "no")]
        report = analyze_agreement(validate_dataset(records))
        assert report.agreement_rate is None
        assert report.notes == (
            "agreement rate unavailable: no product has complete ratings on every question",)

    def test_single_question_same_under_both_modes(self):
        records = []
        for p in range(6):
            answers = ["yes", "yes", "no"] if p % 2 else ["yes", "yes", "yes"]
            records += [rec(f"p{p}", f"r{i}", "q1", a) for i, a in enumerate(answers)]
        ds = validate_dataset(records)
        pooled = analyze_agreement(ds, "pooled")
        mean = analyze_agreement(ds, "mean_of_questions")
        single = fleiss_kappa(rating_matrix(ds, "q1")).kappa
        assert pooled.overall_kappa == pytest.approx(single, abs=1e-12)
        assert mean.overall_kappa == pytest.approx(single, abs=1e-12)
        assert pooled.overall_detail is not None
        assert mean.overall_detail is None

    def test_mean_mode_is_arithmetic_mean(self):
        ds = validate_dataset(_consensus_panel())
        report = analyze_agreement(ds, "mean_of_questions")
        kappas = [r.kappa for r in report.per_question.values()]
        assert report.overall_kappa == pytest.approx(sum(kappas) / len(kappas), abs=1e-12)

    def test_ranking_ascending_with_lexicographic_ties(self):
        records = []
        # q_noisy: heavy disagreement; q_clean: unanimity plus one split subject
        for p in range(8):
            split = ["yes", "no", "yes"] if p % 2 else ["no", "yes", "no"]
            records += [rec(f"p{p}", f"r{i}", "q_noisy", a) for i, a in enumerate(split)]
            clean = ["yes"] * 3 if p else ["yes", "yes", "no"]
            records += [rec(f"p{p}", f"r{i}", "q_clean", a) for i, a in enumerate(clean)]
        report = analyze_agreement(validate_dataset(records))
        assert report.disagreement_ranking[0] == "q_noisy"
        per = report.per_question
        ranked = list(report.disagreement_ranking)
        assert ranked == sorted(ranked, key=lambda q: (per[q].kappa, q))
        assert set(ranked) == set(per)

    def test_undefined_question_becomes_annotation(self):
        records = []
        for p in range(4):
            records += [rec(f"p{p}", f"r{i}", "q_const", "yes") for i in range(3)]
            answers = ["yes", "no", "yes"] if p % 2 else ["no", "no", "yes"]
            records += [rec(f"p{p}", f"r{i}", "q_var", a) for i, a in enumerate(answers)]
        report = analyze_agreement(validate_dataset(records))
        assert "q_const" in report.annotations
        assert list(report.per_question) == ["q_var"]
        assert report.disagreement_ranking == ("q_var",)

    def test_fails_only_when_nothing_computable(self):
        records = [rec("p1", f"r{i}", "q1", "yes") for i in range(3)]
        with pytest.raises(EmptyMatrixError):
            analyze_agreement(validate_dataset(records))

    def test_mode_validation(self):
        ds = validate_dataset(_consensus_panel())
        with pytest.raises(ValueError, match="mode"):
            analyze_agreement(ds, "median")

    def test_pooled_uses_union_category_space(self):
        records = []
        for p in range(4):
            records += [rec(f"p{p}", f"r{i}", "q1", "left" if p % 2 else "right") for i in range(2)]
            records += [rec(f"p{p}", f"r{i}", "q2", "up" if p < 2 else "down") for i in range(2)]
        report = analyze_agreement(validate_dataset(records), "pooled")
        assert report.overall_detail.n_categories == 4
        assert report.overall_detail.n_subjects == 8
