"""Independent numerical oracles used to derive and cross-check expected
test values.

Nothing here imports the package's own kernels: densities use math.lgamma
from the standard library, integrals use adaptive Simpson quadrature,
binomial tails use exact integer combinatorics, the agreement oracles
count rater pairs by enumeration or sum the textbook terms with fsum, and
the simulator oracle draws one value at a time from its own SplitMix64.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12) -> float:
    """Adaptive Simpson quadrature with interval-halving error control."""

    def simpson(lo, flo, hi, fhi):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        return mid, fmid, (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, flo, hi, fhi, whole, fmid, mid, eps, depth):
        lmid, flmid, left = simpson(lo, flo, mid, fmid)
        rmid, frmid, right = simpson(mid, fmid, hi, fhi)
        if depth > 60 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, flo, mid, fmid, left, flmid, lmid, eps / 2.0, depth + 1) + \
            recurse(mid, fmid, hi, fhi, right, frmid, rmid, eps / 2.0, depth + 1)

    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    mid, fmid, whole = simpson(a, fa, b, fb)
    return recurse(a, fa, b, fb, whole, fmid, mid, tol, 0)


def gamma_lower_oracle(s: float, x: float) -> float:
    """P(s, x) by quadrature of the gamma density.

    The substitution t = u^2 removes the t^(s-1) endpoint singularity for
    s >= 1/2, and the normalization is folded into the exponent so large
    shapes cannot overflow: integrand = 2 exp((2s-1) ln u - u^2 - lgamma(s)).
    """
    if x <= 0.0:
        return 0.0
    log_norm = math.lgamma(s)

    def integrand(u):
        if u == 0.0:
            return 2.0 * math.exp(-log_norm) if s == 0.5 else 0.0
        arg = (2.0 * s - 1.0) * math.log(u) - u * u - log_norm
        return 2.0 * math.exp(arg) if arg > -745.0 else 0.0

    return adaptive_simpson(integrand, 0.0, math.sqrt(x))


def chi_square_upper_oracle(stat: float, df: int) -> float:
    return 1.0 - gamma_lower_oracle(df / 2.0, stat / 2.0)


def student_t_upper_oracle(t: float, df: float) -> float:
    """P(T >= t) by quadrature of the Student-t density."""
    log_norm = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )

    def density(u):
        return math.exp(log_norm - (df + 1.0) / 2.0 * math.log1p(u * u / df))

    if t < 0.0:
        return 1.0 - student_t_upper_oracle(-t, df)
    return 0.5 - adaptive_simpson(density, 0.0, t)


def f_upper_oracle(stat: float, df1: int, df2: int) -> float:
    """P(F >= stat) by quadrature of the F density.

    The substitution u = v^2 removes the u^(a-1) endpoint singularity for
    df1 = 1 (where a = 1/2).
    """
    if stat <= 0.0:
        return 1.0
    a, b = df1 / 2.0, df2 / 2.0
    log_norm = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(df1 / df2)
    )

    def integrand(v):
        u = v * v
        # v ** (2a - 1) evaluates the v = 0 endpoint cleanly (0 ** 0 == 1)
        return 2.0 * v ** (2.0 * a - 1.0) * math.exp(
            log_norm - (a + b) * math.log1p(df1 * u / df2)
        )

    return 1.0 - adaptive_simpson(integrand, 0.0, math.sqrt(stat))


def erf_series(z: float) -> float:
    """Error function by its Maclaurin series (converges fast for |z| <= 6)."""
    if z < 0.0:
        return -erf_series(-z)
    total = 0.0
    term = z
    k = 0
    while abs(term) > 1e-18 * max(1.0, abs(total)):
        total += term / (2 * k + 1)
        k += 1
        term *= -z * z / k
        if k > 400:
            raise RuntimeError("erf series did not converge")
    return 2.0 / math.sqrt(math.pi) * total


def normal_upper_oracle(z: float) -> float:
    return 0.5 * (1.0 - erf_series(z / math.sqrt(2.0)))


def fleiss_kappa_pair_oracle(counts, n: int) -> float:
    """Fleiss kappa by brute-force rater-pair enumeration.

    Per subject the ratings are reconstructed as a label multiset and every
    unordered rater pair is checked for agreement; chance agreement uses
    the exact marginal proportions as fractions, so small integer cases
    are exact.
    """
    n_subjects = len(counts)
    n_categories = len(counts[0])
    agree = Fraction(0)
    pairs = Fraction(n * (n - 1), 2)
    for row in counts:
        labels = [j for j, c in enumerate(row) for _ in range(c)]
        hits = sum(
            1
            for i in range(len(labels))
            for j in range(i + 1, len(labels))
            if labels[i] == labels[j]
        )
        agree += Fraction(hits) / pairs
    p_bar = agree / n_subjects
    total = n_subjects * n
    p_e = sum(
        (Fraction(sum(row[j] for row in counts), total)) ** 2
        for j in range(n_categories)
    )
    return float((p_bar - p_e) / (1 - p_e))


def fleiss_kappa_fsum_oracle(counts, n: int):
    """(kappa, p_bar, p_e_bar) by the textbook formula over tuple rows, each
    mean a math.fsum of its float terms, or None when every rating falls in
    one category (kappa is undefined)."""
    n_subjects = len(counts)
    total = n_subjects * n
    col_totals = [sum(row[j] for row in counts) for j in range(len(counts[0]))]
    if total in col_totals:
        return None
    p_bar = math.fsum(
        (sum(c * c for c in row) - n) / (n * (n - 1)) for row in counts
    ) / n_subjects
    p_e_bar = math.fsum((t / total) * (t / total) for t in col_totals)
    return (p_bar - p_e_bar) / (1.0 - p_e_bar), p_bar, p_e_bar


def binomial_cdf_exact(x: int, n: int, p: float) -> float:
    """P(X <= x) by direct summation with exact binomial coefficients."""
    if x >= n:
        return 1.0
    if x < 0:
        return 0.0
    return math.fsum(
        math.comb(n, k) * p ** k * (1.0 - p) ** (n - k) for k in range(x + 1)
    )


def binomial_sf_exact(x: int, n: int, p: float) -> float:
    """P(X >= x) by direct summation."""
    if x <= 0:
        return 1.0
    if x > n:
        return 0.0
    return math.fsum(
        math.comb(n, k) * p ** k * (1.0 - p) ** (n - k) for k in range(x, n + 1)
    )


def _bisect(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    f_lo = fn(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if (f_lo <= 0.0) == (f_mid <= 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def clopper_pearson_oracle(x: int, n: int, level: float) -> tuple[float, float]:
    """Exact-tail interval endpoints by bisection on the summed binomial."""
    half_alpha = (1.0 - level) / 2.0
    lower = 0.0 if x == 0 else _bisect(
        lambda p: binomial_sf_exact(x, n, p) - half_alpha, 0.0, 1.0
    )
    upper = 1.0 if x == n else _bisect(
        lambda p: half_alpha - binomial_cdf_exact(x, n, p), 0.0, 1.0
    )
    return lower, upper


# --- the plain bisection binomial_ci once used ---------------------------------
#
# Verbatim copies of the bisection loop, the two Clopper-Pearson residuals, the
# normal-quantile residual and the Wilson closed form as binomial_ci computed
# them before its roots were bracketed by Newton steps and replayed. The
# package's kernels are passed in, so this module still imports none of it.

_BISECT_TOL = 1e-10
_BISECT_MAX_ITER = 200


def bisect_reference(fn, lo: float, hi: float, tol: float) -> float:
    """Root of a monotone function by bisection; fn(lo) and fn(hi) must bracket 0."""
    f_lo = fn(lo)
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        f_mid = fn(mid)
        if (f_lo <= 0.0) == (f_mid <= 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def clopper_pearson_bisection(x: int, n: int, level: float, regularized_incomplete_beta):
    """(lower, upper) by plain bisection on the incomplete-beta kernel given."""
    half_alpha = (1.0 - level) / 2.0
    lower = 0.0 if x == 0 else bisect_reference(
        lambda p: regularized_incomplete_beta(p, x, n - x + 1) - half_alpha,
        0.0, 1.0, _BISECT_TOL,
    )
    upper = 1.0 if x == n else bisect_reference(
        lambda p: half_alpha - regularized_incomplete_beta(1.0 - p, n - x, x + 1),
        0.0, 1.0, _BISECT_TOL,
    )
    return lower, upper


def normal_quantile_bisection(tail: float, normal_upper_tail) -> float:
    """z with P(Z >= z) = tail by plain bisection on the normal tail given."""
    if tail >= 0.5:
        return 0.0
    return bisect_reference(lambda z: normal_upper_tail(z) - tail, 0.0, 40.0, 1e-12)


def wilson_reference(x: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score bounds at quantile z, as binomial_ci wrote them."""
    phat = x / n
    z2n = z * z / n
    center = (phat + z2n / 2.0) / (1.0 + z2n)
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n))
        / (1.0 + z2n)
    )
    lower = max(0.0, center - half)
    upper = min(1.0, center + half)
    return lower, upper


# --- review-panel oracle -------------------------------------------------------
#
# Plain-Python restatement of panel validation and of the analysis inputs
# derived from a validated panel. Rows are (product, reviewer, question,
# answer, classification, team, period) tuples; expected failures raise
# OracleError carrying the package's error class name and message.


class OracleError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _mode(labels):
    """Most frequent label; a tie goes to the smallest."""
    counts = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return min(counts, key=lambda label: (-counts[label], label))


def validate_oracle(rows, policy="drop", declared=None) -> dict:
    """What validation keeps and reports, or the OracleError it raises."""
    if not rows:
        raise OracleError("DatasetValidationError", "input records must be non-empty")
    seen = set()
    for row in rows:
        key = tuple(row[:3])
        if key in seen:
            raise OracleError(
                "DuplicateRecordError",
                f"duplicate record for (product={key[0]!r}, reviewer={key[1]!r}, "
                f"question={key[2]!r})",
            )
        seen.add(key)
    reviewers = sorted({row[1] for row in rows})
    questions = sorted({row[2] for row in rows})
    n = len(reviewers)
    size = {}
    for row in rows:
        size[row[0], row[2]] = size.get((row[0], row[2]), 0) + 1
    incomplete = sorted(cell for cell, k in size.items() if k < n)
    if incomplete and policy == "strict":
        shown = ", ".join(f"({p}, {q})" for p, q in incomplete[:5])
        more = f" and {len(incomplete) - 5} more" if len(incomplete) > 5 else ""
        raise OracleError(
            "IncompleteCellError",
            f"incomplete (product, question) cells under strict policy: {shown}{more}",
        )
    kept = sorted((tuple(row) for row in rows if size[row[0], row[2]] == n),
                  key=lambda row: row[:3])
    categories = {}
    for q in questions:
        observed = sorted({row[3] for row in kept if row[2] == q})
        if declared is not None and q in declared:
            allowed = sorted(set(declared[q]))
            extra = [a for a in observed if a not in allowed]
            if extra:
                raise OracleError(
                    "DatasetValidationError",
                    f"question {q!r} has observed answers outside the declared "
                    f"category list: {extra}",
                )
            categories[q] = tuple(allowed)
        else:
            categories[q] = tuple(observed)
    return {
        "records": kept,
        "reviewers": tuple(reviewers),
        "questions": tuple(questions),
        "n_raters": n,
        "category_space": categories,
        "summary": (len(rows), len(kept), len(incomplete), len(rows) - len(kept),
                    tuple(incomplete), policy),
        "products": tuple(sorted({row[0] for row in kept})),
    }


def units_oracle(panel: dict) -> dict:
    """(product, reviewer) -> (majority classification, team)."""
    labels, teams = {}, {}
    for row in panel["records"]:
        key = row[:2]
        if key in labels:
            labels[key].append(row[4])
            if row[5] != teams[key]:
                raise OracleError(
                    "DatasetValidationError",
                    f"unit (product={key[0]!r}, reviewer={key[1]!r}) has records "
                    f"in teams {teams[key]!r} and {row[5]!r}",
                )
        else:
            labels[key] = [row[4]]
            teams[key] = row[5]
    return {key: (_mode(labels[key]), teams[key]) for key in sorted(labels)}


def unit_errors_oracle(panel: dict, truth=None) -> tuple[dict, str]:
    units = units_oracle(panel)
    if truth is None:
        by_product = {}
        for (product, _), (label, _) in units.items():
            by_product.setdefault(product, []).append(label)
        reference = {product: _mode(labels) for product, labels in by_product.items()}
        basis = "consensus"
    else:
        reference, basis = truth, "ground_truth"
    errors = {}
    for key, (label, _) in units.items():
        if key[0] not in reference:
            raise OracleError("MissingGroundTruthError",
                              f"no ground-truth classification for product {key[0]!r}")
        errors[key] = int(label != reference[key[0]])
    return errors, basis


def team_groups_oracle(panel: dict, truth=None) -> tuple:
    """The team section's outcome basis, unit count per team and error rate
    per team, or its skip reason."""
    units = units_oracle(panel)
    teams = sorted({team for _, team in units.values()} - {None})
    if not teams:
        return ("skipped", "no team data")
    if len(teams) == 1:
        return ("skipped", f"single team {teams[0]!r}")
    errors, basis = unit_errors_oracle(panel, truth)
    groups = {team: [errors[key] for key, (_, t) in units.items() if t == team]
              for team in teams}
    return (basis, {team: len(g) for team, g in groups.items()},
            {team: sum(g) / len(g) for team, g in groups.items()})


def extrapolation_groups_oracle(panel: dict, truth=None) -> tuple:
    """The extrapolation section's outcome basis and (errors, units) per
    group ("all", then "reviewer:<id>" in sorted order), or its skip reason."""
    errors, basis = unit_errors_oracle(panel, truth)
    if not errors:
        return ("skipped", "no units to extrapolate")
    groups = {"all": list(errors.values())}
    for (_, reviewer), err in errors.items():
        groups.setdefault(f"reviewer:{reviewer}", []).append(err)
    return basis, [(name, (sum(v), len(v))) for name, v in sorted(groups.items())]


def did_observations_oracle(groups, truth) -> tuple:
    """Review-format difference-in-differences observations: one
    (group, period, 0/1 error) per unit, for each (group, panel) in turn.

    Per group, a team conflict comes first, then a unit spanning periods,
    then a product without ground truth, then a unit without a period.
    """
    observations = []
    for group, panel in groups:
        units = units_oracle(panel)
        periods = {}
        for row in panel["records"]:
            periods.setdefault(row[:2], set()).add(row[6])
        for product, reviewer in units:
            if len(periods[product, reviewer]) > 1:
                raise OracleError(
                    "PanelError",
                    f"unit (product={product!r}, reviewer={reviewer!r}) spans multiple periods",
                )
        errors, _ = unit_errors_oracle(panel, truth)
        for key in units:
            (period,) = periods[key]
            if period is None:
                raise OracleError(
                    "PanelError",
                    f"record for product {key[0]!r} lacks a period; "
                    "difference-in-differences needs period-tagged data",
                )
            observations.append((group, period, float(errors[key])))
    return tuple(observations)


def _cells(panel: dict, question: str) -> list:
    by_product = {}
    for row in panel["records"]:
        if row[2] == question:
            by_product.setdefault(row[0], []).append(row[3])
    return sorted(by_product.items())


def _count_rows(cells, categories):
    return tuple(tuple(sum(1 for a in answers if a == c) for c in categories)
                 for _, answers in cells)


def rating_matrix_oracle(panel: dict, question: str) -> tuple:
    """(counts, n, categories, subjects) for one question."""
    if question not in panel["questions"]:
        raise OracleError("UnknownQuestionError",
                          f"question {question!r} not present in dataset")
    n = panel["n_raters"]
    if n < 2:
        raise OracleError("EmptyMatrixError",
                          f"question {question!r} has {n} rater(s); need at least 2")
    cells = _cells(panel, question)
    if not cells:
        raise OracleError("EmptyMatrixError", f"question {question!r} has no complete cells")
    categories = panel["category_space"][question]
    if len(categories) < 2:
        raise OracleError(
            "KappaUndefinedError",
            f"question {question!r} has a single-category space; agreement is undefined",
        )
    return (_count_rows(cells, categories), n, categories,
            tuple(product for product, _ in cells))


def pooled_rating_matrix_oracle(panel: dict) -> tuple:
    """Every complete (product, question) cell over the union category space."""
    categories = tuple(sorted({c for q in panel["questions"]
                               for c in panel["category_space"][q]}))
    if len(categories) < 2:
        raise OracleError(
            "KappaUndefinedError",
            "union category space has a single category; agreement is undefined",
        )
    counts, subjects = [], []
    for q in panel["questions"]:
        cells = _cells(panel, q)
        counts.extend(_count_rows(cells, categories))
        subjects.extend(f"{product}/{q}" for product, _ in cells)
    if not counts:
        raise OracleError("EmptyMatrixError", "dataset has no complete cells")
    n = panel["n_raters"]
    if n < 2:
        raise OracleError("EmptyMatrixError", f"rating matrix requires n >= 2 raters, got {n}")
    return tuple(counts), n, categories, tuple(subjects)


def contingency_oracle(panel: dict, question: str) -> tuple:
    """(observed, expected, answers, classifications) for one question."""
    if question not in panel["questions"]:
        raise OracleError("UnknownQuestionError",
                          f"question {question!r} not present in dataset")
    rows = [row for row in panel["records"] if row[2] == question]
    if not rows:
        raise OracleError("EmptyMatrixError", f"question {question!r} has no records")
    answers = panel["category_space"][question]
    classes = tuple(sorted({row[4] for row in rows}))
    observed = tuple(tuple(sum(1 for row in rows if row[3] == a and row[4] == c)
                           for c in classes) for a in answers)
    grand = sum(map(sum, observed))
    row_totals = [sum(row) for row in observed]
    col_totals = [sum(row[j] for row in observed) for j in range(len(classes))]
    if len(answers) < 2 or len(classes) < 2 or 0 in row_totals or 0 in col_totals:
        raise OracleError(
            "DegenerateTableError",
            f"question {question!r} yields a degenerate {len(answers)}x{len(classes)} "
            "table (needs >= 2 answers and >= 2 classifications with non-zero margins)",
        )
    expected = tuple(tuple(row_totals[r] * col_totals[c] / grand for c in range(len(classes)))
                     for r in range(len(answers)))
    return observed, expected, answers, classes


def agreement_rate_oracle(panel: dict) -> float:
    complete = consensus = 0
    for product in panel["products"]:
        cells = [dict(_cells(panel, q)).get(product) for q in panel["questions"]]
        if any(c is None for c in cells):
            continue
        complete += 1
        consensus += all(len(set(answers)) == 1 for answers in cells)
    if not complete:
        raise OracleError("NoCompleteProductsError",
                          "no product has complete ratings on every question")
    return consensus / complete


def agreement_oracle(panel: dict, mode: str) -> dict:
    """analyze_agreement's result: per question and pooled (kappa, p_bar,
    p_e_bar, subjects, raters, categories) by the fsum formula, the
    questions whose kappa fails with the failure's message, the overall
    kappa, the agreement rate and its note, and the disagreement ranking."""
    def kappa(matrix):
        counts, n, categories, _ = matrix
        result = fleiss_kappa_fsum_oracle(counts, n)
        if result is None:
            raise OracleError("KappaUndefinedError",
                              "all ratings fall in a single category; kappa is undefined")
        return (*result, len(counts), n, len(categories))

    per_question, annotations = {}, {}
    for q in panel["questions"]:
        try:
            per_question[q] = kappa(rating_matrix_oracle(panel, q))
        except OracleError as exc:
            annotations[q] = str(exc)
    if not per_question:
        raise OracleError("EmptyMatrixError", "no question yields a computable kappa")
    detail = kappa(pooled_rating_matrix_oracle(panel)) if mode == "pooled" else None
    overall = detail[0] if detail else \
        math.fsum(k[0] for k in per_question.values()) / len(per_question)
    try:
        rate, notes = agreement_rate_oracle(panel), ()
    except OracleError as exc:
        rate, notes = None, (f"agreement rate unavailable: {exc}",)
    return {"per_question": per_question, "annotations": annotations, "overall": overall,
            "detail": detail, "rate": rate, "notes": notes,
            "ranking": tuple(sorted(per_question, key=lambda q: (per_question[q][0], q)))}


# --- the scalar simulator -------------------------------------------------
#
# A plain-Python copy of the panel generator, one draw at a time, with its
# own SplitMix64 (Steele, Lea & Flood 2014). A config is read by attribute:
# n_products, n_reviewers, questions (each with question_id, n_categories
# and difficulty), reviewer_bias, anchoring, treatment and seed.

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_KEY_SALT = 0xD1B54A32D192ED03
_FLIP_KEY = 0x7E4


def _splitmix(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class _Stream:
    def __init__(self, seed: int, *keys: int):
        state = _splitmix(seed & _MASK64)
        for key in keys:
            state = _splitmix((state + _GOLDEN + (key & _MASK64) * _KEY_SALT) & _MASK64)
        self.state = state

    def next_uint64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return _splitmix(self.state)

    def random(self) -> float:
        return (self.next_uint64() >> 11) * (2.0 ** -53)

    def randbelow(self, n: int) -> int:
        return (self.next_uint64() * n) >> 64

    def weighted_index(self, weights) -> int:
        total = sum(weights)
        u = self.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                return i
        return len(weights) - 1


def _sim_labels(prefix: str, k: int) -> list:
    width = len(str(k - 1))
    return [f"{prefix}{j:0{width}d}" for j in range(k)]


def simulate_oracle(config, *, salt=(), product_prefix="p", period=None, flip_delta=0.0):
    """One simulated panel as (rows, truth): rows are record tuples in
    generation order, truth maps product to its true classification."""
    reviewers = [f"r{i}" for i in range(config.n_reviewers)]
    bias = config.reviewer_bias or {}
    class_labels = _sim_labels("class", max(q.n_categories for q in config.questions))
    width = len(str(config.n_products - 1))
    rows, truth = [], {}
    for i in range(config.n_products):
        product = f"{product_prefix}{i:0{width}d}"
        latent_votes = []
        answers = [[] for _ in reviewers]
        for qi, question in enumerate(config.questions):
            k = question.n_categories
            stream = _Stream(config.seed, *salt, i, qi)
            latent = stream.randbelow(k)
            latent_votes.append(latent)
            previous = None
            for ri, reviewer in enumerate(reviewers):
                if ri > 0 and config.anchoring > 0.0 and stream.random() < config.anchoring:
                    answer = previous
                elif stream.random() >= question.difficulty:
                    answer = latent
                elif reviewer in bias:
                    answer = stream.weighted_index(list(bias[reviewer][:k]))
                else:
                    answer = stream.randbelow(k)
                answers[ri].append(answer)
                previous = answer
        truth_index = _mode(latent_votes)
        truth[product] = class_labels[truth_index]
        for ri, reviewer in enumerate(reviewers):
            verdict = _mode(answers[ri])
            if flip_delta > 0.0:
                flip = _Stream(config.seed, *salt, i, _FLIP_KEY, ri).random() < flip_delta
                if flip and verdict == truth_index:
                    verdict = 0 if truth_index != 0 else 1
            for question, answer in zip(config.questions, answers[ri]):
                rows.append((product, reviewer, question.question_id,
                             _sim_labels("a", question.n_categories)[answer],
                             class_labels[verdict], None, period))
    return rows, truth


def inject_review_change_oracle(config, periods=(0, 1)):
    """({group: rows}, truth) of a treated/control pair over the periods."""
    change = config.treatment.change_period
    groups, truth = {}, {}
    for gi, group in enumerate(("control", "treated")):
        groups[group] = []
        for period in periods:
            delta = (config.treatment.error_rate_delta
                     if group == "treated" and period >= change else 0.0)
            rows, panel_truth = simulate_oracle(
                config, salt=(gi, period), product_prefix=f"{group}-{period}-p",
                period=period, flip_delta=delta)
            groups[group].extend(rows)
            truth.update(panel_truth)
    return groups, truth


def panel_csv_oracle(rows) -> str:
    """The CSV a validated complete panel of these rows is written as: rows
    sorted by (product, reviewer, question), None written empty."""
    stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["product_id", "reviewer_id", "question_id", "answer",
                     "final_classification", "team", "period"])
    for row in sorted(rows, key=lambda row: row[:3]):
        writer.writerow(["" if v is None else str(v) for v in row])
    return stream.getvalue()
