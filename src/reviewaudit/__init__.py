"""Statistical toolkit for quantifying human-reviewer audit risk.

Measures inter-rater agreement (Fleiss kappa), tests question/classification
relationships and team differences (chi-square, t/z, ANOVA), extrapolates
error rates (binomial confidence intervals), fits bias-factor models (OLS
and logistic regression), and estimates review-process-change effects
(difference-in-differences) over multi-reviewer rubric datasets.
"""

__version__ = "0.1.0"

from .agreement import (
    AgreementReport,
    KappaResult,
    agreement_rate,
    analyze_agreement,
    fleiss_kappa,
    pooled_rating_matrix,
)
from .did import DidPanel, DidResult, did_estimate, did_with_error_rates
from .errors import (
    ConfigError,
    ConvergenceError,
    CsvFormatError,
    DatasetValidationError,
    DegenerateSampleError,
    DegenerateTableError,
    DuplicateRecordError,
    EmptyMatrixError,
    IncompleteCellError,
    KappaUndefinedError,
    MissingGroundTruthError,
    NoCompleteProductsError,
    NonBinaryTargetError,
    PanelError,
    RankDeficiencyError,
    ReviewAuditError,
    SeparationError,
    UnknownQuestionError,
)
from .estimation import (
    BiasFactorReport,
    BinomialInterval,
    RegressionFit,
    bias_factor_report,
    binomial_ci,
    logistic_fit,
    ols_fit,
)
from .hypotheses import (
    AnovaDecomposition,
    TestResult,
    chi_square_independence,
    one_sample_location_test,
    one_way_anova,
    two_sample_t,
)
from .model import (
    ContingencyTable,
    RatingMatrix,
    ReviewDataset,
    ReviewRecord,
    ValidationSummary,
    contingency_from,
    rating_matrix,
    validate_dataset,
)
from .report import (
    AuditReport,
    emit_report,
    ingest_csv,
    parse_report,
    run_audit,
)
from .simulate import (
    DidPair,
    QuestionSpec,
    SimulationConfig,
    Treatment,
    inject_review_change,
    simulate_panel,
)
from .special import (
    log_gamma,
    regularized_incomplete_beta,
    regularized_incomplete_gamma_lower,
    regularized_incomplete_gamma_upper,
)

__all__ = [
    "__version__",
    "AgreementReport",
    "AnovaDecomposition",
    "AuditReport",
    "BiasFactorReport",
    "BinomialInterval",
    "ConfigError",
    "ContingencyTable",
    "ConvergenceError",
    "CsvFormatError",
    "DatasetValidationError",
    "DegenerateSampleError",
    "DegenerateTableError",
    "DidPair",
    "DidPanel",
    "DidResult",
    "DuplicateRecordError",
    "EmptyMatrixError",
    "IncompleteCellError",
    "KappaResult",
    "KappaUndefinedError",
    "MissingGroundTruthError",
    "NoCompleteProductsError",
    "NonBinaryTargetError",
    "PanelError",
    "QuestionSpec",
    "RankDeficiencyError",
    "RatingMatrix",
    "RegressionFit",
    "ReviewAuditError",
    "ReviewDataset",
    "ReviewRecord",
    "SeparationError",
    "SimulationConfig",
    "TestResult",
    "Treatment",
    "UnknownQuestionError",
    "ValidationSummary",
    "agreement_rate",
    "analyze_agreement",
    "bias_factor_report",
    "binomial_ci",
    "chi_square_independence",
    "contingency_from",
    "did_estimate",
    "did_with_error_rates",
    "emit_report",
    "fleiss_kappa",
    "ingest_csv",
    "inject_review_change",
    "log_gamma",
    "logistic_fit",
    "ols_fit",
    "one_sample_location_test",
    "one_way_anova",
    "parse_report",
    "pooled_rating_matrix",
    "rating_matrix",
    "regularized_incomplete_beta",
    "regularized_incomplete_gamma_lower",
    "regularized_incomplete_gamma_upper",
    "run_audit",
    "simulate_panel",
    "two_sample_t",
    "validate_dataset",
]
