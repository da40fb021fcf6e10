"""From-scratch special functions, distribution upper tails and tail_area.

Every p-value in the toolkit flows through two kernels implemented here: the
regularized lower incomplete gamma function P(s, x) (chi-square and normal
tails) and the regularized incomplete beta function I_x(a, b) (Student-t and
F tails). Series expansions are used inside their classical convergence
regions and Lentz-style continued fractions outside; iteration is capped at
_MAX_ITER with tolerance _TOL, and hitting the cap raises ConvergenceError
rather than returning a partial result. The gamma series needs about
8*sqrt(s) terms when x is near s, so the cap binds there from s ~ 4300:
chi_square_upper_tail(df, df) raises ConvergenceError from df = 8678 on,
e.g. at (12000, 12000). The beta continued fraction fails likewise when both
shapes are large and x is near a / (a + b): I_0.5(1000000, 1000001) raises,
and so does binomial_ci(1000000, 2000000, 0.01), whose roots lie within
1e-5 of 0.5. ROADMAP item 3 plans large-parameter branches for both.

The log-Beta normaliser log B(a, b) of I_x(a, b) costs three log_gamma calls,
over half of a kernel call, yet a Clopper-Pearson bisection calls the kernel
about six times with the same shapes. So it is cached per (a, b) pair, in a
bounded cache that only validated shapes reach; a hit returns the float the
same expression would compute.
"""

from __future__ import annotations

import functools
import math

from .errors import ConvergenceError

_MAX_ITER = 500
_TOL = 1e-14
_TINY = 1e-300  # Lentz underflow guard

_LN_SQRT_2PI = 0.9189385332046727417803297364  # ln(sqrt(2*pi))

# Lanczos approximation, g = 607/128, 15 terms (Godfrey's coefficients).
# Relative error of the rational part is ~1e-15 over the right half plane.
_LANCZOS_G = 4.7421875
_LANCZOS_COEF = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker split constant


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """Exact product a*b as a head/tail pair (Dekker splitting)."""
    p = a * b
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _log_refined(t: float) -> tuple[float, float]:
    """log(t) as a head/tail pair via one residual correction step.

    exp(head) is within an ulp of t, so t - exp(head) is exact (Sterbenz)
    and the quotient recovers the low-order part of the logarithm.
    """
    head = math.log(t)
    e = math.exp(head)
    tail = (t - e) / e
    return head, tail


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    The dominant (x - 0.5) * log(t) term is assembled in double-double
    precision so the recurrence log_gamma(x+1) = log_gamma(x) + log(x)
    holds to near machine precision even at large x.
    """
    if not (x > 0.0) or math.isinf(x):
        raise ValueError(f"log_gamma requires x > 0 and finite, got {x}")
    if x < 0.5:
        # reflection keeps the Lanczos sum on its accurate half line
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    ln_t_hi, ln_t_lo = _log_refined(t)
    p_hi, p_lo = _two_prod(z + 0.5, ln_t_hi)
    return math.fsum([p_hi, p_lo, (z + 0.5) * ln_t_lo, -t, _LN_SQRT_2PI, math.log(acc)])


def _gamma_p_series(s: float, x: float) -> float:
    """Series expansion of P(s, x), valid for x < s + 1."""
    ap = s
    delta = 1.0 / s
    total = delta
    for _ in range(_MAX_ITER):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * _TOL:
            return total * math.exp(-x + s * math.log(x) - log_gamma(s))
    raise ConvergenceError("incomplete gamma series", _MAX_ITER)


def _gamma_q_cf(s: float, x: float) -> float:
    """Continued fraction for Q(s, x) (modified Lentz), valid for x >= s + 1."""
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _TOL:
            return h * math.exp(-x + s * math.log(x) - log_gamma(s))
    raise ConvergenceError("incomplete gamma continued fraction", _MAX_ITER)


def regularized_incomplete_gamma_lower(s: float, x: float) -> float:
    """P(s, x), the regularized lower incomplete gamma function."""
    if not s > 0.0:
        raise ValueError(f"requires s > 0, got {s}")
    if x < 0.0:
        raise ValueError(f"requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return _gamma_p_series(s, x)
    return 1.0 - _gamma_q_cf(s, x)


def regularized_incomplete_gamma_upper(s: float, x: float) -> float:
    """Q(s, x) = 1 - P(s, x), evaluated on its own accurate branch."""
    if not s > 0.0:
        raise ValueError(f"requires s > 0, got {s}")
    if x < 0.0:
        raise ValueError(f"requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        return 1.0 - _gamma_p_series(s, x)
    return _gamma_q_cf(s, x)


def _beta_cf(x: float, a: float, b: float) -> float:
    """Modified Lentz continued fraction for the incomplete beta integral."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _TOL:
            return h
    raise ConvergenceError("incomplete beta continued fraction", _MAX_ITER)


@functools.lru_cache(maxsize=256)
def _log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0, cached per shape pair. An int shape and the
    equal float share an entry: log_gamma gives both the same float."""
    return log_gamma(a + b) - log_gamma(a) - log_gamma(b)


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b), the regularized incomplete beta function.

    Uses the symmetry reduction I_x(a, b) = 1 - I_{1-x}(b, a) so the
    continued fraction always runs in its fast-convergence region. Shapes
    are taken as floats; one above the largest float is a ValueError.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"requires a > 0 and b > 0, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise ValueError(f"requires 0 <= x <= 1, got {x}")
    try:
        a, b = float(a), float(b)
    except OverflowError:
        raise ValueError("requires shapes at most the largest float") from None
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(_log_beta(a, b) + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(x, a, b) / a
    return 1.0 - front * _beta_cf(1.0 - x, b, a) / b


# --- distribution tails ----------------------------------------------------
#
# The helpers below accept real-valued degrees of freedom (Welch-corrected t
# tests need fractional df).

def chi_square_upper_tail(statistic: float, df: float) -> float:
    """P(X >= statistic) for X ~ chi-square(df)."""
    if not df > 0.0:
        raise ValueError(f"requires df > 0, got {df}")
    if not math.isfinite(statistic):
        raise ValueError("statistic must be finite")
    if statistic <= 0.0:
        return 1.0
    return regularized_incomplete_gamma_upper(df / 2.0, statistic / 2.0)


def student_t_upper_tail(statistic: float, df: float) -> float:
    """P(T >= statistic) for T ~ Student-t(df)."""
    if not df > 0.0:
        raise ValueError(f"requires df > 0, got {df}")
    if not math.isfinite(statistic):
        raise ValueError("statistic must be finite")
    if statistic < 0.0:
        return 1.0 - student_t_upper_tail(-statistic, df)
    if statistic == 0.0:
        return 0.5
    x = df / (df + statistic * statistic)
    return 0.5 * regularized_incomplete_beta(x, df / 2.0, 0.5)


def f_upper_tail(statistic: float, df1: float, df2: float) -> float:
    """P(F >= statistic) for F ~ F(df1, df2)."""
    if not (df1 > 0.0 and df2 > 0.0):
        raise ValueError(f"requires df1 > 0 and df2 > 0, got {df1}, {df2}")
    if not math.isfinite(statistic):
        raise ValueError("statistic must be finite")
    if statistic <= 0.0:
        return 1.0
    x = df2 / (df2 + df1 * statistic)
    return regularized_incomplete_beta(x, df2 / 2.0, df1 / 2.0)


def normal_upper_tail(z: float) -> float:
    """P(Z >= z) for Z ~ N(0, 1), via the incomplete gamma kernel."""
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    if z < 0.0:
        return 1.0 - normal_upper_tail(-z)
    if z == 0.0:
        return 0.5
    return 0.5 * regularized_incomplete_gamma_upper(0.5, 0.5 * z * z)


TAILS = ("upper", "lower", "two_sided")


def tail_area(upper_tail, statistic: float, tail: str, *df: float) -> float:
    """Tail area of a test statistic from its distribution's upper tail.

    "upper" is P(X >= statistic), "lower" its complement, and "two_sided"
    doubles the upper tail at |statistic| (for symmetric distributions).
    """
    if tail == "upper":
        return upper_tail(statistic, *df)
    if tail == "lower":
        return 1.0 - upper_tail(statistic, *df)
    return 2.0 * upper_tail(abs(statistic), *df)

