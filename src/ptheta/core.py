"""Certified evaluation of the partial theta function and its identities.

Evaluation routes automatically between two certified paths:

* the direct one-sided series in double-double arithmetic, which is accurate
  whenever the predicted rounding (eps^2 times the absolute term sum) is
  below tolerance, and
* the product-minus-tail split, which stays accurate at large |x| and |q|
  near 1 where the direct sum cancels catastrophically.  For q < 0 the split
  is reached through the quartic decomposition, whose inner parameter q^4 is
  positive.

Arguments derived from q and x (q x, q^2 x, x^2/q, ...) are formed in
double-double so identity residuals certify at full precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .certified import (
    DEFAULT_TOL,
    EPS,
    CertifiedValue,
    Q_MAX,
    cv_from_sum,
    derivative_truncation,
    direct_route_order,
    require_q,
    require_x,
    series_log_max_term,
    theta_deriv_sum,
    theta_sum_dd,
    truncation_order,
)
from .ddarith import (
    cdd_abs1,
    cdd_div_dd,
    cdd_from,
    cdd_mul_dd,
    cdd_sqr,
    dd_div,
    dd_pow_int,
    dd_sqrt,
)
from .errors import ContourError, DomainError
from .tripleprod import split_parts_dd


def _theta_direct_dd(q2, x4, tol, order=None) -> CertifiedValue:
    """Direct series at the order (N, tail) if given, else at the order
    solved here."""
    n, tail = order or truncation_order(abs(q2[0]), math.hypot(x4[0], x4[2]), tol)
    s4, abs_sum = theta_sum_dd(q2, x4, n)
    return cv_from_sum(s4, n, tail, abs_sum)


def _theta_eval_dd(q2, x4, tol, q_max, allow_split=True) -> CertifiedValue:
    """Routed evaluation with DD parameter and argument; the truncation order
    is solved once and reused by the direct route."""
    qh = q2[0]
    if qh == 0.0 or cdd_abs1(x4) == 0.0:
        return CertifiedValue(1.0, 0.0)
    xa = math.hypot(x4[0], x4[2])
    predicted, order = direct_route_order(abs(qh), xa, tol)
    if predicted <= max(tol, 1e-13):
        return _theta_direct_dd(q2, x4, tol, order)
    if qh > 0.0:
        return split_parts_dd(q2, x4, tol).difference
    if allow_split:
        return _decompose_dd(q2, x4, tol, q_max).recombined
    return _theta_direct_dd(q2, x4, tol, order)


def _x_sensitivity_bound(q, xa) -> float:
    """Crude upper bound on |x * dtheta/dx| near (q, x)."""
    try:
        n, _ = truncation_order(abs(q), xa, 1e-6)
    except Exception:
        return 0.0
    lm = series_log_max_term(abs(q), xa)
    if lm > 600.0:
        return 1e300
    return math.exp(lm) * (n + 1) * (n + 1)


def theta_certified(
    q: float,
    x: complex,
    tol: float = DEFAULT_TOL,
    q_max: float = Q_MAX,
) -> CertifiedValue:
    """Value of the partial theta function with a rigorous error bound,
    routed between the direct series and the product-minus-tail split."""
    if q == 0.0:
        return CertifiedValue(1.0, 0.0)
    require_q(q, q_max)
    x = require_x(x)
    if x == 0:
        return CertifiedValue(1.0, 0.0)
    return _theta_eval_dd((q, 0.0), cdd_from(x), tol, q_max)


@dataclass(frozen=True)
class Decomposition:
    """Split theta(q,x) = theta1 + q x theta2 with theta_i at parameter q^4."""

    theta1: CertifiedValue
    theta2: CertifiedValue
    recombined: CertifiedValue


def _decompose_dd(q2, x4, tol, q_max) -> Decomposition:
    q4 = dd_pow_int(q2[0], q2[1], 4)
    xsq = cdd_sqr(x4)
    arg1 = cdd_div_dd(xsq, q2[0], q2[1])
    arg2 = cdd_mul_dd(xsq, q2[0], q2[1])
    t1 = _theta_eval_dd(q4, arg1, tol / 3.0, q_max, allow_split=False)
    t2 = _theta_eval_dd(q4, arg2, tol / 3.0, q_max, allow_split=False)
    qx = cdd_mul_dd(x4, q2[0], q2[1])
    return Decomposition(t1, t2, t1 + t2.scaled_dd(qx))


def decompose(q: float, x: complex, tol: float = DEFAULT_TOL, q_max: float = Q_MAX) -> Decomposition:
    """Quartic-parameter split of theta; recombined tracks full error."""
    require_q(q, q_max)
    x = complex(x)
    if x == 0:
        one = CertifiedValue(1.0, 0.0)
        return Decomposition(one, one, one)
    return _decompose_dd((q, 0.0), cdd_from(x), tol, q_max)


# ---------------------------------------------------------------------------
# Derivatives


def _deriv_cv(q2, x4, m, nq, tol) -> CertifiedValue:
    qh = q2[0]
    xa = math.hypot(x4[0], x4[2])
    n, tail = derivative_truncation(abs(qh), xa, m, nq, tol)
    s4, abs_sum = theta_deriv_sum(qh, q2[1], x4, n, m, nq)
    return cv_from_sum(s4, n, tail, abs_sum)


def theta_derivative(
    q: float,
    x: complex,
    dx_order: int = 0,
    dq_order: int = 0,
    tol: float = DEFAULT_TOL,
    q_max: float = Q_MAX,
) -> CertifiedValue:
    """Term-wise derivative (d/dx)^dx_order (d/dq)^dq_order of the series."""
    if not (0 <= dx_order <= 4 and 0 <= dq_order <= 2):
        raise DomainError("supported orders: dx_order in 0..4, dq_order in 0..2")
    if dx_order + dq_order < 1:
        raise DomainError("at least one derivative order must be positive")
    require_q(q, q_max)
    return _deriv_cv((q, 0.0), cdd_from(require_x(x)), dx_order, dq_order, tol)


# ---------------------------------------------------------------------------
# Identity residuals


def functional_equation_residual(
    q: float, x: complex, tol: float = DEFAULT_TOL, q_max: float = Q_MAX
) -> CertifiedValue:
    """theta(q,x) - 1 - q x theta(q, q x), certified; zero within err."""
    require_q(q, q_max)
    x = complex(x)
    if x == 0:
        return CertifiedValue(0.0, 0.0)
    x4 = cdd_from(x)
    q2 = (q, 0.0)
    left = _theta_eval_dd(q2, x4, tol, q_max)
    qx = cdd_mul_dd(x4, q, 0.0)
    scaled = _theta_eval_dd(q2, qx, tol, q_max).scaled_dd(qx)
    inner = 1.0 + scaled.value
    return left - CertifiedValue(inner, scaled.err + EPS * abs(inner))


def pde_residual(q: float, x: complex, tol: float = DEFAULT_TOL, q_max: float = Q_MAX) -> CertifiedValue:
    """Residual of 2q theta_q = 2x theta_x + x^2 theta_xx."""
    require_q(q, q_max)
    x = complex(x)
    if x == 0:
        return CertifiedValue(0.0, 0.0)
    x4 = cdd_from(x)
    q2 = (q, 0.0)
    tq = _deriv_cv(q2, x4, 0, 1, tol)
    tx = _deriv_cv(q2, x4, 1, 0, tol)
    txx = _deriv_cv(q2, x4, 2, 0, tol)
    return tq.scaled(2.0 * q) - tx.scaled(2.0 * x) - txx.scaled(x * x)


def mixed_identity_residuals(
    q: float, x: complex, tol: float = DEFAULT_TOL, q_max: float = Q_MAX
):
    """Residuals of the two shift identities relating x- and q-derivatives:

    x theta_xx(q, x) = 2 q^2 theta_q(q, q x)
    x^2 theta_xxxx(q, x) = 4 q^5 theta_qq(q, q^2 x)
    """
    require_q(q, q_max)
    x = complex(x)
    if x == 0:
        return CertifiedValue(0.0, 0.0), CertifiedValue(0.0, 0.0)
    x4 = cdd_from(x)
    q2 = (q, 0.0)
    qx = cdd_mul_dd(x4, q, 0.0)
    qqx = cdd_mul_dd(qx, q, 0.0)

    txx = _deriv_cv(q2, x4, 2, 0, tol)
    tq_at_qx = _deriv_cv(q2, qx, 0, 1, tol)
    r1 = txx.scaled(x) - tq_at_qx.scaled(2.0 * q * q)

    txxxx = _deriv_cv(q2, x4, 4, 0, tol)
    tqq_at_qqx = _deriv_cv(q2, qqx, 0, 2, tol)
    r2 = txxxx.scaled(x * x) - tqq_at_qqx.scaled(4.0 * q**5)
    return r1, r2


# ---------------------------------------------------------------------------
# Diagonal evaluations


def _dd_signed_power(q: float, p: float):
    """x = -q^p as a DD pair plus a relative-error allowance.

    Integer and half-integer exponents are formed exactly in DD; general
    exponents fall back to libm pow with the usual |p ln q| error growth.
    """
    if float(p).is_integer():
        p = int(p)
        if p >= 0:
            ph, pl = dd_pow_int(q, 0.0, p)
        else:
            ph, pl = dd_div(1.0, 0.0, *dd_pow_int(q, 0.0, -p))
        return (-ph, -pl), 8.0 * EPS * EPS
    if float(2 * p).is_integer():
        sh, sl = dd_sqrt(q, 0.0)
        n = int(2 * p)
        if n >= 0:
            ph, pl = dd_pow_int(sh, sl, n)
        else:
            ph, pl = dd_div(1.0, 0.0, *dd_pow_int(sh, sl, -n))
        return (-ph, -pl), 8.0 * EPS * EPS
    xh = -math.pow(q, p)
    return (xh, 0.0), 4.0 * EPS * (1.0 + abs(p * math.log(q)))


def _diag_eval(q: float, p: float, tol: float, q_max: float) -> CertifiedValue:
    """theta(q, -q^p) with argument-rounding folded into err."""
    (xh, xl), rel = _dd_signed_power(q, p)
    cv = _theta_eval_dd((q, 0.0), (xh, xl, 0.0, 0.0), tol, q_max)
    sens = _x_sensitivity_bound(q, abs(xh)) * rel
    return CertifiedValue(cv.value, cv.err + sens)


def phi(q: float, k: float, tol: float = DEFAULT_TOL, q_max: float = Q_MAX) -> CertifiedValue:
    """The diagonal value theta(q, -q^{k-1}) for q in (0,1), k = 1/2 or k >= 1/2."""
    if q == 0.0:
        return CertifiedValue(1.0, 0.0)
    require_q(q, q_max)
    if q < 0:
        raise DomainError("the diagonal family is defined for q > 0")
    if k < 0.5:
        raise DomainError("k must be >= 1/2")
    return _diag_eval(q, k - 1.0, tol, q_max)


def theta_at_diagonal(q: float, a: float, tol: float = DEFAULT_TOL, q_max: float = Q_MAX) -> CertifiedValue:
    """theta(q, -q^{-a}) for q in (0,1), a > 0; sign changes only for a in
    the odd-to-even gap intervals (2j-1, 2j)."""
    require_q(q, q_max)
    if q < 0 or a <= 0:
        raise DomainError("requires q in (0,1) and a > 0")
    return _diag_eval(q, -a, tol, q_max)


def nu(q: float, tol: float = DEFAULT_TOL) -> CertifiedValue:
    """The alternating half-square-exponent diagonal, phi at k = 1/2."""
    return phi(q, 0.5, tol)


# ---------------------------------------------------------------------------
# Limit comparison near q -> 1- and q -> -1+


def inside_contour(x: complex, case: str, margin: float = 1e-6) -> bool:
    """Strict-interior membership for the spiral-bounded convergence regions.

    Case A, bounded by x = e^{t +- i t}: a point r e^{i phi} is inside iff
    ln r < |phi| - margin.  Case B is the image x -> -x^2 of case A.
    """
    x = complex(x)
    if case == "A":
        if x == 0:
            return True
        r = abs(x)
        ph = abs(math.atan2(x.imag, x.real))
        return math.log(r) < ph - margin
    if case == "B":
        return inside_contour(-(x * x), "A", margin)
    raise DomainError(f"case must be 'A' or 'B', got {case!r}")


def limit_function(x: complex, case: str) -> complex:
    """The q -> +-1 limit of the series inside the matching contour."""
    if case == "A":
        return 1.0 / (1.0 - x)
    if case == "B":
        return (1.0 - x) / (1.0 + x * x)
    raise DomainError(f"case must be 'A' or 'B', got {case!r}")


def katsnelson_residual(q: float, x: complex, tol: float = 1e-10) -> float:
    """|theta(q,x) - limit(x)| for x strictly inside the matching contour.

    Monotone decay toward 0 along q-sequences approaching +-1 is the caller's
    check; this only evaluates the residual at one q.
    """
    if not (0.0 < abs(q) < 1.0):
        raise DomainError("q must lie in (-1,0) u (0,1)")
    case = "A" if q > 0 else "B"
    if not inside_contour(x, case):
        raise ContourError(f"x={x} is not strictly inside the case-{case} contour")
    cv = theta_certified(q, x, tol, q_max=0.9999)
    return abs(cv.value - limit_function(complex(x), case))
