"""Certified evaluation of the partial theta function and its identities.

Evaluation routes automatically between two certified paths:

* the direct one-sided series, summed in double-double arithmetic for real
  x and in integers for complex x (:mod:`ptheta.certified`), taken whenever
  the predicted double-double rounding (eps^2 times the absolute term sum)
  is below tolerance, and
* the split theta = Theta* - G (see :mod:`ptheta.tripleprod`), which stays
  accurate at large |x| and |q| near 1 where the direct sum cancels
  catastrophically.  Theta* comes from Jacobi's imaginary transformation,
  reached for q < 0 through the mod-4 character, so no route recurses.

The quartic decomposition theta = theta1(q^4, x^2/q) + q x theta2(q^4, q x^2)
stays available as an identity check (:func:`decompose`).

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
    cv_within,
    derivative_truncation,
    direct_route_order,
    require_q,
    require_x,
    series_log_max_term,
    theta_deriv_sum,
    theta_sum_dd,
)
from .ddarith import (
    DD_OP,
    cdd_abs1,
    cdd_div_dd,
    cdd_from,
    cdd_hi,
    cdd_mul_dd,
    cdd_sqr,
    dd_div,
    dd_pow_int,
    dd_sqrt,
)
from .errors import ContourError, DomainError, RangeOverflowError
from .tripleprod import split_parts_dd


def _theta_eval_dd(q2, x4, tol) -> CertifiedValue:
    """Routed evaluation with DD parameter and argument; the truncation order
    is solved once and reused by the direct route."""
    qh = q2[0]
    if qh == 0.0 or cdd_abs1(x4) == 0.0:
        return CertifiedValue(1.0, 0.0)
    xa = math.hypot(x4[0], x4[2])
    predicted, order = direct_route_order(abs(qh), xa, tol)
    if predicted <= max(tol, 1e-13):
        n, tail = order
        return cv_within(*theta_sum_dd(q2, x4, n, tol), tail)
    return split_parts_dd(q2, x4, tol).difference


def _x_sensitivity_bound(q2, x4, dx, tol) -> float:
    """Bound on |theta(q, x) - theta(q, x~)| for real x with |x - x~| <= dx
    and x~ = x4 a real DD number; raises InfeasibleToleranceError where an
    order solve passes the cap.

    Taylor's theorem with the Lagrange remainder gives, for some xi between
    x~ and x,

        theta(x) - theta(x~) = theta_x(x~) (x - x~) + theta_xx(xi) (x - x~)^2 / 2.

    * theta_x(x~) is certified by the integer kernel at the exact x~, so
      |theta_x(x~)| <= |value| + err.  Its tolerance tol / (16 dx) keeps the
      tail's share of the first-order term at tol / 16.
    * |xi| <= X = |x~| + dx, so the positive terms of
      M = sum_{j>=2} j (j-1) |q|^{tri(j)} X^{j-2} dominate those of
      theta_xx(xi), and |theta_xx(xi)| <= M.  The terms past the order n of
      derivative_truncation(|q|, X, 2, 0, 1) sum to at most its tail (the
      rule is proved in certified._series_order); each of the n - 1 terms
      up to n is at most n^2 e^L / X^2,
      e^L = max_j |q|^{tri(j)} X^j (series_log_max_term).  L stays far
      below exp's overflow: both routes refuse x~ once L passes about 690.

    The bound is dx (|value| + err) + (dx^2 tail + (dx/X)^2 n^3 e^L) / 2, the
    last two with 1% for their float rounding.
    """
    d1 = _deriv_cv(q2, x4, 1, 0, tol / (16.0 * dx))
    big_x = (abs(x4[0]) + dx) * (1.0 + 2.0 * EPS)
    n, tail = derivative_truncation(abs(q2[0]), big_x, 2, 0, 1.0)
    log_max = series_log_max_term(abs(q2[0]), big_x)
    second = dx * dx * tail + (dx / big_x) ** 2 * n**3 * math.exp(log_max)
    return dx * d1.abs_upper() + 0.505 * second


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
    return _theta_eval_dd((q, 0.0), cdd_from(x), tol)


@dataclass(frozen=True)
class Decomposition:
    """Split theta(q,x) = theta1 + q x theta2 with theta_i at parameter q^4."""

    theta1: CertifiedValue
    theta2: CertifiedValue
    recombined: CertifiedValue


def _decompose_dd(q2, x4, tol) -> Decomposition:
    """The parts at parameter q^4 > 0, each routed like any value."""
    q4 = dd_pow_int(q2[0], q2[1], 4)
    xsq = cdd_sqr(x4)
    arg1 = cdd_div_dd(xsq, q2[0], q2[1])
    arg2 = cdd_mul_dd(xsq, q2[0], q2[1])
    if not all(map(math.isfinite, arg1 + arg2)):
        raise RangeOverflowError(f"x^2/q lies past binary64 at x = {cdd_hi(x4)}")
    t1 = _theta_eval_dd(q4, arg1, tol / 3.0)
    t2 = _theta_eval_dd(q4, arg2, tol / 3.0)
    qx = cdd_mul_dd(x4, q2[0], q2[1])
    return Decomposition(t1, t2, t1 + t2.scaled_dd(qx))


def decompose(q: float, x: complex, tol: float = DEFAULT_TOL, q_max: float = Q_MAX) -> Decomposition:
    """Quartic-parameter split of theta; recombined tracks full error."""
    require_q(q, q_max)
    x = require_x(x)
    if x == 0:
        one = CertifiedValue(1.0, 0.0)
        return Decomposition(one, one, one)
    return _decompose_dd((q, 0.0), cdd_from(x), tol)


# ---------------------------------------------------------------------------
# Derivatives


def _deriv_cv(q2, x4, m, nq, tol) -> CertifiedValue:
    qh = q2[0]
    n, tail = derivative_truncation(abs(qh), math.hypot(x4[0], x4[2]), m, nq, tol)
    return cv_within(*theta_deriv_sum(qh, q2[1], x4, n, m, nq, tol), tail)


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
    x = require_x(x)
    if x == 0:
        return CertifiedValue(0.0, 0.0)
    x4 = cdd_from(x)
    q2 = (q, 0.0)
    left = _theta_eval_dd(q2, x4, tol)
    qx = cdd_mul_dd(x4, q, 0.0)
    scaled = _theta_eval_dd(q2, qx, tol).scaled_dd(qx)
    inner = 1.0 + scaled.value
    return left - CertifiedValue(inner, scaled.err + EPS * abs(inner))


def pde_residual(q: float, x: complex, tol: float = DEFAULT_TOL, q_max: float = Q_MAX) -> CertifiedValue:
    """Residual of 2q theta_q = 2x theta_x + x^2 theta_xx."""
    require_q(q, q_max)
    x = require_x(x)
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
    x = require_x(x)
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
    """x = -q^p as a DD pair x~ plus a bound rel on |x - x~| / |x~|.

    Integer and half-integer exponents are formed in DD as b^N, b = q or
    sqrt(q) and N = |p| or |2p|, inverted for p < 0.  Each DD operation has
    relative error at most DD_OP/4 and a squaring doubles its input's, so
    square-and-multiply stays within N DD_OP/2, the square root's error
    grows N-fold and the division adds DD_OP/4: rel = (2N + 2) DD_OP covers
    them.  General exponents fall back to libm pow with the usual |p ln q|
    error growth.
    """
    if float(2 * p).is_integer():
        n = int(2 * p)
        if n % 2 == 0:
            b = (q, 0.0)
            n //= 2
        else:
            b = dd_sqrt(q, 0.0)
        ph, pl = dd_pow_int(*b, abs(n))
        if n < 0:
            ph, pl = dd_div(1.0, 0.0, ph, pl)
        return (-ph, -pl), (2 * abs(n) + 2) * DD_OP
    xh = -math.pow(q, p)
    return (xh, 0.0), 4.0 * EPS * (1.0 + abs(p * math.log(q)))


def _diag_eval(q: float, p: float, tol: float) -> CertifiedValue:
    """theta(q, -q^p) with argument-rounding folded into err."""
    (xh, xl), rel = _dd_signed_power(q, p)
    x4 = (xh, xl, 0.0, 0.0)
    cv = _theta_eval_dd((q, 0.0), x4, tol)
    dx = max(rel * abs(xh), 1e-300)
    return CertifiedValue(cv.value, cv.err + _x_sensitivity_bound((q, 0.0), x4, dx, tol))


def phi(q: float, k: float, tol: float = DEFAULT_TOL, q_max: float = Q_MAX) -> CertifiedValue:
    """The diagonal value theta(q, -q^{k-1}) for q in (0,1), k = 1/2 or k >= 1/2."""
    if q == 0.0:
        return CertifiedValue(1.0, 0.0)
    require_q(q, q_max)
    if q < 0:
        raise DomainError("the diagonal family is defined for q > 0")
    if k < 0.5:
        raise DomainError("k must be >= 1/2")
    return _diag_eval(q, k - 1.0, tol)


def theta_at_diagonal(q: float, a: float, tol: float = DEFAULT_TOL, q_max: float = Q_MAX) -> CertifiedValue:
    """theta(q, -q^{-a}) for q in (0,1), a > 0; sign changes only for a in
    the odd-to-even gap intervals (2j-1, 2j)."""
    require_q(q, q_max)
    if q < 0 or a <= 0:
        raise DomainError("requires q in (0,1) and a > 0")
    return _diag_eval(q, -a, tol)


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
