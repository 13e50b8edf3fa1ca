"""Two-sided series machinery: the infinite product, the tail, and the split.

The two-sided sum Theta*(q,x) = sum_{j in Z} q^{j(j+1)/2} x^j factors as the
infinite product prod_{m>=1} (1-q^m)(1+x q^m)(1+q^{m-1}/x); the negative-index
part G(q,x) = 1/x + q/x^2 + q^3/x^3 + q^6/x^4 + ... satisfies

    theta(q, x) = Theta*(q, x) - G(q, x).

Neither the product nor G suffers the catastrophic cancellation of the
one-sided series at large |x|, which is exactly why this split exists: it is
the accurate route where direct summation loses all digits.

Internal entry points accept the parameter and argument as double-double
values so that identity checks (which feed q^4, x^2/q, ...) lose nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .certified import (
    EPS,
    EPS2,
    LN2,
    _SPL,
    CertifiedValue,
    Q_MAX,
    cv_from_sum,
    n_cap,
    require_q,
    require_x,
    theta_sum_dd,
    truncation_order,
)

# cdd_abs1 and cdd_add are no longer called here, but the benchmark's call
# counter (perfbench/spans.py, DD_PRIMITIVES) looks up every primitive it
# counts by name on this module.
from .ddarith import (
    cdd_abs1,
    cdd_add,
    cdd_from,
    cdd_hi,
    cdd_inv,
    cdd_mul,
    cdd_mul_dd,
    dd_add,
    dd_mul,
)
from .errors import DomainError, InfeasibleToleranceError, RangeOverflowError


@dataclass(frozen=True)
class TripleProductParts:
    """Product value, tail value, and their certified difference."""

    theta_star: CertifiedValue
    g_tail: CertifiedValue
    difference: CertifiedValue


def _realify(value: complex, err: float) -> CertifiedValue:
    if isinstance(value, complex) and value.imag == 0.0:
        return CertifiedValue(value.real, err)
    return CertifiedValue(value, err)


def _product_order(q_abs: float, x_abs: float, rel_tol: float) -> int:
    """Smallest M so the omitted factors perturb the product by <= rel_tol.

    Uses |log prod_{m>M}| <= 2 sum_{m>M} q^m (1 + |x| + 1/(q|x|)), valid once
    every omitted sub-factor deviation is <= 1/2.  RangeOverflowError when
    that bound's coefficient leaves binary64.
    """
    qx = q_abs * x_abs
    coef = 2.0 * (1.0 + x_abs + 1.0 / qx) / (1.0 - q_abs) if qx else math.inf
    if not coef < math.inf:
        raise RangeOverflowError(f"the product's order bound at |x| = {x_abs} lies past binary64")
    cap = n_cap()
    lq = math.log(q_abs)
    big = max(x_abs, 1.0 / qx, 1.0)
    m0 = max(1, math.ceil((-LN2 - math.log(big)) / lq) - 1)
    while (m0 + 1) * lq + math.log(big) > -LN2:
        m0 += 1
    target = math.log(rel_tol / coef)
    m1 = max(m0, math.ceil(target / lq) - 1)
    while (m1 + 1) * lq > target:
        m1 += 1
    if m1 > cap:
        raise InfeasibleToleranceError(
            f"product order {m1} exceeds cap {cap} (q_abs={q_abs}, x_abs={x_abs})"
        )
    return m1


def _theta_star_dd(q2, x4, rel_tol: float) -> CertifiedValue:
    qa = abs(q2[0])
    xa = math.hypot(x4[0], x4[2])
    m_order = _product_order(qa, xa, min(rel_tol, 0.05))
    rel_trunc = math.expm1(
        2.0 * (1.0 + xa + 1.0 / (qa * xa)) * qa ** (m_order + 1) / (1.0 - qa)
    )

    ix4 = _inverse(x4)
    p = (1.0, 0.0, 0.0, 0.0)
    qph, qpl = 1.0, 0.0  # q^{m-1}
    rel_round = 4.0 * EPS2 * float(m_order) * float(m_order)
    qh, ql = q2
    for m in range(1, m_order + 1):
        w3 = cdd_mul_dd(ix4, qph, qpl)
        qph, qpl = dd_mul(qph, qpl, qh, ql)
        w2 = cdd_mul_dd(x4, qph, qpl)
        # f1 = 1 - q^m is real: fold it in with the cheaper real multiply
        f1h, f1l = dd_add(1.0, 0.0, -qph, -qpl)
        if f1h == 0.0 and f1l == 0.0:
            return CertifiedValue(0.0, 0.0)
        rel_round += 4.0 * EPS2 + 2.0 * EPS2 * (1.0 + qph) / abs(f1h)
        p = cdd_mul_dd(p, f1h, f1l)
        for w in (w2, w3):
            fh, fl = dd_add(1.0, 0.0, w[0], w[1])
            fih, fil = w[2], w[3]
            fabs = abs(fh) + abs(fih)
            if fabs == 0.0:
                return CertifiedValue(0.0, 0.0)  # exact zero factor
            rel_round += 4.0 * EPS2 + 2.0 * EPS2 * (1.0 + abs(w[0]) + abs(w[2])) / fabs
            # p *= f, complex DD product inlined (this loop dominates the
            # split route's runtime)
            prh, prl, pih, pil = p
            pr = prh * fh
            c = _SPL * prh; ah = c - (c - prh); al = prh - ah
            c = _SPL * fh; bh = c - (c - fh); bl = fh - bh
            e = ((ah * bh - pr) + ah * bl + al * bh) + al * bl + (prh * fl + prl * fh)
            ach = pr + e; acl = e - (ach - pr)
            pr = pih * fih
            c = _SPL * pih; ah2 = c - (c - pih); al2 = pih - ah2
            c = _SPL * fih; bh2 = c - (c - fih); bl2 = fih - bh2
            e = ((ah2 * bh2 - pr) + ah2 * bl2 + al2 * bh2) + al2 * bl2 + (pih * fil + pil * fih)
            bdh = pr + e; bdl = e - (bdh - pr)
            pr = prh * fih
            e = ((ah * bh2 - pr) + ah * bl2 + al * bh2) + al * bl2 + (prh * fil + prl * fih)
            adh = pr + e; adl = e - (adh - pr)
            pr = pih * fh
            e = ((ah2 * bh - pr) + ah2 * bl + al2 * bh) + al2 * bl + (pih * fl + pil * fh)
            bch = pr + e; bcl = e - (bch - pr)
            s = ach - bdh; bb = s - ach
            e = (ach - (s - bb)) + (-bdh - bb) + (acl - bdl)
            nrh = s + e; nrl = e - (nrh - s)
            s = adh + bch; bb = s - adh
            e = (adh - (s - bb)) + (bch - bb) + (adl + bcl)
            nih = s + e; nil = e - (nih - s)
            p = (nrh, nrl, nih, nil)
    value = cdd_hi(p)
    err = abs(value) * (rel_round + rel_trunc) + 2.0 * EPS * abs(value)
    if not err < math.inf:
        raise RangeOverflowError(f"the product {value} lies past binary64")
    return _realify(value, err)


def _inverse(x4):
    """1/x in complex DD; RangeOverflowError when it leaves binary64.

    x is scaled by a power of two (exactly) to a modulus near 1 and the
    reciprocal scaled back, so |x|^2 and the low limbs of its DD square
    neither underflow nor overflow.
    """
    k = math.frexp(max(abs(x4[0]), abs(x4[2])))[1]
    ix4 = cdd_inv(tuple(math.ldexp(v, -k) for v in x4))
    try:
        return tuple(math.ldexp(v, -k) for v in ix4)
    except OverflowError:
        raise RangeOverflowError(f"1/x lies past binary64 at x = {cdd_hi(x4)}") from None


def _g_tail_dd(q2, x4, tol: float) -> CertifiedValue:
    """G(q, x) = theta(q, y) y with y = 1/x: the direct series at y, solved
    for the absolute tolerance tol/|y|, times y in DD before rounding."""
    ix4 = _inverse(x4)
    ya = math.hypot(ix4[0], ix4[2])
    n, tail = truncation_order(abs(q2[0]), ya, tol / ya)
    s4, abs_sum = theta_sum_dd(q2, ix4, n)
    return cv_from_sum(cdd_mul(s4, ix4), n + 1, tail * ya, abs_sum * ya)


def jacobi_theta_star(
    q: float, x: complex, tol: float = 1e-14, q_max: float = Q_MAX
) -> CertifiedValue:
    """Certified truncated product for the two-sided sum.

    `tol` is the relative perturbation target for the omitted factors; err
    converts it (plus accumulated rounding) to an absolute bound.  Valid for
    q of either sign, 0 < |q| <= q_max.
    """
    require_q(q, q_max)
    x = require_x(x)
    if x == 0:
        raise DomainError("the product form requires x != 0")
    return _theta_star_dd((q, 0.0), cdd_from(x), tol)


def g_tail(q: float, x: complex, tol: float = 1e-14, q_max: float = Q_MAX) -> CertifiedValue:
    """Certified negative-index tail sum_{m>=1} q^{m(m-1)/2} / x^m."""
    require_q(q, q_max)
    x = require_x(x)
    if x == 0:
        raise DomainError("the tail series requires x != 0")
    return _g_tail_dd((q, 0.0), cdd_from(x), tol)


def theta_via_triple_product(
    q: float, x: complex, tol: float = 1e-14, q_max: float = Q_MAX
) -> TripleProductParts:
    """theta as (product) minus (tail), with certified parts."""
    ts = jacobi_theta_star(q, x, tol, q_max)
    g = g_tail(q, x, tol, q_max)
    return TripleProductParts(ts, g, ts - g)


def split_parts_dd(q2, x4, tol: float) -> TripleProductParts:
    """DD-argument variant used by the evaluation router."""
    ts = _theta_star_dd(q2, x4, min(tol, 1e-14))
    g = _g_tail_dd(q2, x4, min(tol, 1e-14))
    return TripleProductParts(ts, g, ts - g)
