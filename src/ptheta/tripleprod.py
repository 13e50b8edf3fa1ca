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
    n_cap,
    require_q,
    rounding_bound,
)
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
    every omitted sub-factor deviation is <= 1/2.
    """
    cap = n_cap()
    lq = math.log(q_abs)
    big = max(x_abs, 1.0 / (q_abs * x_abs), 1.0)
    m0 = max(1, math.ceil((-LN2 - math.log(big)) / lq) - 1)
    while (m0 + 1) * lq + math.log(big) > -LN2:
        m0 += 1
    coef = 2.0 * (1.0 + x_abs + 1.0 / (q_abs * x_abs)) / (1.0 - q_abs)
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

    ix4 = cdd_inv(x4)
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


def _g_order(q_abs: float, x_abs: float, tol: float):
    """Smallest M with |q|^M / |x| <= 1/2 and geometric tail bound <= tol."""
    cap = n_cap()
    if q_abs == 0.0:
        return 1, 0.0
    lq = math.log(q_abs)
    lx = math.log(x_abs)

    def log_tail(m: int) -> float:
        # first omitted index m+1 carries exponent m(m+1)/2
        log_r = (m + 1) * lq - lx
        r = math.exp(min(log_r, -LN2))
        return (m * (m + 1) // 2) * lq - (m + 1) * lx - math.log1p(-r)

    m0 = 1
    while m0 * lq - lx > -LN2:
        m0 += 1
        if m0 > cap:
            raise InfeasibleToleranceError("tail ratio never reaches 1/2 within cap")
    m = m0
    while log_tail(m) > math.log(tol):
        m += 1
        if m > cap:
            raise InfeasibleToleranceError(f"tail tolerance {tol} unreachable")
    return m, math.exp(min(log_tail(m) + 1e-6, 700.0))


def _g_tail_dd(q2, x4, tol: float) -> CertifiedValue:
    xa = math.hypot(x4[0], x4[2])
    m_order, tail = _g_order(abs(q2[0]), xa, tol)

    ix4 = cdd_inv(x4)
    t = ix4  # m = 1
    s = t
    abs_sum = cdd_abs1(t)
    qph, qpl = 1.0, 0.0  # q^{m-1}
    for m in range(2, m_order + 1):
        qph, qpl = dd_mul(qph, qpl, q2[0], q2[1])
        t = cdd_mul_dd(t, qph, qpl)
        t = cdd_mul(t, ix4)
        s = cdd_add(s, t)
        a = cdd_abs1(t)
        if a == 0.0:
            break
        abs_sum += a
    value = cdd_hi(s)
    err = tail + rounding_bound(m_order, abs_sum, abs(value))
    return _realify(value, err)


def jacobi_theta_star(
    q: float, x: complex, tol: float = 1e-14, q_max: float = Q_MAX
) -> CertifiedValue:
    """Certified truncated product for the two-sided sum.

    `tol` is the relative perturbation target for the omitted factors; err
    converts it (plus accumulated rounding) to an absolute bound.  Valid for
    q of either sign, 0 < |q| <= q_max.
    """
    require_q(q, q_max)
    x = complex(x)
    if x == 0:
        raise DomainError("the product form requires x != 0")
    return _theta_star_dd((q, 0.0), cdd_from(x), tol)


def g_tail(q: float, x: complex, tol: float = 1e-14, q_max: float = Q_MAX) -> CertifiedValue:
    """Certified negative-index tail sum_{m>=1} q^{m(m-1)/2} / x^m."""
    require_q(q, q_max)
    x = complex(x)
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
