"""Two-sided series machinery: Theta*, the tail G, and the split.

The two-sided sum Theta*(q,x) = sum_{j in Z} q^{j(j+1)/2} x^j and its
negative-index part G(q,x) = 1/x + q/x^2 + q^3/x^3 + ... = theta(q,1/x)/x
give

    theta(q, x) = Theta*(q, x) - G(q, x).

Neither side suffers the catastrophic cancellation of the one-sided series
at large |x| and |q| near 1, which is why this split exists: it is the
accurate route where direct summation loses all digits.  G is the direct
series at 1/x, times 1/x.

Theta* for q > 0 comes from Jacobi's imaginary transformation (Poisson
summation of the Gaussian j -> q^{j(j+1)/2} x^j; DLMF 20.7(viii),
https://dlmf.nist.gov/20.7).  With q = e^{-t}, x = e^u, |Im u| <= pi,

    Theta*(q, x) = sqrt(2 pi/t) sum_k exp(Z_k^2/(2t)),  Z_k = u - t/2 + 2 pi i k,

which is sqrt(2 pi/t) e^{(u - t/2)^2/(2t)} sum_k e^{-2 pi^2 k^2/t + 2 pi i k (u/t - 1/2)}
written term by term.  Relative to the largest term the k-th is
exp(-2 pi^2 ((nu + k)^2 - nu^2)/t), nu = Im u/(2 pi), so the terms past
|k| = K fall below e^{-2 pi^2 K(K+1)/t} (inside the usual bound
e^{-2 pi^2 (K^2-K)/t}): one or two terms for q >= 0.9, K = 1 for q >= 0.79
and K = 10 at q = 1e-10.  Everything is formed in double-double (t = -ln q,
ln x, the exponents up to 709 and the phases, reduced in turns) with the
ddarith functions, and err bounds every step.  There is no truncation order
to cap.  The range is that of the direct route: RangeOverflowError once the
largest |Theta*| on the circle |x| = r, sqrt(2 pi/t) e^{(ln r - t/2)^2/(2t)},
the scale of the series' largest terms, passes 2^996 (e^690.4), where a DD
product of it would overflow.

For q < 0 the mod-4 character (-1)^{j(j+1)/2} = sqrt(2) cos(pi(2j+1)/4)
gives

    f(q, x) = [(1+i) f(|q|, ix) + (1-i) f(|q|, -ix)]/2

for f = theta, Theta* and G alike; for real x it is Re w - Im w with
w = f(|q|, ix).  Theta* at q < 0 takes this route; G sums its series at q
directly.

Theta* vanishes at x = -q^j, where a factor of the triple product
prod (1-q^m)(1+x q^m)(1+q^{m-1}/x) is zero; at x = -1 (j = 0), a zero for
every q, the value is 0 with err 0.

Internal entry points accept the parameter and argument as double-double
values so that identity checks (which feed q^4, x^2/q, ...) lose nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .certified import (
    CertifiedValue,
    Q_MAX,
    cv_within,
    require_q,
    require_x,
    theta_sum_dd,
    truncation_order,
)
from .ddarith import (
    DD_FN_ERR,
    DD_OP,
    TWO_PI_DD,
    cdd_abs1,
    cdd_add,
    cdd_from,
    cdd_hi,
    cdd_inv,
    cdd_log_turns,
    cdd_mul,
    cdd_mul_dd,
    dd_add,
    dd_div,
    dd_exp,
    dd_log,
    dd_mul,
    dd_sincos_turns,
    dd_sqrt,
)
from .errors import DomainError, InfeasibleToleranceError, RangeOverflowError

#: Terms below e^-_CUT of the largest are bounded, not summed.
_CUT = 80.0
#: Exponents below this are bounded, not evaluated (dd_exp's low limb would
#: leave the normal range).
_EXP_MIN = -650.0
#: ln 2^996: past it the Dekker splitter of a DD product overflows.
_LOG_RANGE = 996.0 * math.log(2.0)
_TWO_PI = 2.0 * math.pi
_TWO_PI_PI = 2.0 * math.pi * math.pi  # 2 pi^2


@dataclass(frozen=True)
class TripleProductParts:
    """Theta* value, tail value, and their certified difference."""

    theta_star: CertifiedValue
    g_tail: CertifiedValue
    difference: CertifiedValue


def _poisson_dd(t, lr, nu, real: bool):
    """Theta*(e^{-t}, e^{lr + 2 pi i nu}) by the transformation, |nu| <= 1/2.

    t, lr, nu are (DD pair, err bound) with t > 0.  Returns (value4, err):
    the complex DD value and an absolute bound on its distance from Theta*
    before any rounding to binary64.  With real=True (nu = 0 or 1/2) the
    terms pair off as conjugates (Z_k with Im Z_k = +-2 pi (nu + k)), so only
    those with nu + k >= 0 are formed and the value is real.
    """
    (th, tl), et = t
    (lrh, lrl), elr = lr
    (nuh, nul), enu = nu
    rt = et / th  # relative error of t
    ith, itl = dd_div(1.0, 0.0, th, tl)
    wh, wl = dd_add(lrh, lrl, -0.5 * th, -0.5 * tl)  # Re Z_k = ln|x| - t/2
    wa = abs(wh)
    ew = elr + 0.5 * et + DD_OP * (abs(lrh) + 0.5 * th)
    # the largest |Theta*| on the circle |x| = e^lr is at x = e^lr:
    # sqrt(2 pi/t) e^{w^2/(2t)}, the scale of the series' largest terms
    peak = 0.5 * (math.log(_TWO_PI / th) + wh * wh / th)
    if peak > _LOG_RANGE:
        raise RangeOverflowError(
            f"Theta* at |x| = e^{lrh:.6g} reaches e^{peak:.6g}, past binary64's DD range")

    # term k is e^{-2 pi^2 k(2 nu + k)/t} of the k = 0 one, below e^-_CUT
    # once k(2 nu + k) >= c0; past |k| = K that holds for all k, since
    # (K+1-|nu|)^2 - nu^2 >= K(K+1).  Inside, a term is kept unless
    # k(2 nu + k) clears c1 > c0 by more than its rounding error.
    c0 = _CUT * th / _TWO_PI_PI
    big_k = max(1, math.ceil(0.5 * (math.sqrt(1.0 + 4.0 * (c0 + 1.0)) - 1.0)))
    c1 = (_CUT + 1.0) * th / _TWO_PI_PI
    ks = [k for k in range(-big_k, big_k + 1)
          if k * (2.0 * nuh + k) < c1 + 4e-16 * abs(k) * (1 + abs(k))]
    omitted = 2 * big_k + 1 - len(ks)

    terms = []
    for k in ks:
        nh, nl = dd_add(nuh, nul, float(k), 0.0)
        if real and nh < 0.0:
            continue
        na = abs(nh)
        en = enu + DD_OP * (abs(nuh) + abs(k))
        vh, vl = dd_mul(nh, nl, *TWO_PI_DD)  # Im Z_k
        va = abs(vh)
        ev = _TWO_PI * en + 2.0 * DD_OP * va
        # X = Re Z_k^2/(2t) = (w - v)(w + v)/(2t), T = Im Z_k^2/(2t) in turns
        xh, xl = dd_mul(*dd_mul(*dd_add(wh, wl, -vh, -vl), *dd_add(wh, wl, vh, vl)), ith, itl)
        xh, xl = 0.5 * xh, 0.5 * xl
        sx = 0.5 * (wa + va) ** 2 / th
        ex = (wa * ew + va * ev) / th + sx * (rt + 8.0 * DD_OP)
        tth, ttl = dd_mul(*dd_mul(wh, wl, nh, nl), ith, itl)
        st = wa * na / th
        e_turns = (na * ew + wa * en) / th + st * (rt + 4.0 * DD_OP)
        if not (ex < 1e-3 and e_turns < 1e-3):
            raise InfeasibleToleranceError(
                f"the transformation's exponents carry no digits at t = {th:.6g}")
        terms.append((k, 1.0 if not real or nh == 0.0 else 2.0, xh, xl, ex, tth, ttl, e_turns))

    x0 = next(term for term in terms if term[0] == 0)
    # omitted terms, relative to the k = 0 one: at most e^-_CUT each inside
    # |k| <= K, and a geometric tail of ratio <= e^{-4 pi^2/t} on each side
    tail = math.exp(x0[2] + x0[4] + 1e-9 - _CUT) * (
        omitted + 2.0 / -math.expm1(-2.0 * _TWO_PI_PI / th))

    sr, srl, si, sil = 0.0, 0.0, 0.0, 0.0
    err, abs_sum = tail, 0.0
    for _, weight, xh, xl, ex, tth, ttl, e_turns in terms:
        if xh < _EXP_MIN:
            err += weight * math.exp(xh + ex + 1e-9)
            continue
        mh, ml = dd_exp(xh, xl)
        if tth == 0.0 and ttl == 0.0:
            ch, cl, sh, sl = mh, ml, 0.0, 0.0
        else:
            s4 = dd_sincos_turns(tth, ttl)
            ch, cl = dd_mul(mh, ml, s4[2], s4[3])
            sh, sl = dd_mul(mh, ml, s4[0], s4[1])
        if weight == 2.0:
            ch, cl = 2.0 * ch, 2.0 * cl
        sr, srl = dd_add(sr, srl, ch, cl)
        if not real:
            si, sil = dd_add(si, sil, sh, sl)
        # exponent error, dd_exp's relative error, sincos' and the products'
        # errors, and the phase error 2 pi e_turns
        err += weight * mh * (math.expm1(ex) + 3.0 * DD_FN_ERR + 4.0 * DD_OP
                              + _TWO_PI * e_turns)
        abs_sum += weight * mh
    err += DD_OP * len(terms) * abs_sum  # the additions

    # sqrt(2 pi/t): relative error rt/2 from t plus three operations
    ph, pl = dd_sqrt(*dd_mul(*TWO_PI_DD, ith, itl))
    value = cdd_mul_dd((sr, srl, si, sil), ph, pl)
    return value, ph * (err + abs_sum * (0.5 * rt + 6.0 * DD_OP)) * 1.001


def _wrap_turns(nh, nl, shift):
    """nu + shift reduced to (-1/2, 1/2] (shift = +-1/4); the DD additions
    add at most 4 u^2 (|nu| + 1) <= DD_OP."""
    nh, nl = dd_add(nh, nl, shift, 0.0)
    if nh > 0.5:
        nh, nl = dd_add(nh, nl, -1.0, 0.0)
    elif nh <= -0.5:
        nh, nl = dd_add(nh, nl, 1.0, 0.0)
    return nh, nl


def _star_dd(q2, x4):
    """Theta*(q, x) for real DD q, 0 < |q| < 1, and nonzero complex DD x:
    (value4, err) before rounding to binary64."""
    if x4 == (-1.0, 0.0, 0.0, 0.0):  # x = -q^0, a zero of the triple product
        return (0.0, 0.0, 0.0, 0.0), 0.0
    qh, ql = q2 if q2[0] > 0.0 else (-q2[0], -q2[1])
    lqh, lql = dd_log(qh, ql)
    t = ((-lqh, -lql), DD_FN_ERR * (1.0 - lqh))
    lrh, lrl, nuh, nul = cdd_log_turns(x4)
    lr = ((lrh, lrl), 2.0 * DD_FN_ERR * (1.0 + abs(lrh)))
    on_axis = x4[0] == x4[1] == 0.0 or x4[2] == x4[3] == 0.0
    enu = 0.0 if on_axis else DD_FN_ERR
    real = x4[2] == x4[3] == 0.0
    if q2[0] > 0.0:
        return _poisson_dd(t, lr, ((nuh, nul), enu), real)
    # the shifted arguments carry the two-sum's 4 u^2 (|nu| + 1) at most
    enu += DD_OP
    w1, e1 = _poisson_dd(t, lr, (_wrap_turns(nuh, nul, 0.25), enu), False)
    if real:
        rh, rl = dd_add(w1[0], w1[1], -w1[2], -w1[3])
        return (rh, rl, 0.0, 0.0), 1.4143 * e1 + DD_OP * cdd_abs1(w1)
    w2, e2 = _poisson_dd(t, lr, (_wrap_turns(nuh, nul, -0.25), enu), False)
    # [(1+i) w1 + (1-i) w2]/2
    a = cdd_add((w1[0], w1[1], w1[0], w1[1]), (-w1[2], -w1[3], w1[2], w1[3]))
    b = cdd_add((w2[0], w2[1], -w2[0], -w2[1]), (w2[2], w2[3], w2[2], w2[3]))
    v = tuple(0.5 * c for c in cdd_add(a, b))
    return v, 0.7072 * (e1 + e2) + 4.0 * DD_OP * (cdd_abs1(w1) + cdd_abs1(w2))


def _inverse(x4):
    """1/x in complex DD; RangeOverflowError when it leaves binary64.

    x is scaled by a power of two (exactly) to a modulus near 1 and the
    reciprocal scaled back, so |x|^2 and the low limbs of its DD square
    neither underflow nor overflow.  In the DD error model (DD_OP/4 per
    operation) |x|^2 is within 5 DD_OP/16 relative and each part of the
    quotient within 9 DD_OP/16, so the result is y (1 + e), |e| < DD_OP.
    """
    k = math.frexp(max(abs(x4[0]), abs(x4[2])))[1]
    ix4 = cdd_inv(tuple(math.ldexp(v, -k) for v in x4))
    try:
        return tuple(math.ldexp(v, -k) for v in ix4)
    except OverflowError:
        raise RangeOverflowError(f"1/x lies past binary64 at x = {cdd_hi(x4)}") from None


def _g_dd(q2, ix4, tol: float):
    """G(q, x) = theta(q, y) y with y = 1/x: the direct series at the DD
    reciprocal ix4 = y (1 + e) of :func:`_inverse`, solved for the absolute
    tolerance tol/|y|, times ix4 in DD.  Returns (value4, err), err bounding
    the distance of value4 from G before any rounding to binary64:

    * the truncation tail and the sum's rounding bound, both times |y|;
    * the inversion: |e| < DD_OP moves the term q^{tri(j)} y^{j+1} by at most
      1.01 (j + 1) DD_OP of itself, so all n + 1 of them by at most
      1.01 DD_OP |y| sum_{j<=n} (j + 1) |q|^{tri(j)} |y|^j, that sum formed
      in binary64 (its few roundings are inside the 1%);
    * the DD product by ix4: DD_OP |s|_1 |ix4|_1 (|z|_1 = |Re z| + |Im z|),
      s the sum;

    the last three with 0.1% for |y| against the modulus of ix4's high limbs
    and for their float rounding (the tail's own slack covers both).
    """
    qa = abs(q2[0])
    ya = math.hypot(ix4[0], ix4[2])
    n, tail = truncation_order(qa, ya, tol / ya)
    s4, bound = theta_sum_dd(q2, ix4, n, tol / ya)
    moved, t, r = 0.0, 1.0, ya
    for j in range(1, n + 2):
        moved += j * t
        r *= qa
        t *= r
    inversion = DD_OP * 1.01 * moved
    product = DD_OP * cdd_abs1(s4) * cdd_abs1(ix4)
    return cdd_mul(s4, ix4), tail * ya + 1.001 * ((bound + inversion) * ya + product)


def _validated(q, x, q_max, what):
    require_q(q, q_max)
    x = require_x(x)
    if x == 0:
        raise DomainError(f"{what} requires x != 0")
    return cdd_from(x)


def jacobi_theta_star(
    q: float, x: complex, tol: float = 1e-14, q_max: float = Q_MAX
) -> CertifiedValue:
    """Certified two-sided sum Theta*(q, x), 0 < |q| <= q_max, x != 0.

    The transformation's omitted terms are below e^-80 relative whatever
    `tol` (kept for a uniform signature); err is the DD-level bound plus the
    rounding to binary64.  The bound is relative to the Gaussian envelope
    sqrt(2 pi/t) e^{Re (u - t/2)^2/(2t)}, which exceeds the largest series
    term by up to e^{t/8}: for q below about 1e-60 at moderate |x| (never
    reached by the router, which sums such points directly) err loosens
    accordingly.
    """
    x4 = _validated(q, x, q_max, "the two-sided sum")
    return cv_within(*_star_dd((q, 0.0), x4))


def g_tail(q: float, x: complex, tol: float = 1e-14, q_max: float = Q_MAX) -> CertifiedValue:
    """Certified negative-index tail sum_{m>=1} q^{m(m-1)/2} / x^m."""
    x4 = _validated(q, x, q_max, "the tail series")
    return cv_within(*_g_dd((q, 0.0), _inverse(x4), tol))


def theta_via_triple_product(
    q: float, x: complex, tol: float = 1e-14, q_max: float = Q_MAX
) -> TripleProductParts:
    """theta as Theta* minus the tail, with certified parts."""
    return split_parts_dd((q, 0.0), _validated(q, x, q_max, "the split"), tol)


def split_parts_dd(q2, x4, tol: float) -> TripleProductParts:
    """DD-argument split used by the evaluation router.  Theta* carries only
    DD-level error, so G gets half of the absolute tolerance and the
    difference, formed in DD before rounding, stays within tol plus its
    representation term."""
    s4, es = _star_dd(q2, x4)
    g4, eg = _g_dd(q2, _inverse(x4), 0.5 * tol)
    d4 = cdd_add(s4, tuple(-v for v in g4))
    ed = es + eg + DD_OP * (cdd_abs1(s4) + cdd_abs1(g4))
    return TripleProductParts(cv_within(s4, es), cv_within(g4, eg), cv_within(d4, ed))
