"""Double-double ("compensated") arithmetic primitives.

A double-double number is an unevaluated sum hi + lo with |lo| <= ulp(hi)/2,
giving roughly 32 significant decimal digits.  All primitives are branch-free
arithmetic only, so they work unchanged on Python floats and on numpy arrays
(broadcasting elementwise).

The error-free transformations are the classical ones: Knuth two_sum,
Dekker split/two_prod.  Renormalization uses the fast two-sum, which is valid
here because every call site guarantees |hi| >= |lo| up to one rounding.

Error model.  With u = 2^-53, one DD multiplication, division or square
root has relative error below 16 u^2, and one DD addition has absolute error
below 4 u^2 (|a| + |b|).  ``DD_OP = 2^-100`` (64 u^2) bounds both with room
to spare.  The transcendental functions at the end (``dd_exp``, ``dd_log``,
``dd_sincos_turns``, ``cdd_log_turns``) are scalar only; each docstring
states its bound in units of ``DD_FN_ERR = 2^-90``, which covers its
truncation and at most a few dozen DD operations on arguments up to 745 in
magnitude.
"""

from __future__ import annotations

import math

# 2**27 + 1, Dekker's splitting constant for binary64
_SPLITTER = 134217729.0


def two_sum(a, b):
    """Error-free sum: returns (s, e) with s = fl(a+b) and s + e = a + b."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a, b):
    """Fast error-free sum; requires |a| >= |b| (up to rounding)."""
    s = a + b
    return s, b - (s - a)


def split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
    """Error-free product: (p, e) with p = fl(a*b) and p + e = a*b."""
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_add(ah, al, bh, bl):
    s, e = two_sum(ah, bh)
    e = e + (al + bl)
    return quick_two_sum(s, e)


def dd_mul(ah, al, bh, bl):
    p, e = two_prod(ah, bh)
    e = e + (ah * bl + al * bh)
    return quick_two_sum(p, e)


def dd_mul_d(ah, al, b):
    """DD times plain double."""
    p, e = two_prod(ah, b)
    e = e + al * b
    return quick_two_sum(p, e)


def dd_div(ah, al, bh, bl):
    """DD division by one Newton correction of the double quotient."""
    q1 = ah / bh
    ph, pl = dd_mul_d(bh, bl, q1)
    rh, rl = dd_add(ah, al, -ph, -pl)
    q2 = (rh + rl) / bh
    return quick_two_sum(q1, q2)


def dd_sqr(ah, al):
    p, e = two_prod(ah, ah)
    e = e + 2.0 * (ah * al)
    return quick_two_sum(p, e)


def dd_sqrt(ah, al):
    """Square root of a nonnegative DD value (scalar only)."""
    if ah == 0.0:
        return 0.0, 0.0
    s = math.sqrt(ah)
    ph, pl = two_prod(s, s)
    rh, rl = dd_add(ah, al, -ph, -pl)
    return quick_two_sum(s, (rh + rl) / (2.0 * s))


def dd_from_int(n):
    """Exact DD representation of an int with |n| < 2**106."""
    hi = float(n)
    return hi, float(n - int(hi))


def dd_pow_int(ah, al, n):
    """DD raised to a nonnegative integer power (scalar; square-and-multiply)."""
    rh, rl = 1.0, 0.0
    bh, bl = ah, al
    k = n
    while k:
        if k & 1:
            rh, rl = dd_mul(rh, rl, bh, bl)
        k >>= 1
        if k:
            bh, bl = dd_sqr(bh, bl)
    return rh, rl


# ---------------------------------------------------------------------------
# Complex double-double: a quadruple (re_hi, re_lo, im_hi, im_lo).

def cdd_from(z):
    z = complex(z)
    return z.real, 0.0, z.imag, 0.0


def cdd_add(a, b):
    rh, rl = dd_add(a[0], a[1], b[0], b[1])
    ih, il = dd_add(a[2], a[3], b[2], b[3])
    return rh, rl, ih, il


def cdd_mul(a, b):
    ac = dd_mul(a[0], a[1], b[0], b[1])
    bd = dd_mul(a[2], a[3], b[2], b[3])
    ad = dd_mul(a[0], a[1], b[2], b[3])
    bc = dd_mul(a[2], a[3], b[0], b[1])
    rh, rl = dd_add(ac[0], ac[1], -bd[0], -bd[1])
    ih, il = dd_add(ad[0], ad[1], bc[0], bc[1])
    return rh, rl, ih, il


def cdd_mul_dd(a, bh, bl):
    """Complex DD times real DD."""
    rh, rl = dd_mul(a[0], a[1], bh, bl)
    ih, il = dd_mul(a[2], a[3], bh, bl)
    return rh, rl, ih, il


def cdd_div_dd(a, bh, bl):
    rh, rl = dd_div(a[0], a[1], bh, bl)
    ih, il = dd_div(a[2], a[3], bh, bl)
    return rh, rl, ih, il


def cdd_sqr(a):
    return cdd_mul(a, a)


def cdd_inv(a):
    """Reciprocal of a nonzero complex DD: conj(a) / |a|^2."""
    d2 = dd_add(*dd_sqr(a[0], a[1]), *dd_sqr(a[2], a[3]))
    rh, rl = dd_div(a[0], a[1], d2[0], d2[1])
    ih, il = dd_div(-a[2], -a[3], d2[0], d2[1])
    return rh, rl, ih, il


def cdd_abs1(a):
    """Cheap upper bound |re| + |im| >= |z|."""
    return abs(a[0]) + abs(a[2])


def cdd_hi(a):
    return complex(a[0], a[2])


# ---------------------------------------------------------------------------
# Transcendental functions (scalar).  Constants are (hi, lo) pairs within
# 2^-106 relative; the third limb of ln 2 serves the exp argument reduction.

DD_OP = 2.0**-100
DD_FN_ERR = 2.0**-90

TWO_PI_DD = (6.283185307179586, 2.4492935982947064e-16)
LN2_DD = (0.6931471805599453, 2.3190468138462996e-17)
_LN2_3 = 5.707708438416212e-34
_INV_LN2 = 1.4426950408889634

# 1/n! as DD; each within one DD division of exact
_INV_FACT = [dd_div(1.0, 0.0, *dd_from_int(math.factorial(n))) for n in range(28)]
_SIN_COEF = [(_INV_FACT[2 * j + 1][0] * (-1) ** j, _INV_FACT[2 * j + 1][1] * (-1) ** j)
             for j in range(14)]


def dd_exp(ah, al):
    """e^a for a DD a with -650 <= a <= 709.

    a = k ln 2 + r with |r| <= ln(2)/2 (ln 2 in three limbs, k ln 2's first
    two limbs exact by two_prod); e^(r/32) - 1 by its Taylor polynomial of
    degree 12 (remainder below 1e-35 relative); five doublings
    expm1(2s) = expm1(s) (2 + expm1(s)), which keep expm1's relative error;
    then 1 + expm1(r), scaled by 2^k.  Relative error <= DD_FN_ERR/2: the
    reduction costs at most 4 u^2 (|a| + |k ln 2|) <= 1e-28 absolute in r
    and the polynomial, doublings and scaling about 50 DD_OP.  Above -650
    the low limb stays a normal number.
    """
    kf = float(round(ah * _INV_LN2))
    ph, pl = two_prod(kf, LN2_DD[0])
    rh, rl = dd_add(ah, al, -ph, -pl)
    ph, pl = two_prod(kf, LN2_DD[1])
    rh, rl = dd_add(rh, rl, -ph, -pl - kf * _LN2_3)
    sh, sl = rh * 0.03125, rl * 0.03125
    ph, pl = _INV_FACT[12]
    for n in range(11, 0, -1):
        ph, pl = dd_mul(ph, pl, sh, sl)
        ph, pl = dd_add(ph, pl, *_INV_FACT[n])
    ph, pl = dd_mul(ph, pl, sh, sl)
    for _ in range(5):
        th, tl = dd_add(ph, pl, 2.0, 0.0)
        ph, pl = dd_mul(ph, pl, th, tl)
    ph, pl = dd_add(1.0, 0.0, ph, pl)
    k = int(kf)
    return math.ldexp(ph, k), math.ldexp(pl, k)


def dd_log(ah, al):
    """ln a for a DD a > 0, absolute error <= DD_FN_ERR (1 + |ln a|).

    a = m 2^k with m in [1/2, 1); from the double seed y0 = ln(m_hi),
    ln m = y0 + log1p(d) with d = m e^(-y0) - 1, |d| < 2^-50, so
    y0 + d - d^2/2 is within |d|^3/3 < 1e-45 of it.  d inherits dd_exp's
    DD_FN_ERR/2 and a few DD_OP; k ln 2 adds 4 u^2 |k ln 2| for its
    rounding.
    """
    k = math.frexp(ah)[1]
    mh, ml = math.ldexp(ah, -k), math.ldexp(al, -k)
    y0 = math.log(mh)
    eh, el = dd_exp(-y0, 0.0)
    dh, dl = dd_mul(mh, ml, eh, el)
    dh, dl = dd_add(dh, dl, -1.0, 0.0)
    return _plus_k_ln2(*dd_add(y0, 0.0, dh, dl - 0.5 * dh * dh), k)


def _plus_k_ln2(ah, al, k):
    """a + k ln 2 (DD), k ln 2's first limb exact by two_prod."""
    if not k:
        return ah, al
    kf = float(k)
    ph, pl = two_prod(kf, LN2_DD[0])
    return dd_add(ah, al, ph, pl + kf * LN2_DD[1])


def dd_sincos_turns(fh, fl):
    """(sin 2 pi f, cos 2 pi f) for a DD f, as four limbs (s_hi, s_lo,
    c_hi, c_lo), each within DD_FN_ERR absolute.

    The reduction is in turns, so it is exact: n = round(4 f) and
    r = f - n/4, |r| <= 1/8.  theta = 2 pi r (|theta| <= pi/4) costs one DD
    product; sin theta by its Taylor polynomial of degree 27 (remainder
    below 1.1e-34), cos theta = sqrt(1 - sin^2 theta), whose error is at
    most that of sin since |sin| <= |cos| there; then the quadrant turn.
    """
    n = round(4.0 * fh)
    rh, rl = two_sum(fh - 0.25 * n, fl)
    th, tl = dd_mul(rh, rl, *TWO_PI_DD)
    t2h, t2l = dd_sqr(th, tl)
    ph, pl = _SIN_COEF[13]
    for j in range(12, -1, -1):
        ph, pl = dd_mul(ph, pl, t2h, t2l)
        ph, pl = dd_add(ph, pl, *_SIN_COEF[j])
    sh, sl = dd_mul(ph, pl, th, tl)
    ch, cl = dd_sqrt(*dd_add(1.0, 0.0, *(-v for v in dd_sqr(sh, sl))))
    quadrant = n % 4
    if quadrant == 0:
        return sh, sl, ch, cl
    if quadrant == 1:
        return ch, cl, -sh, -sl
    if quadrant == 2:
        return -sh, -sl, -ch, -cl
    return -ch, -cl, sh, sl


def cdd_log_turns(a):
    """(ln|z|, arg z / (2 pi)) of a nonzero complex DD z, as two DD pairs
    (four limbs), the argument in (-1/2, 1/2].

    On the axes the argument is exact (0, 1/2 or +-1/4) and ln|z| is
    :func:`dd_log` of the nonzero part.  Elsewhere z is scaled by a power of
    two to modulus near 1, ln|z| = ln(|z|^2)/2 + k ln 2, and the argument is
    the double seed f0 = atan2/(2 pi) plus asin(sin(arg z - 2 pi f0)) / (2 pi),
    where sin(arg z - 2 pi f0) = (y c0 - x s0)/|z| < 1e-15 and asin of it is
    that value within 1e-45.  Errors: ln|z| within 2 DD_FN_ERR (1 + |ln|z||)
    (half of dd_log's bound at |z|^2 in [1/4, 2]); the argument within
    DD_FN_ERR turns (sqrt(2) DD_FN_ERR/(2 pi) from s0, c0).
    """
    xh, xl, yh, yl = a
    if yh == 0.0 and yl == 0.0:
        return (*dd_log(abs(xh), xl if xh > 0.0 else -xl), 0.0 if xh > 0.0 else 0.5, 0.0)
    if xh == 0.0 and xl == 0.0:
        return (*dd_log(abs(yh), yl if yh > 0.0 else -yl), 0.25 if yh > 0.0 else -0.25, 0.0)
    k = math.frexp(max(abs(xh), abs(yh)))[1]
    xh, xl, yh, yl = (math.ldexp(v, -k) for v in a)
    m2h, m2l = dd_add(*dd_sqr(xh, xl), *dd_sqr(yh, yl))
    lh, ll = dd_log(m2h, m2l)
    lh, ll = _plus_k_ln2(0.5 * lh, 0.5 * ll, k)
    f0 = math.atan2(yh, xh) / TWO_PI_DD[0]
    s0h, s0l, c0h, c0l = dd_sincos_turns(f0, 0.0)
    nh, nl = dd_add(*dd_mul(yh, yl, c0h, c0l), *(-v for v in dd_mul(xh, xl, s0h, s0l)))
    dh, dl = dd_div(nh, nl, *dd_sqrt(m2h, m2l))
    fh, fl = dd_add(f0, 0.0, *dd_div(dh, dl, *TWO_PI_DD))
    return lh, ll, fh, fl
