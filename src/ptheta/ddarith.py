"""Double-double ("compensated") arithmetic primitives.

A double-double number is an unevaluated sum hi + lo with |lo| <= ulp(hi)/2,
giving roughly 32 significant decimal digits.  All primitives are branch-free
arithmetic only, so they work unchanged on Python floats and on numpy arrays
(broadcasting elementwise).

The error-free transformations are the classical ones: Knuth two_sum,
Dekker split/two_prod.  Renormalization uses the fast two-sum, which is valid
here because every call site guarantees |hi| >= |lo| up to one rounding.
"""

from __future__ import annotations

# 2**27 + 1, Dekker's splitting constant for binary64
_SPLITTER = 134217729.0

# Overflow guard for split(): |a| above this would overflow the scaled copy.
_SPLIT_MAX = 6.69692879491417e307


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
    import math

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
