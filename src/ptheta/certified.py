"""Certified series machinery for the partial theta function.

The one-sided series sum_{j>=0} q^{j(j+1)/2} x^j is summed in double-double
(DD) arithmetic with exact integer exponents at real x
(:func:`theta_sum_real`).  At complex x, and for the term-wise derivatives
everywhere, one kernel sums it in Python integers (:func:`theta_sum`,
:func:`theta_deriv_sum`).  Every evaluation returns a value together with a
rigorous absolute error bound made of three parts:

* the geometric tail bound for the omitted terms,
* a rounding bound: eps^2 times sum_j |t_j| for the DD sums, and the
  integer kernel's proven bound otherwise,
* a representation term ~ eps * |value| for rounding the sum to binary64.

Sign decisions downstream are permitted only when |value| > err.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DomainError,
    InfeasibleToleranceError,
    IndeterminateSignError,
    RangeOverflowError,
)

EPS = 2.220446049250313e-16
_SPL = 134217729.0  # Dekker splitter, inlined in the hot loops
EPS2 = EPS * EPS
_TINY = 5e-324  # the smallest subnormal
LN2 = math.log(2.0)

#: Largest |q| accepted by certified operations unless explicitly overridden.
Q_MAX = 0.99

#: Default cap on the truncation order; THETA_MAX_N overrides it.
N_CAP_DEFAULT = 100_000

DEFAULT_TOL = 1e-12


def n_cap() -> int:
    raw = os.environ.get("THETA_MAX_N")
    return int(raw) if raw else N_CAP_DEFAULT


def tri(j: int) -> int:
    """Exact exponent j(j+1)/2 in integer arithmetic."""
    return j * (j + 1) // 2


def require_q(q: float, q_max: float = Q_MAX) -> None:
    if math.isnan(q) or abs(q) >= 1.0:
        raise DomainError(f"q must satisfy |q| < 1, got {q}")
    if abs(q) > q_max:
        raise DomainError(f"certified evaluation requires |q| <= {q_max}, got {q}")


def require_x(x) -> complex:
    """x as a complex number; DomainError unless both parts are finite."""
    x = complex(x)
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise DomainError(f"x must be finite, got {x}")
    return x


@dataclass(frozen=True)
class CertifiedValue:
    """A numeric value with a rigorous absolute error bound."""

    value: complex
    err: float

    def __post_init__(self):
        if not (0.0 <= self.err < math.inf):
            raise ValueError(f"err must be a finite nonnegative float, got {self.err}")

    # -- sign machinery (real-valued uses only) ---------------------------
    @property
    def real(self) -> float:
        return self.value.real if isinstance(self.value, complex) else self.value

    def sign(self) -> int:
        """Certified sign of a real value; raises if |value| <= err."""
        v = self.real
        if abs(v) <= self.err:
            raise IndeterminateSignError(
                f"cannot certify sign: |{v}| <= err {self.err}"
            )
        return 1 if v > 0 else -1

    def definitely_greater(self, c: float) -> bool:
        return self.real - c > self.err

    def definitely_less(self, c: float) -> bool:
        return c - self.real > self.err

    def is_indeterminate_vs(self, c: float) -> bool:
        return abs(self.real - c) <= self.err

    # -- arithmetic with error propagation --------------------------------
    def __add__(self, other):
        if isinstance(other, CertifiedValue):
            v = self.value + other.value
            e = self.err + other.err
        else:
            v = self.value + other
            e = self.err
        return CertifiedValue(v, e + 2.0 * EPS * abs(v))

    def __sub__(self, other):
        if isinstance(other, CertifiedValue):
            v = self.value - other.value
            e = self.err + other.err
        else:
            v = self.value - other
            e = self.err
        return CertifiedValue(v, e + 2.0 * EPS * abs(v))

    def __neg__(self):
        return CertifiedValue(-self.value, self.err)

    def scaled(self, c: complex) -> "CertifiedValue":
        v = self.value * c
        return CertifiedValue(v, self.err * abs(c) + 2.0 * EPS * abs(v))

    def scaled_dd(self, c4) -> "CertifiedValue":
        """Scaled by the complex DD number c4: by its high limbs through
        :meth:`scaled`, with its low limbs entering as extra err.  The value
        stays real when c4 is."""
        c = c4[0] if c4[2] == 0.0 and c4[3] == 0.0 else complex(c4[0], c4[2])
        s = self.scaled(c)
        return CertifiedValue(s.value, s.err + (abs(c4[1]) + abs(c4[3])) * self.abs_upper())

    def mul(self, other: "CertifiedValue") -> "CertifiedValue":
        v = self.value * other.value
        e = (
            abs(self.value) * other.err
            + abs(other.value) * self.err
            + self.err * other.err
            + 2.0 * EPS * abs(v)
        )
        return CertifiedValue(v, e)

    def abs_upper(self) -> float:
        return abs(self.value) + self.err


def rounding_bound(n_terms: int, abs_sum: float) -> float:
    """Bound on accumulated DD rounding for an n-term compensated sum.

    The eps^2 constant is generous: each term costs a handful of DD
    multiplications (relative error ~ 4 eps^2 each) plus one DD addition
    whose absolute error is O(eps^2) times the running absolute sum.
    """
    return 64.0 * (n_terms + 2) * EPS2 * abs_sum


# ---------------------------------------------------------------------------
# Truncation orders


def truncation_order(q_abs: float, x_abs: float, tol: float):
    """(N, tail) for the series itself: :func:`_series_order` at m = nq = 0."""
    return _series_order(q_abs, x_abs, 0, 0, tol)


def derivative_truncation(q_abs: float, x_abs: float, m: int, nq: int, tol: float):
    """(n, tail) for the (d/dx)^m (d/dq)^nq series: :func:`_series_order`."""
    return _series_order(q_abs, x_abs, m, nq, tol)


def _series_order(q_abs: float, x_abs: float, m: int, nq: int, tol: float):
    """(n, T(n)) for the smallest n >= j0 with rho_n <= 1/2 and T(n) <= tol.

    The terms of the series differentiated m times in x and nq times in q
    are t_j = c_j q^{tri(j)-nq} x^{j-m}, c_j = deriv_coeff(j, m, nq), from
    j0 = first_index(m, nq) on; rho_j = t_{j+1}/t_j and T(n) = t_{n+1} /
    (1 - rho_{n+1}).  For the series itself c_j = 1 and j0 = 0.

    Proof of the rule.  For j >= j0, rho_j = (c_{j+1}/c_j) q^{j+1} x.  The
    factors (j+1)/(j+1-m) and 1 + (j+1)/(tri(j)-i), i < nq, of c_{j+1}/c_j
    fall as j grows (the latter as tri(j) - i <= (j+1)^2), and so does
    q^{j+1}: rho_j decreases.  Once rho_n <= 1/2 the omitted terms sum to at
    most t_{n+1} (1 + rho_{n+1} + rho_{n+1}^2 + ...) = T(n), and both
    conditions, T falling, hold for every larger n.  So n is found by
    stepping up from a lower bound.

    Lower bound.  The c_j are integers >= 1 that increase with j, so
    rho_n <= 1/2 needs (n+1) ln q + ln x <= -ln 2, and k = n + 1 needs
    tri(k) ln q + k ln x <= ln tol + nq ln q + m ln x - ln c_k, where c_k
    may be replaced by c_{k'} for any lower bound k' on k.  Past the ratio
    threshold, itself past the quadratic's vertex, k is at least its larger
    root (less a step of slack for rounding).  Everything runs in log space
    to survive extreme magnitudes; for the series the coefficient logs are
    exactly 0.0, so its rule is the plain geometric one.
    """
    if not 0.0 <= q_abs < 1.0:
        raise DomainError(f"truncation order requires 0 <= q_abs < 1, got {q_abs}")
    if not x_abs < math.inf:
        raise DomainError(f"truncation order requires a finite x_abs, got {x_abs}")
    if tol <= 0:
        raise DomainError("tol must be positive")
    n = first_index(m, nq)
    if x_abs == 0.0 or q_abs == 0.0:
        return n, 0.0

    cap = n_cap()
    lq = math.log(q_abs)
    lx = math.log(x_abs)
    log_tol = math.log(tol)
    b = 0.5 * lq + lx
    rhs = log_tol + nq * lq + m * lx
    n = max(n, math.ceil((-LN2 - lx) / lq) - 1)
    while (n + 1) * lq + lx > -LN2:  # guard against ceil rounding
        n += 1
    n = max(n, _quadratic_root(lq, b, rhs) - 2)
    lc1 = lc2 = 0.0  # ln c_{n+1}, ln c_{n+2}
    if m or nq:
        n = max(n, _quadratic_root(lq, b, rhs - math.log(deriv_coeff(n + 1, m, nq))) - 2)
        lc0 = math.log(deriv_coeff(n, m, nq))
        while n <= cap:  # up to the coefficients' ratio threshold
            lc1 = math.log(deriv_coeff(n + 1, m, nq))
            if (lc1 - lc0) + (n + 1) * lq + lx <= -LN2:
                break
            n, lc0 = n + 1, lc1
        lc2 = math.log(deriv_coeff(n + 2, m, nq))
    while n <= cap:
        r = math.exp(min((lc2 - lc1) + (n + 2) * lq + lx, -LN2))
        lt = lc1 + (tri(n + 1) - nq) * lq + (n + 1 - m) * lx - math.log1p(-r)
        if lt <= log_tol:
            # small exponent slack absorbs the log-space rounding
            return n, math.exp(min(lt + 1e-6, 700.0))
        n += 1
        if m or nq:
            lc1, lc2 = lc2, math.log(deriv_coeff(n + 2, m, nq))
    raise InfeasibleToleranceError(
        f"tolerance {tol} unreachable within cap {cap} (q_abs={q_abs}, x_abs={x_abs})"
    )


def _quadratic_root(lq: float, b: float, c: float) -> int:
    """ceil of the larger root k+ of (lq/2) k^2 + b k = c (lq < 0), or 0 when
    the left side stays below c; every k with a value <= c past the vertex is
    >= k+.  The root is formed without cancellation, so it is off by far less
    than one step; callers start one step below."""
    disc = b * b + 2.0 * lq * c
    if disc <= 0.0:
        return 0
    s = math.sqrt(disc)
    return math.ceil((b + s) / -lq if b > 0.0 else -2.0 * c / (s - b))


@lru_cache(maxsize=200_000)
def deriv_coeff(j: int, m: int, nq: int) -> int:
    """Exact integer coefficient of the term-wise differentiated series:
    j (j-1) ... (j-m+1) e (e-1) ... (e-nq+1) with e = tri(j)."""
    c = 1
    for i in range(m):
        c *= j - i
    for i in range(nq):
        c *= tri(j) - i
    return c


def first_index(m: int, nq: int) -> int:
    """First j with deriv_coeff(j, m, nq) != 0: the first j >= m with
    tri(j) >= nq."""
    j = m
    while tri(j) < nq:
        j += 1
    return j


# ---------------------------------------------------------------------------
# Series engines (scalar).  q is a real DD pair, x a complex DD quadruple.


def theta_sum_real(qh, ql, xh, xl, n):
    """Partial sum of the series to order n at real x = xh + xl, in inlined
    double-double (DD).

    Returns (value4, abs_sum): the DD value, with a zero imaginary part, and
    an upper bound on sum |t_j|.
    """
    sh, sl = 1.0, 0.0
    th, tl = 1.0, 0.0
    qph, qpl = 1.0, 0.0
    abs_sum = 1.0
    c = _SPL * xh
    xhh = c - (c - xh)
    xhl = xh - xhh
    for _ in range(n):
        # qp *= q
        p = qph * qh
        c = _SPL * qph; ah = c - (c - qph); al = qph - ah
        c = _SPL * qh; bh = c - (c - qh); bl = qh - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl + (qph * ql + qpl * qh)
        qph = p + e; qpl = e - (qph - p)
        # t *= qp
        p = th * qph
        c = _SPL * th; ah = c - (c - th); al = th - ah
        c = _SPL * qph; bh = c - (c - qph); bl = qph - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl + (th * qpl + tl * qph)
        th = p + e; tl = e - (th - p)
        # t *= x
        p = th * xh
        c = _SPL * th; ah = c - (c - th); al = th - ah
        e = ((ah * xhh - p) + ah * xhl + al * xhh) + al * xhl + (th * xl + tl * xh)
        th = p + e; tl = e - (th - p)
        # s += t
        s = sh + th; bb = s - sh
        e = (sh - (s - bb)) + (th - bb) + (sl + tl)
        sh = s + e; sl = e - (sh - s)
        a = abs(th)
        if a == 0.0:
            break
        abs_sum += a
    return (sh, sl, 0.0, 0.0), abs_sum


def _dyadic(*fs):
    """The floats fs as integers on one exponent: f_i = m_i 2^e exactly."""
    ratios = [f.as_integer_ratio() for f in fs]  # denominators are powers of 2
    k = max(d for _, d in ratios).bit_length()
    return [m << (k - d.bit_length()) for m, d in ratios], 1 - k


def _to_float(m: int, e: int) -> float:
    """m 2^e rounded to the nearest binary64 number; inf past binary64."""
    try:
        return m / (1 << -e) if e < 0 else float(m << e)
    except OverflowError:
        return math.inf if m > 0 else -math.inf


def _to_dd(m: int, e: int):
    """m 2^e as a DD pair: hi the nearest binary64 number, lo the one nearest
    to the exact rest m 2^e - hi."""
    hi = _to_float(m, e)
    if not m or math.isinf(hi):
        return hi, 0.0
    h, d = hi.as_integer_ratio()
    a = 1 - d.bit_length()  # hi = h 2^a
    if e >= a:
        return hi, _to_float((m << (e - a)) - h, a)
    return hi, _to_float(m - (h << (a - e)), e)


def _series_sum(qh, ql, x4, n, m, nq, tol):
    """The series differentiated m times in x and nq times in q, to order n:
    sum_{j=j0}^{n} c_j q^{e_j - nq} x^{j - m}, with e_j = tri(j),
    c_j = deriv_coeff(j, m, nq) and j0 = first_index(m, nq), summed in
    Python integers.  m = nq = 0 is the series itself (every c_j = 1,
    j0 = 0).

    Returns (value4, bound): the exact sum of the computed terms as a complex
    DD quadruple, and a bound on the distance of value4 from the partial sum.

    q = qh + ql and the limbs of x4 are dyadic, so they become integer
    mantissas on one exponent with no rounding.  The power part advances by
    p_{j+1} = p_j q^{j+1} x; at each step p_j is truncated to `bits` + 1 bits
    (its real and imaginary parts by one shift) and q^j to `bits` bits, each
    a relative change below u = 2^{1-bits}.  The terms c_j p_j are added
    exactly.

    Bound.  The exact q^{j0} and p_{j0} are truncated once, so p_j carries at
    most 1 + sum_{i=j0+1}^{j} (1 + i - j0) <= K = tri(n) + 2n + 1 truncations.
    Term j is off by a factor within (1 + u)^K - 1 <= K u (1 + K u) of its
    exact value, and K u <= 2^-107 since bits >= 110 + 2 log2(n + 1).  The
    sum is therefore off by at most 1.01 K u sum_j |t_j|, the 1% covering the
    second order, the step from exact to computed |t_j| and the bound's own
    float rounding.  Every computed |t_j| is below 2^top, so this part is
    1.01 K u (n - j0 + 1) 2^top, plus one subnormal unit against underflow.
    Each part of value4 is hi + lo with hi the exact sum rounded to binary64
    and lo the rest rounded, so value4 is off by at most 2^-53 |rest| <=
    eps^2 |hi| plus a subnormal unit per part: bound adds
    eps^2 (|Re hi| + |Im hi|) + 2 subnormal units.

    bits starts at the double-double equivalent 110 + 2 log2(n + 1), and the
    sum is redone with more bits while the bound exceeds
    max(tol, eps (|value| - bound)) / 4: cancellation costs bits, not err.
    The coefficients are formed once, and for m = nq = 0 not multiplied.
    """
    j0 = first_index(m, nq)
    (qa, qb, a, b, c, d), e = _dyadic(qh, ql, *x4)
    q, xr, xi = qa + qb, a + b, c + d
    # the exact power part at j0, (p0r + i p0i) 2^pe0
    p0r, p0i, pe0 = q ** (tri(j0) - nq), 0, e * (tri(j0) - nq + j0 - m)
    for _ in range(j0 - m):
        p0r, p0i = p0r * xr - p0i * xi, p0r * xi + p0i * xr
    if not (p0r or p0i):
        return (0.0, 0.0, 0.0, 0.0), 0.0
    cs = [deriv_coeff(j, m, nq) for j in range(j0, n + 1)] if m or nq else None
    cbits = [c.bit_length() + 1 for c in cs] if cs else None
    k = (tri(n) + 2 * n + 1) * (n - j0 + 1)
    bits = 110 + 2 * n.bit_length()
    while True:
        qp, qpe = q**j0, e * j0
        pr, pi, pe = p0r, p0i, pe0
        sr = si = 0
        lsb = pe
        top = -math.inf
        for i in range(n - j0 + 1):
            if i:
                qp *= q
                qpe += e
                if xi:
                    pr, pi = pr * qp, pi * qp
                    pr, pi = pr * xr - pi * xi, pr * xi + pi * xr
                else:
                    pr *= qp * xr
                pe += qpe + e
            lp = pr.bit_length()
            if pi.bit_length() > lp:
                lp = pi.bit_length()
            sh = lp - bits - 1
            if sh > 0:
                pr >>= sh
                pi >>= sh
                pe += sh
                lp = bits + 1
            sh = qp.bit_length() - bits
            if sh > 0:
                qp >>= sh
                qpe += sh
            if cs:
                tr, ti, lt = cs[i] * pr, cs[i] * pi, cbits[i] + lp + pe
            else:
                tr, ti, lt = pr, pi, lp + pe + 1
            if pe >= lsb:
                sr += tr << (pe - lsb)
                si += ti << (pe - lsb)
            else:
                sr = (sr << (lsb - pe)) + tr
                si = (si << (lsb - pe)) + ti
                lsb = pe
            if lt > top:
                top = lt  # |t_j| < 2^top
        rh, rl = _to_dd(sr, lsb)
        ih, il = _to_dd(si, lsb)
        eb = top + 1 - bits
        bound = math.ldexp(1.01 * k, eb) + _TINY if eb < 960 else math.inf
        target = 0.25 * max(tol, EPS * (math.hypot(rh, ih) - bound))
        if bound <= max(target, 2 * _TINY):
            return (rh, rl, ih, il), bound + EPS2 * (abs(rh) + abs(ih)) + 2 * _TINY
        bits = max(bits + 8, top + 3 + math.ceil(math.log2(1.01 * k) - math.log2(target)))


def theta_sum(qh, ql, x4, n, tol):
    """Partial sum sum_{j=0}^{n} q^{tri(j)} x^j in Python integers, for complex
    x4: (value4, bound) from the integer kernel (see :func:`_series_sum`)."""
    return _series_sum(qh, ql, x4, n, 0, 0, tol)


def theta_deriv_sum(qh, ql, x4, n, m, nq, tol):
    """Term-wise differentiated series, m times in x and nq times in q, to
    order n in Python integers: (value4, bound) from the integer kernel (see
    :func:`_series_sum`)."""
    return _series_sum(qh, ql, x4, n, m, nq, tol)


def theta_sum_dd(q2, x4, n, tol):
    """The partial sum to order n as (value4, bound), bound on the distance
    of value4 from the partial sum: :func:`theta_sum_real` in DD for real
    x4, else :func:`theta_sum` in integers, which targets tol."""
    if x4[2] == 0.0 and x4[3] == 0.0:
        s4, abs_sum = theta_sum_real(q2[0], q2[1], x4[0], x4[1], n)
        return s4, rounding_bound(n, abs_sum * 1.000001)
    return theta_sum(q2[0], q2[1], x4, n, tol)


def cv_within(s4, bound, tail=0.0) -> CertifiedValue:
    """The binary64 value v of the complex DD quadruple s4 (real when its
    imaginary part is zero) with err tail + bound + 2 eps |v|: a truncation
    tail, the bound on the distance of s4 from the truncated value, and v's
    own rounding; RangeOverflowError once it leaves binary64."""
    v = s4[0] if s4[2] == 0.0 and s4[3] == 0.0 else complex(s4[0], s4[2])
    try:
        err = tail + (bound + 2.0 * EPS * abs(v))
    except OverflowError:  # |v| itself overflows
        err = math.inf
    if not err < math.inf:
        raise RangeOverflowError(f"value {v} lies past binary64")
    return CertifiedValue(v, err)


# ---------------------------------------------------------------------------
# Cheap log-space estimates used for routing decisions.


def series_log_max_term(q_abs: float, x_abs: float) -> float:
    """log of the largest |t_j| = q^{e_j} |x|^j over j >= 0."""
    if q_abs == 0.0 or x_abs == 0.0:
        return 0.0
    lq = math.log(q_abs)
    lx = math.log(x_abs)
    if lx <= 0.0:
        return 0.0  # terms only decay
    j_star = max(0, round(lx / -lq))
    best = 0.0
    for j in (j_star - 1, j_star, j_star + 1):
        if j >= 0:
            best = max(best, tri(j) * lq + j * lx)
    return best


def direct_route_order(q_abs: float, x_abs: float, tol: float):
    """Estimated err of the direct series route, with the order behind it.

    Returns (err, order): order is (N, tail) from :func:`truncation_order` at
    the same arguments, so a caller taking the direct route need not solve
    for it again, or None when it is infeasible.  err is inf then, and when
    the largest term passes e^690.
    """
    try:
        n, tail = truncation_order(q_abs, x_abs, tol)
    except InfeasibleToleranceError:
        return math.inf, None
    log_max = series_log_max_term(q_abs, x_abs)
    if log_max > 690.0:
        return math.inf, (n, tail)
    abs_sum_est = math.exp(log_max) * (n + 1)
    return tail + rounding_bound(n, abs_sum_est), (n, tail)


def predicted_direct_err(q_abs: float, x_abs: float, tol: float) -> float:
    """Estimated err of the direct series route (tail + rounding)."""
    return direct_route_order(q_abs, x_abs, tol)[0]
