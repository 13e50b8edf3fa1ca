"""Certified series machinery for the partial theta function.

The one-sided series sum_{j>=0} q^{j(j+1)/2} x^j is summed in double-double
arithmetic with exact integer exponents.  Every evaluation returns a value
together with a rigorous absolute error bound made of three parts:

* the geometric tail bound for the omitted terms,
* a summation/rounding bound proportional to eps^2 * sum_j |t_j|,
* a representation term ~ eps * |value| for dropping the low DD limb.

Sign decisions downstream are permitted only when |value| > err.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

from .ddarith import cdd_mul, dd_from_int, dd_pow_int
from .errors import (
    DomainError,
    InfeasibleToleranceError,
    IndeterminateSignError,
    RangeOverflowError,
)

EPS = 2.220446049250313e-16
_SPL = 134217729.0  # Dekker splitter, inlined in the hot loops
EPS2 = EPS * EPS
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


@dataclass(frozen=True)
class Parameter:
    """The base q of the series, restricted to (-1,0) u (0,1)."""

    q: float

    def __post_init__(self):
        if not (0.0 < abs(self.q) < 1.0) or math.isnan(self.q):
            raise DomainError(f"q must lie in (-1,0) u (0,1), got {self.q}")

    @property
    def case(self) -> str:
        return "A" if self.q > 0 else "B"


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
class SeriesTerm:
    """One term of the series: index j, its exact integer exponent, and the
    coefficient q^exponent."""

    j: int
    exponent: int
    coefficient: float

    def __post_init__(self):
        if self.j < 0 or self.exponent != tri(self.j):
            raise DomainError(f"exponent must equal j(j+1)/2 exactly for j={self.j}")

    @classmethod
    def at(cls, j: int, q: float) -> "SeriesTerm":
        e = tri(j)
        return cls(j=j, exponent=e, coefficient=q**e)


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

    def abs_lower(self) -> float:
        return max(0.0, abs(self.value) - self.err)


def rounding_bound(n_terms: int, abs_sum: float, value_abs: float) -> float:
    """Bound on accumulated DD rounding for an n-term compensated sum.

    The eps^2 constant is generous: each term costs a handful of DD
    multiplications (relative error ~ 4 eps^2 each) plus one DD addition
    whose absolute error is O(eps^2) times the running absolute sum.
    """
    return 64.0 * (n_terms + 2) * EPS2 * abs_sum + 2.0 * EPS * value_abs


# ---------------------------------------------------------------------------
# Truncation orders


def truncation_order(q_abs: float, x_abs: float, tol: float):
    """Smallest N with q^{N+1} x <= 1/2 and geometric tail bound <= tol.

    Returns (N, tail_bound).  The tail bound T(N) is the first omitted term
    over 1 - ratio, valid because successive term ratios q^{j+1} x only
    decrease.  Computed in log space to survive extreme magnitudes.

    N is solved in closed form.  With k = N + 1,
    ln T(N) = tri(k) ln q + k ln x - log1p(-r) and the log1p term is >= 0, so
    every admissible k is at least the larger root k+ of the quadratic
    tri(k) ln q + k ln x = ln tol; past the ratio threshold n0 that quadratic
    falls by at least ln 2 per step, and the log1p term is at most ln 2.
    Stepping up by one from just below k+ against the exact ln T therefore
    reaches the smallest admissible N within a few evaluations.
    """
    if math.isnan(q_abs) or q_abs < 0 or q_abs >= 1.0:
        raise DomainError(f"truncation_order requires 0 <= q_abs < 1, got {q_abs}")
    if not x_abs < math.inf:
        raise DomainError(f"truncation_order requires a finite x_abs, got {x_abs}")
    if tol <= 0:
        raise DomainError("tol must be positive")
    if x_abs == 0.0 or q_abs == 0.0:
        return 0, 0.0

    cap = n_cap()
    lq = math.log(q_abs)
    lx = math.log(x_abs)
    log_tol = math.log(tol)

    def log_tail(n: int) -> float:
        # ratio of terms beyond the first omitted one
        log_r = (n + 2) * lq + lx
        r = math.exp(min(log_r, -LN2))
        return tri(n + 1) * lq + (n + 1) * lx - math.log1p(-r)

    # smallest N with (N+1) lq + lx <= -ln 2
    n0 = max(0, math.ceil((-LN2 - lx) / lq) - 1)
    while (n0 + 1) * lq + lx > -LN2:  # guard against ceil rounding
        n0 += 1
    if n0 > cap:
        raise InfeasibleToleranceError(
            f"truncation order {n0} exceeds cap {cap} (q_abs={q_abs}, x_abs={x_abs})"
        )
    n = max(n0, _quadratic_root(lq, 0.5 * lq + lx, log_tol) - 2)
    while n <= cap:
        lt = log_tail(n)
        if lt <= log_tol:
            # small exponent slack absorbs the log-space rounding
            return n, math.exp(min(lt + 1e-6, 700.0))
        n += 1
    raise InfeasibleToleranceError(
        f"tolerance {tol} unreachable within cap {cap} "
        f"(q_abs={q_abs}, x_abs={x_abs})"
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


def falling(e: int, n: int) -> int:
    p = 1
    for i in range(n):
        p *= e - i
    return p


@lru_cache(maxsize=200_000)
def deriv_coeff(j: int, m: int, nq: int) -> int:
    """Exact integer coefficient of the term-wise differentiated series."""
    c = 1
    for i in range(m):
        c *= j - i
    return c * falling(tri(j), nq)


@lru_cache(maxsize=200_000)
def deriv_coeff_dd(j: int, m: int, nq: int):
    """The same coefficient as an exact double-double pair."""
    return dd_from_int(deriv_coeff(j, m, nq))


def derivative_truncation(q_abs: float, x_abs: float, m: int, nq: int, tol: float):
    """Truncation order for the (d/dx)^m (d/dq)^nq series.

    Successive term ratios (coefficient growth times q^{j+1} x) decrease in j,
    so once the ratio at the first omitted term is <= 1/2 the tail is bounded
    by twice that term.  Returns (n, tail) for the smallest n >= max(j0+2, 3),
    j0 the first index with a nonzero coefficient, at which that ratio is
    <= 1/2 and twice that term is <= tol.

    Both conditions, once met, hold for every larger n, so n is found by
    stepping up by one from a lower bound.  The coefficients are integers
    >= 1 that increase with j, so dropping the coefficient ratio gives
    (k+1) ln q + ln x <= -ln 2 with k = n + 1, and bounding the coefficient
    below by its value at a smaller index gives a quadratic in k whose larger
    root bounds k below (less one, where the ratio threshold lies left of the
    quadratic's vertex).  Two refinements of the coefficient leave a few
    steps to take.
    """
    if math.isnan(q_abs) or q_abs < 0 or q_abs >= 1.0:
        raise DomainError(f"derivative_truncation requires 0 <= q_abs < 1, got {q_abs}")
    if not x_abs < math.inf:
        raise DomainError(f"derivative_truncation requires a finite x_abs, got {x_abs}")
    if tol <= 0:
        raise DomainError("tol must be positive")
    j0 = m
    while deriv_coeff(j0, m, nq) == 0:
        j0 += 1
    if x_abs == 0.0 or q_abs == 0.0:
        return j0, 0.0

    cap = n_cap()
    lq = math.log(q_abs)
    lx = math.log(x_abs)
    log_tol = math.log(tol)

    def log_term(j: int) -> float:
        return math.log(deriv_coeff(j, m, nq)) + (tri(j) - nq) * lq + (j - m) * lx

    # k = n + 1 >= k_ratio from the ratio, and >= the quadratic's root, less
    # one where k_ratio lies left of its vertex; one more step of slack
    # covers rounding.  Each pass raises the coefficient's floor to c(n+1).
    k_ratio = math.ceil((-LN2 - lx) / lq - 1.0)
    b = 0.5 * lq + lx
    n = max(j0 + 2, 3)
    log_c = 0.0
    for _ in range(2):
        rhs = log_tol - LN2 + nq * lq + m * lx - log_c
        n = max(n, max(k_ratio, _quadratic_root(lq, b, rhs)) - 3)
        if n >= cap:
            break
        log_c = math.log(deriv_coeff(n + 1, m, nq))
    lt = log_term(n + 1) if n <= cap else math.inf
    while n <= cap:
        lt_next = log_term(n + 2)
        if lt_next - lt <= -LN2 and lt + LN2 <= log_tol:
            tail = math.exp(min(lt + LN2 + 1e-6, 700.0))
            return n, tail
        n += 1
        lt = lt_next
    raise InfeasibleToleranceError(
        f"derivative tolerance {tol} unreachable within cap {cap}"
    )


# ---------------------------------------------------------------------------
# Series engines (scalar).  q is a real DD pair, x a complex DD quadruple.


def theta_sum(qh, ql, x4, n):
    """Partial sum of the series to order n in complex double-double.

    Returns (value4, abs_sum): the DD value and an upper bound on sum |t_j|.
    The DD arithmetic is inlined: this loop dominates the package's runtime.
    """
    xrh, xrl, xih, xil = x4
    srh, srl, sih, sil = 1.0, 0.0, 0.0, 0.0
    trh, trl, tih, til = 1.0, 0.0, 0.0, 0.0
    qph, qpl = 1.0, 0.0
    abs_sum = 1.0
    for _ in range(n):
        # qp *= q
        p = qph * qh
        c = _SPL * qph; ah = c - (c - qph); al = qph - ah
        c = _SPL * qh; bh = c - (c - qh); bl = qh - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl + (qph * ql + qpl * qh)
        qph = p + e; qpl = e - (qph - p)
        # t *= qp (real DD times complex DD, both components)
        p = trh * qph
        c = _SPL * trh; ah = c - (c - trh); al = trh - ah
        c = _SPL * qph; bh = c - (c - qph); bl = qph - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl + (trh * qpl + trl * qph)
        urh = p + e; url = e - (urh - p)
        p = tih * qph
        c = _SPL * tih; ah2 = c - (c - tih); al2 = tih - ah2
        e = ((ah2 * bh - p) + ah2 * bl + al2 * bh) + al2 * bl + (tih * qpl + til * qph)
        uih = p + e; uil = e - (uih - p)
        # t = u * x (full complex DD product)
        p = urh * xrh
        c = _SPL * urh; ah = c - (c - urh); al = urh - ah
        c = _SPL * xrh; bh = c - (c - xrh); bl = xrh - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl + (urh * xrl + url * xrh)
        ach = p + e; acl = e - (ach - p)
        p = uih * xih
        c = _SPL * uih; ah2 = c - (c - uih); al2 = uih - ah2
        c = _SPL * xih; bh2 = c - (c - xih); bl2 = xih - bh2
        e = ((ah2 * bh2 - p) + ah2 * bl2 + al2 * bh2) + al2 * bl2 + (uih * xil + uil * xih)
        bdh = p + e; bdl = e - (bdh - p)
        p = urh * xih
        e = ((ah * bh2 - p) + ah * bl2 + al * bh2) + al * bl2 + (urh * xil + url * xih)
        adh = p + e; adl = e - (adh - p)
        p = uih * xrh
        e = ((ah2 * bh - p) + ah2 * bl + al2 * bh) + al2 * bl + (uih * xrl + uil * xrh)
        bch = p + e; bcl = e - (bch - p)
        # re = ac - bd, im = ad + bc
        s = ach - bdh; bb = s - ach
        e = (ach - (s - bb)) + (-bdh - bb) + (acl - bdl)
        trh = s + e; trl = e - (trh - s)
        s = adh + bch; bb = s - adh
        e = (adh - (s - bb)) + (bch - bb) + (adl + bcl)
        tih = s + e; til = e - (tih - s)
        # s += t
        s = srh + trh; bb = s - srh
        e = (srh - (s - bb)) + (trh - bb) + (srl + trl)
        srh = s + e; srl = e - (srh - s)
        s = sih + tih; bb = s - sih
        e = (sih - (s - bb)) + (tih - bb) + (sil + til)
        sih = s + e; sil = e - (sih - s)
        a = abs(trh) + abs(tih)
        if a == 0.0:
            break
        abs_sum += a
    return (srh, srl, sih, sil), abs_sum


def theta_sum_real(qh, ql, xh, xl, n):
    """Real-argument fast path of :func:`theta_sum` (inlined DD).

    Returns (value4, abs_sum) with a zero imaginary part in value4.
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


def theta_deriv_sum(qh, ql, x4, n, m, nq):
    """Term-wise differentiated series, m times in x and nq times in q.

    Coefficients are exact Python ints converted losslessly to DD; the power
    part q^{e_j - nq} x^{j - m} advances by * q^{j+1} * x per step.  Returns
    (value4, abs_sum) like :func:`theta_sum`, with the same inlined DD
    arithmetic.
    """
    j0 = m
    while deriv_coeff(j0, m, nq) == 0:
        j0 += 1
    xrh, xrl, xih, xil = x4
    ph, pl = dd_pow_int(qh, ql, tri(j0) - nq)
    pw = (ph, pl, 0.0, 0.0)
    for _ in range(j0 - m):
        pw = cdd_mul(pw, x4)
    prh, prl, pih, pil = pw
    qph, qpl = dd_pow_int(qh, ql, j0)
    srh, srl, sih, sil = 0.0, 0.0, 0.0, 0.0
    abs_sum = 0.0
    for j in range(j0, n + 1):
        ch, cl = deriv_coeff_dd(j, m, nq)
        # t = pw * c (complex DD times real DD), s += t
        p = prh * ch
        c = _SPL * prh; ah = c - (c - prh); al = prh - ah
        c = _SPL * ch; bh = c - (c - ch); bl = ch - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl + (prh * cl + prl * ch)
        trh = p + e; trl = e - (trh - p)
        p = pih * ch
        c = _SPL * pih; ah2 = c - (c - pih); al2 = pih - ah2
        e = ((ah2 * bh - p) + ah2 * bl + al2 * bh) + al2 * bl + (pih * cl + pil * ch)
        tih = p + e; til = e - (tih - p)
        s = srh + trh; bb = s - srh
        e = (srh - (s - bb)) + (trh - bb) + (srl + trl)
        srh = s + e; srl = e - (srh - s)
        s = sih + tih; bb = s - sih
        e = (sih - (s - bb)) + (tih - bb) + (sil + til)
        sih = s + e; sil = e - (sih - s)
        a = abs(trh) + abs(tih)
        abs_sum += a
        # qp *= q
        p = qph * qh
        c = _SPL * qph; ah = c - (c - qph); al = qph - ah
        c = _SPL * qh; bh = c - (c - qh); bl = qh - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl + (qph * ql + qpl * qh)
        qph = p + e; qpl = e - (qph - p)
        # pw *= qp
        p = prh * qph
        c = _SPL * prh; ah = c - (c - prh); al = prh - ah
        c = _SPL * qph; bh = c - (c - qph); bl = qph - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl + (prh * qpl + prl * qph)
        urh = p + e; url = e - (urh - p)
        p = pih * qph
        c = _SPL * pih; ah2 = c - (c - pih); al2 = pih - ah2
        e = ((ah2 * bh - p) + ah2 * bl + al2 * bh) + al2 * bl + (pih * qpl + pil * qph)
        uih = p + e; uil = e - (uih - p)
        # pw *= x (full complex DD product)
        p = urh * xrh
        c = _SPL * urh; ah = c - (c - urh); al = urh - ah
        c = _SPL * xrh; bh = c - (c - xrh); bl = xrh - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl + (urh * xrl + url * xrh)
        ach = p + e; acl = e - (ach - p)
        p = uih * xih
        c = _SPL * uih; ah2 = c - (c - uih); al2 = uih - ah2
        c = _SPL * xih; bh2 = c - (c - xih); bl2 = xih - bh2
        e = ((ah2 * bh2 - p) + ah2 * bl2 + al2 * bh2) + al2 * bl2 + (uih * xil + uil * xih)
        bdh = p + e; bdl = e - (bdh - p)
        p = urh * xih
        e = ((ah * bh2 - p) + ah * bl2 + al * bh2) + al * bl2 + (urh * xil + url * xih)
        adh = p + e; adl = e - (adh - p)
        p = uih * xrh
        e = ((ah2 * bh - p) + ah2 * bl + al2 * bh) + al2 * bl + (uih * xrl + uil * xrh)
        bch = p + e; bcl = e - (bch - p)
        s = ach - bdh; bb = s - ach
        e = (ach - (s - bb)) + (-bdh - bb) + (acl - bdl)
        prh = s + e; prl = e - (prh - s)
        s = adh + bch; bb = s - adh
        e = (adh - (s - bb)) + (bch - bb) + (adl + bcl)
        pih = s + e; pil = e - (pih - s)
        if a == 0.0 and abs(prh) + abs(pih) == 0.0:
            break
    return (srh, srl, sih, sil), abs_sum


def theta_sum_dd(q2, x4, n):
    """:func:`theta_sum_real` for real x4, else :func:`theta_sum`."""
    if x4[2] == 0.0 and x4[3] == 0.0:
        return theta_sum_real(q2[0], q2[1], x4[0], x4[1], n)
    return theta_sum(q2[0], q2[1], x4, n)


def cv_from_sum(s4, n, tail, abs_sum) -> CertifiedValue:
    """The certified value of an n-term DD sum s4 with the given tail bound
    and absolute term sum; RangeOverflowError once it leaves binary64."""
    v = s4[0] if s4[2] == 0.0 and s4[3] == 0.0 else complex(s4[0], s4[2])
    try:
        err = tail + rounding_bound(n, abs_sum * 1.000001, abs(v))
    except OverflowError:  # |v| itself overflows
        err = math.inf
    if not err < math.inf:
        raise RangeOverflowError(f"series value {v} lies past binary64")
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
    return tail + rounding_bound(n, abs_sum_est, 0.0), (n, tail)


def predicted_direct_err(q_abs: float, x_abs: float, tol: float) -> float:
    """Estimated err of the direct series route (tail + rounding)."""
    return direct_route_order(q_abs, x_abs, tol)[0]
