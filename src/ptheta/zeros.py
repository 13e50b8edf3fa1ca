"""Locating, counting, and tracking zeros of theta(q, .) in x.

Real zeros come from sign-change scanning on a grid geometric in |x| (the
zeros thin out like |q|^{-j}, so a fixed number of nodes per logarithmic gap
suffices), refined by bisection-safeguarded Newton.  Complex zeros come from
an Aberth-Ehrlich simultaneous solve of the truncation polynomial, which
stops once every root has stopped moving or sits at the rounding level of
its Horner value, polished by Newton on the certified series and
cross-validated against an argument-principle winding count.  Continuation
corrects each predicted point by Newton in x.

Every refined root -- bracket, dip, complex record or tracked point -- is
accepted on one evaluation, `_at`: theta_x, then theta at a tolerance
floored by the residual that slope attains given ulp(x).  The root carries
that certified theta and theta_x; nothing is evaluated again to report it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .certified import DEFAULT_TOL, EPS, CertifiedValue, require_q, tri, truncation_order
from .core import theta_certified, theta_derivative
from .errors import (
    AmbiguousIndexError,
    ContourError,
    CountMismatchError,
    DomainError,
    StepUnderflowError,
    UnresolvedBracketError,
)

COMPLEX_Q_CAP = 0.95  # reliable auto-truncation range for the polynomial route


# ---------------------------------------------------------------------------
# Records and regions


@dataclass(frozen=True)
class ZeroRecord:
    """One zero of theta(q, .): location, kind, and bookkeeping."""

    q: float
    x: complex
    kind: str  # "real" | "complex_pair"
    index: int | None = None
    multiplicity: int = 1
    residual: float = 0.0
    err: float = 0.0

    def __post_init__(self):
        if self.kind not in ("real", "complex_pair"):
            raise ValueError(f"bad kind {self.kind!r}")


@dataclass(frozen=True)
class Disk:
    center: complex = 0.0
    radius: float = 5.0

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        return abs(z - self.center) <= self.radius - margin

    def boundary_segments(self):
        c, r = complex(self.center), self.radius
        return [(lambda t, c=c, r=r: c + r * cmath.exp(2j * math.pi * t), 96)]


@dataclass(frozen=True)
class Rectangle:
    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    def boundary_segments(self):
        corners = [
            complex(self.re_lo, self.im_lo),
            complex(self.re_hi, self.im_lo),
            complex(self.re_hi, self.im_hi),
            complex(self.re_lo, self.im_hi),
        ]
        segs = []
        for a, b in zip(corners, corners[1:] + corners[:1]):
            segs.append((lambda t, a=a, b=b: a + (b - a) * t, 32))
        return segs


@dataclass(frozen=True)
class HalfAnnulusRight:
    """{Re x >= 0, r_inner < |x| < r_outer}, closed along the imaginary axis."""

    r_inner: float = 1.0
    r_outer: float = 5.0

    def boundary_segments(self):
        ri, ro = self.r_inner, self.r_outer
        return [
            (lambda t, ro=ro: ro * cmath.exp(1j * math.pi * (t - 0.5)), 64),
            (lambda t, ri=ri, ro=ro: 1j * (ro + (ri - ro) * t), 16),
            (lambda t, ri=ri: ri * cmath.exp(1j * math.pi * (0.5 - t)), 48),
            (lambda t, ri=ri, ro=ro: -1j * (ri + (ro - ri) * t), 16),
        ]


@dataclass(frozen=True)
class ClippedLeftHalfDisk:
    """{|x| <= radius, Re x <= 0, |Im x| <= im_cap}."""

    radius: float = 3.0
    im_cap: float = 3.0 / math.sqrt(2.0)

    def boundary_segments(self):
        r, c = self.radius, self.im_cap
        s = math.sqrt(max(r * r - c * c, 0.0))
        a0 = math.atan2(c, -s)  # start angle of the arc
        a1 = 2.0 * math.pi - a0
        return [
            (lambda t, c=c: 1j * (-c + 2 * c * t), 24),
            (lambda t, c=c, s=s: 1j * c - s * t, 24),
            (lambda t, r=r, a0=a0, a1=a1: r * cmath.exp(1j * (a0 + (a1 - a0) * t)), 48),
            (lambda t, c=c, s=s: -s - 1j * c + s * t, 24),
        ]


@dataclass
class Trajectory:
    """A tracked zero path x(q), plus collision bookkeeping."""

    q_grid: list[float] = field(default_factory=list)
    points: list[complex] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    collision_q: float | None = None
    collision_partner: int | None = None
    alive: bool = True


# ---------------------------------------------------------------------------
# Scalar evaluation helpers


def _fx(q: float, x: complex) -> CertifiedValue:
    return theta_derivative(q, x, dx_order=1, tol=1e-10)


def _residual_floor(deriv: complex, x: complex) -> float:
    """Attainable |theta| at a root: slope times the argument granularity."""
    return abs(complex(deriv)) * 4.0 * EPS * (abs(x) + 1.0)


def _at(q: float, x: complex, tol: float):
    """(theta, theta_x, tol_eff) at a candidate root.

    theta is evaluated at tol_eff = max(tol, the residual attainable given
    the slope and ulp(x)), so the err a root reports, max(err, tol_eff/10),
    always covers its residual.
    """
    d = _fx(q, x)
    tol_eff = max(tol, _residual_floor(d.value, x))
    return theta_certified(q, x, tol_eff), d, tol_eff


def _newton(q: float, x: complex, tol: float, maxiter: int):
    """Newton in x until |theta| <= max(tol_eff, 10 err); returns the
    accepted iterate with the theta and theta_x it was accepted on, or
    raises UnresolvedBracketError after maxiter evaluations."""
    for _ in range(maxiter):
        f, d, tol_eff = _at(q, x, tol)
        if abs(complex(f.value)) <= max(tol_eff, 10.0 * f.err):
            return x, f, d
        if d.value == 0:
            raise UnresolvedBracketError("flat derivative in corrector")
        x = x - complex(f.value) / complex(d.value)
    raise UnresolvedBracketError("corrector did not converge")


# ---------------------------------------------------------------------------
# Real zeros


def _side_grid(q_abs: float, r_lo: float, r_hi: float):
    """Geometric |x| grid with eight nodes per log(1/|q|) gap."""
    if r_hi <= r_lo:
        return []
    step = math.log(1.0 / q_abs) / 8
    span = math.log(r_hi / r_lo)
    n = max(8, int(math.ceil(span / step)))
    return [r_lo * math.exp(span * i / n) for i in range(n + 1)]


def _refine_bracket(q, lo, hi, flo, fhi, tol):
    """Bisection-safeguarded Newton on a sign-change bracket.

    Returns (x, residual, err, theta_x at root), all from `_at` at x.
    """
    if (flo > 0) == (fhi > 0):
        raise UnresolvedBracketError(
            f"[{lo}, {hi}] does not bracket a sign change at q={q}"
        )
    a, b, fa = lo, hi, flo
    x = 0.5 * (a + b)
    for _ in range(120):
        fcv, dcv, tol_eff = _at(q, x, tol)
        fv, dv = fcv.real, dcv.real
        if abs(fv) <= max(tol_eff, 4.0 * fcv.err):
            break
        if b - a <= 8.0 * EPS * max(abs(a), abs(b)):
            break
        # maintain the bracket
        if (fv > 0) == (fa > 0):
            a, fa = x, fv
        else:
            b = x
        x_new = x - fv / dv if dv != 0 else 0.5 * (a + b)
        if not (a < x_new < b):
            x_new = 0.5 * (a + b)
        x = x_new
    else:
        raise UnresolvedBracketError(
            f"bracket [{lo}, {hi}] did not refine at q={q}; possible near-double zero"
        )
    return x, abs(fcv.real), max(fcv.err, tol_eff / 10.0), dv


def _scan_side(q, lo, hi, tol):
    """Scan [lo, hi] (0 < lo < hi in |x|, one sign of x) for zeros."""
    out = []
    if hi <= lo:
        return out
    sign = 1.0 if hi > 0 else -1.0
    # work in |x|; lo/hi given as actual x values of one sign
    r_lo, r_hi = sorted((abs(lo), abs(hi)))
    r_lo = max(r_lo, 1e-6)
    # below 0.25 the zero spacing argument is moot; a coarse grid suffices
    grid_r = []
    if r_lo < 0.25:
        inner_hi = min(0.25, r_hi)
        span = math.log(inner_hi / r_lo)
        grid_r += [r_lo * math.exp(span * i / 12) for i in range(12)]
        r_lo = inner_hi
    grid_r += _side_grid(abs(q), r_lo, r_hi)
    if not grid_r:
        return out
    xs = [sign * r for r in grid_r]
    if sign < 0:
        xs = xs[::-1]  # ascending x
    vals = [theta_certified(q, x, tol) for x in xs]
    i = 0
    while i < len(xs) - 1:
        v0, v1 = vals[i].real, vals[i + 1].real
        if v0 == 0.0:
            out.append((xs[i], 0.0, vals[i].err, _fx(q, xs[i]).real))
            i += 1
            continue
        if (v0 > 0) != (v1 > 0):
            out.append(_refine_bracket(q, xs[i], xs[i + 1], v0, v1, tol))
            i += 1
            continue
        # near-double dip: a local |theta| minimum with no sign change across
        # the sandwich (mixed signs are ordinary brackets).  A quadratic fit
        # through the three nodes estimates the true extremum value, which
        # makes detection independent of where the grid lands on the parabola.
        if (
            0 < i
            and (vals[i - 1].real > 0) == (v0 > 0) == (v1 > 0)
            and abs(v0) < abs(vals[i - 1].real)
            and abs(v0) < abs(v1)
        ):
            vm = _parabola_extremum(xs[i - 1], vals[i - 1].real, xs[i], v0,
                                    xs[i + 1], v1)
            if abs(vm) <= 0.05 * max(abs(vals[i - 1].real), abs(v1)):
                out.extend(_resolve_dip(q, xs[i - 1], xs[i + 1],
                                        vals[i - 1].real, v1, tol))
        i += 1
    return out


def _parabola_extremum(x0, y0, x1, y1, x2, y2):
    """Extremum value of the quadratic through three points (fit only)."""
    d0, d2 = x0 - x1, x2 - x1
    denom = d0 * d2 * (d0 - d2)
    if denom == 0:
        return y1
    a = ((y0 - y1) * d2 - (y2 - y1) * d0) / denom
    b = ((y2 - y1) * d0 * d0 - (y0 - y1) * d2 * d2) / denom
    if a == 0:
        return y1
    return y1 - b * b / (4.0 * a)


def _resolve_dip(q, lo, hi, f_lo, f_hi, tol):
    """Handle a deep |theta| dip between scan nodes lo and hi (theta values
    f_lo, f_hi): locate the critical point and decide whether it hides two
    close zeros or a multiplicity-2 touch."""
    a, b = lo, hi
    da = _fx(q, a).real
    if (da > 0) == (_fx(q, b).real > 0):
        return []
    for _ in range(200):
        m = 0.5 * (a + b)
        dm = _fx(q, m).real
        if (dm > 0) == (da > 0):
            a, da = m, dm
        else:
            b = m
        if b - a <= 4.0 * EPS * max(abs(a), abs(b), 1.0):
            break
    xc = 0.5 * (a + b)
    fc, dc, tol_eff = _at(q, xc, tol)
    if abs(fc.real) <= 10.0 * fc.err:
        # certified touch within precision: record once, multiplicity 2
        return [(xc, abs(fc.real), max(fc.err, tol_eff / 10.0), dc.real)]
    out = []
    if (fc.real > 0) != (f_lo > 0):
        out.append(_refine_bracket(q, lo, xc, f_lo, fc.real, tol))
    if (fc.real > 0) != (f_hi > 0):
        out.append(_refine_bracket(q, xc, hi, fc.real, f_hi, tol))
    return out


def real_zeros(
    q: float,
    x_min: float,
    x_max: float,
    tol: float = DEFAULT_TOL,
) -> list[ZeroRecord]:
    """All real zeros of theta(q, .) in [x_min, x_max], sorted ascending.

    Indices follow the sign-of-q convention: for q > 0 the rightmost real
    zero is index 1, counting leftward (assigned when the scan reaches the
    unit disk, which contains no zeros); for q < 0 indices anchor to
    -1/q^j and are assigned for |q| <= 1/2 where anchors are unambiguous.
    """
    require_q(q)
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise DomainError(f"the scan bounds must be finite, got [{x_min}, {x_max}]")
    if not x_min < x_max:
        raise DomainError("x_min must be < x_max")
    hits = []
    if x_min < 0:
        hits += _scan_side(q, x_min, min(x_max, -1e-12), tol)
    if x_max > 0:
        hits += _scan_side(q, max(x_min, 1e-12), x_max, tol)

    hits.sort(key=lambda h: h[0])
    records = []
    for x, res, err, dtheta in hits:
        if not (x_min <= x <= x_max):
            continue
        mult = 2 if abs(dtheta) <= math.sqrt(tol) else 1
        records.append(
            ZeroRecord(q=q, x=x, kind="real", multiplicity=mult, residual=res, err=err)
        )
    # deduplicate refinements that landed on the same zero
    dedup: list[ZeroRecord] = []
    for r in records:
        if dedup and abs(r.x.real - dedup[-1].x.real) <= 1e3 * tol * max(1.0, abs(r.x)):
            continue
        dedup.append(r)
    records = dedup

    if q > 0 and x_max >= -1.0:
        n = len(records)
        records = [replace(r, index=n - i) for i, r in enumerate(records)]
    elif q < 0 and abs(q) <= 0.5:
        try:
            records = assign_case_b_indices(q, records)
        except AmbiguousIndexError:
            pass
    return records


def assign_case_b_indices(q: float, zeros: list[ZeroRecord]) -> list[ZeroRecord]:
    """Index case-B real zeros by the nearest anchor -1/q^j in log |x|.

    Odd-indexed zeros are positive, even-indexed negative; an anchor claimed
    twice (or a parity mismatch) raises AmbiguousIndexError.
    """
    if q >= 0:
        raise DomainError("case-B indexing requires q < 0")
    lq = math.log(1.0 / abs(q))
    taken: dict[int, float] = {}
    out = []
    for r in zeros:
        x = r.x.real
        jf = math.log(abs(x)) / lq
        want_positive = x > 0
        cands = [j for j in range(max(1, math.floor(jf) - 2), math.ceil(jf) + 3)
                 if (j % 2 == 1) == want_positive]
        if not cands:
            raise AmbiguousIndexError(f"no parity-compatible anchor near {x}")
        j = min(cands, key=lambda j: abs(jf - j))
        if abs(jf - j) > 0.5:
            raise AmbiguousIndexError(
                f"zero at {x} sits {abs(jf - j):.2f} gaps from its nearest anchor"
            )
        if j in taken:
            raise AmbiguousIndexError(f"anchor {j} claimed by {taken[j]} and {x}")
        taken[j] = x
        out.append(replace(r, index=j))
    return out


# ---------------------------------------------------------------------------
# Winding counts


def zero_count(q: float, region, tol: float = DEFAULT_TOL) -> int:
    """Zeros inside the region boundary, by adaptive argument tracking.

    Refines until successive contour samples move the argument by < pi/2;
    raises ContourError when a sample is not certifiably nonzero (a zero too
    close to the contour), or the total fails to close to an integer or
    closes below 0 (theta(q, .) is entire, so the sampling missed turns).
    """
    require_q(q)
    segments = region.boundary_segments()

    def val(z):
        cv = theta_certified(q, z, tol)
        v = complex(cv.value)
        if abs(v) <= 10.0 * cv.err:
            raise ContourError(f"|theta| not certifiably nonzero on contour at {z}")
        return v

    total = 0.0
    for zfun, n_init in segments:
        ts = [i / n_init for i in range(n_init + 1)]
        pts = [zfun(t) for t in ts]
        vs = [val(z) for z in pts]
        # proximity check: |theta| must clear 10 tol times the local
        # derivative scale, else a zero may sit within ~10 tol of the contour
        for i in range(len(pts) - 1):
            dz = abs(pts[i + 1] - pts[i])
            if dz > 0:
                scale = abs(vs[i + 1] - vs[i]) / dz
                if min(abs(vs[i]), abs(vs[i + 1])) <= 10.0 * tol * scale:
                    raise ContourError(
                        f"possible zero within ~10 tol of the contour near {pts[i]}"
                    )
        stack = list(zip(ts[:-1], ts[1:], vs[:-1], vs[1:]))
        depth = 0
        while stack:
            t0, t1, v0, v1 = stack.pop()
            dphi = cmath.phase(v1 / v0)
            if abs(dphi) < 0.5 * math.pi:
                total += dphi
                continue
            if t1 - t0 < 1e-9:
                raise ContourError(
                    f"argument jump not resolved near t={t0} on segment (zero on contour?)"
                )
            tm = 0.5 * (t0 + t1)
            vm = val(zfun(tm))
            stack.append((t0, tm, v0, vm))
            stack.append((tm, t1, vm, v1))
            depth += 1
            if depth > 200_000:
                raise ContourError("contour refinement exploded")
    k = total / (2.0 * math.pi)
    ki = round(k)
    if abs(k - ki) > 0.05:
        raise ContourError(f"winding total {k} is not close to an integer")
    if ki < 0:
        raise ContourError(f"winding total {ki} is negative: the contour is undersampled")
    return ki


# ---------------------------------------------------------------------------
# Complex zeros via the truncation polynomial


def _horner(coeffs_desc, z):
    """One Horner pass over descending coefficients: p(z), p'(z) and the
    majorant sum_j |c_j| |z|^j that bounds Horner's rounding error."""
    r = abs(z)
    p = dp = 0.0 * z
    maj = 0.0 * r
    for c in coeffs_desc:
        dp = dp * z + p
        p = p * z + c
        maj = maj * r + abs(c)
    return p, dp, maj


def _at_noise_floor(p, maj, n):
    """|p(z)| <= 4 n eps sum |c_j| |z|^j for a degree-n polynomial.

    Horner's rounding error is at most gamma_2n sum |c_j| |z|^j in real
    arithmetic (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., sec. 5.1); twice that covers complex rounding.  Below it the
    computed p(z) is rounding noise: z is an exact root of a polynomial whose
    coefficients are within relative 4 n eps of the given ones.
    """
    return abs(p) <= 4.0 * n * EPS * maj


def _aberth(coeffs: np.ndarray, maxiter: int = 600, rtol: float = 1e-13) -> np.ndarray:
    """Aberth-Ehrlich simultaneous iteration; coeffs ascending in z.

    Stops once every root either moved by less than rtol relative in this
    iteration or had |p(z)| <= 4 n eps sum |c_j| |z|^j, the rounding level
    of its Horner value (`_at_noise_floor`; Bini, Numer. Algorithms 13
    (1996)).  All roots keep moving until then: roots frozen in the noise
    region would distort the Aberth sum of the rest.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    n = len(c) - 1
    ang = 2.0 * np.pi * (np.arange(n) + 0.3) / n
    z = 1.1 * np.exp(1j * ang)
    cr = c[::-1]
    for _ in range(maxiter):
        p, dp, maj = _horner(cr, z)
        dp = np.where(dp == 0, 1e-300, dp)
        w = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = (1.0 / diff).sum(axis=1)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, 1e-300, denom)
        step = w / denom
        z = z - step
        settled = np.abs(step) < rtol * np.maximum(np.abs(z), 1e-12)
        if np.all(settled | _at_noise_floor(p, maj, n)):
            break
    return z

def truncation_coefficients(q: float, n: int, scale: float = 1.0):
    """Coefficients of sum_{j<=n} q^{j(j+1)/2} (scale z)^j, normalized to
    unit maximum; returns (coeffs, log of the normalization)."""
    lq = math.log(abs(q))
    ls = math.log(scale) if scale > 0 else 0.0
    logs = [tri(j) * lq + j * ls for j in range(n + 1)]
    m = max(logs)
    sgn = [(-1.0) ** (tri(j) & 1) if q < 0 else 1.0 for j in range(n + 1)]
    coeffs = np.array([s * math.exp(l - m) for s, l in zip(sgn, logs)])
    return coeffs, m


def _polish_series(q, z, tol, maxiter=40):
    for _ in range(maxiter):
        f = theta_certified(q, z, tol)
        d = theta_derivative(q, z, dx_order=1)
        if d.value == 0:
            break
        step = complex(f.value) / complex(d.value)
        z = z - step
        if abs(step) <= 1e-15 * max(1.0, abs(z)):
            break
    return z


def _polish_poly(coeffs_desc, z, maxiter=60):
    """Newton on the polynomial itself; stops where the derivative vanishes
    or |p(z)| <= 4 n eps sum |c_j| |z|^j, the rounding level of Horner's
    value (`_at_noise_floor`; Higham, sec. 5.1)."""
    coeffs = coeffs_desc.tolist()
    n = len(coeffs) - 1
    z = complex(z)
    for _ in range(maxiter):
        f, d, maj = _horner(coeffs, z)
        if d == 0 or _at_noise_floor(f, maj, n):
            break
        z = z - f / d
    return z


def complex_zeros(
    q: float,
    region: Disk,
    tol: float = DEFAULT_TOL,
    n_override: int | None = None,
) -> list[ZeroRecord]:
    """All zeros of theta(q, .) inside a disk, as deduplicated records.

    Roots of the degree-N truncation polynomial (N from the tail bound at the
    disk edge, or n_override) are found by Aberth iteration, polished by
    Newton -- against the certified series normally, against the polynomial
    itself when an explicit truncation order is the object of study -- and
    cross-validated against the winding count.
    """
    require_q(q)
    if n_override is None and abs(q) > COMPLEX_Q_CAP:
        raise DomainError(
            f"automatic truncation is capped at |q| <= {COMPLEX_Q_CAP}; "
            "pass n_override to study an explicit truncation"
        )
    r_edge = abs(region.center) + region.radius
    if n_override is None:
        n, _ = truncation_order(abs(q), r_edge, tol / 10.0)
        polish_poly = False
    else:
        n = n_override
        polish_poly = True
    coeffs, _ = truncation_coefficients(q, n, scale=region.radius)
    roots_z = _aberth(coeffs)
    roots = roots_z * region.radius
    coeffs_desc = coeffs[::-1]

    margin = math.sqrt(tol)
    polished = []
    for z in roots:
        if abs(z - region.center) > region.radius * 1.05:
            continue
        z = _polish_poly(coeffs_desc, z / region.radius) * region.radius if polish_poly else _polish_series(q, z, tol)
        if region.contains(z, margin):
            polished.append(z)

    # deduplicate clusters; cluster size becomes multiplicity
    polished.sort(key=lambda z: (z.real, z.imag))
    clusters: list[list[complex]] = []
    for z in polished:
        if clusters and abs(z - clusters[-1][-1]) <= 1e3 * tol * max(1.0, abs(z)):
            clusters[-1].append(z)
        else:
            clusters.append([z])

    im_floor = 1e3 * tol
    records = []
    seen_pairs: list[complex] = []
    count_inside = 0
    for cl in clusters:
        z = sum(cl) / len(cl)
        mult = len(cl)
        count_inside += mult
        if abs(z.imag) <= im_floor * max(1.0, abs(z)):
            x, kind = complex(z.real, 0.0), "real"
        else:
            x, kind = (z if z.imag > 0 else z.conjugate()), "complex_pair"
            if any(abs(x - p) <= 1e3 * tol * max(1.0, abs(x)) for p in seen_pairs):
                continue
            seen_pairs.append(x)
        f, _, tol_eff = _at(q, z, tol)
        records.append(
            ZeroRecord(q=q, x=x, kind=kind, multiplicity=mult,
                       residual=abs(complex(f.value)), err=max(f.err, tol_eff / 10.0))
        )

    winding = zero_count(q, region, tol)
    if winding != count_inside:
        raise CountMismatchError(
            f"winding count {winding} != polynomial count {count_inside} "
            f"inside {region} at q={q}; raise N or move the boundary"
        )
    records.sort(key=lambda r: (r.x.real, r.x.imag))
    return records


# ---------------------------------------------------------------------------
# Continuation tracking


def track_zeros(
    starts: list[complex],
    q_from: float,
    q_to: float,
    max_step: float = 0.01,
    tol: float = DEFAULT_TOL,
) -> list[Trajectory]:
    """Predictor-corrector continuation of several zeros from q_from to q_to.

    All trajectories share the adaptive q-step.  When two live trajectories
    approach within 10 * step, both freeze with collision_q set; callers use
    that as double-zero (spectrum) detection.
    """
    require_q(q_from)
    require_q(q_to)
    if q_from == q_to or (q_from > 0) != (q_to > 0):
        raise DomainError("tracking requires distinct q of one sign")
    trajs = [Trajectory() for _ in starts]
    q = q_from
    # xs[i], ds[i]: trajectory i's last point and the theta_x it was accepted on
    xs, ds = [], []
    for x, t in zip(starts, trajs):
        x, f, d = _newton(q, complex(x), tol, 40)
        xs.append(x)
        ds.append(d)
        t.q_grid.append(q)
        t.points.append(x)
        t.residuals.append(abs(complex(f.value)))

    direction = 1.0 if q_to > q_from else -1.0
    h = direction * min(max_step, abs(q_to - q_from))
    h_floor = max_step * 1e-9
    while any(t.alive for t in trajs) and q != q_to:
        if abs(h) < h_floor:
            live = [i for i, t in enumerate(trajs) if t.alive]
            dmin, pair = _closest(xs, live)
            if pair and dmin < 1e-2 * max(1.0, abs(xs[pair[0]])):
                _freeze_pair(trajs, xs, q, pair)
                h = direction * max_step / 4.0
                continue
            raise StepUnderflowError(f"step underflow at q={q} without a collision")
        q_next = q + h
        if (direction > 0 and q_next > q_to) or (direction < 0 and q_next < q_to):
            q_next = q_to
        proposals = {}
        ok = True
        for i, t in enumerate(trajs):
            if not t.alive:
                continue
            # predictor: dx/dq = -theta_q / theta_x; the corrector must
            # converge within 4 evaluations, else the step halves
            dxdq = 0.0
            if ds[i].value != 0:
                fq = theta_derivative(q, xs[i], dq_order=1, tol=1e-10)
                dxdq = -complex(fq.value) / complex(ds[i].value)
            try:
                proposals[i] = _newton(q_next, xs[i] + (q_next - q) * dxdq, tol, 4)
            except (ArithmeticError, UnresolvedBracketError):
                ok = False
                break
        if not ok:
            h *= 0.5
            continue
        # collision detection among live trajectories
        live = [i for i in proposals]
        collided = False
        for a in range(len(live)):
            for b in range(a + 1, len(live)):
                i, j = live[a], live[b]
                xi, xj = proposals[i][0], proposals[j][0]
                if abs(xi - xj) < 10.0 * abs(q_next - q):
                    _freeze_pair(trajs, xs, q_next, (i, j), 0.5 * (xi + xj))
                    collided = True
        q = q_next
        for i, (x, f, d) in proposals.items():
            if not trajs[i].alive:
                continue
            xs[i], ds[i] = x, d
            trajs[i].q_grid.append(q)
            trajs[i].points.append(x)
            trajs[i].residuals.append(abs(complex(f.value)))
        if not collided:
            h = direction * min(max_step, abs(h) * 1.4)
    return trajs


def track_zero(start, q_to: float, max_step: float = 0.01, tol: float = DEFAULT_TOL) -> Trajectory:
    """Single-zero wrapper around track_zeros; start is a ZeroRecord or (q, x)."""
    if isinstance(start, ZeroRecord):
        q_from, x0 = start.q, start.x
    else:
        q_from, x0 = start
    return track_zeros([x0], q_from, q_to, max_step, tol)[0]


def _closest(xs, live):
    dmin, pair = math.inf, None
    for a in range(len(live)):
        for b in range(a + 1, len(live)):
            i, j = live[a], live[b]
            d = abs(xs[i] - xs[j])
            if d < dmin:
                dmin, pair = d, (i, j)
    return dmin, pair


def _freeze_pair(trajs, xs, q, pair, meet=None):
    i, j = pair
    for k in (i, j):
        trajs[k].alive = False
        trajs[k].collision_q = q
    trajs[i].collision_partner = j
    trajs[j].collision_partner = i
    if meet is not None:
        xs[i] = xs[j] = meet
