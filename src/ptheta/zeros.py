"""Locating, counting, and tracking zeros of theta(q, .) in x.

Real zeros come from sign-change scanning on a grid geometric in |x| (the
zeros thin out like |q|^{-j}, so a fixed number of nodes per logarithmic gap
suffices), refined by bisection-safeguarded Newton.  Complex zeros come from
an Aberth-Ehrlich simultaneous solve of the truncation polynomial, polished
by Newton on the certified series and cross-validated against an
argument-principle winding count.
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

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        return (
            self.re_lo + margin <= z.real <= self.re_hi - margin
            and self.im_lo + margin <= z.imag <= self.im_hi - margin
        )

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

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        return (
            z.real >= margin
            and self.r_inner + margin < abs(z) < self.r_outer - margin
        )

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

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        return (
            abs(z) <= self.radius - margin
            and z.real <= -margin
            and abs(z.imag) <= self.im_cap - margin
        )

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


def _f(q: float, x: complex, tol: float) -> CertifiedValue:
    return theta_certified(q, x, tol)


def _fx(q: float, x: complex, tol: float = 1e-10) -> CertifiedValue:
    return theta_derivative(q, x, dx_order=1, tol=tol)


def _fq(q: float, x: complex, tol: float = 1e-10) -> CertifiedValue:
    return theta_derivative(q, x, dq_order=1, tol=tol)


# ---------------------------------------------------------------------------
# Real zeros


def _side_grid(q_abs: float, r_lo: float, r_hi: float, nodes_per_gap: int = 8):
    """Geometric |x| grid with nodes_per_gap nodes per log(1/|q|) gap."""
    if r_hi <= r_lo:
        return []
    step = math.log(1.0 / q_abs) / nodes_per_gap
    span = math.log(r_hi / r_lo)
    n = max(8, int(math.ceil(span / step)))
    return [r_lo * math.exp(span * i / n) for i in range(n + 1)]


def _residual_floor(deriv: complex, x: complex) -> float:
    """Attainable |theta| at a root: slope times the argument granularity."""
    return abs(complex(deriv)) * 4.0 * EPS * (abs(x) + 1.0)


def _refine_bracket(q, lo, hi, flo, fhi, tol):
    """Bisection-safeguarded Newton on a sign-change bracket.

    The evaluation tolerance is floored at the residual attainable given the
    local slope and ulp(x), so reported err always covers the residual.
    Returns (x, residual, err, theta_x at root).
    """
    if (flo > 0) == (fhi > 0):
        raise UnresolvedBracketError(
            f"[{lo}, {hi}] does not bracket a sign change at q={q}"
        )
    a, b, fa, fb = lo, hi, flo, fhi
    x = 0.5 * (a + b)
    dv = _fx(q, x).real
    tol_eff = max(tol, _residual_floor(dv, x))
    fcv = _f(q, x, tol_eff)
    for _ in range(120):
        fv = fcv.real
        if abs(fv) <= max(tol_eff, 4.0 * fcv.err):
            break
        if b - a <= 8.0 * EPS * max(abs(a), abs(b)):
            break
        # maintain the bracket
        if (fv > 0) == (fa > 0):
            a, fa = x, fv
        else:
            b, fb = x, fv
        x_new = x - fv / dv if dv != 0 else 0.5 * (a + b)
        if not (a < x_new < b):
            x_new = 0.5 * (a + b)
        x = x_new
        dv = _fx(q, x).real
        tol_eff = max(tol, _residual_floor(dv, x))
        fcv = _f(q, x, tol_eff)
    else:
        raise UnresolvedBracketError(
            f"bracket [{lo}, {hi}] did not refine at q={q}; possible near-double zero"
        )
    return x, abs(fcv.real), max(fcv.err, tol_eff / 10.0), dv


def _scan_side(q, lo, hi, tol, nodes_per_gap=8):
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
    grid_r += _side_grid(abs(q), r_lo, r_hi, nodes_per_gap)
    if not grid_r:
        return out
    xs = [sign * r for r in grid_r]
    if sign < 0:
        xs = xs[::-1]  # ascending x
    vals = [_f(q, x, tol) for x in xs]
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
                out.extend(_resolve_dip(q, xs[i - 1], xs[i + 1], tol))
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


def _resolve_dip(q, lo, hi, tol):
    """Handle a deep |theta| dip: locate the critical point and decide
    whether it hides two close zeros or a multiplicity-2 touch."""
    a, b = lo, hi
    da, db = _fx(q, a).real, _fx(q, b).real
    if (da > 0) == (db > 0):
        return []
    for _ in range(200):
        m = 0.5 * (a + b)
        dm = _fx(q, m).real
        if (dm > 0) == (da > 0):
            a, da = m, dm
        else:
            b, db = m, dm
        if b - a <= 4.0 * EPS * max(abs(a), abs(b), 1.0):
            break
    xc = 0.5 * (a + b)
    dc = _fx(q, xc).real
    tol_eff = max(tol, _residual_floor(dc, xc))
    fc = _f(q, xc, tol_eff)
    f_lo, f_hi = _f(q, lo, tol), _f(q, hi, tol)
    if abs(fc.real) <= 10.0 * fc.err:
        # certified touch within precision: record once, multiplicity 2
        return [(xc, abs(fc.real), max(fc.err, tol_eff / 10.0), dc)]
    out = []
    if (fc.real > 0) != (f_lo.real > 0):
        out.append(_refine_bracket(q, lo, xc, f_lo.real, fc.real, tol))
    if (fc.real > 0) != (f_hi.real > 0):
        out.append(_refine_bracket(q, xc, hi, fc.real, f_hi.real, tol))
    return out


def real_zeros(
    q: float,
    x_min: float,
    x_max: float,
    tol: float = DEFAULT_TOL,
    nodes_per_gap: int = 8,
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
        hits += _scan_side(q, x_min, min(x_max, -1e-12), tol, nodes_per_gap)
    if x_max > 0:
        hits += _scan_side(q, max(x_min, 1e-12), x_max, tol, nodes_per_gap)

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
    close to the contour) or the total fails to close to an integer.
    """
    require_q(q)
    segments = region.boundary_segments() if hasattr(region, "boundary_segments") else region

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
    return ki


# ---------------------------------------------------------------------------
# Complex zeros via the truncation polynomial


def _aberth(coeffs: np.ndarray, maxiter: int = 600, rtol: float = 1e-13) -> np.ndarray:
    """Aberth-Ehrlich simultaneous iteration; coeffs ascending in z."""
    c = np.asarray(coeffs, dtype=np.complex128)
    n = len(c) - 1
    dc = c[1:] * np.arange(1, n + 1)
    ang = 2.0 * np.pi * (np.arange(n) + 0.3) / n
    z = 1.1 * np.exp(1j * ang)
    cr, dcr = c[::-1], dc[::-1]
    for _ in range(maxiter):
        p = np.polyval(cr, z)
        dp = np.polyval(dcr, z)
        dp = np.where(dp == 0, 1e-300, dp)
        w = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = (1.0 / diff).sum(axis=1)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, 1e-300, denom)
        step = w / denom
        z = z - step
        if np.max(np.abs(step) / np.maximum(np.abs(z), 1e-12)) < rtol:
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
    dcoeffs = np.polyder(coeffs_desc)
    for _ in range(maxiter):
        f = np.polyval(coeffs_desc, z)
        d = np.polyval(dcoeffs, z)
        if d == 0:
            break
        step = f / d
        z = z - step
        if abs(step) <= 1e-16 * max(1.0, abs(z)):
            break
    return z


def complex_zeros(
    q: float,
    region: Disk,
    tol: float = DEFAULT_TOL,
    n_override: int | None = None,
    validate_count: bool = True,
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
        res, cerr = _residual_at(q, z, tol)
        if abs(z.imag) <= im_floor * max(1.0, abs(z)):
            records.append(
                ZeroRecord(q=q, x=complex(z.real, 0.0), kind="real",
                           multiplicity=mult, residual=res, err=cerr)
            )
            continue
        rep = z if z.imag > 0 else z.conjugate()
        if any(abs(rep - p) <= 1e3 * tol * max(1.0, abs(rep)) for p in seen_pairs):
            continue
        seen_pairs.append(rep)
        records.append(
            ZeroRecord(q=q, x=rep, kind="complex_pair",
                       multiplicity=mult, residual=res, err=cerr)
        )

    if validate_count:
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
    xs = [complex(x) for x in starts]
    q = q_from
    for i, t in enumerate(trajs):
        xr = _newton_in_x(q, xs[i], tol)
        xs[i] = xr
        t.q_grid.append(q)
        t.points.append(xr)
        t.residuals.append(_residual_at(q, xr, tol)[0])

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
        hard_fail = False
        for i, t in enumerate(trajs):
            if not t.alive:
                continue
            dxdq = _velocity(q, xs[i])
            x_pred = xs[i] + (q_next - q) * dxdq
            try:
                x_corr, iters = _newton_in_x_counted(q_next, x_pred, tol)
            except (ArithmeticError, UnresolvedBracketError):
                ok, hard_fail = False, True
                break
            if iters > 4:
                ok = False
                break
            proposals[i] = x_corr
        if not ok:
            h *= 0.5
            continue
        # collision detection among live trajectories
        live = [i for i in proposals]
        collided = False
        for a in range(len(live)):
            for b in range(a + 1, len(live)):
                i, j = live[a], live[b]
                if abs(proposals[i] - proposals[j]) < 10.0 * abs(q_next - q):
                    _freeze_pair(trajs, xs, q_next, (i, j),
                                 0.5 * (proposals[i] + proposals[j]))
                    collided = True
        q = q_next
        for i in proposals:
            if not trajs[i].alive:
                continue
            xs[i] = proposals[i]
            trajs[i].q_grid.append(q)
            trajs[i].points.append(xs[i])
            trajs[i].residuals.append(_residual_at(q, xs[i], tol)[0])
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


def _velocity(q, x):
    fx = _fx(q, x).value
    fq = _fq(q, x).value
    if fx == 0:
        return 0.0
    return -complex(fq) / complex(fx)



def _residual_at(q, x, tol):
    """(residual, err) at a refined root; err absorbs the slope-aware
    attainability floor so residual <= 10 err stays meaningful at any scale."""
    d = theta_derivative(q, x, dx_order=1)
    tol_eff = max(tol, _residual_floor(d.value, x))
    f = theta_certified(q, x, tol_eff)
    return abs(complex(f.value)), max(f.err, tol_eff / 10.0)


def _newton_in_x_counted(q, x, tol, maxiter=12):
    tol_eff = tol
    for it in range(1, maxiter + 1):
        f = theta_certified(q, x, tol_eff)
        if abs(complex(f.value)) <= max(tol_eff, 10.0 * f.err):
            return x, it
        d = theta_derivative(q, x, dx_order=1)
        if d.value == 0:
            raise UnresolvedBracketError("flat derivative in corrector")
        tol_eff = max(tol, _residual_floor(d.value, x))
        x = x - complex(f.value) / complex(d.value)
    f = theta_certified(q, x, tol_eff)
    if abs(complex(f.value)) <= max(tol_eff, 10.0 * f.err):
        return x, maxiter
    raise UnresolvedBracketError("corrector did not converge")


def _newton_in_x(q, x, tol):
    return _newton_in_x_counted(q, x, tol, maxiter=40)[0]
