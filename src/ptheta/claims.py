"""Named, reportable checks of the function's sign, zero-location, and
monotonicity facts at desk scale.

Every check certifies signs pointwise (|value| > err) on finite grids; a
report is "verified" only when every node is certified on the claimed side,
"indeterminate" when some node could not be separated from the threshold,
and "violated" when a node is certified on the wrong side.  Grid
certification is not a continuum proof, and every report says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .certified import DEFAULT_TOL, EPS, Q_MAX, CertifiedValue, cv_within, theta_sum_dd
from .core import (
    decompose,
    functional_equation_residual,
    limit_function,
    mixed_identity_residuals,
    pde_residual,
    phi,
    theta_at_diagonal,
    theta_certified,
    theta_derivative,
)
from .errors import DomainError, PThetaError
from .spectrum import sign_at_anchor, spectral_point_A, spectral_point_B
from .tripleprod import theta_via_triple_product
from .zeros import Disk, real_zeros, complex_zeros, track_zero, zero_count, ClippedLeftHalfDisk

GRID_NOTE = "grid-scale certification (sampled nodes, not a continuum proof)"


@dataclass(frozen=True)
class BoxClaim:
    """A rectangle in (q, x) with a pointwise predicate to certify."""

    id: str
    q_range: tuple[float, float]
    x_range: tuple[float, float]
    predicate: str  # "theta_gt:<c>" | "theta_lt:<c>" | "no_real_zero" | "single_positive_zero"
    grid: tuple[int, int] = (200, 200)


@dataclass(frozen=True)
class ClaimReport:
    id: str
    status: str  # "verified" | "violated" | "indeterminate" | "skipped"
    worst_point: tuple[float, float] | None = None
    worst_margin: float | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.status not in ("verified", "violated", "indeterminate", "skipped"):
            raise ValueError(f"bad status {self.status!r}")


def _grid(lo: float, hi: float, n: int):
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _q_nodes(lo: float, hi: float, n: int):
    """q grid clamped to [-Q_MAX, Q_MAX], 0 excluded; +-1 endpoints noted."""
    nodes, notes = [], []
    for q in _grid(lo, hi, n):
        if q > Q_MAX:
            if q >= 1.0:
                notes.append("q=1 endpoint replaced by q_max; limit edge checked separately")
            q = Q_MAX
        elif q < -Q_MAX:
            if q <= -1.0:
                notes.append("q=-1 endpoint replaced by -q_max; limit edge checked separately")
            q = -Q_MAX
        if q != 0.0 and (not nodes or q != nodes[-1]):
            nodes.append(q)
    return nodes, tuple(dict.fromkeys(notes))


def _sign_sweep(points, threshold, want_greater, claim_id, notes=()):
    """Certified comparison of a family of CertifiedValues against a
    threshold; points is an iterable of ((q, x), CertifiedValue)."""
    worst = (math.inf, None)
    indeterminate = None
    for pt, cv in points:
        margin = (cv.real - threshold) if want_greater else (threshold - cv.real)
        if margin < worst[0]:
            worst = (margin, pt)
        if margin > cv.err:
            continue
        if margin < -cv.err:
            return ClaimReport(claim_id, "violated", pt, margin, notes + (GRID_NOTE,))
        indeterminate = pt
    if indeterminate is not None:
        return ClaimReport(claim_id, "indeterminate", indeterminate, worst[0],
                           notes + (GRID_NOTE,))
    return ClaimReport(claim_id, "verified", worst[1], worst[0], notes + (GRID_NOTE,))


# ---------------------------------------------------------------------------
# Generic box checks


def check_box(claim: BoxClaim, tol: float = DEFAULT_TOL) -> ClaimReport:
    nq, nx = claim.grid
    if nq < 2 or nx < 2:
        nq, nx = max(nq, 2), max(nx, 2)
    q_nodes, notes = _q_nodes(*claim.q_range, nq)
    x_nodes = _grid(*claim.x_range, nx)
    edge_limits = []
    if claim.q_range[1] >= 1.0:
        edge_limits.append("A")
    if claim.q_range[0] <= -1.0:
        edge_limits.append("B")

    if claim.predicate.startswith(("theta_gt:", "theta_lt:")):
        want_greater = claim.predicate.startswith("theta_gt:")
        c = float(claim.predicate.split(":", 1)[1])

        def points():
            for q in q_nodes:
                for x in x_nodes:
                    yield (q, x), theta_certified(q, x, tol)
            for case in edge_limits:
                for x in x_nodes:
                    yield ((1.0 if case == "A" else -1.0), x), CertifiedValue(
                        limit_function(x, case).real, 0.0
                    )

        return _sign_sweep(points(), c, want_greater, claim.id, notes)

    if claim.predicate == "no_real_zero":
        for q in q_nodes:
            found = real_zeros(q, claim.x_range[0], claim.x_range[1], tol)
            if found:
                return ClaimReport(claim.id, "violated", (q, found[0].x.real), 0.0,
                                   notes + (GRID_NOTE,))
        return ClaimReport(claim.id, "verified", None, None, notes + (GRID_NOTE,))

    if claim.predicate == "single_positive_zero":
        for q in q_nodes:
            found = [r for r in real_zeros(q, claim.x_range[0], claim.x_range[1], tol)
                     if r.x.real > 0]
            if len(found) != 1:
                return ClaimReport(
                    claim.id, "violated", (q, found[0].x.real if found else math.nan),
                    float(len(found)), notes + (GRID_NOTE,))
        return ClaimReport(claim.id, "verified", None, None, notes + (GRID_NOTE,))

    raise DomainError(f"unknown predicate {claim.predicate!r}")


# ---------------------------------------------------------------------------
# Specific named checks


def check_theta_at_minus6(n_low: int = 500, n_high: int = 100,
                          tol: float = DEFAULT_TOL) -> ClaimReport:
    """theta(q,-6) > 0.007 on (0, 0.95] and > 0 on [0.95, q_max]."""
    def points_low():
        for q in _grid(0.95 / n_low, 0.95, n_low):
            yield (q, -6.0), theta_certified(q, -6.0, tol)

    rep = _sign_sweep(points_low(), 0.007, True, "a-theta-at-minus6-positive")
    if rep.status != "verified":
        return rep

    def points_high():
        for q in _grid(0.95, Q_MAX, n_high):
            yield (q, -6.0), theta_certified(q, -6.0, tol)

    rep_high = _sign_sweep(points_high(), 0.0, True, rep.id)
    if rep_high.status != "verified":
        return rep_high
    return replace(
        rep, notes=rep.notes + (f"margin > 0.007 held on (0,0.95] ({n_low} nodes); "
                                f"positivity held on [0.95,{Q_MAX}] ({n_high} nodes)",)
    )


def theta_partial_sum(q: float, x: float, n: int) -> CertifiedValue:
    """Degree-n truncation of the series, certified (rounding error only)."""
    return cv_within(*theta_sum_dd((q, 0.0), (float(x), 0.0, 0.0, 0.0), n, DEFAULT_TOL))


def check_minus24_and_plus24(n: int = 500, tol: float = DEFAULT_TOL) -> ClaimReport:
    """Signs at x = -2.4 and +2.4 for q < 0, plus the degree-100 truncation
    margins they rest on, plus the zero-location argument for small |q|."""
    five_twelfths = 5.0 / 12.0
    notes = []

    def pts_neg():
        for q in _grid(-0.97, -1e-3, n):
            yield (q, -2.4), theta_certified(q, -2.4, tol)

    rep = _sign_sweep(pts_neg(), 0.0, True, "b-x24-signs")
    if rep.status != "verified":
        return rep

    def pts_pos():
        for q in _grid(-0.97, -five_twelfths, n):
            yield (q, 2.4), theta_certified(q, 2.4, tol)

    rep2 = _sign_sweep(pts_pos(), 0.0, False, rep.id)
    if rep2.status != "verified":
        return rep2
    notes.append(f"theta(q,-2.4) > 0 on [-0.97,0) and theta(q,2.4) < 0 on "
                 f"[-0.97,-5/12], {n} nodes each")

    # degree-100 truncation margins on [-0.97, 0]
    worst_neg, worst_pos = math.inf, -math.inf
    for q in _grid(-0.97, -1e-6, 300):
        lo = theta_partial_sum(q, -2.4, 100)
        hi = theta_partial_sum(q, 2.4, 100)
        worst_neg = min(worst_neg, lo.real - lo.err)
        worst_pos = max(worst_pos, hi.real + hi.err)
    if not worst_neg > 0.2:
        return ClaimReport(rep.id, "violated", None, worst_neg,
                           ("degree-100 truncation at -2.4 dips below 0.2",))
    hi_limit = -0.1
    worst_pos_seg = -math.inf
    for q in _grid(-0.97, -five_twelfths, 300):
        hi = theta_partial_sum(q, 2.4, 100)
        worst_pos_seg = max(worst_pos_seg, hi.real + hi.err)
    if not worst_pos_seg < hi_limit:
        return ClaimReport(rep.id, "violated", None, worst_pos_seg,
                           ("degree-100 truncation at 2.4 exceeds -0.1",))
    notes.append(f"degree-100 truncation: min at -2.4 = {worst_neg:.4f} (> 0.2), "
                 f"max at 2.4 on [-0.97,-5/12] = {worst_pos_seg:.4f} (< -0.1)")

    # for |q| < 5/12 the +2.4 sign flips; the second positive zero still
    # clears 2.4 because theta(q,1) > 0 > theta(q,-1/q) and -1/q > 2.4
    for q in _grid(-five_twelfths + 1e-3, -0.02, 40):
        at1 = theta_certified(q, 1.0, tol)
        at_inv = theta_certified(q, -1.0 / q, tol)
        if not (at1.definitely_greater(0.0) and at_inv.definitely_less(0.0)
                and -1.0 / q > 2.4):
            return ClaimReport(rep.id, "indeterminate", (q, -1.0 / q), None,
                               tuple(notes) + (GRID_NOTE,))
    notes.append("for |q| < 5/12: certified theta(q,1) > 0 > theta(q,-1/q), "
                 "so the second positive zero exceeds -1/q > 2.4")
    return ClaimReport(rep.id, "verified", None, min(worst_neg, -worst_pos_seg),
                       tuple(notes) + (GRID_NOTE,))


def product_form_at_one(q: float) -> CertifiedValue:
    """prod_{m>=1} (1 - q^{2m}) / (1 - q^{2m-1}) with a tail bound.

    Every factor is positive for q in (-1,0), so the product certifies the
    sign of theta(q,1) even where the alternating series cancels to nothing.
    """
    qa = abs(q)
    terms = max(200, math.ceil(math.log(1e-20) / (2.0 * math.log(qa))) if qa > 0.5 else 200)
    p = 1.0
    rel = 0.0
    for m in range(1, terms + 1):
        num = 1.0 - q ** (2 * m)
        den = 1.0 - q ** (2 * m - 1)
        p *= num / den
        rel += EPS * (2.0 + (1.0 + qa ** (2 * m)) / num + (1.0 + qa ** (2 * m - 1)) / den)
    tail = 2.0 * (qa ** (2 * terms + 1) + qa ** (2 * terms + 2)) / (1.0 - qa * qa)
    rel += math.expm1(2.0 * tail) if tail < 0.3 else 1.0
    return CertifiedValue(p, abs(p) * rel)


def check_theta_at_one_case_b(n: int = 200, tol: float = DEFAULT_TOL) -> ClaimReport:
    """theta(q,1) > 0 for q < 0, and it matches the telescoped product.

    Positivity is carried by the all-positive-factors product (the series
    value sinks below any absolute error bound as q approaches -1); the
    series is then required to agree with the product within combined error.
    """
    worst = math.inf
    for q in _grid(-Q_MAX, -1e-3, n):
        cv = theta_certified(q, 1.0, tol)
        pf = product_form_at_one(q)
        if not pf.definitely_greater(0.0):
            return ClaimReport("b-theta-at-one-positive", "indeterminate",
                               (q, 1.0), pf.real, (GRID_NOTE,))
        diff = abs(cv.real - pf.real)
        if diff > cv.err + pf.err + 1e-12:
            return ClaimReport("b-theta-at-one-positive", "violated", (q, 1.0), diff,
                               ("series/product mismatch", GRID_NOTE))
        worst = min(worst, pf.real - pf.err)
    return ClaimReport(
        "b-theta-at-one-positive", "verified", None, worst,
        ("positivity certified through the product; series agrees within error",
         GRID_NOTE))


def check_second_derivative_positive(nq: int = 60, nx: int = 40,
                                     tol: float = DEFAULT_TOL) -> ClaimReport:
    """d2theta/dx2 > 0 for x >= -q^{-3/2}, and the dtheta/dq sign split."""
    def pts():
        for q in _grid(0.05, 0.95, nq):
            lo = -q ** (-1.5)
            for x in _grid(lo, 5.0, nx):
                yield (q, x), theta_derivative(q, x, dx_order=2, tol=tol)

    rep = _sign_sweep(pts(), 0.0, True, "a-second-x-derivative-positive")
    if rep.status != "verified":
        return rep

    def pts_q_neg():
        for q in _grid(0.05, 0.95, nq):
            for x in _grid(-q ** (-0.5), -0.05, 20):
                yield (q, x), theta_derivative(q, x, dq_order=1, tol=tol)

    rep2 = _sign_sweep(pts_q_neg(), 0.0, False, rep.id)
    if rep2.status != "verified":
        return replace(rep2, notes=rep2.notes + ("dtheta/dq < 0 leg failed",))

    def pts_q_pos():
        for q in _grid(0.05, 0.95, nq):
            for x in _grid(0.05, 5.0, 20):
                yield (q, x), theta_derivative(q, x, dq_order=1, tol=tol)

    rep3 = _sign_sweep(pts_q_pos(), 0.0, True, rep.id)
    if rep3.status != "verified":
        return replace(rep3, notes=rep3.notes + ("dtheta/dq > 0 leg failed",))
    return replace(rep, notes=rep.notes + (
        "dtheta/dq certified negative on [-q^{-1/2}, -0.05] and positive on "
        "[0.05, 5] (x near 0 excluded: the derivative vanishes there)",))


def check_phi_decreasing(k: float, n: int = 200, tol: float = 1e-14) -> ClaimReport:
    """Strict decrease of the diagonal phi_k on a q grid.

    The half-integer diagonal flattens to 1/2 with an exponentially small
    slope as q -> 1, dropping below any binary64 error bound around q ~ 0.83;
    its grid stops there.  The k >= 1 diagonals stay steep to 0.95.
    """
    cid = f"phi-decreasing-k{k:g}"
    hi = 0.80 if k < 1.0 else 0.95
    qs = _grid(0.002, hi, n)
    vals = [phi(q, k, tol) for q in qs]
    for (q0, v0), (q1, v1) in zip(zip(qs, vals), zip(qs[1:], vals[1:])):
        drop = v0.real - v1.real
        if drop <= v0.err + v1.err:
            status = "indeterminate" if drop > -(v0.err + v1.err) else "violated"
            return ClaimReport(cid, status, (q1, -1.0), drop, (GRID_NOTE,))
    return ClaimReport(cid, "verified", None, None,
                       (f"strict certified decrease on (0, {hi}]", GRID_NOTE))


def check_phi1_initial_slope(tol: float = 1e-13) -> ClaimReport:
    """(phi_1(h) - 1)/h -> -1 as h -> 0."""
    h = 1e-4
    v = phi(h, 1.0, tol)
    slope = (v.real - 1.0) / h
    ok = abs(slope + 1.0) <= 1e-6
    return ClaimReport("phi1-initial-slope", "verified" if ok else "violated",
                       (h, -1.0), slope + 1.0,
                       (f"slope at h={h}: {slope:.10f}",))


def _in_gap_union(a: float) -> bool:
    """Membership in the union of intervals (2j-1, 2j)."""
    r = a % 2.0
    return 1.0 < r < 2.0


def check_theta_qa_monotone(a: float, n: int = 200, tol: float = DEFAULT_TOL) -> ClaimReport:
    """Behavior of q -> theta(q, -q^{-a}): strictly increasing with a unique
    certified sign change when a lies in an odd-even gap interval; positive
    throughout otherwise (including integer a, where it telescopes to
    q^a phi_{a+1} > 0)."""
    cid = f"a-diagonal-monotone-a{a:g}"
    qs = _grid(0.02, 0.95, n)
    vals = [theta_at_diagonal(q, a, tol) for q in qs]
    notes = [GRID_NOTE]

    if _in_gap_union(a):
        for (q0, v0), (q1, v1) in zip(zip(qs, vals), zip(qs[1:], vals[1:])):
            rise = v1.real - v0.real
            if rise <= v0.err + v1.err:
                return ClaimReport(cid, "indeterminate", (q1, a), rise, tuple(notes))
        signs = []
        for q, v in zip(qs, vals):
            if abs(v.real) > v.err:
                signs.append(1 if v.real > 0 else -1)
        flips = sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1)
        if flips != 1 or signs[0] != -1 or signs[-1] != 1:
            return ClaimReport(cid, "violated", None, float(flips),
                               ("expected exactly one - to + sign change",))
        notes.append("strictly increasing with a unique certified sign change")
        return ClaimReport(cid, "verified", None, None, tuple(notes))

    worst = math.inf
    for q, v in zip(qs, vals):
        if not v.definitely_greater(0.0):
            return ClaimReport(cid, "indeterminate", (q, a), v.real, tuple(notes))
        worst = min(worst, v.real - v.err)
    if float(a).is_integer():
        for q in qs[:: max(1, n // 20)]:
            lhs = theta_at_diagonal(q, a, tol)
            rhs = phi(q, a + 1.0, tol).scaled(q ** int(a))
            if abs(lhs.real - rhs.real) > lhs.err + rhs.err + 1e-12:
                return ClaimReport(cid, "violated", (q, a), lhs.real - rhs.real,
                                   ("telescoped identity q^a phi_{a+1} failed",))
        notes.append("positive throughout; matches q^a phi_{a+1}")
    else:
        notes.append("positive throughout (a outside every gap interval)")
    return ClaimReport(cid, "verified", None, worst, tuple(notes))


def check_xi2k_increasing(k: int, q_lo: float = 0.05, q_hi: float | None = None,
                          tol: float = DEFAULT_TOL) -> ClaimReport:
    """The 2k-th real zero increases in q up to its collision value."""
    cid = f"a-even-zero-increasing-k{k}"
    if q_hi is None:
        q_hi = spectral_point_A(k, tol).q_star - 0.01
    zeros = real_zeros(q_lo, -3.5 * q_lo ** (-2 * k), 0.0, tol=1e-10)
    by_right = sorted(zeros, key=lambda r: -r.x.real)
    if len(by_right) < 2 * k:
        return ClaimReport(cid, "indeterminate", (q_lo, 0.0), None,
                           ("seed zero not found",))
    traj = track_zero((q_lo, by_right[2 * k - 1].x), q_hi, max_step=0.005, tol=tol)
    xs = [p.real for p in traj.points]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        i = next(i for i, (a, b) in enumerate(zip(xs, xs[1:])) if b <= a)
        return ClaimReport(cid, "violated", (traj.q_grid[i + 1], xs[i + 1]),
                           xs[i + 1] - xs[i], (GRID_NOTE,))
    slope_first = (xs[1] - xs[0]) / (traj.q_grid[1] - traj.q_grid[0])
    slope_last = (xs[-1] - xs[-2]) / (traj.q_grid[-1] - traj.q_grid[-2])
    return ClaimReport(cid, "verified", None, min(b - a for a, b in zip(xs, xs[1:])),
                       (f"slope grew from {slope_first:.3g} to {slope_last:.3g} "
                        f"approaching the collision", GRID_NOTE))


def check_V_negative(nq: int = 100, nx: int = 100, tol: float = DEFAULT_TOL) -> ClaimReport:
    """V = 1 + q x + q^3 x^2 < 0 for q in (-q_max, -0.84], |x| > 2.2."""
    cid = "b-quadratic-V-negative"
    worst = -math.inf
    worst_pt = None
    for q in _grid(-Q_MAX, -0.84, nq):
        for ax in _grid(2.2 + 1e-9, 50.0, nx):
            for x in (-ax, ax):
                v = 1.0 + q * x + q**3 * x * x
                err = 4.0 * EPS * (1.0 + abs(q * x) + abs(q**3 * x * x))
                if v + err >= 0.0:
                    return ClaimReport(cid, "violated" if v - err > 0 else "indeterminate",
                                       (q, x), v, (GRID_NOTE,))
                if v > worst:
                    worst, worst_pt = v, (q, x)
    return ClaimReport(cid, "verified", worst_pt, worst,
                       ("includes the boundary corner (-0.84, -2.2), value ~ -0.02",
                        GRID_NOTE))


def check_interval_transfer(tol: float = DEFAULT_TOL, n_random: int = 1000,
                            seed: int = 20260811) -> ClaimReport:
    """Transfer identities: theta(q, x/q) = 1 + x theta(q, x) and
    theta(q, x/q^3) = V(q, x/q^3) + (x^3/q^3) theta(q, x); at a zero the
    first pins theta(q, x/q) = 1, and at the even-case double zero the
    second certifies theta(q, x*/q^3) < 0."""
    cid = "b-zero-transfer"
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        q = float(rng.uniform(-0.9, 0.9))
        if abs(q) < 0.05:
            continue
        x = float(rng.uniform(-5.0, 5.0))
        lhs = theta_certified(q, x / q**3, tol)
        v = 1.0 + q * (x / q**3) + q**3 * (x / q**3) ** 2
        rhs = theta_certified(q, x, tol).scaled(x**3 / q**3) + v
        diff = abs(complex(lhs.value) - complex(rhs.value))
        budget = lhs.err + rhs.err + 1e4 * EPS * (abs(v) + abs(x / q**3) ** 2)
        if diff > budget:
            return ClaimReport(cid, "violated", (q, x), diff,
                               ("cubic transfer identity residual too large",))
    p2 = spectral_point_B(2, tol)
    q2, y2 = p2.q_star, p2.y
    at_transfer = theta_certified(q2, y2 / q2**3, tol)
    if not at_transfer.definitely_less(0.0):
        return ClaimReport(cid, "indeterminate", (q2, y2 / q2**3), at_transfer.real,
                           ("sign at the transferred double zero not separated",))
    zs = real_zeros(-0.4, -50.0, 50.0, tol)
    for r in zs[:4]:
        unit = theta_certified(r.q, r.x.real / r.q, tol)
        slack = abs(theta_derivative(r.q, r.x.real / r.q, dx_order=1, tol=1e-8).real)
        budget = unit.err + (abs(r.x.real) + 1.0) * (r.residual + r.err) + 1e3 * EPS * slack
        if abs(unit.real - 1.0) > budget:
            return ClaimReport(cid, "violated", (r.q, r.x.real), unit.real - 1.0,
                               ("theta at zero/q must equal 1",))
    return ClaimReport(cid, "verified", (q2, y2 / q2**3), at_transfer.real,
                       (f"{n_random} random cubic-transfer residuals within budget; "
                        "theta < 0 certified at the transferred double zero",))


def check_anchor_signs(tol: float = DEFAULT_TOL) -> ClaimReport:
    """Certified anchor signs for sampled q < 0 and s."""
    cid = "b-anchor-signs"
    try:
        for q in (-0.3, -0.5, -0.7, -0.9):
            for s in (0, 1, 2, 3):
                sign_at_anchor(q, s, tol)
    except PThetaError as exc:
        return ClaimReport(cid, "indeterminate", None, None, (str(exc),))
    return ClaimReport(cid, "verified", None, None,
                       ("even anchors positive (s>=1), odd anchors negative (s>=0) "
                        "for q in {-0.3,-0.5,-0.7,-0.9}, s in 0..3",))


def check_case_b_string_ordering(tol: float = DEFAULT_TOL) -> ClaimReport:
    """The interlacing string of real zeros and q-scaled zeros near q = 0-.

    Comparisons are resolved only when the gap exceeds the combined location
    uncertainty of the two sides; the x_j-vs-q*x_{j+1} gaps shrink like
    |q|^{j(j+1)/2 - j} and sink below binary64 resolution from j ~ 6 on, so
    those are reported as unresolved rather than certified.
    """
    cid = "b-index-string-ordering"
    unresolved_total = 0
    for q in (-0.108, -0.09):
        r_max = 3.0 * abs(q) ** (-12)
        recs = real_zeros(q, -r_max, r_max, tol=1e-13)
        xs, unc = {}, {}
        for r in recs:
            if r.index is None:
                continue
            x = r.x.real
            slope = abs(theta_derivative(q, x, dx_order=1, tol=1e-8).real)
            xs[r.index] = x
            unc[r.index] = (r.residual + r.err) / max(slope, 1e-300) + 4.0 * EPS * abs(x)

        def item(idx, scaled=False):
            if idx not in xs:
                return None
            v, u = xs[idx], unc[idx]
            if scaled:
                return q * v, abs(q) * u + 2.0 * EPS * abs(q * v)
            return v, u

        chains = []
        for k in (0, 1):
            chains.append([
                item(4 * k + 8), item(4 * k + 6), item(4 * k + 7, True),
                item(4 * k + 5, True), item(4 * k + 4), item(4 * k + 2),
                item(4 * k + 3, True), (0.0, 0.0),
            ])
            second = [(0.0, 0.0)]
            if 4 * k - 1 >= 1:
                second.append(item(4 * k - 1))
            second += [item(4 * k + 1), item(4 * k + 2, True), item(4 * k + 4, True),
                       item(4 * k + 3), item(4 * k + 5), item(4 * k + 6, True)]
            chains.append(second)
        for chain in chains:
            members = [m for m in chain if m is not None]
            for (va, ua), (vb, ub) in zip(members, members[1:]):
                gap = vb - va
                if gap > ua + ub:
                    continue
                if gap < -(ua + ub):
                    return ClaimReport(cid, "violated", (q, va), gap,
                                       (f"resolved ordering violation {va} !< {vb}",))
                unresolved_total += 1
    return ClaimReport(
        cid, "verified", None, None,
        (f"all resolvable comparisons hold at q in {{-0.108, -0.09}} for the "
         f"first twelve zeros; {unresolved_total} comparisons unresolved at "
         "binary64 location precision (gaps below ~|q|^{j(j+1)/2-j})",
         GRID_NOTE))


def check_unit_disk_zero_free(n_q: int = 50, tol: float = 1e-13) -> ClaimReport:
    """Winding count 0 on the unit circle for sampled q of both signs.

    The q < 0 side stops at -0.95: beyond that the smallest positive zero
    approaches x = 1 super-exponentially and the contour is no longer
    certifiably zero-free at desk precision."""
    cid = "unit-disk-zero-free"
    qs = [q for q in _grid(-0.95, Q_MAX, n_q) if abs(q) > 1e-3]
    for q in qs:
        if zero_count(q, Disk(0.0, 1.0), tol) != 0:
            return ClaimReport(cid, "violated", (q, 0.0), None, ())
    return ClaimReport(cid, "verified", None, None,
                       (f"{len(qs)} sampled q across both signs "
                        "(q < 0 capped at -0.95; the first positive zero "
                        "hugs the contour beyond)", GRID_NOTE))


def check_domain_d_zero_free(tol: float = DEFAULT_TOL) -> ClaimReport:
    cid = "a-clipped-halfdisk-zero-free"
    for q in (0.2, 0.35, 0.5, 0.7, 0.9):
        if zero_count(q, ClippedLeftHalfDisk(), tol) != 0:
            return ClaimReport(cid, "violated", (q, 0.0), None, ())
    return ClaimReport(cid, "verified", None, None, (GRID_NOTE,))


def check_pair_regions(tol: float = DEFAULT_TOL) -> ClaimReport:
    """Pairs with Re >= 0 lie in the right half-annulus 1 < |x| < 5; all
    pairs lie within radius 49.8 (q > 0 sample)."""
    cid = "a-pair-region-containment"
    for q in (0.35, 0.5, 0.7, 0.75):
        for r in complex_zeros(q, Disk(0.0, 49.8), tol):
            if r.kind != "complex_pair":
                continue
            z = r.x
            if abs(z) >= 49.8:
                return ClaimReport(cid, "violated", (q, abs(z)), None,
                                   ("pair outside the radius-49.8 disk",))
            if z.real >= 0 and not (1.0 < abs(z) < 5.0):
                return ClaimReport(cid, "violated", (q, abs(z)), None,
                                   ("nonnegative-real-part pair outside the annulus",))
    return ClaimReport(cid, "verified", None, None, (GRID_NOTE,))


# ---------------------------------------------------------------------------
# Identity residual suites


def identity_residual_suite(n_samples: int = 2000, seed: int = 20260811,
                            q_bound: float = 0.9, x_bound: float = 10.0,
                            tol: float = DEFAULT_TOL):
    """Residuals of the five structural identities on random samples.

    Returns a dict id -> (worst |residual| / err ratio, count); every
    residual must be within its combined error budget (ratio <= 1).
    """
    rng = np.random.default_rng(seed)
    worst = {k: 0.0 for k in
             ("functional-equation", "pde", "mixed-derivatives",
              "product-split", "decomposition")}

    def update(key, cv):
        if cv.err == 0.0:
            ok = abs(complex(cv.value)) == 0.0
            worst[key] = max(worst[key], 0.0 if ok else math.inf)
        else:
            worst[key] = max(worst[key], abs(complex(cv.value)) / cv.err)

    for i in range(n_samples):
        q = float(rng.uniform(0.02, q_bound)) * (1 if i % 2 == 0 else -1)
        if i % 3 == 0:
            x = complex(rng.uniform(-x_bound, x_bound), rng.uniform(-x_bound, x_bound))
            x *= x_bound / max(abs(x), x_bound)
        else:
            x = complex(rng.uniform(-x_bound, x_bound), 0.0)
        update("functional-equation", functional_equation_residual(q, x, tol))
        r1, r2 = mixed_identity_residuals(q, x, tol)
        update("mixed-derivatives", r1)
        update("mixed-derivatives", r2)
        update("pde", pde_residual(q, x, tol))
        d = decompose(q, x, tol)
        direct = theta_certified(q, x, tol)
        update("decomposition", d.recombined - direct)
        if abs(x) > 1e-6:
            parts = theta_via_triple_product(abs(q), x, tol)
            direct_pos = theta_certified(abs(q), x, tol)
            update("product-split", parts.difference - direct_pos)
    return worst


def check_identities(n_samples: int = 2000, seed: int = 20260811,
                     tol: float = DEFAULT_TOL) -> list[ClaimReport]:
    worst = identity_residual_suite(n_samples, seed, tol=tol)
    reports = []
    for key, ratio in sorted(worst.items()):
        ok = ratio <= 1.0
        reports.append(ClaimReport(
            f"identity-{key}", "verified" if ok else "violated",
            None, ratio, (f"worst |residual|/err ratio {ratio:.3g} over "
                          f"{n_samples} random samples",)))
    return reports


# ---------------------------------------------------------------------------
# Registry


BOX_CLAIMS = (
    BoxClaim("a-rect-edge-q04", (0.4, 0.4), (-10.5, 0.0), "theta_gt:0.0049", (1, 200)),
    BoxClaim("a-rect-edge-x105", (0.4, 1.0), (-10.5, -10.5), "theta_gt:0.0049", (200, 1)),
    BoxClaim("a-rect-interior-no-zeros", (0.4, 1.0), (-10.5, 0.0), "no_real_zero", (12, 1)),
    BoxClaim("b-rect-neg-boundary-q075", (-0.75, -0.75), (-3.1, 0.0), "theta_gt:0.0049", (1, 200)),
    BoxClaim("b-rect-neg-boundary-x31", (-1.0, -0.75), (-3.1, -3.1), "theta_gt:0.0049", (200, 1)),
    BoxClaim("b-rect-neg-no-zeros", (-1.0, -0.75), (-3.1, 0.0), "no_real_zero", (12, 1)),
    BoxClaim("b-strip-x32-negative", (-1.0, -0.78), (3.2, 3.2), "theta_lt:-0.015", (200, 1)),
    BoxClaim("b-strip-x32-deep", (-0.94, -0.8), (3.2, 3.2), "theta_lt:-0.08", (200, 1)),
    BoxClaim("b-rect-pos-single-zero", (-1.0, -0.8), (0.0, 3.2), "single_positive_zero", (12, 1)),
)


def _registry():
    entries = [(c.id, lambda c=c: check_box(c)) for c in BOX_CLAIMS]
    entries += [
        ("a-theta-at-minus6-positive", lambda: check_theta_at_minus6()),
        ("b-x24-signs", lambda: check_minus24_and_plus24()),
        ("b-theta-at-one-positive", lambda: check_theta_at_one_case_b()),
        ("a-second-x-derivative-positive", lambda: check_second_derivative_positive()),
        ("phi1-initial-slope", lambda: check_phi1_initial_slope()),
        ("b-quadratic-V-negative", lambda: check_V_negative()),
        ("b-zero-transfer", lambda: check_interval_transfer()),
        ("b-anchor-signs", lambda: check_anchor_signs()),
        ("b-index-string-ordering", lambda: check_case_b_string_ordering()),
        ("unit-disk-zero-free", lambda: check_unit_disk_zero_free()),
        ("a-clipped-halfdisk-zero-free", lambda: check_domain_d_zero_free()),
        ("a-pair-region-containment", lambda: check_pair_regions()),
    ]
    entries += [(f"phi-decreasing-k{k:g}", lambda k=k: check_phi_decreasing(k))
                for k in (0.5, 1.0, 2.0, 3.0)]
    entries += [(f"a-diagonal-monotone-a{a:g}", lambda a=a: check_theta_qa_monotone(a))
                for a in (1.5, 2.0, 2.5, 3.5)]
    entries += [(f"a-even-zero-increasing-k{k}", lambda k=k: check_xi2k_increasing(k))
                for k in (1, 2)]
    return entries


@dataclass(frozen=True)
class RunConfig:
    cases: tuple[str, ...] = ("A", "B")
    identity_samples: int = 2000
    include: tuple[str, ...] | None = None
    tol: float = DEFAULT_TOL


def run_all(config: RunConfig = RunConfig()) -> list[ClaimReport]:
    """Execute the named-claim suite; deterministic order by claim id."""
    reports = []
    for cid, fn in _registry():
        if config.include is not None and cid not in config.include:
            continue
        case_tag = cid.split("-", 1)[0]
        if case_tag == "a" and "A" not in config.cases:
            reports.append(ClaimReport(cid, "skipped", None, None,
                                       ("excluded by case filter",)))
            continue
        if case_tag == "b" and "B" not in config.cases:
            reports.append(ClaimReport(cid, "skipped", None, None,
                                       ("excluded by case filter",)))
            continue
        try:
            reports.append(fn())
        except PThetaError as exc:
            reports.append(ClaimReport(cid, "indeterminate", None, None,
                                       (f"check aborted: {exc}",)))
    if config.include is None or any(i.startswith("identity") for i in config.include):
        identity_reports = check_identities(config.identity_samples, tol=config.tol)
        if config.include is not None:
            identity_reports = [r for r in identity_reports if r.id in config.include]
        reports += identity_reports
    return sorted(reports, key=lambda r: r.id)
