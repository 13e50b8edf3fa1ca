"""Vertical lines separating real zeros from complex conjugate pairs.

For q > 0 past the first spectral value, a line Re x = -a with all real
zeros to its left and all pairs to its right always exists with a >= 5
(real zeros stay left of -6).  For q < 0 the analogous left line (negative
zeros left; pairs and positive zeros right) exists with a >= 2.4, and a
right line Re x = +a (everything except the non-smallest positive zeros
left) with a >= 3.2.

Line placement uses the half-gap rule on the admissible interval of a,
floored at the guaranteed bound so the reported a never undershoots it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .certified import DEFAULT_TOL, require_q, truncation_order
from .errors import DomainError, SeparationValidationError
from .spectrum import spectral_point_A, spectral_point_B
from .tripleprod import g_tail, jacobi_theta_star
from .zeros import COMPLEX_Q_CAP, Disk, ZeroRecord, complex_zeros, real_zeros

PAIR_SEARCH_RADIUS = 30.0
REAL_SCAN = 200.0


def _pairs_in_disk(q: float, tol: float, radius: float | None = None):
    """Conjugate pairs within a desk-scale disk; beyond the automatic
    truncation cap the order is fixed explicitly by the same tail rule."""
    if radius is None:
        radius = PAIR_SEARCH_RADIUS if abs(q) <= COMPLEX_Q_CAP else 12.0
    if abs(q) <= COMPLEX_Q_CAP:
        records = complex_zeros(q, Disk(0.0, radius), tol)
    else:
        n, _ = truncation_order(abs(q), radius, tol / 10.0)
        records = complex_zeros(q, Disk(0.0, radius), tol, n_override=n)
    return [r for r in records if r.kind == "complex_pair"], radius


@dataclass(frozen=True)
class SeparationResult:
    """A separating line Re x = -a (or +a for the right kind) and its
    witnesses; margin is the smallest distance from any witness to the line."""

    q: float
    kind: str  # "separating" | "left" | "right"
    a: float
    margin: float
    left: tuple[ZeroRecord, ...]
    right: tuple[ZeroRecord, ...]
    degenerate: bool = False
    coverage_radius: float = PAIR_SEARCH_RADIUS
    notes: tuple[str, ...] = ()

    @property
    def line_re(self) -> float:
        return self.a if self.kind == "right" else -self.a


def _half_gap_above_floor(a_lo: float, a_hi: float, floor: float) -> float:
    """Midpoint of (max(a_lo, floor), a_hi); errors if empty."""
    lo = max(a_lo, floor)
    if not lo < a_hi:
        raise SeparationValidationError(
            f"no admissible line: interval ({a_lo}, {a_hi}) with floor {floor}"
        )
    return 0.5 * (lo + a_hi)


def _line(q, kind, left, right, floor, degenerate=False, notes=(),
          coverage=PAIR_SEARCH_RADIUS) -> SeparationResult:
    """The line Re x = s*a (s = +1 for the right kind, else -1) between the
    witnesses on each side: a is the half gap of the admissible interval above
    the floor (the floor itself when degenerate), and every witness must sit
    strictly on its side; margin is the smallest distance to the line."""
    s = 1.0 if kind == "right" else -1.0
    if degenerate:
        a = floor
    else:
        near, far = (left, right) if s > 0 else (right, left)
        a = _half_gap_above_floor(
            max((s * r.x.real for r in near), default=0.0),
            min(s * r.x.real for r in far),
            floor,
        )
    line = s * a
    dists = [(line - r.x.real, r) for r in left] + [(r.x.real - line, r) for r in right]
    for d, r in dists:
        if not d > 0:
            raise SeparationValidationError(f"witness {r.x} is on the wrong side of Re = {line}")
    return SeparationResult(
        q=q, kind=kind, a=a, margin=min((d for d, _ in dists), default=math.inf),
        left=tuple(left), right=tuple(right), degenerate=degenerate,
        coverage_radius=coverage, notes=notes,
    )


def _reals_by_sign(q: float, tol: float):
    """Real zeros in the scan window, negative and positive (ascending)."""
    reals = real_zeros(q, -REAL_SCAN, REAL_SCAN, tol=tol)
    return [r for r in reals if r.x.real < 0], [r for r in reals if r.x.real > 0]


def separating_line_A(q: float, tol: float = DEFAULT_TOL) -> SeparationResult:
    """Case q > 0: all real zeros left, all conjugate pairs right; a >= 5."""
    require_q(q)
    if q <= 0:
        raise DomainError("separating lines concern q > 0")
    q1 = spectral_point_A(1, tol).q_star
    reals = real_zeros(q, -REAL_SCAN, 0.0, tol=tol)
    if q <= q1:
        return _line(q, "separating", reals, (), 5.0, degenerate=True,
                     notes=("no conjugate pairs below the first spectral value; "
                            "line fixed at the guaranteed bound",))
    pairs, _ = _pairs_in_disk(q, tol, radius=49.8)
    if not reals:
        raise SeparationValidationError(f"no real zeros found at q={q}")
    return _line(q, "separating", reals, pairs, 5.0, coverage=49.8)


def left_separating_line_B(q: float, tol: float = DEFAULT_TOL) -> SeparationResult:
    """Case q < 0: negative zeros left; pairs and positive zeros right;
    a >= 2.4."""
    require_q(q)
    if q >= 0:
        raise DomainError("left separating lines concern q < 0")
    qbar1 = spectral_point_B(1, tol).q_star
    negs, poss = _reals_by_sign(q, tol)
    if q > qbar1:
        return _line(q, "left", negs, poss, 2.4, degenerate=True,
                     notes=("no conjugate pairs above the first negative spectral "
                            "value; line fixed at the guaranteed bound",))
    pairs, coverage = _pairs_in_disk(q, tol)
    if not negs:
        raise SeparationValidationError(f"no negative zeros found at q={q}")
    return _line(q, "left", negs, pairs + poss, 2.4, coverage=coverage)


def right_separating_line_B(q: float, tol: float = DEFAULT_TOL) -> SeparationResult:
    """Case q < 0: negative zeros, the smallest positive zero, and all pairs
    left; remaining positive zeros right; a >= 3.2.

    For q above the second negative spectral value the guaranteed bound does
    not apply; the result is returned degenerate with the conventional a and
    without the side check (the second positive zero may then sit below 3.2).
    """
    require_q(q)
    if q >= 0:
        raise DomainError("right separating lines concern q < 0")
    qbar2 = spectral_point_B(2, tol).q_star
    negs, poss = _reals_by_sign(q, tol)
    if q > qbar2:
        return SeparationResult(
            q=q, kind="right", a=3.2, margin=0.0,
            left=tuple(negs) + tuple(poss[:1]), right=tuple(poss[1:]),
            degenerate=True,
            notes=("right line guaranteed only below the second negative "
                   "spectral value; conventional bound reported, side check "
                   "skipped",),
        )
    pairs, coverage = _pairs_in_disk(q, tol)
    if len(poss) < 2:
        raise SeparationValidationError(
            f"need at least two positive zeros in the scan window at q={q}"
        )
    return _line(q, "right", negs + poss[:1] + pairs, poss[1:], 3.2, coverage=coverage)


def separating_line(q: float, kind: str, tol: float = DEFAULT_TOL) -> SeparationResult:
    if kind == "separating":
        return separating_line_A(q, tol)
    if kind == "left":
        return left_separating_line_B(q, tol)
    if kind == "right":
        return right_separating_line_B(q, tol)
    raise DomainError(f"kind must be separating|left|right, got {kind!r}")


# ---------------------------------------------------------------------------
# Monotonicity probes along the line: |Theta*| grows with |Im x| while a
# blocked majorant of the tail G shrinks, which is what makes the lines work.


@dataclass(frozen=True)
class ProbeReport:
    kind: str
    q: float
    a: float
    b_grid: tuple[float, ...]
    product_values: tuple[float, ...]
    majorant_values: tuple[float, ...]
    product_increasing: bool
    majorant_decreasing: bool
    endpoint_matches_g: bool
    violation: tuple[float, float] | None = None


#: kind -> (sign of Re x, head block, later blocks, divide by |x|^2)
_PROBE_KINDS = {
    "separating": (-1.0, 2, 2, False),
    "left": (-1.0, 8, 4, False),
    "right": (1.0, 4, 4, True),
}


def _g_block_majorant(q: float, x: complex, head: int, block: int) -> float:
    """Sum over blocks B_k of |sum_{m in B_k} q^{m(m-1)/2} x^{-m}|: the first
    block holds `head` terms and every later one `block` terms.

    Terms follow t_{m+1} = t_m q^m / x.  The sum stops once |q|^m < |x|/2,
    so every later ratio is below 1/2 and the rest is at most twice the next
    term, and that term is below 1e-30 of the sum.
    """
    s, t, m, size = 0.0, 1.0 / x, 1, head
    while m < 100_000:  # term cap
        part = 0.0
        for _ in range(size):
            part += t
            t = t * q**m / x
            m += 1
        s += abs(part)
        if abs(q) ** m < 0.5 * abs(x) and abs(t) <= 1e-30 * s:
            break
        size = block
    return s


def monotonicity_in_b_probe(q: float, a: float, b_grid, kind: str) -> ProbeReport:
    """Sample b and assert: the product modulus grows strictly (divided by
    |x|^2 for the right kind) while the blocked tail majorant shrinks
    strictly; at b = 0 the majorant coincides with |G|."""
    require_q(q)
    if kind not in _PROBE_KINDS:
        raise DomainError(f"kind must be separating|left|right, got {kind!r}")
    sign, head, block, per_x2 = _PROBE_KINDS[kind]
    bs = tuple(sorted(float(b) for b in b_grid))
    if len(bs) < 2 or bs[0] != 0.0:
        raise DomainError("b_grid must start at 0 and contain >= 2 points")
    prod_vals, major_vals = [], []
    for b in bs:
        x = complex(sign * a, b)
        w = abs(x) ** 2 if per_x2 else 1.0
        prod_vals.append(abs(complex(jacobi_theta_star(q, x, 1e-14).value)) / w)
        major_vals.append(_g_block_majorant(q, x, head, block) / w)
    ups = [i for i, (u, v) in enumerate(zip(prod_vals, prod_vals[1:])) if not u < v]
    downs = [i for i, (u, v) in enumerate(zip(major_vals, major_vals[1:])) if not u > v]
    bad = (ups or downs)[:1]
    x0 = complex(sign * a, 0.0)
    g0 = abs(complex(g_tail(q, x0, 1e-14).value)) / (abs(x0) ** 2 if per_x2 else 1.0)
    endpoint = math.isclose(major_vals[0], g0, rel_tol=1e-10, abs_tol=1e-13)
    return ProbeReport(
        kind=kind, q=q, a=a, b_grid=bs,
        product_values=tuple(prod_vals), majorant_values=tuple(major_vals),
        product_increasing=not ups, majorant_decreasing=not downs,
        endpoint_matches_g=endpoint,
        violation=(bs[bad[0]], bs[bad[0] + 1]) if bad else None,
    )
