"""Spectral values: parameters q at which theta(q, .) has a double zero.

For q > 0 these are an increasing sequence accumulating at 1; crossing one
turns the two rightmost surviving real zeros into a complex conjugate pair.
For q < 0 the collisions alternate between a negative-axis pair (odd index,
a local minimum touching zero from below) and a positive-axis pair (even
index, local maximum).  Each solve seeds a damped two-equation Newton
iteration (theta = 0, theta_x = 0) from a tracked trajectory collision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .certified import DEFAULT_TOL, CertifiedValue, Q_MAX, require_q
from .core import _diag_eval, theta_certified, theta_derivative
from .ddarith import dd_pow_int
from .errors import (
    ConvergenceError,
    DomainError,
    IndeterminateSignError,
    SeedFailureError,
)
from .zeros import Disk, complex_zeros, real_zeros, track_zeros

K_CAP = 6  # spectral values accumulate at |q| = 1; desk scale stops here


@dataclass(frozen=True)
class SpectralPoint:
    """One double-zero parameter: location, character, and residuals."""

    case: str  # "A" (q > 0) or "B" (q < 0)
    k: int
    q_star: float
    y: float
    character: str  # "local_min" | "local_max"
    residual_theta: float
    residual_theta_x: float
    theta_xx: float

    def __post_init__(self):
        if self.case not in ("A", "B"):
            raise ValueError(f"bad case {self.case!r}")
        if self.character not in ("local_min", "local_max"):
            raise ValueError(f"bad character {self.character!r}")


def _newton_2d(q0: float, y0: float, tol: float, q_sign: float) -> tuple[float, float]:
    """Damped Newton on F(q,y) = (theta, theta_x); regular at double zeros."""
    q, y = q0, y0
    eval_tol = min(tol, 1e-13) / 10.0

    def F(q, y):
        f0 = theta_certified(q, y, eval_tol)
        f1 = theta_derivative(q, y, dx_order=1, tol=eval_tol)
        return f0, f1

    f0, f1 = F(q, y)
    norm = max(abs(f0.real), abs(f1.real))
    for _ in range(120):
        if abs(f0.real) <= max(tol, 4.0 * f0.err) and abs(f1.real) <= max(
            tol, 4.0 * f1.err
        ):
            return q, y
        j00 = theta_derivative(q, y, dq_order=1, tol=eval_tol).real
        j01 = f1.real
        j10 = theta_derivative(q, y, dx_order=1, dq_order=1, tol=eval_tol).real
        j11 = theta_derivative(q, y, dx_order=2, tol=eval_tol).real
        det = j00 * j11 - j01 * j10
        if det == 0:
            raise ConvergenceError("singular Jacobian in the double-zero solve")
        dq = (-f0.real * j11 + f1.real * j01) / det
        dy = (-j00 * f1.real + j10 * f0.real) / det
        lam = 1.0
        for _ in range(20):
            qt, yt = q + lam * dq, y + lam * dy
            if 0.0 < abs(qt) < Q_MAX and (qt > 0) == (q_sign > 0):
                g0, g1 = F(qt, yt)
                gnorm = max(abs(g0.real), abs(g1.real))
                if gnorm < norm or gnorm == 0.0:
                    q, y, f0, f1, norm = qt, yt, g0, g1, gnorm
                    break
            lam *= 0.5
        else:
            raise ConvergenceError("damping exhausted in the double-zero solve")
    raise ConvergenceError("double-zero solve did not converge")


def _collision_seed(pair_xs, q_start, q_limit, max_step=0.01):
    trajs = track_zeros(list(pair_xs), q_start, q_limit, max_step=max_step)
    t = trajs[0]
    if t.collision_q is None:
        raise SeedFailureError(
            f"no collision while tracking from q={q_start} toward {q_limit}"
        )
    return t.collision_q, t.points[-1].real


def _finish(case, k, q, y, tol) -> SpectralPoint:
    f0 = theta_certified(q, y, min(tol, 1e-13))
    f1 = theta_derivative(q, y, dx_order=1, tol=min(tol, 1e-13))
    fxx = theta_derivative(q, y, dx_order=2, tol=min(tol, 1e-13))
    character = "local_min" if fxx.real > 0 else "local_max"
    if abs(fxx.real) <= 1e3 * tol:
        raise ConvergenceError(
            f"second derivative {fxx.real} not separated from zero: "
            "multiplicity-2 certification failed"
        )
    return SpectralPoint(
        case=case,
        k=k,
        q_star=q,
        y=y,
        character=character,
        residual_theta=abs(f0.real),
        residual_theta_x=abs(f1.real),
        theta_xx=fxx.real,
    )


@lru_cache(maxsize=64)
def spectral_point_A(k: int, tol: float = DEFAULT_TOL) -> SpectralPoint:
    """k-th positive spectral value, from the collision of the k-th
    surviving real-zero pair."""
    if not 1 <= k <= K_CAP:
        raise DomainError(f"k must be in 1..{K_CAP}")
    # below the first spectral value all zeros are real, so the pair
    # (2k-1, 2k) is simply the (2k-1)-th and 2k-th rightmost
    q_start = 0.25
    r_max = 3.0 * q_start ** (-2 * k)
    zeros = real_zeros(q_start, -r_max, 0.0, tol=1e-10)
    if len(zeros) < 2 * k:
        raise SeedFailureError(
            f"only {len(zeros)} real zeros found at q={q_start}, need {2 * k}"
        )
    by_right = sorted(zeros, key=lambda r: -r.x.real)
    pair = (by_right[2 * k - 2].x, by_right[2 * k - 1].x)
    q_col, y_col = _collision_seed(pair, q_start, 0.93)
    q, y = _newton_2d(q_col, y_col, tol, +1.0)
    point = _finish("A", k, q, y, tol)
    if point.y >= 0:
        raise ConvergenceError("positive-case double zero must be negative")
    return point


def _b_indices(k: int):
    """Indices of the real zeros whose collision produces the k-th negative
    spectral value: odd k pairs the even indices (4l-2, 4l); even k pairs the
    odd indices (4l+3, 4l+5)."""
    if k % 2 == 1:
        el = (k + 1) // 2
        return 4 * el - 2, 4 * el
    el = (k - 2) // 2
    return 4 * el + 3, 4 * el + 5


@lru_cache(maxsize=64)
def spectral_point_B(k: int, tol: float = DEFAULT_TOL) -> SpectralPoint:
    """k-th negative spectral value; odd k collides a negative-axis pair,
    even k a positive-axis pair."""
    if not 1 <= k <= K_CAP:
        raise DomainError(f"k must be in 1..{K_CAP}")
    q_start = -0.4
    i1, i2 = _b_indices(k)
    r_max = 3.0 * abs(q_start) ** (-max(i1, i2))
    zeros = real_zeros(q_start, -r_max, r_max, tol=1e-10)
    by_index = {r.index: r for r in zeros if r.index is not None}
    if i1 not in by_index or i2 not in by_index:
        raise SeedFailureError(
            f"zeros with indices {i1},{i2} not found at q={q_start}"
        )
    pair = (by_index[i1].x, by_index[i2].x)
    q_col, y_col = _collision_seed(pair, q_start, -0.955, max_step=0.005)
    q, y = _newton_2d(q_col, y_col, tol, -1.0)
    point = _finish("B", k, q, y, tol)
    want_negative = k % 2 == 1
    if (point.y < 0) != want_negative:
        raise ConvergenceError(
            f"double zero parity violated: k={k}, y={point.y}"
        )
    return point


def spectral_point(case: str, k: int, tol: float = DEFAULT_TOL) -> SpectralPoint:
    if case == "A":
        return spectral_point_A(k, tol)
    if case == "B":
        return spectral_point_B(k, tol)
    raise DomainError(f"case must be 'A' or 'B', got {case!r}")


# ---------------------------------------------------------------------------
# Derived checks


def ordering_check(points: list[SpectralPoint]) -> dict:
    """Strict monotone ordering of the spectral parameters within each case."""
    report = {"ordered": True, "cases": {}}
    for case in ("A", "B"):
        ps = sorted((p for p in points if p.case == case), key=lambda p: p.k)
        qs = [p.q_star for p in ps]
        if case == "A":
            ok = all(a < b for a, b in zip(qs, qs[1:]))
        else:
            ok = all(a > b for a, b in zip(qs, qs[1:]))  # toward -1
        report["cases"][case] = {"k": [p.k for p in ps], "q": qs, "ordered": ok}
        report["ordered"] &= ok
    return report


def pair_count_between(case: str, k: int, tol: float = DEFAULT_TOL) -> int:
    """Conjugate-pair count (with multiplicity) at the midpoint between
    consecutive spectral values; k = 0 uses the interval from 0."""
    if case == "A":
        lo = 0.0 if k == 0 else spectral_point_A(k, tol).q_star
        hi = spectral_point_A(k + 1, tol).q_star
        q_mid = 0.5 * (lo + hi)
        radius = 49.8
    elif case == "B":
        lo = 0.0 if k == 0 else spectral_point_B(k, tol).q_star
        hi = spectral_point_B(k + 1, tol).q_star
        q_mid = 0.5 * (lo + hi)
        radius = 30.0  # desk-scale coverage; full case-B bound is far larger
    else:
        raise DomainError(f"case must be 'A' or 'B', got {case!r}")
    records = complex_zeros(q_mid, Disk(0.0, radius), tol)
    return sum(r.multiplicity for r in records if r.kind == "complex_pair")


def sign_at_anchor(q: float, s: int, tol: float = DEFAULT_TOL):
    """Certified signs of theta at the alternating anchors -q^{-2s}, -q^{-2s-1}
    for q < 0.

    At x = -q^{-m} the first 2m terms cancel pairwise, and what remains is
    theta(q, -q^{-m}) = q^m theta(q, -q^m): the direct series at |x| <= 1,
    scaled by q^m in DD.  Returns (theta(q, -q^{-2s}), theta(q, -q^{-2s-1}))
    with the first certified positive (s >= 1) and the second certified
    negative (s >= 0); err is about tol |q|^m.
    """
    require_q(q)
    if q >= 0:
        raise DomainError("anchor signs concern q < 0")
    if s < 0:
        raise DomainError("s must be a nonnegative integer")
    even, odd = (_anchor_value(q, m, tol) for m in (2 * s, 2 * s + 1))
    if s >= 1 and even.sign() != +1:
        raise IndeterminateSignError(f"even anchor sign not positive at q={q}, s={s}")
    if odd.sign() != -1:
        raise IndeterminateSignError(f"odd anchor sign not negative at q={q}, s={s}")
    return even, odd


def _anchor_value(q: float, m: int, tol: float) -> CertifiedValue:
    """theta(q, -q^{-m}) as q^m theta(q, -q^m)."""
    return _diag_eval(q, m, tol, Q_MAX).scaled_dd((*dd_pow_int(q, 0.0, m), 0.0, 0.0))


def double_zero_interval_check(point: SpectralPoint) -> bool:
    """Membership of the double zero in its anchor interval -1/q^{e}."""
    if point.case != "B":
        raise DomainError("interval membership concerns the q < 0 case")
    k, q, y = point.k, point.q_star, point.y
    if k % 2 == 1:
        el = (k + 1) // 2
        lo, hi = -1.0 / q ** (4 * el), -1.0 / q ** (4 * el - 2)
    else:
        el = (k - 2) // 2
        lo, hi = -1.0 / q ** (4 * el + 3), -1.0 / q ** (4 * el + 5)
    return lo < y < hi
