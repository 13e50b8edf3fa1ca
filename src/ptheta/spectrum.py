"""Spectral values: parameters q at which theta(q, .) has a double zero.

For q > 0 these are an increasing sequence accumulating at 1; crossing one
turns the two rightmost surviving real zeros into a complex conjugate pair.
For q < 0 the collisions alternate between a negative-axis pair (odd index,
a local minimum touching zero from below) and a positive-axis pair (even
index, local maximum).  Each solve starts a damped two-equation Newton
iteration (theta = 0, theta_x = 0) from a closed-form seed and accepts the
result only if the double zero lies in the interval its index k assigns:
the k-th odd-to-even gap for q > 0, the anchor interval for q < 0.
"""

from __future__ import annotations

import math
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
from .zeros import Disk, complex_zeros

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


def _newton_2d(q0: float, y0: float, tol: float):
    """Damped Newton on F(q,y) = (theta, theta_x); regular at double zeros.

    Steps keep the sign of q0.  Returns (q, y, theta, theta_x), the last two
    the certified values that passed the convergence test."""
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
            return q, y, f0, f1
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
            if 0.0 < abs(qt) < Q_MAX and (qt > 0) == (q0 > 0):
                g0, g1 = F(qt, yt)
                gnorm = max(abs(g0.real), abs(g1.real))
                if gnorm < norm or gnorm == 0.0:
                    q, y, f0, f1, norm = qt, yt, g0, g1, gnorm
                    break
            lam *= 0.5
        else:
            raise ConvergenceError("damping exhausted in the double-zero solve")
    raise ConvergenceError("double-zero solve did not converge")


def _b_indices(k: int):
    """Indices of the real zeros whose collision produces the k-th negative
    spectral value: odd k pairs the even indices (4l-2, 4l); even k pairs the
    odd indices (4l+3, 4l+5)."""
    if k % 2 == 1:
        el = (k + 1) // 2
        return 4 * el - 2, 4 * el
    el = (k - 2) // 2
    return 4 * el + 3, 4 * el + 5


def _collision_seed(case: str, k: int) -> tuple[float, float]:
    """Closed-form seed (q0, y0) for the k-th double zero.

    Case A: q0 = 1 - pi/(2k+2), from the leading term of Kostov's expansion
    1 - pi/(2k) (Rev. Mat. Complut. 27, 2014), and y0 = -e^pi, the limit of
    the double zeros as q -> 1.  Case B: q0 = -1 + pi/(4k+7), and y0 the
    signed geometric mean of the anchors -q0^{-i} that bracket the collision,
    (i1, i2) = _b_indices(k).
    """
    if case == "A":
        return 1.0 - math.pi / (2 * k + 2), -math.exp(math.pi)
    q0 = -1.0 + math.pi / (4 * k + 7)
    a1, a2 = (-1.0 / q0**i for i in _b_indices(k))
    return q0, math.copysign(math.sqrt(a1 * a2), a1)


def _index_interval(case: str, k: int, q: float) -> tuple[float, float]:
    """Where the k-th double zero lies at q: case A the odd-to-even gap
    (-q^{-2k}, -q^{1-2k}); case B the anchor interval of _b_indices(k)."""
    ends = (2 * k, 2 * k - 1) if case == "A" else _b_indices(k)
    lo, hi = sorted(-1.0 / q**i for i in ends)
    return lo, hi


def _spectral_point(case: str, k: int, tol: float) -> SpectralPoint:
    if not 1 <= k <= K_CAP:
        raise DomainError(f"k must be in 1..{K_CAP}")
    q, y, f0, f1 = _newton_2d(*_collision_seed(case, k), tol)
    lo, hi = _index_interval(case, k, q)
    if not lo < y < hi:
        raise SeedFailureError(
            f"{case}{k}: double zero at q={q}, y={y} lies outside ({lo}, {hi})"
        )
    fxx = theta_derivative(q, y, dx_order=2, tol=min(tol, 1e-13)).real
    if abs(fxx) <= 1e3 * tol:
        raise ConvergenceError(
            f"second derivative {fxx} not separated from zero: "
            "multiplicity-2 certification failed"
        )
    return SpectralPoint(
        case=case, k=k, q_star=q, y=y,
        character="local_min" if fxx > 0 else "local_max",
        residual_theta=abs(f0.real), residual_theta_x=abs(f1.real), theta_xx=fxx,
    )


@lru_cache(maxsize=64)
def spectral_point_A(k: int, tol: float = DEFAULT_TOL) -> SpectralPoint:
    """k-th positive spectral value q~_k, where the (2k-1)-th and 2k-th
    rightmost real zeros collide in a local minimum.  Newton starts from a
    closed-form seed, and the result is accepted only if the double zero lies
    in the k-th odd-to-even gap (-q^{-2k}, -q^{1-2k})."""
    return _spectral_point("A", k, tol)


@lru_cache(maxsize=64)
def spectral_point_B(k: int, tol: float = DEFAULT_TOL) -> SpectralPoint:
    """k-th negative spectral value; odd k collides a negative-axis pair,
    even k a positive-axis pair, inside the anchor interval of _b_indices(k)."""
    return _spectral_point("B", k, tol)


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
    return _diag_eval(q, m, tol).scaled_dd((*dd_pow_int(q, 0.0, m), 0.0, 0.0))


def double_zero_interval_check(point: SpectralPoint) -> bool:
    """Membership of the double zero in its anchor interval -1/q^{e}."""
    if point.case != "B":
        raise DomainError("interval membership concerns the q < 0 case")
    lo, hi = _index_interval("B", point.k, point.q_star)
    return lo < point.y < hi
