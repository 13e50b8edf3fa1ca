"""High-precision reference evaluations.

These are the independent oracle for tests and derived constants: plain
direct summation of the defining series, returned only once it is certified
to `dps` significant digits.

The one-sided series is summed in Python integers: each term comes from the
last by t_j = t_{j-1} q^j x with a mantissa rounded to the working
precision, and the terms are added exactly, with a proven bound on the
rounding and the omitted tail.  Theta* and G are the same series at y = 1/x
(G(q, x) = y theta(q, y)).  A sum is returned from the first pass whose
bound shows `dps` digits; the first pass runs at a working precision sized
from the largest term, each further one adds the digits the last lost to
cancellation (log10 of largest term / |sum|), and a sum that never certifies
raises OracleError.

The derivative series is summed in mpmath and certified differently: it runs
at two precisions and is returned once they agree to `dps` significant
digits.  Results are mpmath numbers.  The certified engines never call into
this module, and this module does not call their series kernels.
"""

from __future__ import annotations

import math

import mpmath as mp

from .certified import deriv_coeff, tri

#: Digits kept beyond dps on every pass after the first.
_MARGIN = 20
_PASSES = 4
_BITS_PER_DIGIT = math.log2(10.0)


class OracleError(ArithmeticError):
    """A reference sum did not reach the requested digits."""


def _headroom(q, x, extra_digits: int) -> int:
    """Decimal digits of cancellation headroom for the direct sum."""
    qa, xa = abs(q), abs(x)
    if qa == 0.0 or xa <= 1.0:
        return extra_digits + 15
    lq, lx = math.log10(qa), math.log10(xa)
    j_star = max(1, round(lx / -lq))
    peak = max(tri(j) * lq + j * lx for j in (j_star - 1, j_star, j_star + 1))
    return extra_digits + 15 + max(0, math.ceil(peak))


def _settled(sum_at, dps: int, work: int):
    """The sum sum_at(w) -> (sum, largest |term|) at working precision w
    digits, certified to dps significant digits (see the module docstring).
    The second precision may lie below the first when the first shows the
    sum lost fewer digits than its headroom allowed; after a disagreement
    the next precision lies above all earlier ones."""
    s, big = sum_at(work)
    top = work
    for attempt in range(_PASSES):
        if s:
            lost = max(0, math.ceil(float(mp.log10(big / abs(s)))))
        else:
            lost = top if big else 0
        nxt = dps + _MARGIN + lost
        if attempt:
            nxt = max(nxt, top + 10)
        elif nxt == work:
            nxt += 10
        s_next, big = sum_at(nxt)
        with mp.workdps(max(work, nxt)):
            if abs(s_next - s) <= mp.mpf(10) ** -dps * abs(s_next):
                return s_next
        s, work, top = s_next, nxt, max(top, nxt)
    raise OracleError(f"the reference sum did not settle to {dps} digits")


def _parts(v):
    """v (float, complex or mpmath number) as exact (re, im, exp) integers:
    v = (re + i im) 2^exp."""
    v = mp.mpmathify(v)
    parts = (v._mpf_, (0, 0, 0, 0)) if isinstance(v, mp.mpf) else v._mpc_
    ints = [(-man if sign else man, exp) for sign, man, exp, _ in parts]
    e = min((exp for man, exp in ints if man), default=0)
    re, im = (man << (exp - e) if man else 0 for man, exp in ints)
    return re, im, e


def _theta_int(q, x, bits: int):
    """sum_{j>=0} q^{j(j+1)/2} x^j for real q, 0 < |q| < 1, in integers.
    Returns (value, top, bound): value = (re + i im) 2^lsb as a triple,
    every term below 2^top, and bound (an mpf) on |value - sum|.

    q^j is truncated to `bits` bits and each term to bits + 1 (its parts by
    one shift), each changing by a relative amount below u = 2^{1-bits}; the
    terms are added exactly.  Term j carries at most tri(j) + j truncations,
    j of its own and those of q^1 ... q^j.  Summing to n, each term is off by
    a factor within K u (1 + K u), K = tri(n) + 2n + 1 and K u < 2^-40 for
    every n the loop reaches, so the rounding is at most
    1.01 K u (n + 1) 2^top.  The sum stops past the
    peak (ratio q^{j+1} x < 1/2) at a term below 2^mag, and the rest is then
    below 2^{mag+1}.
    """
    qm, _, qe = _parts(q)
    xr, xi, xe = _parts(x)
    x_top = max(xr.bit_length(), xi.bit_length()) + xe + 1  # |x| < 2^x_top
    tr, ti, te = 1, 0, 0  # the term, (tr + i ti) 2^te
    pm, pe = 1, 0  # q^j = pm 2^pe
    sr, si, lsb = 1, 0, 0  # the sum
    top = 1
    for n in range(1, 10_000_000):
        pm *= qm
        pe += qe
        sh = pm.bit_length() - bits
        if sh > 0:
            pm >>= sh
            pe += sh
        if xi:
            tr, ti = tr * pm, ti * pm
            tr, ti = tr * xr - ti * xi, tr * xi + ti * xr
        else:
            tr, ti = tr * pm * xr, ti * pm * xr
        te += pe + xe
        bl = max(tr.bit_length(), ti.bit_length())
        if bl > bits + 1:
            tr >>= bl - bits - 1
            ti >>= bl - bits - 1
            te += bl - bits - 1
            bl = bits + 1
        if te >= lsb:
            sr += tr << (te - lsb)
            si += ti << (te - lsb)
        else:
            sr = (sr << (lsb - te)) + tr
            si = (si << (lsb - te)) + ti
            lsb = te
        mag = bl + te + 1  # |t| < 2^mag
        top = max(top, mag)
        # past the peak (ratio q^{j+1} x < 1/2) the rest is below 2 |t|
        if pm.bit_length() + pe + x_top <= -1:
            s_log = max(sr.bit_length(), si.bit_length()) - 1 + lsb
            if mag < max(0, s_log) - bits - 8:
                k = (tri(n) + 2 * n + 1) * (n + 1)
                bound = mp.ldexp(1, mag + 1) + mp.ldexp(mp.mpf(k) * 1.01, top + 1 - bits)
                return (sr, si, lsb), top, bound
    raise OracleError("the reference series did not converge")


def _to_mp(v):
    sr, si, lsb = v
    return mp.mpc(mp.mpf((sr, lsb)), mp.mpf((si, lsb))) if si else mp.mpf((sr, lsb))


def _theta_at(q, x, work: int, inverse: bool):
    """(theta(q, x), largest |term|, error bound) at `work` digits; with
    inverse=True the same for y theta(q, y), y = 1/x, which is G(q, x)."""
    bits = int(work * _BITS_PER_DIGIT) + 40
    with mp.workprec(bits + 20):
        y = 1 / mp.mpmathify(x) if inverse else x
        if not q or not y:
            return +y if inverse else mp.mpf(1), mp.mpf(1), mp.mpf(0)
        value, top, bound = _theta_int(q, y, bits)
        big = mp.ldexp(1, top)
        if not inverse:
            return _to_mp(value), big, bound
        return y * _to_mp(value), abs(y) * big, abs(y) * bound


def _certified(sum_at, dps: int, work: int):
    """The sum sum_at(w) -> (sum, largest |term|, error bound) at working
    precision w digits, from the first pass whose bound is at most
    10^-dps |sum| / 4.  The factor 4 leaves room for the roundings the bound
    leaves out: mpmath's, below 2^-20 of the bound, and the final one to
    w >= dps + 15 digits.  Each further pass adds the digits the last one
    lost to cancellation."""
    for _ in range(_PASSES):
        s, big, bound = sum_at(work)
        if 4 * bound <= mp.mpf(10) ** -dps * abs(s):
            return s
        lost = max(0, math.ceil(float(mp.log10(big / abs(s))))) if s else work
        work = max(work + 10, dps + _MARGIN + lost)
    raise OracleError(f"the reference sum did not certify {dps} digits")


def theta_ref(q, x, dps: int = 50):
    """Reference value of the series at (q, x); mpf or mpc."""

    def sum_at(work):
        value, big, bound = _theta_at(q, x, work, False)
        with mp.workdps(work):
            return +value, big, bound

    return _certified(sum_at, dps, _headroom(q, x, dps))


def theta_deriv_ref(q, x, m: int = 0, nq: int = 0, dps: int = 50):
    """Reference term-wise derivative (d/dx)^m (d/dq)^nq."""

    def sum_at(work):
        with mp.workdps(work):
            qm = mp.mpf(q)
            xm = mp.mpmathify(x)
            s = mp.mpmathify(0)
            big = mp.mpf(0)
            floor = mp.mpf(10) ** (-(work - 5))
            for j in range(m, 200_000):
                c = deriv_coeff(j, m, nq)
                if c:
                    t = c * qm ** (tri(j) - nq) * xm ** (j - m)
                    s += t
                    at = abs(t)
                    big = max(big, at)
                    if j > m + 4 and at < floor * (1 + abs(s)) and abs(qm**j * xm) < 0.5:
                        break
            return +s, big

    return _settled(sum_at, dps, _headroom(q, x, dps) + 10)


def theta_star_ref(q, x, dps: int = 50):
    """Reference two-sided sum sum_{j in Z} q^{j(j+1)/2} x^j = theta + G."""

    def sum_at(work):
        t, t_big, t_bound = _theta_at(q, x, work, False)
        g, g_big, g_bound = _theta_at(q, x, work, True)
        with mp.workdps(work):
            return t + g, max(t_big, g_big), t_bound + g_bound

    return _certified(sum_at, dps, _headroom(q, x, dps) + 10)


def g_ref(q, x, dps: int = 50):
    """Reference negative-index tail sum_{m>=1} q^{m(m-1)/2} x^{-m}."""

    def sum_at(work):
        g, big, bound = _theta_at(q, x, work, True)
        with mp.workdps(work):
            return +g, big, bound

    return _certified(sum_at, dps, dps + 25)


def real_zero_ref(q, lo: float, hi: float, dps: int = 30):
    """Bisection zero of the series on [lo, hi]; requires a sign change."""
    with mp.workdps(dps + 15):
        a, b = mp.mpf(lo), mp.mpf(hi)
        fa, fb = theta_ref(q, a, dps), theta_ref(q, b, dps)
        if fa == 0:
            return +a
        if fb == 0:
            return +b
        if mp.sign(fa) == mp.sign(fb):
            raise ValueError(f"no sign change on [{lo}, {hi}] for q={q}")
        for _ in range(dps * 4):
            mid = (a + b) / 2
            fm = theta_ref(q, mid, dps)
            if fm == 0:
                return +mid
            if mp.sign(fm) == mp.sign(fa):
                a, fa = mid, fm
            else:
                b = mid
        return +((a + b) / 2)
