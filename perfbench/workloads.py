"""The benchmark's four workloads: inputs, operations and output checks.

A workload yields *rounds*.  A round is a list of operations that the runner
calls one at a time, in order, from a single caller (a closed loop with no
threads).  Every run executes whole rounds, so the share of failed operations
does not depend on how long the run lasts.

Operations call the public API through module attributes at call time
(``ptheta.theta_certified``, ``ptheta.cli.main``, ...), so that the traced
run sees the wrappers that ``spans.py`` installs at those bindings.

Checks never use the certified engines: values are compared with
``ptheta.oracle`` (mpmath summation at 50 digits plus cancellation headroom)
or tested against a property the method must have.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np

import ptheta
import ptheta.cli
from ptheta import oracle, serialize
from ptheta.certified import DEFAULT_TOL

# The lru_cache objects themselves: the traced run replaces the module
# bindings with wrappers that have no ``cache_clear``.
_SPECTRAL_CACHES = (ptheta.spectrum.spectral_point_A, ptheta.spectrum.spectral_point_B)


def clear_spectral_caches() -> None:
    for cached in _SPECTRAL_CACHES:
        cached.cache_clear()


@dataclass(frozen=True)
class Op:
    """One operation of a round.

    kind     groups operations for the printed breakdown;
    fn       performs the operation and returns its output;
    timed    False for operations kept out of the timing metrics;
    must_raise  the operation succeeds only by raising ``PThetaError``;
    prepare  untimed, untraced set-up run just before ``fn``;
    expect   oracle reference computed when the input was drawn, if any.
    """

    kind: str
    fn: Callable[[], object]
    args: tuple = ()
    timed: bool = True
    must_raise: bool = False
    prepare: Callable[[], None] | None = None
    expect: object = None


def _strata(rng: random.Random, n: int) -> list[float]:
    """n uniforms on [0, 1), one in each of n equal strata, in random order.

    Stratifying the inputs that set an evaluation's cost keeps the mix of
    cheap and costly points nearly the same from seed to seed.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    return [(p + rng.random()) / n for p in perm]


def _argument(r: float, u: float):
    """x of modulus r from a uniform u on [0, 1): complex at angle 6 pi u for
    u < 1/3, otherwise real, positive for u < 2/3."""
    if u < 1.0 / 3.0:
        phi = 6.0 * math.pi * u
        return complex(r * math.cos(phi), r * math.sin(phi))
    return r if u < 2.0 / 3.0 else -r


def log_max_term(q_abs: float, x_abs: float) -> float:
    """Natural log of the largest series term max_j |q|^{j(j+1)/2} |x|^j."""
    lq, lx = math.log(q_abs), math.log(x_abs)
    if lx <= 0.0:
        return 0.0
    j = -lx / lq - 0.5  # stationary point of (j(j+1)/2) lq + j lx
    return max(
        (i * (i + 1) // 2) * lq + i * lx
        for i in (math.floor(j), math.ceil(j))
        if i >= 0
    )


def _log_x_limit(q_abs: float, lx_max: float) -> float:
    """The largest ln|x| <= lx_max whose largest term stays within
    e^SPLIT_LOG_TERM_MAX (bisection; the term grows with |x|)."""
    if log_max_term(q_abs, math.exp(lx_max)) <= SPLIT_LOG_TERM_MAX:
        return lx_max
    lo, hi = 0.0, lx_max
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if log_max_term(q_abs, math.exp(mid)) <= SPLIT_LOG_TERM_MAX:
            lo = mid
        else:
            hi = mid
    return lo


def log_abs_theta_star(p: float, y: complex) -> float:
    """ln |prod_{m>=1} (1 - p^m)(1 + y p^m)(1 + p^{m-1}/y)| for 0 < p < 1,
    in binary64 (a magnitude estimate made apart from ptheta)."""
    big = abs(y) + 1.0 / abs(y) + 1.0
    n = max(1, math.ceil(math.log(1e-20 / big) / math.log(p)))
    pm = p ** np.arange(1, n + 1)
    with np.errstate(divide="ignore"):
        return float(np.log(np.abs(1 - pm)).sum() + np.log(np.abs(1 + y * pm)).sum()
                     + np.log(np.abs(1 + pm / (p * y))).sum())


def quartic_cancellation(q: float, x: complex, ref) -> float:
    """How far the parts of theta = theta1(q^4, x^2/q) + q x theta2(q^4, q x^2)
    exceed |theta|, estimating each part by its two-sided product."""
    x = complex(x)
    log_part = max(log_abs_theta_star(q ** 4, x * x / q),
                   math.log(abs(q * x)) + log_abs_theta_star(q ** 4, q * x * x))
    return math.exp(min(log_part - float(mp.log(abs(ref))), 700.0))


def _mp_diff(value: complex, ref) -> tuple:
    """|value - ref| and |ref| as mpmath numbers (no float overflow)."""
    v = mp.mpc(value.real, value.imag)
    return abs(v - ref), abs(ref)


def _enclosure_problem(label: str, cv, ref) -> str | None:
    """The value must enclose ref and agree with it to 1e-12 relative."""
    value = complex(cv.value)
    diff, mag = _mp_diff(value, ref)
    if not diff <= cv.err:
        return f"{label}: |value - ref| = {mp.nstr(diff, 5)} > err {cv.err:.3e}"
    if not diff <= 1e-12 * max(1, mag):
        return f"{label}: |value - ref| = {mp.nstr(diff, 5)} > 1e-12 max(1, |ref|)"
    return None


class Workload:
    """Base class: a seeded source of rounds plus a check of their outputs."""

    name = ""
    #: True when every round runs the same operations on the same inputs;
    #: later rounds are then compared with the first instead of re-checked.
    repeats_inputs = True

    def __init__(self, seed: int):
        self.seed = seed

    def rounds(self):
        """A fresh iterator over rounds (lists of Op)."""
        raise NotImplementedError

    def check(self, outputs: list) -> list[str]:
        """Problems found in [(op, output), ...]; empty when all correct."""
        raise NotImplementedError

    def breakdown(self, per_round: list[dict]) -> list[str]:
        """Extra human-readable lines from per-round seconds by op kind."""
        return []


# ---------------------------------------------------------------------------
# eval-direct

#: (dx_order, dq_order) mix: half values, half the derivatives that the zero
#: finders and the double-zero solve request.
DERIV_MIX = ((0, 0), (0, 0), (0, 0), (0, 0), (1, 0), (2, 0), (0, 1), (1, 1))
DIRECT_POOL = 2000


def _evaluate(q, x, dx, dq):
    if dx == 0 and dq == 0:
        return ptheta.theta_certified(q, x)
    return ptheta.theta_derivative(q, x, dx, dq)


def _eval_op(kind: str, q, x, dx=0, dq=0, **extra) -> Op:
    return Op(kind, lambda: _evaluate(q, x, dx, dq), (q, x, dx, dq), **extra)


def _reference(q, x, dx=0, dq=0):
    if dx == 0 and dq == 0:
        return oracle.theta_ref(q, x)
    return oracle.theta_deriv_ref(q, x, dx, dq)


def _eval_problems(outputs) -> list[str]:
    problems = []
    for op, cv in outputs:
        ref = op.expect if op.expect is not None else _reference(*op.args)
        problem = _enclosure_problem(f"{op.kind}{op.args}", cv, ref)
        if problem:
            problems.append(problem)
    return problems


class EvalDirect(Workload):
    """Independent points on the direct route: |q| in [0.02, 0.9] of both
    signs, |x| <= 10 (a third complex), values mixed with derivatives.

    One pool of DIRECT_POOL points drawn from the seed is replayed each round.
    """

    name = "eval-direct"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        n = DIRECT_POOL
        uq, us, ux, ua, uk = (_strata(rng, n) for _ in range(5))
        self.ops = []
        for i in range(n):
            q = (0.02 + 0.88 * uq[i]) * (1.0 if us[i] < 0.5 else -1.0)
            x = _argument(10.0 * ux[i], ua[i])
            dx, dq = DERIV_MIX[int(uk[i] * len(DERIV_MIX))]
            kind = "value" if dx == dq == 0 else "derivative"
            self.ops.append(_eval_op(kind, q, x, dx, dq))

    def rounds(self):
        while True:
            yield self.ops

    def check(self, outputs):
        return _eval_problems(outputs)


# ---------------------------------------------------------------------------
# eval-split

SPLIT_BATCH = 40
#: |x| is drawn only where the largest term stays within e^680: the
#: double-double splitter overflows near e^690, so values past it cannot be
#: certified.
SPLIT_LOG_TERM_MAX = 680.0
SPLIT_X_MAX = 300.0
#: q < 0 points whose quartic parts exceed |theta| by more than this factor
#: are redrawn: the parts are certified to about 1e-14 relative, so past
#: 100-fold cancellation the sum cannot be certified to 1e-12 relative.
QUARTIC_CANCELLATION_MAX = 100.0
#: Values past binary64: each must end in a PThetaError.  Not timed, and the
#: same in every round whatever the seed.
OUT_OF_RANGE = ((0.99, -100.0), (0.98, 316.0), (-0.99, 100j))


class EvalSplit(Workload):
    """A stream of independent points on the product-minus-tail split:
    |q| in [0.9, 0.99] of both signs (q < 0 via the quartic decomposition),
    |x| log-uniform from 1 to 300 or to the largest |x| whose largest term
    stays within e^680 (a third complex), each point with its own q.

    Each round draws SPLIT_BATCH new in-range points, then runs the fixed
    out-of-range slice.
    """

    name = "eval-split"
    repeats_inputs = False

    def rounds(self):
        rng = random.Random(self.seed)
        lx_max = math.log(SPLIT_X_MAX)
        oor = [_eval_op("out-of-range", q, x, timed=False, must_raise=True)
               for q, x in OUT_OF_RANGE]
        while True:
            n = SPLIT_BATCH
            uq, us, ux, ua = (_strata(rng, n) for _ in range(4))
            ops = []
            for i in range(n):
                q_abs = 0.9 + 0.09 * uq[i]
                q = q_abs if us[i] < 0.5 else -q_abs
                lx_top = _log_x_limit(q_abs, lx_max)
                lx = lx_top * ux[i]
                while True:
                    x = _argument(math.exp(lx), ua[i])
                    ref = _reference(q, x)
                    if q > 0 or quartic_cancellation(q, x, ref) <= QUARTIC_CANCELLATION_MAX:
                        break
                    lx = lx_top * rng.random()
                ops.append(_eval_op("split", q, x, expect=ref))
            yield ops + oor

    def check(self, outputs):
        return _eval_problems(outputs)


# ---------------------------------------------------------------------------
# solve

SPECTRAL_TASKS = (("A", 1), ("A", 2), ("A", 3), ("B", 1), ("B", 2), ("B", 3))
SPECTRAL_REF = {("A", 1): (0.3092493386, 1e-8), ("B", 1): (0.72713332, 1e-6),
                ("B", 2): (0.78374209, 1e-6), ("B", 3): (0.84160192, 1e-6)}
LINE_TASKS = (("separating", 0.35), ("separating", 0.6), ("separating", 0.8),
              ("left", -0.75), ("left", -0.85), ("right", -0.8), ("right", -0.85))
LINE_FLOOR = {"separating": 5.0, "left": 2.4, "right": 3.2}
#: (q, disk radius, explicit truncation order or None)
DISK_TASKS = ((0.5, 10.0, None), (-0.7, 10.0, None), (0.75, 49.8, None),
              (-0.9, 12.0, None), (-0.96, 3.0, 140))
PAIR_140 = complex(0.8246197382, 1.226652727)
#: (q, x_min, x_max); the last scan has |q| >= 0.95 and runs on the split
SCAN_TASKS = ((-0.78, 0.0, 3.2), (0.5, -1e4, 0.0), (-0.5, -1e3, 1e3),
              (0.7, -300.0, 0.0), (-0.8, -200.0, 200.0), (-0.95, -10.0, 10.0))


def _warm_spectral() -> None:
    # separating lines look these up; separate_s counts each solve once
    for k in (1, 2, 3):
        _SPECTRAL_CACHES[0](k)
        _SPECTRAL_CACHES[1](k)


def _spectral_op(case, k) -> Op:
    fn = {"A": lambda: ptheta.spectral_point_A(k),
          "B": lambda: ptheta.spectral_point_B(k)}[case]
    return Op("spectrum", fn, (case, k), prepare=clear_spectral_caches)


def _line_op(kind, q) -> Op:
    return Op("separate", lambda: ptheta.separating_line(q, kind), (kind, q),
              prepare=_warm_spectral)


def _disk_op(q, radius, n) -> Op:
    return Op("complex_zeros",
              lambda: ptheta.complex_zeros(q, ptheta.Disk(0.0, radius), n_override=n),
              (q, radius, n))


def _scan_op(q, lo, hi) -> Op:
    return Op("real_zeros", lambda: ptheta.real_zeros(q, lo, hi), (q, lo, hi))


def _check_spectral(outputs) -> list[str]:
    problems = []
    points = {op.args: p for op, p in outputs if op.kind == "spectrum"}
    for (case, k), p in sorted(points.items()):
        ref = SPECTRAL_REF.get((case, k))
        if ref and not abs(abs(p.q_star) - ref[0]) <= ref[1]:
            problems.append(f"spectral {case}{k}: q* = {p.q_star!r}, want {ref[0]} +- {ref[1]}")
        # theta and theta_x vanish at (q*, y) within the reported residual
        # plus the solve tolerance
        t0 = abs(oracle.theta_ref(p.q_star, p.y))
        t1 = abs(oracle.theta_deriv_ref(p.q_star, p.y, 1, 0))
        if not t0 <= p.residual_theta + DEFAULT_TOL:
            problems.append(f"spectral {case}{k}: oracle |theta| = {mp.nstr(t0, 5)}")
        if not t1 <= p.residual_theta_x + DEFAULT_TOL:
            problems.append(f"spectral {case}{k}: oracle |theta_x| = {mp.nstr(t1, 5)}")
    for case, step in (("A", 1), ("B", -1)):
        qs = [points[(case, k)].q_star for k in (1, 2, 3) if (case, k) in points]
        if not all(step * (b - a) > 0 for a, b in zip(qs, qs[1:])):
            problems.append(f"spectral {case}: not strictly ordered: {qs}")
    return problems


def _check_scans(outputs) -> list[str]:
    problems = []
    for op, records in outputs:
        if op.kind != "real_zeros":
            continue
        q, lo, hi = op.args
        for r in records:
            x = r.x.real
            d = 1e-9 * max(1.0, abs(x))
            signs = {mp.sign(oracle.theta_ref(q, x - d)), mp.sign(oracle.theta_ref(q, x + d))}
            if not lo <= x <= hi or signs != {-1, 1}:
                problems.append(f"real zero {x!r} at q={q}: no oracle sign change")
        if op.args == (-0.78, 0.0, 3.2):
            n_pos = sum(1 for r in records if 0.0 < r.x.real < 3.2)
            if n_pos != 3:
                problems.append(f"theta(-0.78, .) has {n_pos} positive zeros below 3.2, want 3")
    return problems


def _check_disks(outputs) -> list[str]:
    problems = []
    for op, records in outputs:
        if op.kind != "complex_zeros":
            continue
        q, radius, n = op.args
        if n is not None:
            # zeros of the explicit truncation, not of theta
            pairs = [complex(r.x) for r in records
                     if r.kind == "complex_pair" and 0.5 < r.x.real < 1.0]
            if len(pairs) != 1 or not (abs(pairs[0].real - PAIR_140.real) <= 1e-6
                                       and abs(pairs[0].imag - PAIR_140.imag) <= 1e-6):
                problems.append(f"degree-{n} pair at q={q}: got {pairs}")
            continue
        for r in records:
            z = complex(r.x)
            f = oracle.theta_ref(q, z)
            fx = oracle.theta_deriv_ref(q, z, 1, 0)
            step = abs(f / fx) if fx != 0 else mp.inf
            if not abs(z) <= radius or not step <= 1e-8 * max(1.0, abs(z)):
                problems.append(f"complex zero {z!r} at q={q}: oracle Newton step {mp.nstr(step, 3)}")
    return problems


def _check_lines(outputs) -> list[str]:
    problems = []
    for op, res in outputs:
        if op.kind != "separate":
            continue
        kind, q = op.args
        line = res.line_re
        bad = [r.x for r in res.left if not r.x.real < line]
        bad += [r.x for r in res.right if not r.x.real > line]
        if res.a < LINE_FLOOR[kind] or not res.margin > 0 or bad or res.degenerate:
            problems.append(f"{kind} line at q={q}: a={res.a!r} margin={res.margin!r} "
                            f"degenerate={res.degenerate} misplaced={bad}")
    return problems


class Solve(Workload):
    """Fixed time-to-solution tasks: cold spectral values, separating lines
    (spectral caches warm), complex-zero solves in disks and real-zero scans.
    The list does not depend on the seed."""

    name = "solve"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ops = ([_spectral_op(*t) for t in SPECTRAL_TASKS]
                    + [_line_op(*t) for t in LINE_TASKS]
                    + [_disk_op(*t) for t in DISK_TASKS]
                    + [_scan_op(*t) for t in SCAN_TASKS])

    def rounds(self):
        while True:
            yield self.ops

    def check(self, outputs):
        return (_check_spectral(outputs) + _check_lines(outputs)
                + _check_disks(outputs) + _check_scans(outputs))

    def breakdown(self, per_round):
        names = (("real_zeros", "real_zeros_s"), ("complex_zeros", "complex_zeros_s"),
                 ("spectrum", "spectrum_s"), ("separate", "separate_s"))
        return [f"{label} = {statistics.median(r.get(kind, 0.0) for r in per_round):.4f} s "
                f"(median of {len(per_round)} rounds)" for kind, label in names]


# ---------------------------------------------------------------------------
# verify

#: The near-|q| = 1 scans (b-rect-*), q sweeps at fixed x, and one claim of
#: every other family.  Left out for run length: a-rect-interior-no-zeros
#: (~65 s) and b-rect-pos-single-zero (~8 s).
VERIFY_CLAIMS = (
    "b-rect-neg-no-zeros", "b-rect-neg-boundary-q075", "b-rect-neg-boundary-x31",
    "a-rect-edge-q04", "a-rect-edge-x105", "b-strip-x32-deep",
    "b-x24-signs", "b-theta-at-one-positive", "a-second-x-derivative-positive",
    "phi1-initial-slope", "b-quadratic-V-negative", "b-anchor-signs",
    "b-index-string-ordering", "unit-disk-zero-free", "a-clipped-halfdisk-zero-free",
    "phi-decreasing-k1", "a-diagonal-monotone-a2.5", "a-even-zero-increasing-k1",
)
IDENTITY_CLAIMS = ("identity-decomposition", "identity-functional-equation",
                   "identity-mixed-derivatives", "identity-pde", "identity-product-split")
IDENTITY_SAMPLES = 100
VERIFY_ARGV = ("verify", "--suite", ",".join(VERIFY_CLAIMS + IDENTITY_CLAIMS),
               "--format", "json", "--identity-samples", str(IDENTITY_SAMPLES))


def _verify_command():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ptheta.cli.main(list(VERIFY_ARGV))
    return code, out.getvalue()


class Verify(Workload):
    """``ptheta verify`` run in process over a fixed claim list, spectral
    caches cleared first as in a fresh process."""

    name = "verify"

    def rounds(self):
        op = Op("verify", _verify_command, VERIFY_ARGV, prepare=clear_spectral_caches)
        while True:
            yield [op]

    def check(self, outputs):
        import jsonschema

        problems = []
        for _, (code, text) in outputs:
            try:
                payload = json.loads(text)
            except ValueError:
                problems.append(f"verify printed no JSON: {text[:200]!r}")
                continue
            try:
                jsonschema.validate(payload, serialize.SCHEMAS["claims"])
            except jsonschema.ValidationError as exc:
                problems.append(f"verify JSON fails the claims schema: {exc.message}")
            status = {c["id"]: c["status"] for c in payload}
            for cid in VERIFY_CLAIMS + IDENTITY_CLAIMS:
                if status.get(cid) != "verified":
                    problems.append(f"claim {cid}: {status.get(cid)}")
            if code != 0:
                problems.append(f"verify exited with {code}")
        return problems

    def breakdown(self, per_round):
        return [f"verify_s = {statistics.median(r['verify'] for r in per_round):.4f} s "
                f"(median of {len(per_round)} rounds)"]


WORKLOADS = {w.name: w for w in (EvalDirect, EvalSplit, Solve, Verify)}
