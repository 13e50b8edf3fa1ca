"""Truncation orders, error bookkeeping, and the CertifiedValue contract."""

import math
import random

import mpmath as mp
import pytest

from ptheta.certified import (
    LN2,
    CertifiedValue,
    deriv_coeff,
    derivative_truncation,
    n_cap,
    tri,
    truncation_order,
)
from ptheta.core import pde_residual, theta_derivative
from ptheta.errors import DomainError, IndeterminateSignError, InfeasibleToleranceError
from ptheta.oracle import theta_deriv_ref

SUPPORTED_ORDERS = [(m, nq) for m in range(5) for nq in range(3) if m + nq > 0]


def tail_direct(q, x, n):
    # first omitted term over 1 - ratio, straight from the definition
    return q ** tri(n + 1) * x ** (n + 1) / (1.0 - q ** (n + 2) * x)


def bisection_order(q_abs, x_abs, tol):
    """Reference order solve: bisection for the smallest N up to the cap."""
    if x_abs == 0.0 or q_abs == 0.0:
        return 0, 0.0
    cap = n_cap()
    lq, lx, log_tol = math.log(q_abs), math.log(x_abs), math.log(tol)

    def log_tail(n):
        r = math.exp(min((n + 2) * lq + lx, -LN2))
        return tri(n + 1) * lq + (n + 1) * lx - math.log1p(-r)

    n0 = max(0, math.ceil((-LN2 - lx) / lq) - 1)
    while (n0 + 1) * lq + lx > -LN2:
        n0 += 1
    if n0 > cap:
        raise InfeasibleToleranceError("ratio order past the cap")
    if log_tail(n0) <= log_tol:
        n = n0
    else:
        lo, hi = n0, cap
        if log_tail(hi) > log_tol:
            raise InfeasibleToleranceError("tolerance unreachable")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if log_tail(mid) <= log_tol:
                hi = mid
            else:
                lo = mid
        n = hi
    return n, math.exp(min(log_tail(n) + 1e-6, 700.0))


def outcome(solve, *args):
    try:
        return solve(*args)
    except InfeasibleToleranceError:
        return "infeasible"


def sweep_points(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.choice([rng.uniform(0.0, 1.0), 1.0 - 10 ** rng.uniform(-5, 0),
                        10 ** rng.uniform(-300, 0)])
        x = rng.choice([10 ** rng.uniform(-300, 300), 10 ** rng.uniform(-3, 3),
                        rng.uniform(0.0, 10.0)])
        yield q, x, 10 ** rng.uniform(-300, 3)


class TestTruncationOrder:
    def test_zero_x(self):
        assert truncation_order(0.5, 0.0, 1e-30) == (0, 0.0)

    def test_known_high_precision_case(self):
        # q = 0.95, x = 6: order ~100 drives the tail below 1e-30
        n, tail = truncation_order(0.95, 6.0, 1e-30)
        assert n <= 100
        assert tail <= 1e-30
        assert 0.95 ** (n + 1) * 6.0 <= 0.5
        # at order exactly 100 the first omitted term is ~7e-37
        t101 = 101 * math.log(6.0) + tri(101) * math.log(0.95)
        assert 1e-37 < math.exp(t101) < 1e-36

    def test_second_margin_case(self):
        # q = 0.97, x = 2.4: order 100 meets both conditions for 1e-29
        n, tail = truncation_order(0.97, 2.4, 1e-29)
        assert n <= 100
        assert 0.97 ** 101 * 2.4 <= 0.5
        assert tail_direct(0.97, 2.4, 100) < 1e-29

    @pytest.mark.parametrize("q,x,tol", [(0.3, 5.0, 1e-10), (0.9, 1.5, 1e-13),
                                         (0.5, 100.0, 1e-8), (0.05, 1e6, 1e-12)])
    def test_minimality_and_postconditions(self, q, x, tol):
        n, tail = truncation_order(q, x, tol)
        assert q ** (n + 1) * x <= 0.5
        assert tail <= tol * 1.001
        assert tail_direct(q, x, n) <= tol
        if n > 0:
            ratio_ok = q**n * x <= 0.5
            prev_ok = ratio_ok and tail_direct(q, x, n - 1) <= tol
            assert not prev_ok, "returned order is not minimal"

    def test_q_at_or_above_one_rejected(self):
        with pytest.raises(DomainError):
            truncation_order(1.0, 2.0, 1e-10)

    def test_infeasible_tolerance(self, monkeypatch):
        monkeypatch.setenv("THETA_MAX_N", "40")
        with pytest.raises(InfeasibleToleranceError):
            truncation_order(0.99, 6.0, 1e-30)

    def test_exact_exponent_at_2000(self):
        assert tri(2000) == 2000 * 2001 // 2 == 2001000

    def test_matches_bisection(self):
        for q, x, tol in sweep_points(11, 4000):
            assert outcome(truncation_order, q, x, tol) == outcome(bisection_order, q, x, tol), (q, x, tol)

    @pytest.mark.parametrize("cap", ["1", "7", "60", "500"])
    def test_matches_bisection_under_low_cap(self, cap, monkeypatch):
        monkeypatch.setenv("THETA_MAX_N", cap)
        results = set()
        for q, x, tol in sweep_points(int(cap), 1500):
            got = outcome(truncation_order, q, x, tol)
            assert got == outcome(bisection_order, q, x, tol), (q, x, tol)
            results.add(got == "infeasible")
        assert results == {True, False}

    def test_rejects_non_finite_x(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                truncation_order(0.5, bad, 1e-12)


class TestDerivativeTruncation:
    @pytest.mark.parametrize("m,nq", [(1, 0), (2, 0), (4, 0), (0, 1), (0, 2), (2, 1)])
    def test_tail_dominates_brute_force(self, m, nq):
        from ptheta.certified import deriv_coeff

        q, x = 0.8, 4.0
        n, tail = derivative_truncation(q, x, m, nq, 1e-12)
        brute = sum(
            deriv_coeff(j, m, nq) * q ** (tri(j) - nq) * x ** (j - m)
            for j in range(n + 1, n + 400)
        )
        assert brute <= tail <= 1e-12 * 1.001

    @pytest.mark.parametrize("m,nq", SUPPORTED_ORDERS)
    def test_smallest_order(self, m, nq):
        rng = random.Random(100 * m + nq)
        for _ in range(150):
            q = rng.choice([rng.uniform(0.01, 0.99), 1.0 - 10 ** rng.uniform(-3, -1)])
            x = 10 ** rng.uniform(-4, 2.5)
            tol = 10 ** rng.uniform(-30, 0)
            lq, lx = math.log(q), math.log(x)

            def log_term(j):
                return math.log(deriv_coeff(j, m, nq)) + (tri(j) - nq) * lq + (j - m) * lx

            j0 = m
            while deriv_coeff(j0, m, nq) == 0:
                j0 += 1
            n = max(j0 + 2, 3)
            while not (log_term(n + 2) - log_term(n + 1) <= -LN2
                       and log_term(n + 1) + LN2 <= math.log(tol)):
                n += 1
            tail = math.exp(min(log_term(n + 1) + LN2 + 1e-6, 700.0))
            assert derivative_truncation(q, x, m, nq, tol) == (n, tail), (q, x, tol)

    def test_infeasible_under_low_cap(self, monkeypatch):
        monkeypatch.setenv("THETA_MAX_N", "30")
        with pytest.raises(InfeasibleToleranceError):
            derivative_truncation(0.99, 6.0, 2, 1, 1e-12)
        assert derivative_truncation(0.5, 6.0, 2, 1, 1e-12)[0] <= 30

    @pytest.mark.parametrize("m,nq", SUPPORTED_ORDERS)
    def test_enclosure_complex_x(self, m, nq):
        rng = random.Random(7 + 10 * m + nq)
        for _ in range(6):
            q = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.9)
            x = complex(rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0))
            tol = rng.choice([1e-9, 1e-12])
            cv = theta_derivative(q, x, m, nq, tol)
            gap = abs(mp.mpc(cv.value) - theta_deriv_ref(q, x, m, nq))
            assert gap <= cv.err, (q, x, tol, cv)


class TestDerivativesNearOne:
    """Points near |q| = 1 where the terms exceed the derivative by many
    orders of magnitude (or binary64 itself): the integer kernel pays for the
    cancellation in bits, so each err stays at 1e-12 relative."""

    @pytest.mark.parametrize("q,x,m,nq", [
        (0.95, -30.0, 2, 0),
        (0.99, -6.0, 0, 1),
        (0.99, -50.0, 1, 0),
        (0.92638, -20.89, 2, 0),
        (0.92638, -20.89, 0, 1),
    ])
    def test_encloses_reference(self, q, x, m, nq):
        cv = theta_derivative(q, x, m, nq)
        ref = theta_deriv_ref(q, x, m, nq, dps=30)
        assert abs(mp.mpf(cv.value) - ref) <= cv.err
        assert cv.err <= 1e-12 * max(1.0, abs(cv.value))

    def test_pde_residual_certifies_zero(self):
        q, x = 0.99, -50.0
        r = pde_residual(q, x)
        scale = (abs(2 * q * theta_derivative(q, x, 0, 1).value)
                 + abs(2 * x * theta_derivative(q, x, 1, 0).value)
                 + abs(x * x * theta_derivative(q, x, 2, 0).value))
        assert abs(r.value) <= r.err <= 1e-12 * scale


class TestCertifiedValue:
    def test_sign_decisions(self):
        assert CertifiedValue(2.0, 0.5).sign() == 1
        assert CertifiedValue(-2.0, 0.5).sign() == -1
        with pytest.raises(IndeterminateSignError):
            CertifiedValue(0.3, 0.5).sign()

    def test_comparisons(self):
        cv = CertifiedValue(1.0, 0.1)
        assert cv.definitely_greater(0.5)
        assert not cv.definitely_greater(0.95)
        assert cv.definitely_less(1.5)
        assert cv.is_indeterminate_vs(1.05)

    def test_arithmetic_propagates_err(self):
        a = CertifiedValue(1.0, 1e-10)
        b = CertifiedValue(2.0, 1e-12)
        assert (a + b).err >= 1e-10 + 1e-12
        assert (a - b).err >= 1e-10 + 1e-12
        assert a.scaled(10.0).err >= 1e-9
        assert a.mul(b).err >= 2e-10

    def test_err_must_be_finite_nonnegative(self):
        with pytest.raises(ValueError):
            CertifiedValue(1.0, -1e-3)
        with pytest.raises(ValueError):
            CertifiedValue(1.0, math.inf)
