"""Double-zero parameter values: locations, characters, ordering, counts."""

import mpmath as mp
import pytest

from ptheta.errors import DomainError, IndeterminateSignError
from ptheta.oracle import theta_deriv_ref, theta_ref
from ptheta.spectrum import (
    double_zero_interval_check,
    ordering_check,
    pair_count_between,
    sign_at_anchor,
    spectral_point,
    spectral_point_A,
    spectral_point_B,
)

Q1_REFERENCE = 0.3092493386
QBAR_MAGNITUDES = {1: 0.72713332, 2: 0.78374209, 3: 0.84160192}


class TestCaseA:
    def test_first_value_digits(self, spectral_a):
        assert abs(spectral_a[1].q_star - Q1_REFERENCE) < 1e-9

    def test_first_double_zero_left_of_minus6(self, spectral_a):
        assert spectral_a[1].y < -6.0

    def test_rightmost_property(self, spectral_a):
        from ptheta.zeros import real_zeros

        p = spectral_a[1]
        others = real_zeros(p.q_star, 8.0 * p.y, p.y - 0.5)
        assert others, "expected further zeros to the left"
        nothing_right = real_zeros(p.q_star, p.y + 0.5, 0.0)
        assert nothing_right == []

    def test_ordering_and_growth(self, spectral_a):
        assert 0 < spectral_a[1].q_star < spectral_a[2].q_star < spectral_a[3].q_star < 1

    def test_character_and_multiplicity(self, spectral_a):
        for p in spectral_a.values():
            assert p.character == "local_min"
            assert p.residual_theta <= 1e-12
            assert p.residual_theta_x <= 1e-12
            assert abs(p.theta_xx) > 1e-9

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            spectral_point_A(0)
        with pytest.raises(DomainError):
            spectral_point_A(7)


class TestCaseB:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_magnitudes(self, spectral_b, k):
        assert abs(abs(spectral_b[k].q_star) - QBAR_MAGNITUDES[k]) < 1e-6
        assert spectral_b[k].q_star < 0  # stored negative

    def test_parity_of_double_zeros(self, spectral_b):
        assert spectral_b[1].y < 0 and spectral_b[1].character == "local_min"
        assert spectral_b[2].y > 0 and spectral_b[2].character == "local_max"
        assert spectral_b[3].y < 0 and spectral_b[3].character == "local_min"

    def test_interval_membership(self, spectral_b):
        for k in (1, 2, 3):
            assert double_zero_interval_check(spectral_b[k])

    def test_interval_check_requires_case_b(self, spectral_a):
        with pytest.raises(DomainError):
            double_zero_interval_check(spectral_a[1])


class TestIndependentOracle:
    def test_second_value_by_critical_value_bisection(self, spectral_a):
        # independent route: bisect in q on the dip value theta(q, x_c(q)),
        # x_c the critical point between the third and fourth zeros
        def crit_x(q, lo, hi, dps=20):
            with mp.workdps(dps):
                a, b = mp.mpf(lo), mp.mpf(hi)
                fa = theta_deriv_ref(q, a, 1, 0, dps)
                for _ in range(60):
                    m = (a + b) / 2
                    fm = theta_deriv_ref(q, m, 1, 0, dps)
                    if mp.sign(fm) == mp.sign(fa):
                        a, fa = m, fm
                    else:
                        b = m
                return (a + b) / 2

        def dip_value(q):
            xc = crit_x(q, -1.35 / q**4, -1.05 / q**3)
            return theta_ref(q, xc, 25)

        a, b = 0.45, 0.57
        ga = dip_value(a)
        for _ in range(36):
            m = (a + b) / 2
            gm = dip_value(m)
            if mp.sign(gm) == mp.sign(ga):
                a, ga = m, gm
            else:
                b = m
        q2_oracle = float((a + b) / 2)
        assert abs(q2_oracle - spectral_a[2].q_star) < 1e-8


class TestOrdering:
    def test_both_cases(self, spectral_a, spectral_b):
        report = ordering_check(list(spectral_a.values()) + list(spectral_b.values()))
        assert report["ordered"]
        assert report["cases"]["A"]["ordered"]
        assert report["cases"]["B"]["ordered"]

    def test_single_point_trivial(self, spectral_a):
        assert ordering_check([spectral_a[1]])["ordered"]

    def test_dispatch(self):
        with pytest.raises(DomainError):
            spectral_point("C", 1)


class TestPairCounts:
    def test_case_a_staircase(self):
        assert pair_count_between("A", 0) == 0
        assert pair_count_between("A", 1) == 1
        assert pair_count_between("A", 2) == 2

    def test_case_b_first_gap(self):
        assert pair_count_between("B", 0) == 0
        assert pair_count_between("B", 1) == 1


class TestHalfPlaneConfinement:
    def test_pairs_keep_their_birth_side(self, spectral_b):
        # each collision on the negative axis adds a negative-real-part pair,
        # each on the positive axis a positive one; none ever migrates across
        from ptheta.spectrum import spectral_point_B
        from ptheta.zeros import Disk, complex_zeros

        q4 = spectral_point_B(4).q_star
        mids = {
            1: 0.5 * (spectral_b[1].q_star + spectral_b[2].q_star),
            2: 0.5 * (spectral_b[2].q_star + spectral_b[3].q_star),
            3: 0.5 * (spectral_b[3].q_star + q4),
        }
        expected_neg = {1: 1, 2: 1, 3: 2}
        for k, q in mids.items():
            pairs = [r for r in complex_zeros(q, Disk(0.0, 30.0))
                     if r.kind == "complex_pair"]
            assert len(pairs) == k
            assert all(abs(p.x.real) > 1e-6 for p in pairs)
            neg = sum(p.x.real < 0 for p in pairs)
            assert neg == expected_neg[k]

    def test_real_zero_count_drops_by_two_across_collision(self, spectral_a):
        from ptheta.zeros import real_zeros

        # window cut at -200 sits in the gap between the fourth and fifth
        # zeros for both sampled q, so no zero drifts across the cut
        q1 = spectral_a[1].q_star
        lo = len(real_zeros(q1 - 0.02, -200.0, 0.0))
        hi = len(real_zeros(q1 + 0.02, -200.0, 0.0))
        assert lo - hi == 2


class TestAnchorSigns:
    @pytest.mark.parametrize("q", [-0.3, -0.5, -0.9, -0.95, -0.99])
    @pytest.mark.parametrize("s", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_certified_signs(self, q, s):
        even, odd = sign_at_anchor(q, s)
        if s >= 1:
            assert even.sign() == 1
        assert odd.sign() == -1
        # reference q^m theta(q, -q^m): summing at x = -q^{-m} directly would
        # carry the rounding of x itself into the reference
        for m, cv in ((2 * s, even), (2 * s + 1, odd)):
            with mp.workdps(60):
                qm = mp.mpf(q) ** m
                ref = qm * theta_ref(q, -qm)
            assert abs(mp.mpf(cv.value) - ref) <= cv.err, (q, m)

    def test_matches_direct_evaluation(self):
        # the reduced two-tail form must agree with plain summation
        q, s = -0.5, 1
        even, odd = sign_at_anchor(q, s)
        ref_even = theta_ref(q, -(mp.mpf(q) ** (-2 * s)))
        ref_odd = theta_ref(q, -(mp.mpf(q) ** (-2 * s - 1)))
        assert abs(mp.mpf(even.value) - ref_even) <= even.err + 1e-25
        assert abs(mp.mpf(odd.value) - ref_odd) <= odd.err + 1e-25

    def test_rejects_positive_q(self):
        with pytest.raises(DomainError):
            sign_at_anchor(0.5, 1)
