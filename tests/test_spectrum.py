"""Double-zero parameter values: locations, characters, ordering, counts."""

import mpmath as mp
import pytest

from ptheta import spectrum
from ptheta.errors import DomainError, IndeterminateSignError, SeedFailureError
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
        qs = [spectral_a[k].q_star for k in sorted(spectral_a)]
        assert 0 < qs[0] and all(a < b for a, b in zip(qs, qs[1:])) and qs[-1] < 1

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
        # odd k: negative-axis local minimum; even k: positive-axis maximum
        for k, p in spectral_b.items():
            assert (p.y < 0) == (k % 2 == 1), k
            assert p.character == ("local_min" if k % 2 else "local_max"), k
            assert p.residual_theta <= 1e-12 and p.residual_theta_x <= 1e-12, k

    def test_interval_membership(self, spectral_b):
        for k in spectral_b:
            assert double_zero_interval_check(spectral_b[k])

    def test_interval_check_requires_case_b(self, spectral_a):
        with pytest.raises(DomainError):
            double_zero_interval_check(spectral_a[1])


# (q*, y) of A1-A6 and B1-B6 from Newton seeded by a real-zero scan and
# trajectory continuation: an independent route to the same double zeros
REFERENCE_POINTS = {
    ("A", 1): (0.3092493386000771, -7.503255964244164),
    ("A", 2): (0.5169593597880523, -11.71316821892421),
    ("A", 3): (0.6306283160631743, -14.068512932539862),
    ("A", 4): (0.7012650700827319, -15.57816899725596),
    ("A", 5): (0.7492689316356146, -16.633376738206376),
    ("A", 6): (0.7839844578387184, -17.41541487160217),
    ("B", 1): (-0.7271333254557867, -2.9911151759058257),
    ("B", 2): (-0.7837420931951357, 2.9067841754095674),
    ("B", 3): (-0.8416019224705502, -3.620835689205324),
    ("B", 4): (-0.8612572687511838, 3.5236182083541867),
    ("B", 5): (-0.8879528170535194, -3.9086471607358457),
    ("B", 6): (-0.897904334964027, 3.8227863050275066),
}


class TestClosedFormSeeds:
    def test_reference_values_and_oracle_residuals(self, spectral_a, spectral_b):
        points = {("A", k): p for k, p in spectral_a.items()}
        points.update({("B", k): p for k, p in spectral_b.items()})
        assert set(points) == set(REFERENCE_POINTS)
        for key, (q_ref, y_ref) in REFERENCE_POINTS.items():
            p = points[key]
            assert abs(p.q_star - q_ref) <= 1e-10, key
            assert abs(p.y - y_ref) <= 1e-8, key
            assert abs(theta_ref(p.q_star, p.y)) <= p.residual_theta + 1e-12, key
            assert (abs(theta_deriv_ref(p.q_star, p.y, 1, 0))
                    <= p.residual_theta_x + 1e-12), key

    def test_wrong_seed_fails_the_index_check(self, monkeypatch):
        # each borrowed seed converges to another double zero, which lies
        # outside the gap or anchor interval of the requested index
        seed = spectrum._collision_seed
        borrowed = {("A", 2): ("A", 3), ("A", 3): ("A", 1), ("B", 2): ("B", 4)}
        monkeypatch.setattr(spectrum, "_collision_seed",
                            lambda case, k: seed(*borrowed.get((case, k), (case, k))))
        spectral_point_A.cache_clear()
        spectral_point_B.cache_clear()
        try:
            for case, k in borrowed:
                with pytest.raises(SeedFailureError):
                    spectral_point(case, k)
        finally:
            spectral_point_A.cache_clear()
            spectral_point_B.cache_clear()


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
