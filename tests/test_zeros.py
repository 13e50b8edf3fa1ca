"""Real-zero scanning, winding counts, the polynomial route, and tracking."""

import math

import pytest

from ptheta.errors import AmbiguousIndexError, ContourError, DomainError
from ptheta.zeros import (
    ClippedLeftHalfDisk,
    Disk,
    HalfAnnulusRight,
    Rectangle,
    assign_case_b_indices,
    complex_zeros,
    real_zeros,
    track_zero,
    track_zeros,
    zero_count,
)

FIRST_COLLISION_Q = 0.3092493386


class TestRealZeros:
    def test_case_a_anchor_spacing(self):
        records = real_zeros(0.1, -1e6, 0.0)
        assert len(records) == 5
        by_right = sorted(records, key=lambda r: -r.x.real)
        for j, r in enumerate(by_right[:3], start=1):
            anchor = -(0.1 ** -j)
            assert abs(r.x.real - anchor) / abs(anchor) < 0.2
            assert r.index == j
        assert all(r.residual <= 10 * r.err for r in records)

    def test_window_examples(self):
        assert len(real_zeros(0.265, -6.1, -6.0)) == 1
        assert len(real_zeros(-0.7, -2.7, -2.6)) == 1
        assert len(real_zeros(-0.78, 2.7, 2.8)) == 1

    def test_three_positive_zeros(self):
        rz = real_zeros(-0.78, 0.0, 3.2)
        assert [round(r.x.real, 2) for r in rz] == [1.03, 2.76, 3.16]

    def test_no_positive_zeros_case_a(self):
        assert real_zeros(0.5, 0.0, 40.0) == []

    def test_case_b_index_parity(self):
        records = real_zeros(-0.1, -1.5e4, 1.5e3)
        assert all(r.index is not None for r in records)
        for r in records:
            assert (r.index % 2 == 1) == (r.x.real > 0)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            real_zeros(0.5, 2.0, -2.0)

    @pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
    def test_rejects_non_finite_bounds(self, lo, hi):
        with pytest.raises(DomainError):
            real_zeros(0.5, lo, hi)


class TestIndexAssignment:
    def test_anchor_claim_conflict(self):
        from dataclasses import replace
        from ptheta.zeros import ZeroRecord

        fake = [ZeroRecord(q=-0.3, x=10.0 / 3.0, kind="real"),
                ZeroRecord(q=-0.3, x=3.5, kind="real")]
        with pytest.raises(AmbiguousIndexError):
            assign_case_b_indices(-0.3, fake)

    def test_requires_negative_q(self):
        with pytest.raises(DomainError):
            assign_case_b_indices(0.3, [])


class TestWinding:
    @pytest.mark.parametrize("q", [0.2, 0.5, 0.9, -0.3, -0.7, -0.95])
    def test_unit_circle_empty(self, q):
        assert zero_count(q, Disk(0.0, 1.0)) == 0

    def test_count_matches_real_zeros(self):
        n_real = len(real_zeros(0.2, -20.0, 0.0))
        assert zero_count(0.2, Disk(0.0, 20.0)) == n_real

    def test_half_annulus_at_04_empty(self):
        # the only pair at q = 0.4 sits at Re < 0, outside this region
        assert zero_count(0.4, HalfAnnulusRight()) == 0

    def test_half_annulus_nonempty_when_pair_migrates(self):
        assert zero_count(0.75, HalfAnnulusRight()) == 2

    def test_clipped_halfdisk_empty(self):
        for q in (0.25, 0.6):
            assert zero_count(q, ClippedLeftHalfDisk()) == 0

    def test_rectangle_boundary(self):
        # a rectangle enclosing the first two real zeros at q = 0.2
        rect = Rectangle(-30.0, -2.0, -1.0, 1.0)
        assert zero_count(0.2, rect) == 2

    def test_contour_through_zero_detected(self):
        rz = real_zeros(0.265, -6.1, -6.0)[0]
        with pytest.raises(ContourError):
            zero_count(0.265, Disk(0.0, abs(rz.x.real)), tol=1e-8)


class TestComplexZeros:
    def test_all_real_below_first_collision(self):
        records = complex_zeros(0.2, Disk(0.0, 5.0))
        assert all(r.kind == "real" for r in records)

    def test_one_pair_between_collisions(self):
        records = complex_zeros(0.4, Disk(0.0, 10.0))
        pairs = [r for r in records if r.kind == "complex_pair"]
        assert len(pairs) == 1
        assert pairs[0].x.imag > 0  # upper representative

    def test_truncation_140_study(self):
        records = complex_zeros(-0.96, Disk(0.0, 3.0), n_override=140)
        pairs = [r for r in records
                 if r.kind == "complex_pair" and 0.5 < r.x.real < 1.0]
        assert len(pairs) == 1
        z = pairs[0].x
        assert abs(z.real - 0.8246197382) < 1e-6
        assert abs(z.imag - 1.226652727) < 1e-6
        ones = [r for r in records
                if r.kind == "real" and 1.0 <= r.x.real <= 1.0 + 1e-6]
        assert len(ones) == 1

    def test_cap_without_override(self):
        with pytest.raises(DomainError):
            complex_zeros(-0.96, Disk(0.0, 3.0))

    def test_residual_invariant(self):
        for r in complex_zeros(0.5, Disk(0.0, 20.0)):
            assert r.residual <= 10 * r.err


class TestNearDouble:
    def test_pair_resolved_just_below_collision(self, spectral_a):
        p = spectral_a[1]
        rz = [r for r in real_zeros(p.q_star - 1e-6, -12.0, -4.0)
              if abs(r.x.real - p.y) < 1.0]
        assert sum(r.multiplicity for r in rz) == 2
        assert all(abs(r.x.real - p.y) < 0.1 for r in rz)

    def test_pair_gone_just_above_collision(self, spectral_a):
        p = spectral_a[1]
        q_hi = p.q_star + 1e-6
        rz = [r for r in real_zeros(q_hi, -12.0, -4.0)
              if abs(r.x.real - p.y) < 1.0]
        assert sum(r.multiplicity for r in rz) == 0
        # the two zeros became a conjugate pair, still inside a local disk
        assert zero_count(q_hi, Disk(p.y, 1.0)) == 2


class TestTracking:
    def test_pair_collision_near_first_spectral_value(self):
        rz = sorted(real_zeros(0.25, -300.0, 0.0), key=lambda r: -r.x.real)
        trajs = track_zeros([rz[0].x, rz[1].x], 0.25, 0.35, max_step=0.005)
        assert trajs[0].collision_q is not None
        assert abs(trajs[0].collision_q - FIRST_COLLISION_Q) < 5e-3
        assert trajs[0].collision_partner == 1

    def test_single_zero_stays_real_and_smooth(self):
        start = real_zeros(0.05, -30.0, 0.0)[-1]  # rightmost
        traj = track_zero(start, 0.30, max_step=0.01)
        assert traj.collision_q is None
        assert all(abs(p.imag) < 1e-12 for p in traj.points)
        # no teleporting between steps: each move small relative to |x|
        for a, b in zip(traj.points, traj.points[1:]):
            assert abs(b - a) < 0.4 * abs(a)

    def test_even_zero_increases(self):
        rz = sorted(real_zeros(0.05, -900.0, 0.0), key=lambda r: -r.x.real)
        traj = track_zero((0.05, rz[1].x), 0.30, max_step=0.01)
        xs = [p.real for p in traj.points]
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_case_b_direction(self):
        rz = real_zeros(-0.4, -50.0, 50.0)
        by_index = {r.index: r for r in rz if r.index is not None}
        trajs = track_zeros([by_index[2].x, by_index[4].x], -0.4, -0.76,
                            max_step=0.005)
        assert trajs[0].collision_q is not None
        assert abs(abs(trajs[0].collision_q) - 0.72713332) < 5e-3

    def test_bad_direction(self):
        with pytest.raises(DomainError):
            track_zeros([-10.0], 0.3, -0.3)
