"""Separating lines and the modulus-monotonicity probes behind them."""

import mpmath as mp
import pytest

from ptheta.errors import DomainError
from ptheta.separation import (
    _PROBE_KINDS,
    _g_block_majorant,
    left_separating_line_B,
    monotonicity_in_b_probe,
    right_separating_line_B,
    separating_line,
    separating_line_A,
)

B_GRID = [0.0, 0.5, 1.0, 2.0, 4.0, 7.0, 10.0]


class TestCaseALines:
    @pytest.mark.parametrize("q", [0.35, 0.4, 0.5, 0.6, 0.7])
    def test_bound_and_margin(self, q):
        res = separating_line_A(q)
        assert res.a >= 5.0
        assert res.margin > 0
        assert not res.degenerate
        line = -res.a
        assert all(r.x.real < line for r in res.left)
        assert all(p.x.real > line for p in res.right)

    def test_degenerate_below_first_collision(self):
        res = separating_line_A(0.2)
        assert res.degenerate and res.a == 5.0 and res.margin > 0
        assert res.right == ()

    def test_single_pair_band(self):
        res = separating_line_A(0.4)
        assert len(res.right) == 1

    def test_rejects_negative_q(self):
        with pytest.raises(DomainError):
            separating_line_A(-0.5)


class TestCaseBLines:
    @pytest.mark.parametrize("q", [-0.75, -0.8, -0.9])
    def test_left_bound(self, q):
        res = left_separating_line_B(q)
        assert res.a >= 2.4 and res.margin > 0
        line = -res.a
        assert all(r.x.real < line for r in res.left)
        assert all(r.x.real > line for r in res.right)

    def test_left_degenerate(self):
        res = left_separating_line_B(-0.5)
        assert res.degenerate and res.a == 2.4 and res.margin > 0

    @pytest.mark.parametrize("q", [-0.8, -0.85, -0.9, -0.96])
    def test_right_bound(self, q):
        res = right_separating_line_B(q)
        assert res.a >= 3.2 and res.margin > 0
        assert all(r.x.real < res.a for r in res.left)
        assert all(r.x.real > res.a for r in res.right)

    def test_right_keeps_smallest_positive_left(self):
        res = right_separating_line_B(-0.8)
        poss_left = [r for r in res.left if r.kind == "real" and r.x.real > 0]
        assert len(poss_left) == 1
        assert poss_left[0].x.real < 1.5  # the near-1 zero

    def test_right_pair_left_of_line_deep(self):
        res = right_separating_line_B(-0.96)
        pair_res = [r for r in res.left if r.kind == "complex_pair"
                    and abs(r.x - complex(0.8246197382, 1.226652727)) < 1e-5]
        assert pair_res, "the known positive-part pair must sit left of the line"

    def test_right_degenerate(self):
        res = right_separating_line_B(-0.5)
        assert res.degenerate and res.a == 3.2

    @pytest.mark.parametrize("kind,q,a,margin", [
        ("separating", 0.5, 7.834526906503678, 2.834526906503678),
        ("left", -0.8, 3.1832531860129576, 0.7832531860129577),
        ("right", -0.8, 4.000764013619651, 0.8007640136196503),
        ("separating", 0.35, 14.871740777763954, 8.720859280391263),
        ("separating", 0.6, 10.874109922324246, 3.2748539602856557),
        ("separating", 0.8, 16.840177505104226, 1.848285633112301),
        ("left", -0.75, 4.196416853947946, 1.450490511571692),
        ("left", -0.85, 4.265075329492491, 0.8311046795237842),
        ("right", -0.85, 3.3144815494747215, 0.11448154947472178),
    ])
    def test_pinned_line(self, kind, q, a, margin):
        res = separating_line(q, kind)
        assert not res.degenerate
        assert res.a == a and res.margin == margin

    def test_dispatch(self):
        assert separating_line(0.5, "separating").kind == "separating"
        with pytest.raises(DomainError):
            separating_line(0.5, "sideways")


class TestProbes:
    def test_case_a(self):
        rep = monotonicity_in_b_probe(0.5, 6.0, B_GRID, "separating")
        assert rep.product_increasing and rep.majorant_decreasing
        assert rep.endpoint_matches_g
        assert rep.violation is None

    def test_case_a_at_bound(self):
        rep = monotonicity_in_b_probe(0.35, 5.0, B_GRID, "separating")
        assert rep.product_increasing and rep.majorant_decreasing

    def test_case_b_left(self):
        rep = monotonicity_in_b_probe(-0.6, 2.4, B_GRID, "left")
        assert rep.product_increasing and rep.majorant_decreasing
        assert rep.endpoint_matches_g

    def test_case_b_right(self):
        rep = monotonicity_in_b_probe(-0.8, 3.5, B_GRID, "right")
        assert rep.product_increasing and rep.majorant_decreasing
        assert rep.endpoint_matches_g

    def test_grid_panel_20x20(self):
        # 20x20 (q, a) panel per kind, three b nodes each
        def panel(q_lo, q_hi, a_lo, a_hi, kind):
            for i in range(20):
                q = q_lo + (q_hi - q_lo) * i / 19
                for j in range(20):
                    a = a_lo + (a_hi - a_lo) * j / 19
                    rep = monotonicity_in_b_probe(q, a, [0.0, 1.0, 5.0], kind)
                    assert rep.product_increasing and rep.majorant_decreasing, (
                        kind, q, a, rep.violation)

        panel(0.3, 0.94, 5.0, 15.0, "separating")
        panel(-0.94, -0.05, 2.4, 10.0, "left")
        panel(-0.94, -0.75, 3.2, 10.0, "right")

    def test_bad_grid(self):
        with pytest.raises(DomainError):
            monotonicity_in_b_probe(0.5, 6.0, [1.0, 2.0], "separating")

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            monotonicity_in_b_probe(0.5, 6.0, B_GRID, "sideways")


def _mp_block_majorant(q, x, head, block, terms=600):
    """sum_k |sum_{m in B_k} q^{m(m-1)/2} x^{-m}| at 40 digits."""
    with mp.workdps(40):
        q, x = mp.mpf(q), mp.mpc(x)
        total, part, end = mp.mpf(0), mp.mpc(0), head
        for m in range(1, terms + 1):
            part += q ** (m * (m - 1) // 2) / x**m
            if m == end:
                total += abs(part)
                part, end = mp.mpc(0), end + block
        return total


@pytest.mark.parametrize("kind,q,a,b", [
    ("separating", 0.5, 6.0, 0.0), ("separating", 0.94, 5.0, 2.5),
    ("separating", 0.3, 15.0, 10.0),
    ("left", -0.6, 2.4, 0.0), ("left", -0.94, 3.0, 1.5), ("left", -0.2, 8.0, 7.0),
    ("right", -0.8, 3.5, 0.0), ("right", -0.94, 3.2, 4.0), ("right", -0.5, 10.0, 1.0),
])
def test_block_majorant_matches_mpmath(kind, q, a, b):
    sign, head, block, _ = _PROBE_KINDS[kind]
    x = complex(sign * a, b)
    ref = _mp_block_majorant(q, x, head, block)
    assert abs(_g_block_majorant(q, x, head, block) - ref) <= 1e-12 * ref
