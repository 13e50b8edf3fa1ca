"""Evaluation, derivatives, identities, diagonals, and limit comparisons."""

import math

import mpmath as mp
import pytest

from conftest import assert_covers
from ptheta.core import (
    decompose,
    functional_equation_residual,
    inside_contour,
    katsnelson_residual,
    mixed_identity_residuals,
    nu,
    pde_residual,
    phi,
    theta_at_diagonal,
    theta_certified,
    theta_derivative,
)
from ptheta.errors import (
    ContourError,
    DomainError,
    InfeasibleToleranceError,
    PThetaError,
    RangeOverflowError,
)
from ptheta.oracle import theta_deriv_ref, theta_ref
from ptheta.tripleprod import theta_via_triple_product

# 50-digit direct-summation references
THETA_HALF_ONE = mp.mpf("1.641632560655153866294")
THETA_MHALF_TWO = mp.mpf("-0.3603815995302568075818")
THETA_MHALF_1P5 = mp.mpf("0.02619111234604077845832")
PHI2_HALF = mp.mpf("0.7793569639034671481519")
NU_QUARTER = mp.mpf("0.5605621040012902511762")
THETA_XX_03_M1 = mp.mpf("0.04969657213557451691673")

# (q, x, tol, value, err) on the direct route with real x, as computed with
# the bisection order solve and a second order solve inside the kernel call;
# solving the order once, in closed form, must reproduce them bit for bit.
DIRECT_REAL_REFERENCE = [
    (0.28908354404729864, 7.813170492473343, 1e-09, 5.027230418541053, 5.511512346085806e-13),
    (0.8387509062000761, -0.7796808474640375, 1e-12, 0.5873176765605815, 7.985157662994597e-13),
    (0.2659556531462356, -4.1303206225237155, 1e-12, 0.1980143077685739, 2.5428289053816085e-16),
    (0.25621225071627934, 9.680086925804659, 1e-14, 5.323570451666332, 2.3659595359929013e-15),
    (-0.6806631165039047, 10.699550837904308, 1e-09, -106.62573117604677, 9.190418063434954e-11),
    (-0.3149232104627867, 7.223725303581457, 1e-09, -2.5114731246737914, 6.39189634881509e-12),
    (-0.16506953071462724, 2.10008988255721, 1e-09, 0.6336897934628883, 7.519927846275268e-11),
    (-0.055342865916342104, -0.6206283984201519, 1e-12, 1.034282057135332, 4.044859510098952e-14),
    (-0.8882681326328647, 6.583401371560541, 1e-14, 390.8608007558547, 1.7479187332668718e-13),
    (-0.5797050004931895, 2.130722938104409, 1e-09, -0.677439630611295, 1.836385657017058e-10),
    (-0.6057891522298643, 5.5058327968715375, 1e-09, 1.930532435195519, 6.6697534506418e-11),
    (-0.6616249058898022, 9.004175389530555, 1e-12, -16.40528826854817, 3.93589396039359e-14),
    (0.7132568128679809, 6.710239550659178, 1e-14, 369.9803825117718, 1.6953820738695216e-13),
    (-0.6397885538370374, 5.304289415836056, 1e-12, 3.012588096316451, 3.954355077297237e-13),
    (-0.7858904993215349, -1.19352046377805, 1e-12, 1.0719965300219627, 1.0215420179393565e-13),
    (-0.1283193866856394, -4.214739030962858, 1e-14, 1.5029654382569595, 1.721263356681642e-15),
    (0.34020528098402125, 4.831945359703983, 1e-12, 3.7496559416709823, 2.8827391289520615e-15),
    (0.25774170809125263, 7.931516705585519, 1e-12, 4.272852497462291, 1.1840516597632438e-14),
    (0.28662566231626463, -4.67491963152342, 1e-09, 0.11979587394713767, 3.114115473693803e-11),
    (0.3841452383822842, 9.136658367375698, 1e-14, 12.218957773866588, 5.4402839387027744e-15),
    (-0.21238403670576786, 9.565287252914882, 1e-14, -1.8261569376279077, 8.528535929887045e-16),
    (-0.28465480835017953, 10.086321624793442, 1e-09, -3.6362622479858153, 2.430369006200654e-12),
    (-0.2893959004068276, 6.199267008747697, 1e-12, -1.5795294743818589, 9.033838553595912e-14),
    (-0.8513109023137668, -0.16358311684453497, 1e-09, 1.1212369852444133, 6.19527071240903e-11),
    (-0.04868560619889328, 11.05847141911503, 1e-12, 0.4475175156604506, 3.583161387315096e-15),
    (0.3876871581721537, -1.6058765272059858, 1e-14, 0.5141326895367196, 2.4985489272357887e-16),
    (0.5826272305009188, -9.187164733306417, 1e-14, 0.11020660162373057, 8.089079355051663e-17),
    (0.9164718284786306, -0.7596762760301701, 1e-09, 0.5807061749844646, 3.948464674904134e-10),
    (-0.7840619239189257, -6.860991686024574, 1e-14, -4.579123412751264, 2.4983135401523266e-15),
    (-0.7109355990069823, 7.763040831928791, 1e-14, -28.910546903109566, 1.313081829516789e-14),
]


class TestEvaluation:
    def test_exact_shortcuts(self):
        assert theta_certified(0.0, 3.0) == theta_certified(0.5, 0.0)
        cv = theta_certified(0.5, 0.0)
        assert cv.value == 1.0 and cv.err == 0.0

    def test_reference_point(self):
        cv = theta_certified(0.5, 1.0, 1e-15)
        assert_covers(cv, THETA_HALF_ONE)
        assert cv.err < 1e-14

    def test_negative_q_at_inverse(self):
        # x = -1/q with q = -0.5 lands on a certified negative value
        cv = theta_certified(-0.5, 2.0, 1e-13)
        assert cv.definitely_less(0.0)
        assert_covers(cv, THETA_MHALF_TWO)

    def test_routes_agree_with_reference(self):
        for q, x in [(0.95, -6.0), (0.99, -6.0), (-0.98, -2.0), (0.9, -10.0),
                     (0.6, 8.0), (-0.9, 3.5)]:
            cv = theta_certified(q, x, 1e-13)
            assert_covers(cv, theta_ref(q, x))

    def test_forced_strategies_agree(self):
        # the router takes the direct series here; the split must agree
        direct = theta_certified(0.9, -6.0, 1e-13)
        product = theta_via_triple_product(0.9, -6.0, 1e-14).difference
        assert abs(direct.value - product.value) <= direct.err + product.err

    def test_err_monotone_under_tol_halving(self):
        ref = theta_ref(0.8, -4.5)
        errs = []
        for tol in (1e-6, 5e-7, 2.5e-7, 1e-9, 1e-12):
            cv = theta_certified(0.8, -4.5, tol)
            errs.append(abs(mp.mpf(cv.value) - ref))
        assert all(b <= a * 1.0001 + 1e-18 for a, b in zip(errs, errs[1:]))

    def test_q_out_of_range(self):
        with pytest.raises(DomainError):
            theta_certified(0.995, 1.0)
        with pytest.raises(DomainError):
            theta_certified(1.2, 1.0)

    @pytest.mark.parametrize("q,x,tol,value,err", DIRECT_REAL_REFERENCE)
    def test_direct_real_values_bit_identical(self, q, x, tol, value, err):
        cv = theta_certified(q, x, tol)
        assert (cv.value, cv.err) == (value, err)

    def test_complex_argument(self):
        cv = theta_certified(0.7, complex(2.0, 3.0), 1e-13)
        ref = theta_ref(0.7, mp.mpc(2.0, 3.0))
        assert abs(mp.mpc(cv.value) - ref) <= cv.err


class TestFailClosed:
    @pytest.mark.parametrize("q,x", [(0.99, -100.0), (0.98, 316.0), (-0.99, 100j),
                                     (0.99, 41.5), (0.5, -1e30)])
    def test_value_past_binary64(self, q, x):
        with pytest.raises(RangeOverflowError):
            theta_certified(q, x)

    @pytest.mark.parametrize("x", [1e30, -1e30, 1e200j])
    def test_derivative_past_binary64(self, x):
        with pytest.raises(RangeOverflowError):
            theta_derivative(0.5, x, dx_order=1)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, complex(1.0, math.inf),
                                   complex(math.nan, 0.0)])
    def test_non_finite_x(self, x):
        with pytest.raises(DomainError):
            theta_certified(0.5, x)
        with pytest.raises(DomainError):
            theta_derivative(0.5, x, dx_order=1)

    def test_overflow_is_a_ptheta_error(self):
        assert issubclass(RangeOverflowError, PThetaError)

    @pytest.mark.parametrize("x", [math.nan, math.inf, complex(1.0, -math.inf)])
    def test_decompose_non_finite_x(self, x):
        with pytest.raises(DomainError):
            decompose(0.5, x)

    def test_decompose_square_past_binary64(self):
        with pytest.raises(RangeOverflowError):
            decompose(0.5, 1e300)
        with pytest.raises(RangeOverflowError):
            theta_certified(-0.5, 1e160)

    @pytest.mark.parametrize("x", [math.nan, math.inf, complex(1.0, -math.inf)])
    def test_functional_equation_non_finite_x(self, x):
        with pytest.raises(DomainError):
            functional_equation_residual(0.5, x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, complex(1.0, -math.inf)])
    def test_pde_residual_non_finite_x(self, x):
        with pytest.raises(DomainError):
            pde_residual(0.5, x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, complex(1.0, -math.inf)])
    def test_mixed_identities_non_finite_x(self, x):
        with pytest.raises(DomainError):
            mixed_identity_residuals(0.5, x)


class TestDerivatives:
    def test_x_derivative_at_zero_is_q(self):
        assert theta_derivative(0.5, 0.0, dx_order=1).value == 0.5

    def test_q_derivative_at_zero_vanishes(self):
        assert theta_derivative(0.5, 0.0, dq_order=1).value == 0.0

    def test_xx_at_zero(self):
        cv = theta_derivative(0.4, 0.0, dx_order=2)
        assert cv.value == pytest.approx(2 * 0.4**3, abs=1e-15)

    def test_second_derivative_reference(self):
        cv = theta_derivative(0.3, -1.0, dx_order=2, tol=1e-14)
        assert cv.definitely_greater(0.0)
        assert_covers(cv, THETA_XX_03_M1)

    def test_mixed_reference(self):
        cv = theta_derivative(0.6, -2.0, dx_order=1, dq_order=1, tol=1e-13)
        assert_covers(cv, theta_deriv_ref(0.6, -2.0, 1, 1))

    def test_bad_orders(self):
        with pytest.raises(DomainError):
            theta_derivative(0.5, 1.0, dx_order=5)
        with pytest.raises(DomainError):
            theta_derivative(0.5, 1.0)


class TestIdentities:
    @pytest.mark.parametrize("q,x", [(0.5, 1.0), (-0.9, complex(3, 2)),
                                     (0.3, -8.0), (-0.4, 5.5)])
    def test_functional_equation(self, q, x):
        r = functional_equation_residual(q, x, 1e-13)
        assert abs(complex(r.value)) <= r.err

    def test_functional_equation_trivial(self):
        r = functional_equation_residual(0.7, 0.0)
        assert r.value == 0.0 and r.err == 0.0

    @pytest.mark.parametrize("q,x", [(0.4, -2.0), (-0.8, 1.2), (0.9, 4.0)])
    def test_pde(self, q, x):
        r = pde_residual(q, x, 1e-12)
        assert abs(complex(r.value)) <= r.err
        # the budget scales with the size of the combined derivative terms
        scale = abs(theta_derivative(q, x, dq_order=1, tol=1e-8).real) * abs(2 * q)
        assert r.err < 1e-10 + 1e-13 * scale

    @pytest.mark.parametrize("q,x", [(0.6, -1.5), (-0.7, 2.0), (0.3, complex(1, 1))])
    def test_mixed(self, q, x):
        r1, r2 = mixed_identity_residuals(q, x, 1e-12)
        assert abs(complex(r1.value)) <= r1.err
        assert abs(complex(r2.value)) <= r2.err


class TestDecomposition:
    def test_trivial_x(self):
        d = decompose(0.5, 0.0)
        assert d.theta1.value == 1.0 and d.recombined.value == 1.0

    def test_both_parts_positive_deep_b(self):
        d = decompose(-0.98, -2.0, 1e-12)
        assert d.theta1.definitely_greater(0.0)
        qx_term = (-0.98) * (-2.0) * d.theta2.real
        assert qx_term > 0

    def test_recombination_matches_direct(self):
        for q, x in [(-0.5, 1.5), (0.7, -3.0), (-0.9, 2.2)]:
            d = decompose(q, x, 1e-12)
            direct = theta_certified(q, x, 1e-12)
            diff = abs(complex(d.recombined.value) - complex(direct.value))
            assert diff <= d.recombined.err + direct.err
        assert_covers(decompose(-0.5, 1.5).recombined, THETA_MHALF_1P5)


class TestDiagonals:
    def test_phi_at_q_zero(self):
        assert phi(0.0, 2.0).value == 1.0

    def test_phi_half_is_alternating_series(self):
        assert_covers(nu(0.25), NU_QUARTER)

    def test_phi2_reference(self):
        assert_covers(phi(0.5, 2.0, 1e-13), PHI2_HALF)

    def test_phi_rejects_bad_input(self):
        with pytest.raises(DomainError):
            phi(-0.5, 2.0)
        with pytest.raises(DomainError):
            phi(0.5, 0.3)

    def test_diagonal_changes_sign_in_gap(self):
        lo = theta_at_diagonal(0.1, 1.5)
        hi = theta_at_diagonal(0.9, 1.5)
        assert lo.definitely_less(0.0) and hi.definitely_greater(0.0)

    def test_diagonal_positive_at_integer(self):
        for q in (0.2, 0.6, 0.9):
            cv = theta_at_diagonal(q, 2.0)
            assert cv.definitely_greater(0.0)
            rhs = phi(q, 3.0).scaled(q**2)
            assert abs(cv.real - rhs.real) <= cv.err + rhs.err

    def test_diagonal_fails_closed_under_low_cap(self, monkeypatch):
        # -0.9^-40.3 is rounded, and bounding what that costs needs an order
        # past the cap; dropping that term would miss the value by 88.5
        monkeypatch.setenv("THETA_MAX_N", "40")
        with pytest.raises(InfeasibleToleranceError):
            theta_at_diagonal(0.9, 40.3)


class TestLimitComparison:
    def test_membership(self):
        assert inside_contour(0.0, "A")
        assert inside_contour(-3.0, "A")  # segment down to -e^pi
        assert not inside_contour(2.0, "A")
        assert not inside_contour(1.0, "A")  # boundary point
        assert inside_contour(1.2, "B")
        assert inside_contour(0.5, "B")

    def test_residual_zero_at_origin(self):
        assert katsnelson_residual(0.9, 0.0) == 0.0
        assert katsnelson_residual(-0.9, 0.0) == 0.0

    def test_case_a_decay(self):
        r1 = katsnelson_residual(0.99, -3.0)
        r2 = katsnelson_residual(0.999, -3.0)
        assert r2 < r1

    def test_case_a_near_limit(self):
        assert katsnelson_residual(0.999, 0.5) < 0.05

    def test_case_b_decay(self):
        r1 = katsnelson_residual(-0.99, 1.2)
        r2 = katsnelson_residual(-0.999, 1.2)
        assert r2 < r1 < 0.2

    def test_outside_raises(self):
        with pytest.raises(ContourError):
            katsnelson_residual(0.9, 2.0)
