"""Property-based invariants over random parameter/argument draws."""

import cmath
import math

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from ptheta.certified import series_log_max_term, truncation_order, tri
from ptheta.core import (
    decompose,
    functional_equation_residual,
    theta_certified,
    theta_derivative,
)
from ptheta.errors import PThetaError, RangeOverflowError
from ptheta.oracle import theta_deriv_ref, theta_ref
from ptheta.tripleprod import theta_via_triple_product

qs = st.one_of(
    st.floats(min_value=-0.95, max_value=-0.02),
    st.floats(min_value=0.02, max_value=0.95),
)
xs_real = st.floats(min_value=-20.0, max_value=20.0)
SUPPORTED_ORDERS = [(m, nq) for m in range(5) for nq in range(3) if m + nq > 0]
#: examples per (m, nq) pair: about 20 s for all 14 pairs
DERIV_EXAMPLES = 130
xs_cplx = st.builds(complex,
                    st.floats(min_value=-15.0, max_value=15.0),
                    st.floats(min_value=-15.0, max_value=15.0))


@settings(max_examples=150, deadline=None)
@given(q=qs, x=xs_real)
def test_functional_equation_residual_within_err(q, x):
    r = functional_equation_residual(q, x, 1e-12)
    assert abs(complex(r.value)) <= r.err


@settings(max_examples=60, deadline=None)
@given(q=qs, x=xs_cplx)
def test_functional_equation_complex(q, x):
    r = functional_equation_residual(q, x, 1e-12)
    assert abs(complex(r.value)) <= r.err


@settings(max_examples=60, deadline=None)
@given(q=st.one_of(st.floats(min_value=-0.95, max_value=-0.05),
                   st.floats(min_value=0.05, max_value=0.95)),
       x=st.one_of(st.builds(lambda r, s: r * s, st.floats(min_value=0.1, max_value=20.0),
                             st.sampled_from([-1.0, 1.0])),
                   st.builds(cmath.rect, st.floats(min_value=0.1, max_value=20.0),
                             st.floats(min_value=-math.pi, max_value=math.pi))))
def test_split_agrees_with_direct(q, x):
    parts = theta_via_triple_product(q, x, 1e-14)
    direct = theta_certified(q, x, 1e-13)
    diff = abs(complex(parts.difference.value) - complex(direct.value))
    assert diff <= parts.difference.err + direct.err


@settings(max_examples=60, deadline=None)
@given(q=qs, x=xs_real)
def test_decompose_agrees_with_direct(q, x):
    d = decompose(q, x, 1e-12)
    direct = theta_certified(q, x, 1e-12)
    diff = abs(complex(d.recombined.value) - complex(direct.value))
    assert diff <= d.recombined.err + direct.err


@settings(max_examples=60, deadline=None)
@given(q=st.floats(min_value=0.02, max_value=0.9),
       x=st.floats(min_value=0.0, max_value=50.0),
       tol=st.floats(min_value=1e-14, max_value=1e-4))
def test_truncation_order_postconditions(q, x, tol):
    n, tail = truncation_order(q, x, tol)
    assert tail <= tol * 1.001
    assert q ** (n + 1) * x <= 0.5
    # the bound really does dominate the true remainder (log space: the
    # terms span many hundreds of decades)
    brute = 0.0
    for j in range(n + 1, n + 200):
        lt = tri(j) * math.log(q) + (j * math.log(x) if x > 0 else -math.inf)
        if lt < -745.0:
            break
        brute += math.exp(lt)
    assert brute <= tail or brute == 0.0


@settings(max_examples=100, deadline=None)
@given(q=st.one_of(st.floats(min_value=-0.99, max_value=-0.02),
                   st.floats(min_value=0.02, max_value=0.99)),
       x=st.one_of(st.floats(min_value=-50.0, max_value=50.0),
                   st.builds(cmath.rect, st.floats(min_value=0.0, max_value=50.0),
                             st.floats(min_value=-math.pi, max_value=math.pi))))
# the split with G at complex 1/x, for q > 0 and q < 0, and two refusals:
# one past binary64, one inside it but past the documented range
@example(q=0.95, x=cmath.rect(20.0, 1.0))
@example(q=0.97, x=cmath.rect(12.0, -2.0))
@example(q=-0.99, x=cmath.rect(9.0, 0.7))
@example(q=0.99, x=cmath.rect(50.0, 1.0))
@example(q=0.99, x=cmath.rect(50.0, 3.0))
def test_certified_interval_contains_reference(q, x):
    ref = theta_ref(q, x)
    try:
        cv = theta_certified(q, x, 1e-12)
    except PThetaError:
        # refused only past binary64 or past the documented range: the
        # largest term on the circle |x| = r (and with it the largest
        # |Theta*| there) beyond about e^690
        assert abs(ref) > 1e307 or series_log_max_term(abs(q), abs(x)) > 680.0
        return
    assert abs(mp.mpc(complex(cv.value)) - ref) <= cv.err


@settings(max_examples=200, deadline=None)
@given(j=st.integers(min_value=0, max_value=100000))
def test_exponent_exactness(j):
    assert 2 * tri(j) == j * (j + 1)
    assert tri(j + 1) - tri(j) == j + 1


@pytest.mark.parametrize("m,nq", SUPPORTED_ORDERS)
@settings(max_examples=DERIV_EXAMPLES, deadline=None)
@given(q=st.one_of(st.floats(min_value=-0.99, max_value=-0.02),
                   st.floats(min_value=0.02, max_value=0.99)),
       x=st.one_of(st.floats(min_value=-50.0, max_value=50.0),
                   st.builds(cmath.rect, st.floats(min_value=0.0, max_value=50.0),
                             st.floats(min_value=-math.pi, max_value=math.pi))))
def test_derivative_encloses_reference(m, nq, q, x):
    ref = theta_deriv_ref(q, x, m, nq, dps=20)
    try:
        cv = theta_derivative(q, x, m, nq)
    except RangeOverflowError:
        assert abs(ref) > 1e307
        return
    assert abs(mp.mpc(complex(cv.value)) - ref) <= cv.err
