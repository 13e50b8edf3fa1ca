import mpmath as mp
import pytest


def assert_covers(cv, reference, slack=0.0):
    """The certified interval must contain the high-precision reference."""
    err = abs(mp.mpf(cv.value.real if isinstance(cv.value, complex) else cv.value)
              - mp.mpf(reference))
    assert err <= cv.err + slack, f"|{cv.value} - {reference}| = {err} > {cv.err}"


@pytest.fixture(scope="session")
def spectral_a():
    from ptheta.spectrum import K_CAP, spectral_point_A
    return {k: spectral_point_A(k) for k in range(1, K_CAP + 1)}


@pytest.fixture(scope="session")
def spectral_b():
    from ptheta.spectrum import K_CAP, spectral_point_B
    return {k: spectral_point_B(k) for k in range(1, K_CAP + 1)}
