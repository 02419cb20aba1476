"""The batched adaptive Gauss-Kronrod rule behind the marginal expectations
and the tilted segment slices."""

import math

import numpy as np
import pytest

from eigendist.errors import NumericError
from eigendist.quadrature import _GAUSS_WEIGHTS, _KRONROD_WEIGHTS, _NODES, integrate


def test_rule_is_exact_on_polynomials():
    # 21 Kronrod nodes integrate degree 31 exactly, their 10 Gauss nodes degree 19
    for degree in range(32):
        exact = (1.0 - (-1.0) ** (degree + 1)) / (degree + 1)
        assert np.sum(_KRONROD_WEIGHTS * _NODES**degree) == pytest.approx(exact, abs=1e-14), degree
        if degree < 20:
            assert np.sum(_GAUSS_WEIGHTS * _NODES**degree) == pytest.approx(exact, abs=1e-14), degree


def test_infinite_pieces_and_array_values():
    calls = []

    def f(xs):
        calls.append(len(xs))
        return np.stack([np.exp(-xs * xs), xs**2 * np.exp(-xs * xs)], axis=1)

    got = integrate(f, [(-math.inf, 0.0, 1.0), (0.0, 2.0, 1.0), (2.0, math.inf, 2.0)], 0.0, 1e-13, 500)
    assert got == pytest.approx([math.sqrt(math.pi), math.sqrt(math.pi) / 2.0], rel=1e-13)
    # every call takes the 21 nodes of whole panels
    assert all(n % 21 == 0 for n in calls) and calls[0] == 63


def test_nonintegrable_integrand_raises():
    with pytest.raises(NumericError, match="did not converge within 40 panels"):
        integrate(lambda xs: 1.0 / np.abs(xs - math.pi / 3), [(0.0, 2.0, 1.0)], 1e-9, 1e-8, 40)
    with pytest.raises(NumericError, match="non-finite"):
        integrate(lambda xs: np.full(len(xs), math.nan), [(0.0, 1.0, 1.0)], 1e-9, 1e-8, 40)
