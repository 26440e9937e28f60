"""Quermassintegrals, the Aleksandrov chain, and their constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projgeo import bodies
from projgeo.quermass import b_constant, omega, quermassintegral, vrad
from projgeo.sampling import RngSeed
from projgeo.zonotope import Zonotope


def test_ball_volumes():
    assert omega(1) == pytest.approx(2.0)
    assert omega(2) == pytest.approx(math.pi)
    assert omega(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert omega(4) == pytest.approx(math.pi ** 2 / 2.0)


def test_isoperimetric_constant_values():
    # frozen from the closed form (n-1) omega_{n-1} / (n omega_n^{(n-1)/n})
    assert b_constant(3) == pytest.approx(0.805995977008, abs=1e-10)
    assert b_constant(4) == pytest.approx(0.948849996658, abs=1e-10)
    assert b_constant(5) == pytest.approx(1.045492587554, abs=1e-10)


def test_vrad_of_cube():
    q3 = bodies.cube(3).build()
    assert vrad(q3) == pytest.approx((6.0 / math.pi) ** (1.0 / 3.0),
                                     rel=1e-12)


def test_mean_width_of_cube():
    q3 = bodies.cube(3).build()
    est = quermassintegral(q3, 2, samples=20_000, seed=RngSeed(0),
                           method="mc").scaled(1.0 / omega(3))
    # w(Q3) = V_1 / omega_3 = 2 pi / omega_3 = 3/2
    assert abs(est.value - 1.5) <= 3.0 * est.stderr
    assert est.stderr < 0.01


def test_quermassintegral_exact_routes_for_cube():
    q3 = bodies.cube(3).build()
    assert quermassintegral(q3, 0).value == pytest.approx(8.0)
    assert quermassintegral(q3, 1).value == pytest.approx(8.0)  # S/n
    assert quermassintegral(q3, 2).value == pytest.approx(2.0 * math.pi,
                                                          rel=1e-12)
    assert quermassintegral(q3, 3).value == pytest.approx(omega(3))
    for p in (0, 1, 2, 3):
        assert quermassintegral(q3, p).stderr == 0.0


def test_quermassintegral_mc_agrees_with_exact():
    q3 = bodies.cube(3).build()
    for p in (1, 2):
        exact = quermassintegral(q3, p).value
        est = quermassintegral(q3, p, samples=20_000, seed=RngSeed(1),
                               method="mc")
        assert abs(est.value - exact) <= 3.0 * est.stderr
        assert est.stderr / est.value < 0.02


def test_quermassintegral_rejects_bad_codimension():
    q3 = bodies.cube(3).build()
    with pytest.raises(ValueError):
        quermassintegral(q3, 4)
    with pytest.raises(ValueError):
        quermassintegral(q3, -1)


@pytest.mark.parametrize("p, samples", [(2, -4), (2, 0), (2, 3), (1, 1),
                                        (1, 0)])
def test_quermassintegral_rejects_budgets_without_an_error_bar(p, samples):
    # p = n - 1 draws width pairs (two samples each), p = 1 draws 2-frames
    q3 = bodies.cube(3).build()
    with pytest.raises(ValueError, match="fewer than 2"):
        quermassintegral(q3, p, samples=samples, method="mc")


@pytest.mark.parametrize("p, samples, draws", [(2, 4, 2), (2, 5, 2),
                                               (1, 2, 2), (2, None, 10_000),
                                               (1, None, 2_500)])
def test_quermassintegral_draws_what_its_budget_buys(p, samples, draws):
    est = quermassintegral(bodies.cube(3).build(), p, samples=samples,
                           method="mc")
    assert est.n_samples == draws and est.stderr > 0.0


def _q(body, k):
    """Q_k = (V_k / omega_n)^{1/k}, with V_k the quermassintegral W_{n-k}."""
    n = body.dim
    return quermassintegral(body, n - k).scaled(1.0 / omega(n)).powered(1.0 / k)


def test_q_k_endpoints_for_cube():
    q3 = bodies.cube(3).build()
    # Q_{n-1} = (S / (n omega_n))^{1/(n-1)} = sqrt(6/pi) for Q3
    assert _q(q3, 2).value == pytest.approx(math.sqrt(6.0 / math.pi),
                                            rel=1e-10)
    assert _q(q3, 3).value == pytest.approx(vrad(q3), rel=1e-10)


@given(seed=st.integers(0, 3000), m=st.integers(4, 8))
@settings(max_examples=15, deadline=None)
def test_normalized_shadow_means_decrease(seed, m):
    """The chain Q_1 >= Q_2 >= ... >= Q_n, exact for generator bodies."""
    gens = RngSeed(seed).derive("alek").generator().standard_normal((m, 4))
    z = Zonotope(gens)
    values = [_q(z, k).value for k in range(1, 5)]
    for a, b in zip(values, values[1:]):
        assert a >= b - 1e-10 * abs(a)
