"""Tests for the fracture-geometry primitives.

The analytic aperture gradients are validated against central finite
differences, and the coercivity diagnostic against an independently coded
closed form for the sinusoidal profiles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdg.geometry import (
    ApertureProfile,
    PermeabilityData,
    check_wellposedness,
)


def central_diff(f, t, h=1e-6):
    return (f(t + h) - f(t - h)) / (2.0 * h)


class TestApertureProfiles:
    def test_constant_values(self):
        prof = ApertureProfile.constant(0.05, 0.15)
        t = np.array([0.0, 0.4, 1.0])
        np.testing.assert_allclose(prof.d1_fn(t), 0.05)
        np.testing.assert_allclose(prof.d2_fn(t), 0.15)
        np.testing.assert_allclose(prof.d1_fn(t) + prof.d2_fn(t), 0.2)
        np.testing.assert_allclose(prof.dd1_fn(t), 0.0)
        np.testing.assert_allclose(prof.dd2_fn(t), 0.0)
        assert prof.is_constant
        assert prof.d_min == prof.d_sup == pytest.approx(0.2)

    def test_constant_allows_negative_side(self):
        # only the sum d1 + d2 must be positive
        prof = ApertureProfile.constant(-0.05, 0.2)
        assert prof.d1_fn(0.3) + prof.d2_fn(0.3) == pytest.approx(0.15)

    def test_constant_rejects_nonpositive_total(self):
        with pytest.raises(ValueError):
            ApertureProfile.constant(0.1, -0.1)

    def test_sinusoidal_antisymmetric_values(self):
        d0 = 0.1
        prof = ApertureProfile.sinusoidal(d0, asymmetry="antisymmetric")
        # at t = 1/16 the oscillation sin(8 pi t) peaks at +1
        assert prof.d1_fn(1.0 / 16.0) == pytest.approx(0.15)
        assert prof.d2_fn(1.0 / 16.0) == pytest.approx(0.05)
        # total aperture is constant for the antisymmetric pair
        t = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(prof.d1_fn(t) + prof.d2_fn(t), 2.0 * d0,
                                   atol=1e-15)
        np.testing.assert_allclose(prof.dd1_fn(t) + prof.dd2_fn(t), 0.0,
                                   atol=1e-15)
        assert prof.d_min == pytest.approx(2.0 * d0)
        assert prof.d_sup == pytest.approx(2.0 * d0)

    def test_sinusoidal_gradient_at_origin(self):
        prof = ApertureProfile.sinusoidal(0.1)
        assert prof.dd1_fn(0.0) == pytest.approx(0.4 * math.pi, rel=1e-14)

    def test_sinusoidal_symmetric_range(self):
        d0 = 0.01
        prof = ApertureProfile.sinusoidal(d0, asymmetry="symmetric")
        t = np.linspace(0.0, 1.0, 2001)
        d1, d2 = prof.d1_fn(t), prof.d2_fn(t)
        np.testing.assert_allclose(d1, d2)
        assert (d1 + d2).min() == pytest.approx(prof.d_min, rel=1e-6)
        assert (d1 + d2).max() == pytest.approx(prof.d_sup, rel=1e-6)
        assert prof.d_min == pytest.approx(d0)
        assert prof.d_sup == pytest.approx(3.0 * d0)

    @pytest.mark.parametrize("asymmetry", ["antisymmetric", "symmetric"])
    def test_gradients_match_finite_differences(self, asymmetry):
        prof = ApertureProfile.sinusoidal(0.07, frequency=6.0, phase=0.3,
                                          asymmetry=asymmetry)
        rng = np.random.default_rng(42)
        t = rng.uniform(0.01, 0.99, size=100)
        fd1 = central_diff(prof.d1_fn, t)
        fd2 = central_diff(prof.d2_fn, t)
        np.testing.assert_allclose(prof.dd1_fn(t), fd1, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(prof.dd2_fn(t), fd2, rtol=1e-6, atol=1e-9)

    def test_custom_profile_gradients_match_finite_differences(self):
        prof = ApertureProfile.from_callables(
            d1_fn=lambda t: 0.1 + 0.02 * t ** 2,
            d2_fn=lambda t: 0.1 - 0.03 * t,
            dd1_fn=lambda t: 0.04 * t,
            dd2_fn=lambda t: -0.03 * np.ones_like(np.asarray(t, dtype=float)),
            d_min=0.17, d_sup=0.2)
        rng = np.random.default_rng(7)
        t = rng.uniform(0.01, 0.99, size=50)
        np.testing.assert_allclose(prof.dd1_fn(t), central_diff(prof.d1_fn, t),
                                   rtol=1e-6, atol=1e-10)
        np.testing.assert_allclose(prof.dd2_fn(t), central_diff(prof.d2_fn, t),
                                   rtol=1e-6, atol=1e-10)


class TestPermeabilityData:
    def test_scalar_shorthand_expands_to_isotropic(self):
        perm = PermeabilityData(k1=1.0, k2=2.0, k_gamma=0.5, k_gamma_perp=0.5)
        np.testing.assert_allclose(perm.k1, np.eye(2))
        np.testing.assert_allclose(perm.k2, 2.0 * np.eye(2))
        np.testing.assert_allclose(perm.k_gamma, 0.5 * np.eye(2))
        np.testing.assert_allclose(perm.k_f, 0.5 * np.eye(2))

    def test_rejects_xi_at_or_below_half(self):
        with pytest.raises(ValueError, match="xi"):
            PermeabilityData(k1=1.0, k2=1.0, k_gamma=1.0, k_gamma_perp=1.0, xi=0.5)
        with pytest.raises(ValueError, match="xi"):
            PermeabilityData(k1=1.0, k2=1.0, k_gamma=1.0, k_gamma_perp=1.0, xi=0.2)

    def test_rejects_asymmetric_tensor(self):
        bad = np.array([[1.0, 0.3], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            PermeabilityData(k1=bad, k2=1.0, k_gamma=1.0, k_gamma_perp=1.0)

    def test_rejects_indefinite_tensor(self):
        bad = np.array([[1.0, 0.0], [0.0, -2.0]])
        with pytest.raises(ValueError, match="positive definite"):
            PermeabilityData(k1=1.0, k2=bad, k_gamma=1.0, k_gamma_perp=1.0)

    def test_rejects_nonpositive_perp(self):
        with pytest.raises(ValueError, match="perp"):
            PermeabilityData(k1=1.0, k2=1.0, k_gamma=1.0, k_gamma_perp=0.0)

    def test_beta_gamma_closed_form(self):
        perm = PermeabilityData(k1=1.0, k2=1.0, k_gamma=0.5, k_gamma_perp=0.5,
                                xi=2.0 / 3.0)
        # 4 * 0.5 / ((1/3) * 0.2) = 30
        assert perm.beta_gamma(0.2) == pytest.approx(30.0)
        np.testing.assert_allclose(perm.beta_gamma(np.array([0.2, 0.1])),
                                   [30.0, 60.0])

    def test_from_fracture_derives_perp_component(self):
        perm = PermeabilityData.from_fracture(k1=1.0, k2=1.0, k_f=0.5,
                                              xi=2.0 / 3.0)
        assert perm.k_gamma_perp == pytest.approx(0.5)
        np.testing.assert_allclose(perm.k_gamma, 0.5 * np.eye(2))
        kf = np.array([[2.0, 0.5], [0.5, 1.0]])
        perm = PermeabilityData.from_fracture(k1=1.0, k2=1.0, k_f=kf)
        assert perm.k_gamma_perp == pytest.approx(2.0)

    @settings(deadline=None, max_examples=50)
    @given(a=st.floats(0.1, 10.0), c=st.floats(0.1, 10.0),
           r=st.floats(-0.9, 0.9))
    def test_from_fracture_components_along_the_frame(self, a, c, r):
        # with n = (1, 0) and tau = (0, 1), n.K.n and tau.K.tau are the
        # diagonal entries bit for bit, for any SPD slab tensor
        b = r * math.sqrt(a * c)
        kf = np.array([[a, b], [b, c]])
        perm = PermeabilityData.from_fracture(k1=1.0, k2=1.0, k_f=kf)
        n = np.array([1.0, 0.0])
        tau = np.array([0.0, 1.0])
        assert perm.k_gamma_perp == float(n @ kf @ n)
        assert perm.k_gamma[1, 1] == float(tau @ kf @ tau)
        np.testing.assert_array_equal(perm.k_gamma[:, 1], kf @ tau)

    def test_bulk_accessor(self):
        perm = PermeabilityData(k1=1.0, k2=3.0, k_gamma=1.0, k_gamma_perp=1.0)
        np.testing.assert_allclose(perm.bulk(1), np.eye(2))
        np.testing.assert_allclose(perm.bulk(2), 3.0 * np.eye(2))
        with pytest.raises(ValueError):
            perm.bulk(3)


class TestWellposedness:
    PERM = PermeabilityData(k1=1.0, k2=1.0, k_gamma=0.5, k_gamma_perp=0.5,
                            xi=2.0 / 3.0)

    def test_constant_profile_trivially_satisfied(self):
        rep = check_wellposedness(ApertureProfile.constant(0.1, 0.1), self.PERM)
        assert rep.lhs == pytest.approx(0.0)
        assert rep.satisfied

    @pytest.mark.parametrize("asymmetry", ["antisymmetric", "symmetric"])
    @pytest.mark.parametrize("d0", [1e-3, 1e-2, 1e-1])
    def test_sinusoidal_closed_form(self, asymmetry, d0):
        # independent closed form: both sinusoidal families give
        # lhs = (8 pi d0)^2 at xi = 2/3 with isotropic fracture permeability
        prof = ApertureProfile.sinusoidal(d0, asymmetry=asymmetry)
        rep = check_wellposedness(prof, self.PERM)
        expected = (8.0 * math.pi * d0) ** 2
        assert rep.lhs == pytest.approx(expected, rel=1e-4)
        assert rep.satisfied == (expected < 16.0)

    def test_large_oscillation_fails_bound(self):
        prof = ApertureProfile.sinusoidal(0.2)
        rep = check_wellposedness(prof, self.PERM)
        assert rep.lhs == pytest.approx((1.6 * math.pi) ** 2, rel=1e-4)
        assert not rep.satisfied

    def test_anisotropy_ratio_enters_squared(self):
        prof = ApertureProfile.sinusoidal(0.05)
        base = check_wellposedness(prof, self.PERM)
        aniso = PermeabilityData(k1=1.0, k2=1.0,
                                 k_gamma=np.diag([0.5, 1.0]), k_gamma_perp=0.5,
                                 xi=2.0 / 3.0)
        rep = check_wellposedness(prof, aniso)
        assert rep.lhs == pytest.approx(4.0 * base.lhs, rel=1e-12)

    def test_aperture_contrast_enters_linearly(self):
        # affine symmetric walls: same slopes, growing sup/inf ratio
        def make(b):
            return ApertureProfile.from_callables(
                d1_fn=lambda t: 0.1 + b * np.asarray(t, dtype=float),
                d2_fn=lambda t: 0.1 + b * np.asarray(t, dtype=float),
                dd1_fn=lambda t: b * np.ones_like(np.asarray(t, dtype=float)),
                dd2_fn=lambda t: b * np.ones_like(np.asarray(t, dtype=float)),
                d_min=0.2, d_sup=0.2 + 2.0 * b)

        r1 = check_wellposedness(make(0.05), self.PERM)
        r2 = check_wellposedness(make(0.05), PermeabilityData(
            k1=1.0, k2=1.0, k_gamma=0.5, k_gamma_perp=0.5, xi=0.75))
        # same geometry, larger 2*xi - 1 weight on the |grad d|^2 term
        assert r2.lhs > r1.lhs

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_nonfinite_samples(self):
        prof = ApertureProfile.from_callables(
            d1_fn=lambda t: 0.1 / (np.asarray(t, dtype=float) - 0.5),
            d2_fn=lambda t: np.full_like(np.asarray(t, dtype=float), 0.1),
            dd1_fn=lambda t: -0.1 / (np.asarray(t, dtype=float) - 0.5) ** 2,
            dd2_fn=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            d_min=0.1, d_sup=1.0)
        with pytest.raises(ValueError, match="finite"):
            check_wellposedness(prof, self.PERM)
