"""Array responses, rank-one channels, and the beam correlation kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbnoma import (
    AngleSpec,
    ArrayGeometry,
    PathGain,
    SinglePathChannel,
    channel_matrix,
    fejer_correlation,
    normalized_angle,
    steering_vector,
)

# |a*(0) a(1/16)|^2 for a 16-element array, frozen from the explicit
# 16-term series sum.
KERNEL_AT_ONE_SIXTEENTH = 0.40658933171803685


def make_channel(aod_deg, aoa_deg, beta, t_bs, t_mu, ls_db=0.0):
    return SinglePathChannel(
        aoa=AngleSpec.from_degrees(aoa_deg),
        aod=AngleSpec.from_degrees(aod_deg),
        gain=PathGain(small_scale=beta, large_scale_db=ls_db),
        bs_array=ArrayGeometry(t_bs),
        mu_array=ArrayGeometry(t_mu),
    )


class TestSteeringVector:
    def test_broadside_four_elements(self):
        vec = steering_vector(AngleSpec.from_normalized(0.0), ArrayGeometry(4))
        np.testing.assert_allclose(vec, 0.5 * np.ones(4), atol=1e-15)

    def test_single_element(self):
        vec = steering_vector(AngleSpec.from_normalized(0.7), ArrayGeometry(1))
        np.testing.assert_allclose(vec, [1.0], atol=1e-15)

    def test_endfire_two_elements(self):
        vec = steering_vector(AngleSpec.from_normalized(1.0), ArrayGeometry(2))
        np.testing.assert_allclose(vec, np.array([1.0, -1.0]) / math.sqrt(2), atol=1e-14)

    @given(
        norm=st.floats(min_value=-1.0, max_value=1.0),
        t=st.integers(min_value=1, max_value=128),
    )
    def test_unit_norm_and_constant_modulus(self, norm, t):
        vec = steering_vector(AngleSpec.from_normalized(norm), ArrayGeometry(t))
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        np.testing.assert_allclose(np.abs(vec), 1.0 / math.sqrt(t), atol=1e-12)


class TestNormalizedAngle:
    @pytest.mark.parametrize(
        "physical,expected",
        [(0.0, 0.0), (math.pi / 2, 1.0), (math.pi / 6, 0.5)],
    )
    def test_half_wavelength_values(self, physical, expected):
        assert normalized_angle(physical) == pytest.approx(expected, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            normalized_angle(1.6)
        with pytest.raises(ValueError):
            normalized_angle(-2.0)

    def test_angle_spec_round_trip(self):
        spec = AngleSpec.from_degrees(37.0)
        again = AngleSpec.from_normalized(spec.normalized)
        assert again.physical_rad == pytest.approx(spec.physical_rad, abs=1e-12)


class TestPathGain:
    def test_beta_combines_scales(self):
        gain = PathGain(small_scale=1j, large_scale_db=-20.0)
        assert gain.beta == pytest.approx(0.1j)
        assert gain.magnitude == pytest.approx(0.1)


class TestChannelMatrix:
    def test_scalar_collapse(self):
        ch = make_channel(20.0, -30.0, 1.0, 1, 1)
        np.testing.assert_allclose(channel_matrix(ch), [[1.0]], atol=1e-15)

    def test_frobenius_norm_sixteen_by_four(self):
        ch = make_channel(41.0, -13.0, 0.5, 16, 4)
        assert np.linalg.norm(channel_matrix(ch)) == pytest.approx(4.0, rel=1e-12)

    @given(
        aod=st.floats(min_value=-89.0, max_value=89.0),
        aoa=st.floats(min_value=-89.0, max_value=89.0),
        re=st.floats(min_value=-2.0, max_value=2.0),
        im=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_frobenius_matches_gain(self, aod, aoa, re, im):
        beta = complex(re, im)
        ch = make_channel(aod, aoa, beta, 8, 2)
        expected = math.sqrt(16) * abs(beta)
        assert np.linalg.norm(channel_matrix(ch)) == pytest.approx(expected, abs=1e-12)

    def test_rank_one_with_matching_singular_value(self, rng):
        for _ in range(20):
            beta = complex(rng.standard_normal(), rng.standard_normal())
            if abs(beta) < 1e-3:
                continue
            ch = make_channel(
                rng.uniform(-90, 90), rng.uniform(-90, 90), beta, 16, 4
            )
            svals = np.linalg.svd(channel_matrix(ch), compute_uv=False)
            expected = math.sqrt(64) * abs(beta)
            assert svals[0] == pytest.approx(expected, rel=1e-10)
            assert svals[1] <= 1e-10 * svals[0]


class TestFejerCorrelation:
    def test_self_correlation(self):
        assert fejer_correlation(0.0, 16) == 1.0

    def test_first_null(self):
        assert fejer_correlation(2.0 / 16.0, 16) == pytest.approx(0.0, abs=1e-25)

    def test_frozen_series_value(self):
        assert fejer_correlation(1.0 / 16.0, 16) == pytest.approx(
            KERNEL_AT_ONE_SIXTEENTH, rel=1e-12
        )

    def test_period_two_singularity(self):
        assert fejer_correlation(2.0, 16) == 1.0
        assert fejer_correlation(-4.0, 7) == 1.0

    @given(
        delta=st.floats(min_value=-2.0, max_value=2.0),
        phi=st.floats(min_value=-1.0, max_value=1.0),
        t=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200)
    def test_matches_steering_inner_product(self, delta, phi, t):
        geometry = ArrayGeometry(t)
        k = np.arange(t)
        a_ref = np.exp(-1j * np.pi * k * phi) / math.sqrt(t)
        a_off = np.exp(-1j * np.pi * k * (phi + delta)) / math.sqrt(t)
        brute = abs(np.vdot(a_ref, a_off)) ** 2
        assert fejer_correlation(delta, t) == pytest.approx(brute, abs=1e-12)

    @given(delta=st.floats(min_value=-2.0, max_value=2.0), t=st.integers(1, 64))
    def test_even_and_periodic(self, delta, t):
        value = fejer_correlation(delta, t)
        assert fejer_correlation(-delta, t) == pytest.approx(value, abs=1e-12)
        assert fejer_correlation(delta + 2.0, t) == pytest.approx(value, abs=1e-9)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            fejer_correlation(0.1, 0)
        with pytest.raises(ValueError):
            ArrayGeometry(0)
