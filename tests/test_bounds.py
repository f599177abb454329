"""Hermitian correlation, channel decomposition, and the rate lower bound."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbnoma import (
    AngleSpec,
    ArrayGeometry,
    bound_components,
    decompose_effective_channel,
    eta_factor,
    fejer_correlation,
    hermitian_correlation,
    kernel_sum,
    lower_bound_rate,
    max_leakage_eigenvalue,
    steering_vector,
)
from hbnoma.precoding import AnalogPrecoder, BasebandPrecoder

from conftest import draw_scenario


def random_vector(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def beams(*normalized, t=16):
    cols = [steering_vector(AngleSpec.from_normalized(x), ArrayGeometry(t)) for x in normalized]
    return AnalogPrecoder(np.column_stack(cols))


class TestHermitianCorrelation:
    def test_identical_vectors(self, rng):
        v = random_vector(rng, 4)
        report = hermitian_correlation(v, v)
        assert report.rho == pytest.approx(1.0, abs=1e-12)
        assert report.aligned
        assert not report.residual.any()

    def test_orthogonal_vectors(self):
        a = np.array([1.0 + 0j, 0.0])
        b = np.array([0.0j, 1.0])
        report = hermitian_correlation(a, b)
        assert report.rho == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(report.residual, a / np.linalg.norm(a), atol=1e-14)

    def test_residual_is_unit_and_orthogonal(self, rng):
        for _ in range(50):
            hm, h1 = random_vector(rng, 5), random_vector(rng, 5)
            report = hermitian_correlation(hm, h1)
            if report.aligned:
                continue
            assert np.linalg.norm(report.residual) == pytest.approx(1.0, abs=1e-12)
            h1_t = h1 / np.linalg.norm(h1)
            assert abs(np.vdot(h1_t, report.residual)) <= 1e-10

    @given(
        scale_mag=st.floats(min_value=0.01, max_value=100.0),
        scale_phase=st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=50)
    def test_scale_invariance(self, scale_mag, scale_phase):
        rng = np.random.default_rng(99)
        hm, h1 = random_vector(rng, 4), random_vector(rng, 4)
        base = hermitian_correlation(hm, h1).rho
        scale = scale_mag * cmath.exp(1j * scale_phase)
        assert hermitian_correlation(hm * scale, h1).rho == pytest.approx(base, abs=1e-12)
        assert hermitian_correlation(hm, h1 * scale).rho == pytest.approx(base, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            hermitian_correlation(np.zeros(3, complex), np.ones(3, complex))

    def test_pseudo_angle_matches_inner_product(self, rng):
        hm, h1 = random_vector(rng, 4), random_vector(rng, 4)
        report = hermitian_correlation(hm, h1)
        inner = np.vdot(hm / np.linalg.norm(hm), h1 / np.linalg.norm(h1))
        assert report.pseudo_angle == pytest.approx(cmath.phase(inner), abs=1e-12)


class TestDecomposition:
    def test_aligned_pair_reconstructs_exactly(self, rng):
        v = random_vector(rng, 4)
        report = hermitian_correlation(v, 2.5j * v)
        assert decompose_effective_channel(report, v, 2.5j * v) <= 1e-12

    def test_orthogonal_pair_reconstructs_exactly(self):
        a = np.array([1.0 + 0j, 0.0, 0.0])
        b = np.array([0.0j, 1.0, 0.0])
        report = hermitian_correlation(a, b)
        assert decompose_effective_channel(report, a, b) <= 1e-12

    def test_random_pairs_reconstruct(self, rng):
        worst = 0.0
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            hm, h1 = random_vector(rng, dim), random_vector(rng, dim)
            report = hermitian_correlation(hm, h1)
            worst = max(worst, decompose_effective_channel(report, hm, h1))
        assert worst <= 1e-10


class TestEtaFactor:
    def test_orthogonal_beams(self):
        assert eta_factor(beams(0.0, 2 / 16, 4 / 16)) == pytest.approx(1.0, abs=1e-12)

    def test_single_beam(self):
        assert eta_factor(beams(0.3)) == pytest.approx(1.0, abs=1e-12)

    def test_two_close_beams_closed_form(self):
        # 2x2 beam Gram has eigenvalues 1 +- |c|, so the spread factor
        # collapses to 1/(1-|c|^2)
        precoder = beams(0.0, 0.1)
        c = abs(np.vdot(precoder.matrix[:, 0], precoder.matrix[:, 1]))
        assert eta_factor(precoder) == pytest.approx(1.0 / (1.0 - c * c), rel=1e-12)
        assert eta_factor(precoder) == pytest.approx(1.0583672049646293, rel=1e-10)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            eta_factor(beams(0.2, 0.2))

    def test_at_least_one(self, rng):
        for _ in range(20):
            spots = rng.uniform(-1, 1, int(rng.integers(2, 5)))
            if np.min(np.abs(np.subtract.outer(spots, spots))[~np.eye(len(spots), dtype=bool)]) < 0.05:
                continue
            assert eta_factor(beams(*spots)) >= 1.0 - 1e-12


class TestKernelSum:
    def test_single_beam_self_term(self):
        assert kernel_sum([0.37], 0.37, 16) == pytest.approx(1.0)

    def test_null_aligned_cross_term_drops(self):
        assert kernel_sum([0.0, 2 / 16], 0.0, 16) == pytest.approx(1.0, abs=1e-20)

    def test_three_beam_geometry(self):
        firsts = [math.sin(math.radians(a)) for a in (0.0, -40.0, 40.0)]
        expected = (
            1.0
            + fejer_correlation(firsts[1] - firsts[0], 16)
            + fejer_correlation(firsts[2] - firsts[0], 16)
        )
        assert kernel_sum(firsts, firsts[0], 16) == pytest.approx(expected, rel=1e-12)


class TestLeakageEigenvalue:
    def test_matches_power_iteration(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            matrix = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            baseband = BasebandPrecoder(matrix)
            for drop in range(n):
                reduced = baseband.without_column(drop)
                s = reduced @ reduced.conj().T
                x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                x /= np.linalg.norm(x)
                for _ in range(500):
                    x = s @ x
                    x /= np.linalg.norm(x)
                oracle = float(np.real(np.vdot(x, s @ x)))
                got = max_leakage_eigenvalue(baseband, drop)
                assert got == pytest.approx(oracle, rel=1e-8)
                assert got >= 0.0

    def test_single_cluster_has_no_leakage(self):
        assert max_leakage_eigenvalue(BasebandPrecoder(np.array([[0.7 + 0.2j]])), 0) == 0.0


class TestLowerBoundRate:
    def _state(self, rng):
        return draw_scenario(rng, 2, 2, 16, min_first_separation_deg=15.0, weak_user_offset_deg=8.0)

    def _bound_inputs(self, state, n=0):
        cluster = state.plan.assignments[n]
        uid = cluster[1]
        report = hermitian_correlation(
            state.effective.vector(uid), state.effective.vector(cluster[0])
        )
        return cluster, uid, report

    def test_full_alignment_drops_inter_term(self, rng):
        state = self._state(rng)
        cluster, uid, _ = self._bound_inputs(state)
        firsts = state.first_aods_normalized()
        components = bound_components(
            rho=1.0,
            stronger_powers=[state.powers.power_of(cluster[0])],
            cluster_power=state.powers.cluster_power[0],
            gain_magnitude=state.channels[uid].gain.magnitude,
            bs_antennas=16,
            mu_antennas=4,
            precoder=state.precoder,
            baseband=state.baseband,
            cluster_idx=0,
            first_user_aods=firsts,
            first_user_aod=firsts[0],
            user_aod=state.channels[uid].aod.normalized,
        )
        assert components.zeta_inter == 0.0
        assert components.zeta_intra > 0.0
        assert components.zeta_noise > 0.0

    def test_rho_domain_checked(self, rng):
        state = self._state(rng)
        cluster, uid, _ = self._bound_inputs(state)
        firsts = state.first_aods_normalized()
        with pytest.raises(ValueError):
            lower_bound_rate(
                sic_idx=1,
                rho=1.5,
                user_power=1.0,
                stronger_powers=[0.5],
                cluster_power=1.0,
                gain_magnitude=0.3,
                bs_antennas=16,
                mu_antennas=4,
                precoder=state.precoder,
                baseband=state.baseband,
                cluster_idx=0,
                first_user_aods=firsts,
                user_aod=firsts[0],
            )

    def test_first_user_position_rejected(self, rng):
        state = self._state(rng)
        firsts = state.first_aods_normalized()
        with pytest.raises(ValueError):
            lower_bound_rate(
                sic_idx=0,
                rho=0.9,
                user_power=1.0,
                stronger_powers=[],
                cluster_power=1.0,
                gain_magnitude=0.3,
                bs_antennas=16,
                mu_antennas=4,
                precoder=state.precoder,
                baseband=state.baseband,
                cluster_idx=0,
                first_user_aods=firsts,
                user_aod=firsts[0],
            )

    def test_log_argument_nondecreasing_in_rho(self, rng):
        # numerator and the intra term both scale with rho^2 while the
        # inter term shrinks, so the SINR argument must grow with rho
        state = self._state(rng)
        cluster, uid, _ = self._bound_inputs(state)
        firsts = state.first_aods_normalized()
        args = []
        for rho in np.linspace(0.05, 1.0, 40):
            components = bound_components(
                rho=float(rho),
                stronger_powers=[state.powers.power_of(cluster[0])],
                cluster_power=state.powers.cluster_power[0],
                gain_magnitude=state.channels[uid].gain.magnitude,
                bs_antennas=16,
                mu_antennas=4,
                precoder=state.precoder,
                baseband=state.baseband,
                cluster_idx=0,
                first_user_aods=firsts,
                first_user_aod=firsts[0],
                user_aod=state.channels[uid].aod.normalized,
            )
            numerator = (
                state.powers.power_of(uid)
                * rho**2
                * 64
                * state.channels[uid].gain.magnitude ** 2
            )
            args.append(
                numerator
                / (components.zeta_intra + components.zeta_inter + components.zeta_noise)
            )
        assert all(b >= a - 1e-12 for a, b in zip(args, args[1:]))

    def test_exact_rho_for_coincident_aod(self, rng):
        # a user sharing its first user's AoD has a parallel effective
        # channel, so the correlation is exactly one
        state = draw_scenario(rng, 3, 2, 16, min_first_separation_deg=12.0, weak_user_offset_deg=0.0)
        for n, cluster in enumerate(state.plan.assignments):
            report = hermitian_correlation(
                state.effective.vector(cluster[1]), state.effective.vector(cluster[0])
            )
            assert report.rho >= 1.0 - 1e-12
