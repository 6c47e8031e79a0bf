import math

import numpy as np
import pytest

from spinboson.linalg import von_neumann_entropy
from spinboson.model import (
    PARTITION_ORDER,
    Amplitudes,
    Scenario,
    SpectralDensity,
    amplitudes_flat,
    amplitudes_lorentz,
    build_state,
    pure_state,
    reduced,
)

RATIO = math.sqrt(200.0)  # strong-coupling figure parameter W/lambda


class TestFlatAmplitudes:
    def test_initial(self):
        assert amplitudes_flat(0.0) == Amplitudes(1.0, 0.0)

    def test_half_life(self):
        xi, chi = amplitudes_flat(math.log(2.0))
        assert abs(xi - 2.0**-0.5) < 1e-15
        assert abs(chi - 2.0**-0.5) < 1e-15

    def test_full_decay(self):
        xi, chi = amplitudes_flat(80.0)
        assert xi < 1e-17
        assert abs(chi - 1.0) < 1e-15

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            amplitudes_flat(-0.1)

    def test_monotone(self):
        ts = np.linspace(0.0, 6.0, 200)
        xs = np.array([amplitudes_flat(t).xi for t in ts])
        cs = np.array([amplitudes_flat(t).chi for t in ts])
        assert np.all(np.diff(xs) < 0.0)
        assert np.all(np.diff(cs) > 0.0)
        assert np.abs(xs**2 + cs**2 - 1.0).max() < 1e-12


class TestLorentzAmplitudes:
    def test_initial(self):
        assert amplitudes_lorentz(0.0, RATIO) == Amplitudes(1.0, 0.0)

    def test_first_zero_underdamped(self):
        # root of sin(om t/2)/om + cos(om t/2) = 0 with om = sqrt(799):
        # tan(om t / 2) = -om, first solution 2 (pi - atan om) / om
        om = math.sqrt(4.0 * RATIO**2 - 1.0)
        t_zero = 2.0 * (math.pi - math.atan(om)) / om
        lo, hi = 0.9 * t_zero, 1.1 * t_zero
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if amplitudes_lorentz(lo, RATIO).xi * amplitudes_lorentz(mid, RATIO).xi <= 0.0:
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - t_zero) < 1e-9

    def test_weak_coupling_limit(self):
        # W -> 0 decouples the spin: xi -> 1 at fixed time
        for ratio in (1e-3, 1e-4, 1e-5):
            assert amplitudes_lorentz(1.0, ratio).xi > 1.0 - 4.0 * ratio**2

    def test_critical_point_continuity(self):
        for tau in (0.3, 1.0, 2.7):
            below = amplitudes_lorentz(tau, 0.5 - 1e-7).xi
            above = amplitudes_lorentz(tau, 0.5 + 1e-7).xi
            crit = amplitudes_lorentz(tau, 0.5).xi
            assert abs(below - above) < 1e-6
            assert abs(crit - math.exp(-tau / 2.0) * (1.0 + tau / 2.0)) < 1e-12

    def test_amplitude_bounded(self):
        for ratio in (0.1, 0.5, 2.0, RATIO):
            for tau in np.linspace(0.0, 5.0, 300):
                xi, chi = amplitudes_lorentz(tau, ratio)
                assert abs(xi) <= 1.0 + 1e-12
                assert abs(xi * xi + chi * chi - 1.0) < 1e-12

    def test_overdamped_large_time_stable(self):
        xi, chi = amplitudes_lorentz(2000.0, 0.2)
        assert 0.0 <= xi < 1e-30
        assert abs(chi - 1.0) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            amplitudes_lorentz(-1.0, RATIO)
        with pytest.raises(ValueError):
            amplitudes_lorentz(1.0, 0.0)


def two_exc_reduced_expected(alpha, beta, xi, chi):
    # reduced spin state written out by hand from the evolved superposition
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = abs(alpha) ** 2 + abs(beta) ** 2 * chi**4
    rho[1, 1] = rho[2, 2] = abs(beta) ** 2 * xi**2 * chi**2
    rho[3, 3] = abs(beta) ** 2 * xi**4
    rho[0, 3] = alpha * np.conj(beta) * xi**2
    rho[3, 0] = np.conj(rho[0, 3])
    return rho


def one_exc_reduced_expected(alpha, beta, xi, chi):
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = chi**2
    rho[1, 1] = abs(alpha) ** 2 * xi**2
    rho[2, 2] = abs(beta) ** 2 * xi**2
    rho[1, 2] = alpha * np.conj(beta) * xi**2
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


class TestPureState:
    def test_two_excitation_initial(self):
        alpha, beta = 1.0 / math.sqrt(10.0), 3.0 / math.sqrt(10.0)
        psi = pure_state("two_exc", alpha, beta, Amplitudes(1.0, 0.0))
        assert psi[0b0000] == alpha
        assert psi[0b1100] == beta
        assert np.count_nonzero(psi) == 2

    def test_two_excitation_half_decayed(self):
        xi = chi = 2.0**-0.5
        psi = pure_state("two_exc", 0.0, 1.0, Amplitudes(xi, chi))
        for index in (0b1100, 0b1001, 0b0110, 0b0011):
            assert abs(abs(psi[index]) ** 2 - 0.25) < 1e-12

    def test_one_excitation_drained(self):
        alpha, beta = 0.6, 0.8
        psi = pure_state("one_exc", alpha, beta, Amplitudes(0.0, 1.0))
        assert abs(psi[0b0001] - alpha) < 1e-15
        assert abs(psi[0b0010] - beta) < 1e-15
        assert np.count_nonzero(psi) == 2

    def test_norm_preserved_both_spectra(self):
        alpha, beta = 0.6, 0.8j
        for fam in ("two_exc", "one_exc"):
            for tau in np.linspace(0.0, 4.0, 60):
                for amps in (amplitudes_flat(tau), amplitudes_lorentz(tau, RATIO)):
                    psi = pure_state(fam, alpha, beta, amps)
                    assert abs(np.vdot(psi, psi).real - 1.0) < 1e-10


class TestReduced:
    @pytest.mark.parametrize("gamma_t", [0.0, 0.3, 1.2, 4.0])
    def test_two_exc_matches_formula(self, gamma_t):
        alpha, beta = 1.0 / math.sqrt(10.0), 3.0j / math.sqrt(10.0)
        amps = amplitudes_flat(gamma_t)
        rho = reduced(pure_state("two_exc", alpha, beta, amps), "s1s2")
        assert np.abs(rho - two_exc_reduced_expected(alpha, beta, *amps)).max() < 1e-12

    @pytest.mark.parametrize("tau", [0.0, 0.05, 0.17, 0.9])
    def test_one_exc_matches_formula_lorentz(self, tau):
        alpha, beta = 2.0**-0.5, -(2.0**-0.5)
        amps = amplitudes_lorentz(tau, RATIO)
        rho = reduced(pure_state("one_exc", alpha, beta, amps), "s1s2")
        assert np.abs(rho - one_exc_reduced_expected(alpha, beta, *amps)).max() < 1e-12

    def test_initial_reservoir_partitions_product(self):
        psi = pure_state("two_exc", 0.6, 0.8, Amplitudes(1.0, 0.0))
        empty = np.diag([1.0, 0.0]).astype(complex)
        spin1 = np.diag([0.36, 0.64]).astype(complex)
        assert np.abs(reduced(psi, "s1r1") - np.kron(spin1, empty)).max() < 1e-12
        assert np.abs(reduced(psi, "r1r2") - np.kron(empty, empty)).max() < 1e-12

    def test_complementary_partitions_equal_entropy(self):
        alpha, beta = 0.6, 0.8
        for tau in (0.2, 0.7, 1.9):
            psi = pure_state("two_exc", alpha, beta, amplitudes_flat(tau))
            pairs = [("s1s2", "r1r2"), ("s1r1", "s2r2"), ("s1r2", "s2r1")]
            for a, b in pairs:
                sa = von_neumann_entropy(reduced(psi, a))
                sb = von_neumann_entropy(reduced(psi, b))
                assert abs(sa - sb) < 1e-8

    def test_unknown_partition(self):
        psi = pure_state("two_exc", 1.0, 0.0, Amplitudes(1.0, 0.0))
        with pytest.raises(ValueError, match="partition"):
            reduced(psi, "s1s3")


class TestScenario:
    def test_build_state_uses_family(self):
        sc = Scenario("one_exc", 0.6, 0.8, SpectralDensity("flat", gamma=1.0), np.array([0.0, 1.0]))
        psi = build_state(sc, Amplitudes(1.0, 0.0))
        assert abs(psi[0b0100] - 0.6) < 1e-15
        assert abs(psi[0b1000] - 0.8) < 1e-15

    def test_partition_table_complete(self):
        assert set(PARTITION_ORDER) == {"s1s2", "r1r2", "s1r1", "s1r2", "s2r1", "s2r2"}

    def test_validation(self):
        flat = SpectralDensity("flat", gamma=1.0)
        with pytest.raises(ValueError, match="family"):
            Scenario("three_exc", 1.0, 0.0, flat, np.array([0.0]))
        with pytest.raises(ValueError, match="alpha"):
            Scenario("two_exc", 1.0, 0.5, flat, np.array([0.0]))
        with pytest.raises(ValueError, match="increasing"):
            Scenario("two_exc", 1.0, 0.0, flat, np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="0"):
            Scenario("two_exc", 1.0, 0.0, flat, np.array([-1.0, 0.0]))

    @pytest.mark.parametrize("grid", [[0.0, np.inf, np.inf], [0.0, np.nan]])
    def test_non_finite_grid_rejected(self, grid):
        # [0, inf, inf] passed the increasing check: inf - inf is nan, and nan <= 0 is False
        with pytest.raises(ValueError, match="finite"):
            Scenario("two_exc", 1.0, 0.0, SpectralDensity("flat", gamma=1.0), np.array(grid))

    def test_spectral_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            SpectralDensity("flat", gamma=0.0)
        with pytest.raises(ValueError, match="W"):
            SpectralDensity("lorentz", W=0.0, lam=1.0)
        with pytest.raises(ValueError, match="kind"):
            SpectralDensity("square", gamma=1.0)
