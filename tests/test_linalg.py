import math

import numpy as np
import pytest

from spinboson.correlations import (
    _SPIN_FLIP,
    classical_correlation_bruteforce,
    concurrence_wootters,
    discord,
    mutual_information,
)
from spinboson.linalg import SIGMA_Y, binary_entropy, require_state, von_neumann_entropy


def h2(x):
    # independent reference implementation
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def test_spin_flip_is_sigma_y_squared():
    assert np.array_equal(_SPIN_FLIP, np.kron(SIGMA_Y, SIGMA_Y))


class TestRequireState:
    def test_x_state_spectrum(self):
        # two-excitation reduced state at beta^2 = xi^2 = 1/2: middle block
        # is degenerate at 1/8, outer block follows the 2x2 closed form
        b2 = x2 = c2 = 0.5
        a2 = 1.0 - b2
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = a2 + b2 * c2 * c2
        rho[1, 1] = rho[2, 2] = b2 * x2 * c2
        rho[3, 3] = b2 * x2 * x2
        rho[0, 3] = rho[3, 0] = math.sqrt(a2 * b2) * x2
        _, vals = require_state(rho, "test", 4)
        aa, dd, zz = rho[0, 0].real, rho[3, 3].real, rho[0, 3].real
        outer_hi = 0.5 * (aa + dd + math.hypot(aa - dd, 2 * zz))
        outer_lo = 0.5 * (aa + dd - math.hypot(aa - dd, 2 * zz))
        assert np.allclose(vals, sorted([outer_hi, outer_lo, 0.125, 0.125]), atol=1e-12)

    @pytest.mark.parametrize(
        "check", [von_neumann_entropy, mutual_information, concurrence_wootters, discord, classical_correlation_bruteforce]
    )
    def test_single_state_functions_share_the_check(self, check):
        bell = np.zeros((4, 4), dtype=complex)
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        skew = bell.copy()
        skew[0, 3] += 1e-9
        cases = [
            (np.eye(8)[:4] / 4.0, "shape"),
            (skew, "Hermitian"),
            (bell * 1.01, "trace"),
            (np.diag([1.1, 0.0, 0.0, -0.1]).astype(complex), "eigenvalue"),
        ]
        for rho, message in cases:
            with pytest.raises(ValueError, match=message):
                check(rho)
        check(bell)

    def test_dimension_limits(self):
        with pytest.raises(ValueError, match="4x4"):
            mutual_information(np.eye(2) / 2.0)
        with pytest.raises(ValueError, match="16x16"):
            von_neumann_entropy(np.eye(32) / 32.0)
        assert abs(von_neumann_entropy(np.eye(16) / 16.0) - 4.0) < 1e-12


class TestEntropy:
    def test_pure_state_zero(self):
        psi = np.array([0.6, 0.8j], dtype=complex)
        assert von_neumann_entropy(np.outer(psi, psi.conj())) < 1e-12

    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(np.eye(2, dtype=complex) / 2.0) - 1.0) < 1e-12

    def test_quarter_mixture(self):
        s = von_neumann_entropy(np.diag([0.25, 0.75]).astype(complex))
        assert abs(s - h2(0.25)) < 1e-12
        assert abs(s - 0.811278) < 1e-6

    def test_rejects_negative_spectrum(self):
        m = np.diag([1.1, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            von_neumann_entropy(m)

    def test_clamps_round_off(self):
        m = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        # trace is 1, tiny negative eigenvalue absorbed
        assert von_neumann_entropy(m) >= 0.0


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_point_nine(self):
        assert abs(binary_entropy(0.9) - h2(0.9)) < 1e-15
        assert abs(binary_entropy(0.9) - 0.468996) < 1e-6

    def test_symmetry(self):
        xs = np.linspace(0.0, 1.0, 101)
        assert np.abs(binary_entropy(xs) - binary_entropy(1.0 - xs)).max() < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(1.001)
        with pytest.raises(ValueError):
            binary_entropy(-0.001)
        # within clamp width
        assert binary_entropy(1.0 + 5e-13) == 0.0
        # NaN stays NaN rather than reading as an endpoint's 0
        assert np.isnan(binary_entropy(np.nan))
        assert np.array_equal(binary_entropy(np.array([0.5, np.nan])), [1.0, np.nan], equal_nan=True)
