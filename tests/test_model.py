import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinboson.linalg import random_pure_state, von_neumann_entropy
from spinboson.model import (
    FAMILIES,
    PARTITION_ORDER,
    PARTITIONS,
    Amplitudes,
    Scenario,
    SpectralDensity,
    amplitudes_flat,
    amplitudes_lorentz,
    pure_state,
    reduced,
    reduced_batch,
    state_batch,
)

RATIO = math.sqrt(200.0)  # strong-coupling figure parameter W/lambda


def partial_trace(rho, keep, dims):
    """Reference reduced matrix of the subsystems in ``keep`` (in their original order)."""
    n = len(dims)
    keep = sorted(keep)
    row = [chr(ord("a") + i) for i in range(n)]
    col = [row[i] if i not in keep else chr(ord("a") + n + i) for i in range(n)]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    d_keep = int(np.prod([dims[i] for i in keep]))
    return np.einsum("".join(row + col) + "->" + out, rho.reshape(list(dims) * 2)).reshape(d_keep, d_keep)


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

    @pytest.mark.parametrize("tau", [-0.1, math.nan, [0.5, math.nan]])
    def test_negative_time_rejected(self, tau):
        # a NaN time used to give (nan, nan)
        with pytest.raises(ValueError, match="negative"):
            amplitudes_flat(tau)

    def test_monotone(self):
        ts = np.linspace(0.0, 6.0, 200)
        xs, cs = amplitudes_flat(ts)
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
        for tau in (-1.0, math.nan, [0.5, math.nan]):
            for ratio in (0.2, 0.5, RATIO):
                with pytest.raises(ValueError, match="negative"):
                    amplitudes_lorentz(tau, ratio)
        # a NaN ratio used to give the critical-damping amplitude
        for ratio in (0.0, math.nan):
            with pytest.raises(ValueError, match="positive"):
                amplitudes_lorentz(1.0, ratio)
        # math.sin raised on an infinite phase; np.sin would return NaN
        with pytest.raises(ValueError, match="phase"):
            amplitudes_lorentz([1.0, 1e308], RATIO)


class TestArrayAmplitudes:
    @pytest.mark.parametrize(
        "spectral",
        [SpectralDensity("flat", gamma=1.0)]
        + [SpectralDensity("lorentz", W=r, lam=1.0) for r in (0.2, 0.5, RATIO)],
    )
    def test_array_matches_scalars(self, spectral):
        taus = np.linspace(0.0, 3.0, 31)
        xi, chi = spectral.amplitudes(taus)
        assert xi.shape == chi.shape == taus.shape
        for k, tau in enumerate(taus):
            one = spectral.amplitudes(tau)
            assert type(one.xi) is type(one.chi) is np.float64
            assert (one.xi, one.chi) == (xi[k], chi[k])

    @pytest.mark.parametrize("family", ["two_exc", "one_exc"])
    def test_state_batch_stacks_pure_states(self, family):
        sc = Scenario(family, 0.6, 0.8j, SpectralDensity("lorentz", W=RATIO, lam=1.0), np.linspace(0.0, 2.0, 21))
        (xi, chi), states = state_batch(sc)
        assert xi.shape == chi.shape == (21,) and states.shape == (21, 16)
        for x, c, psi in zip(xi, chi, states):
            assert np.array_equal(pure_state(family, 0.6, 0.8j, Amplitudes(x, c)), psi)


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


def hand_placed_state(family, alpha, beta, amps):
    """The state with each family's entries placed by hand, nine in all, each a
    weight times one or two amplitudes in that order."""
    xi, chi = np.asarray(amps, dtype=float)
    psi = np.zeros(xi.shape + (16,), dtype=complex)
    if family == "two_exc":
        psi[..., 0b0000] = alpha
        psi[..., 0b1100] = beta * xi * xi
        psi[..., 0b1001] = beta * xi * chi
        psi[..., 0b0110] = beta * chi * xi
        psi[..., 0b0011] = beta * chi * chi
    else:
        psi[..., 0b0100] = alpha * xi
        psi[..., 0b0001] = alpha * chi
        psi[..., 0b1000] = beta * xi
        psi[..., 0b0010] = beta * chi
    return psi


def evolved_state(family, alpha, beta, xi, chi):
    """The state by explicit evolution: each (spin, reservoir) pair takes |10> to
    xi |10> + chi |01> and keeps |00>, applied as a Kronecker product to the initial
    spin state c (x) |00>_r in (s1, r1, s2, r2) order, then reordered to (s1, s2, r1, r2)."""
    c = np.zeros((2, 2), dtype=complex)
    if family == "two_exc":  # alpha |00> + beta |11>
        c[0, 0], c[1, 1] = alpha, beta
    else:  # alpha |01> + beta |10>
        c[0, 1], c[1, 0] = alpha, beta
    pair = np.zeros((4, 4))  # columns |00>, |01>, |10>, |11> of (spin, reservoir); |01> and |11> never occur
    pair[0b00, 0b00] = 1.0
    pair[0b10, 0b10], pair[0b01, 0b10] = xi, chi
    start = np.zeros((2, 2, 2, 2), dtype=complex)  # (s1, r1, s2, r2)
    start[:, 0, :, 0] = c
    return (np.kron(pair, pair) @ start.reshape(16)).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(16)


complex_weights = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
spectra = st.one_of(st.just(SpectralDensity("flat", gamma=1.0)),
                    st.floats(0.05, 20.0).map(lambda ratio: SpectralDensity("lorentz", W=ratio, lam=1.0)))


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

    @settings(derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(FAMILIES), complex_weights, complex_weights, spectra,
           st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4))
    def test_matches_hand_placed_entries_and_explicit_evolution(self, family, alpha, beta, spectral, times):
        amps = spectral.amplitudes(np.array(times))
        psi = pure_state(family, alpha, beta, amps)
        assert psi.shape == (len(times), 16) and psi.dtype == complex
        # every real and imaginary part equals the hand-placed one, so a nonzero one has the same
        # bits; a zero may differ in sign, as the sum over c's entries starts from +0
        assert np.array_equal(psi.view(float), hand_placed_state(family, alpha, beta, amps).view(float))
        for row, xi, chi in zip(psi, *amps):
            assert np.abs(row - evolved_state(family, alpha, beta, xi, chi)).max() <= 1e-15

    @pytest.mark.parametrize("family", ["bogus", ["two_exc"], None])
    def test_unknown_family_rejected(self, family):
        # the presets are a dict, where a list raises TypeError: unhashable type
        with pytest.raises(ValueError, match="^pure_state: unknown family"):
            pure_state(family, 1.0, 0.0, Amplitudes(1.0, 0.0))

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

    @pytest.mark.parametrize("partition", ["s1s3", ["s1", "s2"], ("s1s2",), None])
    def test_unknown_partition(self, partition):
        # a list used to raise TypeError: unhashable type
        psi = pure_state("two_exc", 1.0, 0.0, Amplitudes(1.0, 0.0))
        with pytest.raises(ValueError, match="^reduced: unknown partition"):
            reduced(psi, partition)

    @pytest.mark.parametrize("shape", [(2, 8), (16, 1), (15,), ()])
    def test_states_of_another_length_rejected(self, shape):
        # a (2, 8) array was reshaped into one (4, 4) state without a word
        states = np.full(shape, 0.25, dtype=complex)
        message = f"^reduced: expected states of 16 amplitudes, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            reduced_batch(states, "s1s2")


class TestPartialTrace:
    def test_product_state_factorises(self):
        ra = np.array([[0.7, 0.1j], [-0.1j, 0.3]], dtype=complex)
        rb = np.diag([0.25, 0.75]).astype(complex)
        rho = np.kron(ra, rb)
        assert np.abs(partial_trace(rho, [0], [2, 2]) - ra).max() < 1e-14
        assert np.abs(partial_trace(rho, [1], [2, 2]) - rb).max() < 1e-14

    def test_two_excitation_initial_state(self):
        # alpha |0000> + beta |1100>, no decay yet: spins keep the full
        # superposition, reservoirs come out empty.
        alpha, beta = 0.6, 0.8
        psi = np.zeros(16, dtype=complex)
        psi[0b0000] = alpha
        psi[0b1100] = beta
        rho = np.outer(psi, psi.conj())
        spins = partial_trace(rho, [0, 1], [2, 2, 2, 2])
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = alpha**2
        expected[3, 3] = beta**2
        expected[0, 3] = expected[3, 0] = alpha * beta
        assert np.abs(spins - expected).max() < 1e-12
        res = partial_trace(rho, [2, 3], [2, 2, 2, 2])
        assert np.abs(res - np.diag([1.0, 0, 0, 0])).max() < 1e-12

    def test_half_decayed_corner(self):
        # xi^2 = chi^2 = 1/2 puts |alpha|^2 + |beta|^2/4 in the corner
        alpha, beta = 0.6, 0.8
        xi = chi = 2.0**-0.5
        psi = np.zeros(16, dtype=complex)
        psi[0b0000] = alpha
        psi[0b1100] = beta * xi * xi
        psi[0b1001] = beta * xi * chi
        psi[0b0110] = beta * chi * xi
        psi[0b0011] = beta * chi * chi
        spins = partial_trace(np.outer(psi, psi.conj()), [0, 1], [2, 2, 2, 2])
        assert abs(spins[0, 0] - (alpha**2 + beta**2 / 4.0)) < 1e-12
        assert abs(spins[1, 1] - beta**2 / 4.0) < 1e-12
        assert abs(spins[0, 3] - alpha * beta / 2.0) < 1e-12

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            psi = random_pure_state(rng)
            rho = np.outer(psi, psi.conj())
            keep = [0, 2]
            red = partial_trace(rho, keep, [2, 2, 2, 2])
            assert abs(red.trace().real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(red)[0] > -1e-10

    def test_schmidt_symmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            psi = random_pure_state(rng)
            rho = np.outer(psi, psi.conj())
            sa = von_neumann_entropy(partial_trace(rho, [0, 3], [2, 2, 2, 2]))
            sb = von_neumann_entropy(partial_trace(rho, [1, 2], [2, 2, 2, 2]))
            assert abs(sa - sb) < 1e-8

    @pytest.mark.parametrize("partition", PARTITION_ORDER)
    def test_reduced_batch_matches_reference(self, partition):
        rng = np.random.default_rng(21)
        states = [random_pure_state(rng) for _ in range(40)]
        for family in ("two_exc", "one_exc"):
            for spectral in (SpectralDensity("flat", gamma=1.0), SpectralDensity("lorentz", W=RATIO, lam=1.0)):
                sc = Scenario(family, 0.6, 0.8j, spectral, np.linspace(0.0, 2.0, 9))
                states.extend(state_batch(sc)[1])
        states = np.stack(states)
        got = reduced_batch(states, partition)
        for psi, rho in zip(states, got):
            ref = partial_trace(np.outer(psi, psi.conj()), PARTITIONS[partition], [2, 2, 2, 2])
            assert np.abs(rho - ref).max() < 1e-14


class TestScenario:
    def test_state_batch_uses_family(self):
        sc = Scenario("one_exc", 0.6, 0.8, SpectralDensity("flat", gamma=1.0), np.array([0.0, 1.0]))
        psi = state_batch(sc)[1][0]
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
        # a bool weight built as 1 or 0, and a string one raised TypeError from abs()
        with pytest.raises(ValueError, match="Scenario: alpha must be a number, got True"):
            Scenario("two_exc", True, False, flat, np.array([0.0]))
        with pytest.raises(ValueError, match="Scenario: beta must be a number, got False"):
            Scenario("two_exc", 1.0, False, flat, np.array([0.0]))
        with pytest.raises(ValueError, match="Scenario: beta must be a number, got '0'"):
            Scenario("two_exc", 1.0, "0", flat, np.array([0.0]))
        with pytest.raises(ValueError, match="increasing"):
            Scenario("two_exc", 1.0, 0.0, flat, np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="0"):
            Scenario("two_exc", 1.0, 0.0, flat, np.array([-1.0, 0.0]))

    @pytest.mark.parametrize("alpha,beta", [(np.int64(1), np.complex64(0)), (np.float32(0.6), None),
                                            (np.complex128(1j), np.float16(0))],
                             ids=["int64_complex64", "float32", "complex128_float16"])
    def test_numpy_weights_accepted(self, alpha, beta):
        # they were rejected as not numbers; a float32 weight holds its float32 value exactly
        beta = math.sqrt(1.0 - float(alpha) ** 2) if beta is None else beta
        sc = Scenario("one_exc", alpha, beta, SpectralDensity("flat", gamma=1.0), np.array([0.0, 1.0]))
        assert (sc.alpha, sc.beta) == (complex(alpha), complex(beta))
        assert type(sc.alpha) is complex and type(sc.beta) is complex
        assert abs(state_batch(sc)[1][0][0b0100] - complex(alpha)) < 1e-15

    @pytest.mark.parametrize("alpha,beta", [(10**400, 0.0), (1.0, -(10**400))], ids=["alpha", "beta"])
    def test_huge_int_weight_rejected(self, alpha, beta):
        # abs(weight) ** 2 - 1.0 raised OverflowError
        with pytest.raises(ValueError, match=r"\|alpha\|\^2 \+ \|beta\|\^2 = inf, must be 1"):
            Scenario("two_exc", alpha, beta, SpectralDensity("flat", gamma=1.0), np.array([0.0]))

    @pytest.mark.parametrize("alpha,beta", [(math.nan, 1.0), (1.0, complex(math.nan, 0.0)), (complex(0.0, math.nan), 0.0)])
    def test_nan_weights_rejected(self, alpha, beta):
        # NaN fails every comparison, so |norm - 1| > 1e-10 let it through
        with pytest.raises(ValueError, match=r"\|alpha\|\^2 \+ \|beta\|\^2 = nan"):
            Scenario("two_exc", alpha, beta, SpectralDensity("flat", gamma=1.0), np.array([0.0, 1.0]))

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

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            (dict(kind="flat", gamma=math.nan), "gamma"),
            (dict(kind="flat", gamma=math.inf), "gamma"),
            (dict(kind="lorentz", W=math.nan, lam=1.0), "W"),
            (dict(kind="lorentz", W=1.0, lam=math.nan), "lambda"),
            (dict(kind="lorentz", W=1.0, lam=-math.inf), "lambda"),
            (dict(kind="flat", gamma=10**400), "gamma"),
            (dict(kind="lorentz", W=10**400, lam=1.0), "W"),
        ],
        ids=["flat_nan", "flat_inf", "lorentz_W_nan", "lorentz_lambda_nan", "lorentz_lambda_minus_inf",
             "flat_huge_int", "lorentz_W_huge_int"],
    )
    def test_non_finite_spectral_parameter_named(self, kwargs, name):
        # NaN passed the old gamma <= 0 and W <= 0 or lam <= 0 checks, and an int
        # past the float range raised OverflowError from math.isfinite
        with pytest.raises(ValueError, match=rf"finite {name} > 0"):
            SpectralDensity(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(kind="flat", gamma=np.float32(1.0)), dict(kind="lorentz", W=np.float32(2.0), lam=np.float32(0.5)),
         dict(kind="lorentz", W=np.int64(3), lam=np.float16(1.0))],
        ids=["flat_float32", "lorentz_float32", "lorentz_int64_float16"],
    )
    def test_numpy_spectral_parameters_accepted(self, kwargs):
        # a float32 field raised 'overflow encountered in cast' from the bound
        # check, a RuntimeWarning that the test settings turn into an error
        spectral = SpectralDensity(**kwargs)
        for attr, value in kwargs.items():
            if attr != "kind":
                assert getattr(spectral, attr) == float(value) and type(getattr(spectral, attr)) is float
