import math
import re
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from spinboson.correlations import (
    _OFF_X,
    MAX_GRID,
    MAX_REFINE_ITERS,
    MeasurementAxis,
    _cc_mesh,
    classical_correlation_batch,
    classical_correlation_bruteforce,
    classical_correlation_spins_two_exc,
    concurrence_batch,
    concurrence_closed,
    concurrence_wootters,
    discord,
    discord_from,
    mutual_information,
    mutual_information_batch,
    quantum_correlation_spins_one_exc,
    reservoir_correlations_two_exc,
)
from spinboson.experiments import run_sweep
from spinboson.io import FIGURE_CONFIGS, RunConfig
from spinboson.linalg import random_pure_state
from spinboson.model import (
    PARTITION_ORDER,
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

LOPSIDED = (1.0 / math.sqrt(10.0), 3.0 / math.sqrt(10.0))
BELL = (2.0**-0.5, 2.0**-0.5)
RATIO = math.sqrt(200.0)


def h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def spin_cc_reference(b2, x2, c2):
    # direct evaluation of the analytic optimum, kept separate from the
    # package implementation on purpose
    return h2(b2 * x2) - h2(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * b2 * x2 * c2))))


# Amplitude grids for the concurrence checks of TestConcurrence: short
# ones, and long ones on which spin-pair weights fall below 1e-13 of the
# largest (gamma t ~ 28) and a two_exc Lorentzian r1r2 state has
# lambda_2 = lambda_3 ~ 3e-7 (lambda t = 9)
CONCURRENCE_GRIDS = {
    "flat_3": amplitudes_flat(np.linspace(0.0, 3.0, 25)),
    "flat_6": amplitudes_flat(np.linspace(0.0, 6.0, 40)),
    "flat_40": amplitudes_flat(np.linspace(0.0, 40.0, 2001)),
    "lorentz_1.5": amplitudes_lorentz(np.linspace(0.0, 1.5, 40), RATIO),
    "lorentz_30": amplitudes_lorentz(np.linspace(0.0, 30.0, 2001), RATIO),
}


def classical_decimal(b2, x2, digits=320):
    """H(p) - H(q) of ``_classical`` in decimal, with y2 = 1 - x2 exactly, from float inputs."""

    def h(p):
        return Decimal(0) if p <= 0 or p >= 1 else -(p * p.ln() + (1 - p) * (1 - p).ln())

    with localcontext() as ctx:
        ctx.prec = digits
        b, x = Decimal(b2), Decimal(x2)
        p, u = b * x, b * x * (1 - x)
        return float((h(p) - h((1 - (1 - 4 * u).sqrt()) / 2)) / Decimal(2).ln())


def one_exc_quantum_decimal(a2, x2, digits=120):
    """H(alpha2 xi2) + H(q) - H(xi2) of the one_exc spin-pair Q in decimal, with chi2 = 1 - xi2 exactly."""

    def h(p):
        return Decimal(0) if p <= 0 or p >= 1 else -(p * p.ln() + (1 - p) * (1 - p).ln())

    with localcontext() as ctx:
        ctx.prec = digits
        a, x = Decimal(a2), Decimal(x2)
        u = (1 - a) * x * (1 - x)
        return float((h(a * x) + h((1 - (1 - 4 * u).sqrt()) / 2) - h(x)) / Decimal(2).ln())


def bell_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = rho[0, 3] = rho[3, 0] = 0.5
    return rho


class TestMeasurementAxis:
    @pytest.mark.parametrize("theta,phi", [(0.0, 0.0), (np.pi / 3, 1.1), (np.pi, 5.9)])
    def test_projector_algebra(self, theta, phi):
        p_plus, p_minus = MeasurementAxis(theta, phi).projectors()
        for p in (p_plus, p_minus):
            assert np.abs(p @ p - p).max() < 1e-12
        assert np.abs(p_plus @ p_minus).max() < 1e-12
        assert np.abs(p_plus + p_minus - np.eye(2)).max() < 1e-12


class TestMutualInformation:
    def test_product_state(self):
        rho = np.kron(np.diag([0.3, 0.7]), np.diag([0.9, 0.1])).astype(complex)
        assert abs(mutual_information(rho)) < 1e-12

    def test_bell_state(self):
        assert abs(mutual_information(bell_state()) - 2.0) < 1e-12

    def test_initial_two_excitation(self):
        alpha, beta = LOPSIDED
        rho = reduced(pure_state("two_exc", alpha, beta, Amplitudes(1.0, 0.0)), "s1s2")
        # pure state: I = 2 H(9/10)
        assert abs(mutual_information(rho) - 2.0 * h2(0.9)) < 1e-10
        assert abs(mutual_information(rho) - 0.937991) < 1e-6

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            mutual_information(np.eye(4, dtype=complex))  # trace 4
        bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            mutual_information(bad)

    def test_never_negative_on_late_flat_bell_states(self):
        # the s1s2 pair of a flat Bell two_exc sweep to gamma t = 30 is near
        # pure late on, where eigvalsh's ~1e-16 absolute error on its small
        # weights put I at -3.5e-14 on 91 of 301 times
        cfg = RunConfig("two_exc", 0.70710678, 0.70710678, SpectralDensity("flat", gamma=1.0),
                        time_end=30.0, time_steps=301)
        info = run_sweep(cfg.scenario(), ("s1s2",), "brute_force").series("s1s2", "brute_force", "mutual_info")
        assert info.min() == 0.0
        assert not np.signbit(info).any()  # no -0.0, which prints as -0

    def test_batch_rejects_non_finite_cells(self):
        # eigvalsh reads the lower triangle, so a NaN there makes S(AB) NaN;
        # the floor must not report that I as 0
        rhos = np.stack([np.eye(4, dtype=complex) / 4.0] * 3)
        rhos[2, 1, 0] = np.nan
        with pytest.raises(ValueError, match="mutual_information: non-finite value nan at index 2"):
            mutual_information_batch(rhos)

    def test_batch_raises_beyond_round_off(self):
        # pure marginals, and S(AB) = 0.5 from the clipped weights (1, 0.5, 0, 0):
        # a negative I far beyond round-off
        bad = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        bad[1, 2] = bad[2, 1] = 0.5
        with pytest.raises(ValueError, match="mutual_information: negative value -5.000e-01"):
            mutual_information_batch(bad[None])


class TestBruteForce:
    def test_product_state_zero(self):
        rho = np.kron(np.diag([0.3, 0.7]), np.diag([0.9, 0.1])).astype(complex)
        value, _ = classical_correlation_bruteforce(rho, grid=24, refine_iters=3)
        assert value < 1e-9

    def test_half_decayed_matches_closed_form(self):
        alpha, beta = BELL
        rho = reduced(pure_state("two_exc", alpha, beta, Amplitudes(2**-0.5, 2**-0.5)), "s1s2")
        value, axis = classical_correlation_bruteforce(rho, grid=64, refine_iters=4)
        ref = spin_cc_reference(0.5, 0.5, 0.5)
        assert abs(ref - 0.210402) < 1e-6
        assert abs(value - ref) < 1e-6
        # optimal family is equatorial in Bloch angles; only the value is
        # unique, so check the achieved maximum rather than the axis
        check, _ = classical_correlation_bruteforce(rho, grid=8, refine_iters=6)
        assert abs(check - ref) < 1e-6

    def test_classically_correlated_diagonal(self):
        rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        value, axis = classical_correlation_bruteforce(rho, grid=32, refine_iters=4)
        assert abs(value - 1.0) < 1e-9
        assert abs(abs(math.cos(axis.theta)) - 1.0) < 1e-6

    def test_side_asymmetry(self):
        alpha, beta = LOPSIDED
        amps = amplitudes_flat(0.8)
        rho = reduced(pure_state("one_exc", alpha, beta, amps), "s1s2")
        x2 = amps.xi**2
        c2 = 1.0 - x2
        second, _ = classical_correlation_bruteforce(rho, side="second", grid=48, refine_iters=4)
        first, _ = classical_correlation_bruteforce(rho, side="first", grid=48, refine_iters=4)
        # measuring the other spin swaps the roles of the two weights
        assert abs(second - spin_cc_reference(beta**2, x2, c2)) < 1e-6
        assert abs(first - spin_cc_reference(alpha**2, x2, c2)) < 1e-6
        assert abs(first - second) > 1e-3

    def test_degenerate_outcome_branch(self):
        # |00><00|: measuring z gives p=0 on the minus branch; C must be 0
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        value, _ = classical_correlation_bruteforce(rho, grid=16, refine_iters=2)
        assert value < 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="side"):
            classical_correlation_bruteforce(bell_state(), side="third")
        with pytest.raises(ValueError, match="grid"):
            classical_correlation_bruteforce(bell_state(), grid=1)

    @pytest.mark.parametrize("name,value", [
        ("grid", 64.0), ("grid", True), ("grid", 1), ("grid", MAX_GRID + 1), ("grid", math.nan), ("grid", "64"),
        ("refine_iters", 2.5), ("refine_iters", math.nan), ("refine_iters", True), ("refine_iters", -1),
        ("refine_iters", MAX_REFINE_ITERS + 1)])
    def test_grid_and_refine_checks(self, name, value):
        # a float or a bool used to reach numpy (2.5 and NaN as a TypeError naming neither
        # argument, True as refine 1), and grid had no upper bound outside RunConfig
        match = f"classical_correlation: {name} must be an integer in "
        for call in (classical_correlation_bruteforce, discord):
            with pytest.raises(ValueError, match=match):
                call(bell_state(), **{name: value})
        # the check comes before the states are read
        with pytest.raises(ValueError, match=match):
            classical_correlation_batch(None, **{name: value})

    def test_numpy_integer_arguments(self):
        rho = bell_state()[None]
        assert np.array_equal(classical_correlation_batch(rho, grid=np.int64(16), refine_iters=np.int32(2))[0],
                              classical_correlation_batch(rho, grid=16, refine_iters=2)[0])


class TestDiscord:
    def test_classical_diagonal_zero(self):
        rho = np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex)
        assert discord(rho, grid=32, refine_iters=4) < 1e-9

    def test_bell_state(self):
        assert abs(discord(bell_state(), grid=32, refine_iters=4) - 1.0) < 1e-9

    def test_one_excitation_matches_closed_form(self):
        alpha, beta = LOPSIDED
        rho = reduced(pure_state("one_exc", alpha, beta, Amplitudes(2**-0.5, 2**-0.5)), "s1s2")
        q = discord(rho, grid=64, refine_iters=4)
        expected = -h2(0.5) + h2(0.1 * 0.5) + h2(0.5 * (1.0 + math.sqrt(1.0 - 4.0 * 0.9 * 0.25)))
        assert abs(q - expected) < 1e-6

    def test_discord_from_floors_slack_and_raises_below_it(self):
        q = discord_from(np.array([1.0, 0.5, 0.5, -0.0]), np.array([0.5, 0.5, 0.5 + 5e-9, 0.0]))
        assert q.tolist() == [0.5, 0.0, 0.0, 0.0]
        assert not np.signbit(q).any()  # no -0.0, which prints as -0
        with pytest.raises(ValueError, match="discord: negative value -2.000e-08"):
            discord_from(np.array([0.5, 0.5]), np.array([0.5, 0.5 + 2e-8]))

    def test_discord_from_rejects_non_finite_cells(self):
        # NaN fails every comparison, so a clamp alone would write it as Q = 0
        with pytest.raises(ValueError, match="discord: non-finite value nan at index 0"):
            discord_from(np.array([np.nan, 1.0]), np.array([0.0, np.nan]))
        with pytest.raises(ValueError, match="discord: non-finite value inf at index 1"):
            discord_from(np.array([0.5, np.inf, 0.5]), np.array([0.5, 0.5, 0.5]))


class TestClosedForms:
    def test_spins_two_exc_at_t0(self):
        for b2 in (0.1, 0.5, 0.9):
            assert abs(classical_correlation_spins_two_exc(b2, 1.0, 0.0) - h2(b2)) < 1e-12

    def test_spins_two_exc_half(self):
        v = classical_correlation_spins_two_exc(0.5, 0.5, 0.5)
        assert abs(v - spin_cc_reference(0.5, 0.5, 0.5)) < 1e-14
        assert abs(v - 0.210402) < 1e-6

    def test_spins_two_exc_no_excitation(self):
        assert classical_correlation_spins_two_exc(0.0, 0.5, 0.5) == 0.0

    def test_reservoirs_two_exc_endpoints(self):
        assert reservoir_correlations_two_exc(0.5, 1.0, 0.0) == (0.0, 0.0)
        c, q = reservoir_correlations_two_exc(0.5, 1e-14, 1.0 - 1e-14)
        assert abs(c - 1.0) < 1e-6 and abs(q - 1.0) < 1e-6

    def test_spins_one_exc_q_at_t0(self):
        for a2 in (0.1, 0.5, 0.77):
            assert abs(quantum_correlation_spins_one_exc(a2, 1.0, 0.0) - h2(a2)) < 1e-12

    def test_spins_one_exc_bell(self):
        assert abs(quantum_correlation_spins_one_exc(0.5, 1.0, 0.0) - 1.0) < 1e-12

    def test_spins_one_exc_vs_bruteforce(self):
        rho = reduced(pure_state("one_exc", *LOPSIDED, Amplitudes(2**-0.5, 2**-0.5)), "s1s2")
        q = discord(rho, grid=64, refine_iters=4)
        assert abs(q - quantum_correlation_spins_one_exc(0.1, 0.5, 0.5)) < 1e-6

    def test_reservoirs_one_exc_endpoints(self):
        # the reservoir pair takes the spin forms at (chi2, xi2), with beta2 = 1 - alpha2
        assert classical_correlation_spins_two_exc(0.7, 0.0, 1.0) == 0.0
        assert quantum_correlation_spins_one_exc(0.3, 0.0, 1.0) == 0.0
        assert abs(classical_correlation_spins_two_exc(0.7, 1.0, 0.0) - h2(0.7)) < 1e-12
        assert abs(quantum_correlation_spins_one_exc(0.3, 1.0, 0.0) - h2(0.3)) < 1e-12

    def test_q_differs_from_c_one_exc(self):
        gap = abs(
            quantum_correlation_spins_one_exc(0.1, 0.5, 0.5)
            - classical_correlation_spins_two_exc(0.9, 0.5, 0.5)
        )
        assert gap > 1e-3

    def test_nonnegative_at_late_times(self):
        # C and Q of both pairs are differences of entropies that shrink
        # like exp(-gamma t); none may round below zero
        amps = amplitudes_flat(np.linspace(0.0, 60.0, 3001))
        xi2, chi2 = amps.xi**2, np.minimum(amps.chi**2, 1.0)
        for w in (0.1, 0.5, 0.9):
            values = [classical_correlation_spins_two_exc(w, xi2, chi2),
                      classical_correlation_spins_two_exc(w, chi2, xi2),
                      quantum_correlation_spins_one_exc(w, xi2, chi2),
                      quantum_correlation_spins_one_exc(w, chi2, xi2),
                      *reservoir_correlations_two_exc(w, xi2, chi2)]
            assert min(v.min() for v in values) >= 0.0

    @pytest.mark.parametrize("b2", [0.1, 0.5, 0.9])
    def test_classical_relative_accuracy_late_and_early(self, b2):
        # the spin C late (xi2 = exp(-gamma t) down to 1e-130), about the
        # switch of forms and below gamma t = ln 2, where _classical takes
        # H(p) - H(q) directly, and the reservoir C early (chi2 down to 1e-8)
        # against 320 digits, taking y2 = 1 - x2 exactly: within 1e-14
        # relative wherever C is a normal float (the form H(p) - H(q) lost all
        # of C by gamma t = 37).  The spin pair gets the rounded chi2 = 1.0 -
        # xi2; fed to the reference too, that rounding would be amplified by
        # 1 / xi2 (2e-7 relative by gamma t = 20)
        spin_ts = np.concatenate([np.linspace(0.0, math.log(2.0), 8, endpoint=False),
                                  np.linspace(math.log(2.0), 5.0, 8, endpoint=False), np.linspace(5.0, 300.0, 60)])
        early = np.geomspace(1e-8, 1.0, 33)
        xi2 = np.exp(-spin_ts)
        spin = classical_correlation_spins_two_exc(b2, xi2, 1.0 - xi2)
        chi2 = -np.expm1(-early)
        reservoir, _ = reservoir_correlations_two_exc(b2, np.exp(-early), chi2)
        for got, x2 in ((spin, xi2), (reservoir, chi2)):
            want = np.array([classical_decimal(b2, x) for x in x2])
            normal = want >= np.finfo(float).tiny
            assert normal.sum() == len(want)
            assert np.all(np.abs(got - want) <= 1e-14 * want)

    @pytest.mark.parametrize("gap", [1e-4, 1e-8, 1e-12])
    def test_classical_near_full_weight(self, gap):
        # with 1 - beta2 = gap small, C is H(p) - H(q) with q close to 1 - p:
        # on the direct branch (x2 > 1/2) and in the O(d^2) cancellation of
        # _entropy_drop just below x2 = 1/2, about 3e-16 / gap relative is lost
        # (2.8e-4 at gap = 1e-12, x2 = 1/2 + 1e-8).  This pins that loss; forming
        # the radicand as (x2 - y2)^2 + 4 gap x2 y2 does not remove it
        b2 = 1.0 - gap
        near = 10.0 ** -np.arange(1, 13)
        x2 = np.concatenate([0.5 - near, 0.5 + near, np.linspace(0.02, 0.98, 49)])
        got = classical_correlation_spins_two_exc(b2, x2, 1.0 - x2)
        want = np.array([classical_decimal(b2, x) for x in x2])
        assert np.all(np.abs(got - want) <= (1e-13 + 1e-15 / gap) * want)

    @pytest.mark.parametrize("a2", [0.9, 0.5, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-18])
    def test_one_exc_quantum_relative_accuracy(self, a2):
        # the spin-pair Q on a flat tail, xi2 = exp(-gamma t) for gamma t in (0, 60], against 120
        # digits: within 1e-13 relative.  Formed as H(alpha2 xi2) + H(q) - H(xi2), it was 6.5e-7
        # off at |alpha|^2 = 1e-9 and 110 times too large at 1e-18
        xi2 = np.exp(-np.linspace(0.0, 60.0, 121)[1:])
        got = quantum_correlation_spins_one_exc(a2, xi2, 1.0 - xi2)
        want = np.array([one_exc_quantum_decimal(a2, x) for x in xi2])
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    @pytest.mark.parametrize("a2", [1e-6, 1e-12, 1e-18])
    def test_one_exc_quantum_near_equal_amplitudes(self, a2):
        # near xi2 = 1/2, d ~ |alpha| / 2 and the two log1p terms of _entropy_drop cancel to O(d^2),
        # so the error grows like 1e-17 / |alpha| there (3.5e-9 relative at |alpha|^2 = 1e-18); as
        # H(alpha2 xi2) + H(q) - H(xi2) it grew like 1e-16 / |alpha|^2
        xi2 = 0.5 + np.array([-1e-3, -1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6, 1e-3])
        got = quantum_correlation_spins_one_exc(a2, xi2, 1.0 - xi2)
        want = np.array([one_exc_quantum_decimal(a2, x) for x in xi2])
        assert np.all(np.abs(got - want) <= (1e-13 + 1e-17 / math.sqrt(a2)) * want)

    @pytest.mark.parametrize("b2", [0.1, 0.5, 0.9])
    def test_spin_classical_meets_its_leading_form_out_to_gamma_t_300(self, b2):
        # C / ((beta2 - beta2^2) gamma t exp(-2 gamma t) / ln 2) approaches 1, its gap to 1 shrinking,
        # on [8, 300], where C is ~3e-259 bits; taken as H(beta2 xi2) - H(q), C was lost to rounding
        # by gamma t = 37
        ts = np.linspace(8.0, 300.0, 293)
        xi2, chi2 = np.square(amplitudes_flat(ts))
        lead = (b2 - b2 * b2) * ts * np.exp(-2.0 * ts) / math.log(2.0)
        gaps = np.abs(classical_correlation_spins_two_exc(b2, xi2, chi2) / lead - 1.0)
        assert np.all(np.diff(gaps) <= 1e-12) and gaps[-1] < 0.01

    def test_subnormal_weight_product(self):
        # p = beta2 xi2 below the normal floats, where (1 - p) / p overflows:
        # a flat sweep past gamma t = 709 once read NaN, and beta2 = 1e-310 inf
        amps = amplitudes_flat(np.linspace(700.0, 750.0, 51))
        c = classical_correlation_spins_two_exc(0.5, amps.xi**2, amps.chi**2)
        assert np.all((c >= 0.0) & (c <= np.finfo(float).tiny))
        for b2 in (1e-310, 3e-309):
            want = classical_decimal(b2, 0.5, digits=700)
            assert abs(classical_correlation_spins_two_exc(b2, 0.5, 0.5) - want) <= 1e-13 * want

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="beta2"):
            classical_correlation_spins_two_exc(1.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="xi2"):
            classical_correlation_spins_two_exc(0.5, 0.7, 0.7)


class TestConcurrence:
    def test_bell(self):
        assert abs(concurrence_wootters(bell_state()) - 1.0) < 1e-12

    def test_product_state(self):
        rho = np.kron(np.diag([0.3, 0.7]), np.diag([0.9, 0.1])).astype(complex)
        assert concurrence_wootters(rho) < 1e-12

    def test_esd_point(self):
        # spin concurrence of the lopsided two-excitation state dies at
        # gamma t = ln(3/2)
        alpha, beta = LOPSIDED
        amps = amplitudes_flat(math.log(1.5))
        rho = reduced(pure_state("two_exc", alpha, beta, amps), "s1s2")
        assert concurrence_wootters(rho) < 1e-8
        assert concurrence_closed("two_exc", alpha, beta, *amps) < 1e-12
        # shortly before the death point it is still positive
        before = amplitudes_flat(math.log(1.5) - 0.05)
        rho_b = reduced(pure_state("two_exc", alpha, beta, before), "s1s2")
        assert concurrence_wootters(rho_b) > 1e-4

    @staticmethod
    def x_formula_gap(family, partition, amps):
        """Largest |concurrence_batch - closed form| on a grid, over three weights (X states: the exact formula)."""
        # the reservoir pair takes the spin formula with xi and chi exchanged
        x, y = (amps.xi, amps.chi) if partition == "s1s2" else (amps.chi, amps.xi)
        gap = 0.0
        for b2 in (0.1, 0.5, 0.9):
            alpha, beta = math.sqrt(1.0 - b2), math.sqrt(b2)
            rhos = reduced_batch(pure_state(family, alpha, beta, amps), partition)
            gap = max(gap, np.abs(concurrence_batch(rhos) - concurrence_closed(family, alpha, beta, x, y)).max())
        return gap

    @pytest.mark.parametrize("grid", ["flat_6", "flat_40", "lorentz_30"])
    def test_closed_matches_x_state_formula_two_exc(self, grid):
        assert self.x_formula_gap("two_exc", "s1s2", CONCURRENCE_GRIDS[grid]) < 1e-15

    @pytest.mark.parametrize("grid", ["lorentz_1.5", "flat_40", "lorentz_30"])
    def test_closed_matches_x_state_formula_one_exc(self, grid):
        assert self.x_formula_gap("one_exc", "s1s2", CONCURRENCE_GRIDS[grid]) < 1e-15

    @pytest.mark.parametrize("family", ["two_exc", "one_exc"])
    @pytest.mark.parametrize("grid", ["flat_3", "flat_40", "lorentz_30"])
    def test_reservoir_closed_matches_x_state_formula(self, family, grid):
        assert self.x_formula_gap(family, "r1r2", CONCURRENCE_GRIDS[grid]) < 1e-15

    @pytest.mark.parametrize("partition", PARTITION_ORDER)
    def test_wootters_matches_x_state_formula_on_turned_states(self, partition):
        # a fixed local unitary u x v keeps the concurrence but makes the
        # model's X states general ones, so the turned stack takes Wootters'
        # route and the untouched one the X-state formula, on every pair.
        # s1r2 states carry genuine weights ~1e-14 next to ones near 1/2, and
        # a cut at 1e-13 of the largest weight puts one (Lorentzian two_exc,
        # lambda t = 1.225) 2.9e-7 off.  The eigensolver's absolute error in
        # weights near 1e-16 still moves the lambdas: the worst gap is 2.3e-8
        # (s1s2), 1.7e-8 (r1r2) and 2.0e-8 to 2.1e-8 on the mixed pairs
        rng = np.random.default_rng(17)
        uv = np.kron(random_unitary(rng), random_unitary(rng))
        worst = 0.0
        for family in ("two_exc", "one_exc"):
            for grid in ("flat_40", "lorentz_30"):
                for b2 in (0.1, 0.5, 0.9):
                    psi = pure_state(family, math.sqrt(1.0 - b2), math.sqrt(b2), CONCURRENCE_GRIDS[grid])
                    r = reduced_batch(psi, partition)
                    turned = uv @ r @ uv.conj().T
                    assert not np.any(np.all(turned[:, _OFF_X] == 0.0, axis=1))
                    worst = max(worst, np.abs(concurrence_batch(turned) - concurrence_batch(r)).max())
        assert worst < 1e-7

    def test_one_exc_never_dies(self):
        alpha, beta = LOPSIDED
        for tau in np.linspace(0.0, 8.0, 50):
            amps = amplitudes_flat(tau)
            assert concurrence_closed("one_exc", alpha, beta, *amps) > 0.0

    def test_bell_initial_is_one(self):
        assert abs(concurrence_closed("two_exc", *BELL, 1.0, 0.0) - 1.0) < 1e-12
        assert abs(concurrence_closed("one_exc", *BELL, 1.0, 0.0) - 1.0) < 1e-12

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            concurrence_closed("zero_exc", 1.0, 0.0, 1.0, 0.0)


def random_x_states(rng, count):
    """Random states with the sparsity patterns of the two model families."""
    rhos = np.zeros((count, 4, 4), dtype=complex)
    for i in range(count):
        if i % 2 == 0:
            d = rng.dirichlet(np.ones(4))
            z = math.sqrt(d[0] * d[3]) * rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
            rhos[i] = np.diag(d).astype(complex)
            rhos[i, 0, 3] = z
            rhos[i, 3, 0] = np.conj(z)
        else:
            d = rng.dirichlet(np.ones(3))
            z = math.sqrt(d[1] * d[2]) * rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
            rhos[i] = np.diag([d[0], d[1], d[2], 0.0]).astype(complex)
            rhos[i, 1, 2] = z
            rhos[i, 2, 1] = np.conj(z)
    return rhos


class TestOptimizerConvergence:
    def test_refinement_converged(self):
        # the production setting must already sit at the fixed point of
        # further mesh refinement
        rng = np.random.default_rng(2024)
        rhos = random_x_states(rng, 500)
        coarse, _, _ = classical_correlation_batch(rhos, "second", 64, 4)
        fine, _, _ = classical_correlation_batch(rhos, "second", 128, 5)
        assert np.abs(coarse - fine).max() < 1e-7

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_general_states_match_dense_scan(self, side):
        # the draw has optima just across phi = 0 (states 1, 78, 94, 121, 132
        # and 191 measuring the second qubit), which a clipped box misses
        rng = np.random.default_rng(1)
        states = np.stack([random_pure_state(rng) for _ in range(300)])
        rhos = reduced_batch(states, "s1r2")
        assert not np.any(np.all(rhos[:, _OFF_X] == 0.0, axis=1))
        values, _, _ = classical_correlation_batch(rhos, side, 64, 4)
        scan = hemisphere_scan(rhos, side)
        below = np.flatnonzero(values < scan - 1e-9)
        above = np.flatnonzero(values > scan + 1e-6)
        assert below.size == 0, f"below the scan: states {below}, by {(scan - values)[below]}"
        assert above.size == 0, f"above the scan: states {above}, by {(values - scan)[above]}"

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_pure_states_under_local_unitaries(self, side):
        # a pure state leaves a pure conditional state on every axis (radius
        # 1); a product state whose measured qubit points along an axis of
        # the first mesh (16 x 16 at grid 64) has an empty branch (p+- = 0)
        # on that axis, which must score without a division by zero or a
        # NaN; each state is also mixed with 1e-15 of I/4
        rng = np.random.default_rng(5)
        up, down = np.eye(2)
        rhos, known = [], []
        for _ in range(8):
            u, v = random_unitary(rng), random_unitary(rng)
            theta, phi = 0.5 * np.pi * rng.integers(16) / 15, 2.0 * np.pi * rng.integers(16) / 16
            on_mesh = np.array([math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)])
            weight = rng.uniform(0.05, 0.95)
            for psi, c in (
                (np.kron(on_mesh, u @ up) if side == "first" else np.kron(u @ up, on_mesh), 0.0),
                (np.kron(u, v) @ (np.kron(up, up) + np.kron(down, down)) / math.sqrt(2.0), 1.0),
                (np.kron(u, v) @ (math.sqrt(weight) * np.kron(up, up) + math.sqrt(1.0 - weight) * np.kron(down, down)),
                 h2(weight)),
            ):
                pure = np.outer(psi, psi.conj())
                rhos += [pure, (1.0 - 1e-15) * pure + 0.25e-15 * np.eye(4)]
                known += [c, c]
        rhos = np.stack(rhos)
        assert not np.any(np.all(rhos[:, _OFF_X] == 0.0, axis=1))
        with np.errstate(divide="raise", invalid="raise"):
            values, _, _ = classical_correlation_batch(rhos, side)
        assert np.all(np.isfinite(values))
        assert np.abs(values - np.array(known)).max() < 1e-12

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_general_states_never_lose_with_more_refinement(self, side):
        # the Newton steps for r refine_iters are a prefix of those for r + 1
        # (the mesh does not depend on r), and a trial replaces the best axis
        # only when it is strictly better
        rhos = general_states(np.random.default_rng(41), 60)
        values = [classical_correlation_batch(rhos, side, 64, r)[0] for r in range(6)]
        for r in range(5):
            fell = np.flatnonzero(values[r + 1] < values[r])
            assert fell.size == 0, f"refine_iters {r + 1} below {r}: states {fell}"

    @pytest.mark.parametrize("seed,draw,partition,side", [(9, 56, "s2r2", "first"), (4, 0, "s1r2", "second")],
                             ids=["two_maxima", "box_stall"])
    def test_known_hard_states(self, seed, draw, partition, side):
        # two_maxima has a second basin: Newton steps from an 8 x 8 first
        # mesh end there, 5.4e-3 bits short, and halving boxes from the 8 x 8
        # mesh of grid 16 fell 2.5e-3 short; on box_stall halving boxes from
        # a 16 x 16 mesh stalled 2.7e-5 short inside the right basin.  Grid 16
        # is the 12 x 12 mesh floor; refine_iters are the README's 4 and, at
        # grid 32, the figures' 3
        rng = np.random.default_rng(seed)
        psi = [random_pure_state(rng) for _ in range(draw + 1)][-1]
        rho = reduced_batch(psi[None], partition)
        scan = hemisphere_scan(rho, side)[0]
        for grid, refine in ((16, 4), (24, 4), (32, 3), (32, 4), (48, 4), (64, 4)):
            value = classical_correlation_batch(rho, side, grid, refine)[0][0]
            assert abs(value - scan) < 1e-12, f"grid {grid}, refine_iters {refine}: off by {value - scan:.3e}"

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_optimum_near_the_pole(self, side):
        # a local unitary on the measured qubit turns each state's optimal
        # axis to a polar angle in [0.005, 0.05], where a (theta, phi) box
        # spans only a thin wedge of axes; the last state is the r1r2 pair of
        # the 85th default_rng(1) Haar state (the benchmark panel's state
        # 185), whose optimum measuring the first qubit is at theta = 0.013
        rng = np.random.default_rng(42)
        rhos = general_states(rng, 12)
        _, thetas, phis = classical_correlation_batch(rhos, side, 128, 8)
        optimum = np.stack([np.sin(thetas) * np.cos(phis), np.sin(thetas) * np.sin(phis), np.cos(thetas)], axis=1)
        polar, azimuth = rng.uniform(0.005, 0.05, len(rhos)), rng.uniform(0.0, 2.0 * np.pi, len(rhos))
        target = np.stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)], axis=1)
        turned = []
        for rho, n, m in zip(rhos, optimum, target):
            # the rotation by angle about k, as a qubit unitary, takes n to m
            k = np.cross(n, m)
            angle = math.atan2(np.linalg.norm(k), n @ m)
            k /= np.linalg.norm(k)
            u = math.cos(angle / 2.0) * np.eye(2) - 1j * math.sin(angle / 2.0) * (
                k[0] * np.array([[0, 1], [1, 0]]) + k[1] * np.array([[0, -1j], [1j, 0]]) + k[2] * np.diag([1, -1]))
            local = np.kron(u, np.eye(2)) if side == "first" else np.kron(np.eye(2), u)
            turned.append(local @ rho @ local.conj().T)
        panel = np.random.default_rng(1)
        haar = [random_pure_state(panel) for _ in range(85)][-1]
        rhos = np.concatenate([np.stack(turned), reduced_batch(haar[None], "r1r2")])
        _, thetas, _ = classical_correlation_batch(rhos, side, 128, 8)
        assert np.all(thetas[:-1] < 0.051) and np.all(thetas[:-1] > 0.0049)
        scan = hemisphere_scan(rhos, side)
        # grid 50 gives its first mesh an odd number of azimuths
        for grid in (48, 50, 64, 96):
            values, _, _ = classical_correlation_batch(rhos, side, grid, 4)
            off = np.flatnonzero(np.abs(values - scan) > 1e-9)
            assert off.size == 0, f"grid {grid}: states {off} off the scan by {(values - scan)[off]}"

    @pytest.mark.parametrize("name,side", [("lorentz_two_excitation", "second"), ("lorentz_one_excitation", "second"),
                                           ("late_flat_bell", "first"), ("late_flat_bell", "second")],
                             ids=["lorentz_two_excitation", "lorentz_one_excitation", "late_flat_bell_first",
                                  "late_flat_bell_second"])
    def test_no_overshoot_near_an_empty_branch(self, name, side):
        # the spin pair comes close to a product state near lambda t = 1.225
        # of the Lorentzian figures, where xi is close to 0, and late in CI's
        # flat Bell sweep to gamma t = 30; there a measurement branch at the
        # pole, an axis of every mesh, is almost empty.  Brute C and Q must
        # meet the closed forms, and a state mixed with 1e-14 of a general
        # one must not overshoot them
        config = (RunConfig("two_exc", 0.70710678, 0.70710678, SpectralDensity("flat", gamma=1.0), time_end=30.0,
                            time_steps=301) if name == "late_flat_bell"
                  else replace(FIGURE_CONFIGS[name], time_steps=801))
        scenario = config.scenario()
        result = run_sweep(scenario, ("s1s2", "r1r2"), "both", side)
        _, states = state_batch(scenario)
        noise = general_states(np.random.default_rng(6), 1)[0]
        for part in ("s1s2", "r1r2"):
            for measure in ("classical", "quantum"):
                off = np.abs(result.series(part, "brute_force", measure) - result.series(part, "closed_form", measure))
                assert off.max() < 1e-12, f"{part} {measure}: off by {off.max():.3e} at step {off.argmax()}"
            ref = result.series(part, "closed_form", "classical")
            mixed = (1.0 - 1e-14) * reduced_batch(states, part) + 1e-14 * noise
            assert not np.any(np.all(mixed[:, _OFF_X] == 0.0, axis=1))
            values, _, _ = classical_correlation_batch(mixed, side)
            assert (values - ref).max() <= 1e-12

    def test_nonnegative_and_bounded(self):
        rng = np.random.default_rng(77)
        rhos = random_x_states(rng, 64)
        vals, _, _ = classical_correlation_batch(rhos, "second", 24, 3)
        info = mutual_information_batch(rhos)
        assert vals.min() >= 0.0
        assert np.all(vals <= info + 1e-9)


def random_unitary(rng):
    """Haar-random 2x2 unitary: QR of a complex Gaussian matrix, phases fixed."""
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def x_states_with_both_coherences(rng, count):
    """Random X states whose two coherences are both nonzero, with random phases."""
    rhos = np.zeros((count, 4, 4), dtype=complex)
    for i in range(count):
        # lopsided weights make interior optima of theta common
        d = rng.dirichlet(np.full(4, 0.3))
        rhos[i] = np.diag(d)
        for j, k in ((0, 3), (1, 2)):
            z = math.sqrt(d[j] * d[k]) * rng.uniform(0.05, 1.0) * np.exp(2j * np.pi * rng.uniform())
            rhos[i, j, k] = z
            rhos[i, k, j] = np.conj(z)
    return rhos


def general_states(rng, count):
    """Random full-rank two-qubit states with no zero entries."""
    g = rng.standard_normal((count, 4, 4)) + 1j * rng.standard_normal((count, 4, 4))
    rhos = g @ np.swapaxes(g.conj(), 1, 2)
    return rhos / np.trace(rhos, axis1=1, axis2=2)[:, None, None]


def plus_projectors(n):
    """P+ = (I + n.sigma)/2 for unit vectors n of shape (..., 3): shape (..., 2, 2)."""
    proj = np.empty(n.shape[:-1] + (2, 2), dtype=complex)
    proj[..., 0, 0] = 0.5 * (1.0 + n[..., 2])
    proj[..., 1, 1] = 0.5 * (1.0 - n[..., 2])
    proj[..., 0, 1] = 0.5 * (n[..., 0] - 1j * n[..., 1])
    proj[..., 1, 0] = 0.5 * (n[..., 0] + 1j * n[..., 1])
    return proj


def measured_values(rhos, side, plus):
    """S(unmeasured) - sum_j p_j S(conditional_j) for states (N, 4, 4) and P+ (N, ..., 2, 2)."""
    r4 = rhos.reshape(-1, 2, 2, 2, 2)
    if side == "second":
        kept = np.einsum("nabcb->nac", r4)
        cond = np.einsum("nabcd,n...db->n...ac", r4, plus)
    else:
        kept = np.einsum("nabad->nbd", r4)
        cond = np.einsum("nabcd,n...ca->n...bd", r4, plus)
    kept = kept.reshape((len(kept),) + (1,) * (cond.ndim - 3) + (2, 2))

    def weighted_entropy(m):
        # p S(m / p) from the eigenvalues of a 2x2 Hermitian m
        p = (m[..., 0, 0] + m[..., 1, 1]).real
        gap = np.sqrt(((m[..., 0, 0] - m[..., 1, 1]).real) ** 2 + 4.0 * np.abs(m[..., 0, 1]) ** 2)
        out = np.zeros_like(p)
        for lam in ((p + gap) / 2.0, (p - gap) / 2.0):
            live = (lam > 0.0) & (p > 1e-14)
            out -= np.where(live, lam * np.log2(np.where(live, lam, 1.0) / np.where(live, p, 1.0)), 0.0)
        return out

    return weighted_entropy(kept) - weighted_entropy(cond) - weighted_entropy(kept - cond)


def hemisphere_scan(rhos, side, points=2048, starts=4, rounds=12, stencil=7, chunk=25):
    """Best measured value per state: a Fibonacci scan, then a zoom from its best points.

    Each of the ``starts`` best scan points of a state is refined for
    ``rounds`` rounds: a ``stencil`` x ``stencil`` grid in the tangent plane
    at the current axis, which moves to the grid's best point if that is
    better, while the grid shrinks three-fold.  The tangent plane has no
    pole or azimuth seam to stop at.  Every value is reached by an actual
    axis, so the result never exceeds C.
    """
    k = np.arange(points) + 0.5
    z = k / points
    azimuth = k * np.pi * (3.0 - math.sqrt(5.0))
    scan = np.stack([np.sqrt(1.0 - z * z) * np.cos(azimuth), np.sqrt(1.0 - z * z) * np.sin(azimuth), z], axis=-1)
    step = np.linspace(-1.0, 1.0, stencil)
    du, dv = (g.ravel()[:, None] for g in np.meshgrid(step, step, indexing="ij"))
    out = np.empty(len(rhos))
    for lo in range(0, len(rhos), chunk):
        sub = rhos[lo:lo + chunk]
        vals = measured_values(sub, side, np.broadcast_to(plus_projectors(scan), (len(sub), points, 2, 2)))
        pick = np.argsort(-vals, axis=1)[:, :starts]
        best, n = np.take_along_axis(vals, pick, axis=1), scan[pick]
        width = 2.0 * math.sqrt(2.0 * np.pi / points)
        for _ in range(rounds):
            e1 = np.cross(n, np.where(np.abs(n[..., :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
            e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
            e2 = np.cross(n, e1)
            cand = n[..., None, :] + width * (du * e1[..., None, :] + dv * e2[..., None, :])
            cand /= np.linalg.norm(cand, axis=-1, keepdims=True)
            v = measured_values(sub, side, plus_projectors(cand))
            j = np.argmax(v, axis=-1)[..., None]
            top = np.take_along_axis(v, j, axis=-1)[..., 0]
            moved = top > best
            n = np.where(moved[..., None], np.take_along_axis(cand, j[..., None], axis=-2)[..., 0, :], n)
            best = np.where(moved, top, best)
            width /= 3.0
        out[lo:lo + chunk] = best.max(axis=1)
    return out


class TestXStatePath:
    @pytest.mark.parametrize("family", ["two_exc", "one_exc"])
    @pytest.mark.parametrize(
        "spectral,fractions",
        [
            (SpectralDensity("flat", gamma=1.0), np.array([0.15, 0.4, 0.7, 1.0]) * 5.0),
            (SpectralDensity("lorentz", W=RATIO, lam=1.0), np.array([0.15, 0.4, 0.7, 1.0]) * 2.0),
        ],
        ids=["flat", "lorentz"],
    )
    @pytest.mark.parametrize("side", ["first", "second"])
    def test_matches_mesh_optimiser_on_model_states(self, family, spectral, fractions, side):
        # the full azimuth scan at a finer setting stays the oracle for the
        # one-azimuth search of X states
        _, states = state_batch(Scenario(family, *LOPSIDED, spectral, fractions))
        rhos = np.concatenate([reduced_batch(states, p) for p in PARTITION_ORDER])
        assert np.all(rhos[:, _OFF_X] == 0.0)
        fast, _, _ = classical_correlation_batch(rhos, side)
        mesh, _, _ = _cc_mesh(rhos, side, 128, 5, x_states=False)
        assert np.abs(fast - mesh).max() < 1e-9

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_never_below_dense_scan(self, side):
        # this draw has optima strictly inside (0, pi/2) on both sides
        rng = np.random.default_rng(10)
        rhos = x_states_with_both_coherences(rng, 40)
        values, _, _ = classical_correlation_batch(rhos, side)
        below = np.flatnonzero(values < hemisphere_scan(rhos, side) - 1e-9)
        assert below.size == 0, f"below the scan: states {below}"
        assert np.all(values <= mutual_information_batch(rhos) + 1e-9)

    @pytest.mark.parametrize("states", [x_states_with_both_coherences, general_states], ids=["x", "general"])
    @pytest.mark.parametrize("side", ["first", "second"])
    def test_returned_axis_attains_value(self, side, states):
        # pins the azimuth convention: the axis is one that MeasurementAxis
        # turns into projectors reaching exactly the reported value
        rng = np.random.default_rng(8)
        rhos = states(rng, 40)
        values, thetas, phis = classical_correlation_batch(rhos, side)
        assert np.all((thetas >= 0.0) & (thetas <= np.pi))
        assert np.all((phis >= 0.0) & (phis < 2.0 * np.pi))
        for rho, value, theta, phi in zip(rhos, values, thetas, phis):
            plus, _ = MeasurementAxis(theta, phi).projectors()
            assert abs(measured_values(rho[None], side, plus[None])[0] - value) < 1e-12

    def test_mixed_batch_matches_separate_calls(self):
        rng = np.random.default_rng(12)
        x = x_states_with_both_coherences(rng, 5)
        general = general_states(rng, 4)
        mixed = np.stack([x[0], general[0], x[1], x[2], general[1], general[2], x[3], general[3], x[4]])
        batch = classical_correlation_batch(mixed, "second", 16, 2)
        for i, rho in enumerate(mixed):
            alone = classical_correlation_batch(rho[None], "second", 16, 2)
            for got, want in zip(batch, alone):
                assert got[i] == want[0]


class TestBatchComposition:
    """A state's C, mutual information and concurrence do not depend on its batch."""

    @staticmethod
    def model_states():
        rhos = []
        for family in ("two_exc", "one_exc"):
            for spectral, end in ((SpectralDensity("flat", gamma=1.0), 5.0),
                                  (SpectralDensity("lorentz", W=RATIO, lam=1.0), 2.0)):
                _, states = state_batch(Scenario(family, *LOPSIDED, spectral, np.linspace(0.0, end, 7)))
                rhos += [reduced_batch(states, p) for p in PARTITION_ORDER]
        return np.concatenate(rhos)

    @pytest.mark.parametrize("kind", ["general", "model_x", "mixed"])
    @pytest.mark.parametrize("measure", [mutual_information_batch, concurrence_batch])
    def test_batch_reversed_and_single_states_agree_bitwise(self, kind, measure):
        if kind == "general":
            rhos = general_states(np.random.default_rng(31), 40)
        elif kind == "model_x":
            rhos = self.model_states()
            assert np.all(rhos[:, _OFF_X] == 0.0)
        else:
            # general and X states interleaved: each kind takes its own route
            rhos = np.empty((80, 4, 4), dtype=complex)
            rhos[0::2], rhos[1::2] = general_states(np.random.default_rng(33), 40), self.model_states()[::4][:40]
            assert np.count_nonzero(np.all(rhos[:, _OFF_X] == 0.0, axis=1)) == 40
        batch = measure(rhos)
        assert batch.shape == (len(rhos),)
        assert np.array_equal(measure(rhos[::-1])[::-1], batch)
        assert np.array_equal(np.concatenate([measure(rho[None]) for rho in rhos]), batch)

    def test_classical_correlation_across_refinement_slices(self):
        # 260 general states interleaved with 130 X states: several slices of
        # states for each kind of scan
        rng = np.random.default_rng(32)
        general = general_states(rng, 260)
        x = x_states_with_both_coherences(rng, 130)
        rhos = np.empty((390, 4, 4), dtype=complex)
        rhos[0::3], rhos[1::3], rhos[2::3] = general[0::2], x, general[1::2]
        assert np.count_nonzero(~np.all(rhos[:, _OFF_X] == 0.0, axis=1)) == 260
        batch = classical_correlation_batch(rhos)
        reverse = classical_correlation_batch(rhos[::-1])
        alone = [classical_correlation_batch(rho[None]) for rho in rhos]
        for k in range(3):
            assert np.array_equal(reverse[k][::-1], batch[k])
            assert np.array_equal(np.concatenate([a[k] for a in alone]), batch[k])


    @pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4, 1), (3, 2, 2), (3, 16, 16), (3, 4, 3), ()])
    @pytest.mark.parametrize("measure", [mutual_information_batch, classical_correlation_batch, concurrence_batch])
    def test_batch_rejects_a_stack_of_another_shape(self, measure, shape):
        # a bare (4, 4) matrix gave a (1,) mutual information, a (3, 4, 4, 1) array values
        # from the optimiser, and (3, 2, 2) and (3, 16, 16) an IndexError from _split_x
        rhos = np.full(shape, 0.25, dtype=complex)
        with pytest.raises(ValueError, match=rf"^{measure.__name__}: expected an \(N, 4, 4\) stack of two-qubit "
                                             rf"states, got shape {re.escape(str(shape))}$"):
            measure(rhos)
        # an empty stack is a stack
        values = measure(np.empty((0, 4, 4)))
        assert np.shape(values[0] if measure is classical_correlation_batch else values) == (0,)

    def test_memory_capped_at_max_grid(self):
        rhos = general_states(np.random.default_rng(34), 2)
        tracemalloc.start()
        try:
            classical_correlation_batch(rhos, "second", 256, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20  # 0.5 MiB: the 64 x 64 mesh fills one slice


def bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


# The README's replacements for the one-excitation C and the reservoir pair:
# the spin forms at beta2 = 1 - alpha2, and at (chi2, xi2) for r1r2.
def spins_one_exc_classical(alpha2, xi2, chi2):
    return classical_correlation_spins_two_exc(1.0 - alpha2, xi2, chi2)


def reservoirs_one_exc_classical(alpha2, xi2, chi2):
    return classical_correlation_spins_two_exc(1.0 - alpha2, chi2, xi2)


def reservoirs_one_exc_quantum(alpha2, xi2, chi2):
    return quantum_correlation_spins_one_exc(alpha2, chi2, xi2)


# (function, the names its errors give the (weight, xi2, chi2) arguments)
CLOSED_FORMS = [
    (classical_correlation_spins_two_exc, ("beta2", "xi2", "chi2")),
    (reservoir_correlations_two_exc, ("beta2", "xi2", "chi2")),
    (quantum_correlation_spins_one_exc, ("alpha2", "xi2", "chi2")),
    (spins_one_exc_classical, ("beta2", "xi2", "chi2")),
    (reservoirs_one_exc_classical, ("beta2", "chi2", "xi2")),
    (reservoirs_one_exc_quantum, ("alpha2", "chi2", "xi2")),
]


class TestClosedFormArrays:
    """Array arguments give bitwise the values of elementwise scalar calls."""

    XI2 = np.concatenate([[0.0, 1.0, 0.5, 1e-300], np.random.default_rng(6).uniform(0.0, 1.0, 40)])
    WEIGHTS = np.array([[0.0], [0.1], [0.5], [0.9], [1.0]])

    @pytest.mark.parametrize("fn", [f for f, _ in CLOSED_FORMS], ids=lambda f: f.__name__)
    def test_matches_scalar_calls(self, fn):
        chi2 = 1.0 - self.XI2
        got = np.asarray(fn(self.WEIGHTS, self.XI2, chi2))
        w, x, c = np.broadcast_arrays(self.WEIGHTS, self.XI2, chi2)
        want = np.array([fn(float(a), float(b), float(d)) for a, b, d in zip(w.ravel(), x.ravel(), c.ravel())])
        want = np.moveaxis(want, 0, -1) if want.ndim == 2 else want
        assert np.array_equal(bits(got), bits(want.reshape(got.shape)))
        assert isinstance(fn(0.3, 0.4, 0.6), (float, tuple))

    @pytest.mark.parametrize("family", ["two_exc", "one_exc"])
    @pytest.mark.parametrize("mirror", [False, True], ids=["spins", "reservoirs"])
    def test_concurrence_matches_scalar_calls(self, family, mirror):
        # Lorentzian amplitudes: xi changes sign; the reservoir pair passes (chi, xi)
        amps = np.array([amplitudes_lorentz(t, RATIO) for t in np.linspace(0.0, 2.0, 41)])
        x, y = (amps[:, 1], amps[:, 0]) if mirror else (amps[:, 0], amps[:, 1])
        for alpha, beta in (BELL, LOPSIDED, (1.0, 0.0)):
            got = concurrence_closed(family, alpha, beta, x, y)
            want = np.array([concurrence_closed(family, alpha, beta, float(a), float(b)) for a, b in zip(x, y)])
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("fn,names", CLOSED_FORMS, ids=[f.__name__ for f, _ in CLOSED_FORMS])
    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [-0.2, 1.2, np.nan])
    def test_out_of_range_entry_named(self, fn, names, position, bad):
        args = [np.full(5, 0.5), np.full(5, 0.5), np.full(5, 0.5)]
        args[position][3] = bad
        name = names[position]
        with pytest.raises(ValueError, match=f"{name} = "):
            fn(*args)

    @pytest.mark.parametrize("args,name", [
        ((1.0, 1.0, 1.0, 0.0), "alpha"),
        ((np.nan, 0.0, 1.0, 0.0), "alpha"),
        ((*BELL, np.array([1.0, 2.0]), np.array([0.0, 0.0])), "xi2"),
        ((*BELL, 1.0, np.nan), "chi2"),
    ], ids=["unnormalised", "nan_weight", "xi_above_one", "nan_chi"])
    def test_concurrence_bad_entry_named(self, args, name):
        # concurrence_closed("one_exc", 1.0, 1.0, 2.0, 0.0) used to return 8.0
        with pytest.raises(ValueError, match=f"concurrence_closed: .*{name}"):
            concurrence_closed("one_exc", *args)

    @pytest.mark.parametrize("fn", [f for f, _ in CLOSED_FORMS], ids=lambda f: f.__name__)
    def test_unnormalised_entry_named(self, fn):
        xi2 = np.array([0.2, 0.4, 0.6])
        chi2 = np.array([0.8, 0.7, 0.4])
        with pytest.raises(ValueError, match="xi2 \\+ chi2 must be 1"):
            fn(0.5, xi2, chi2)
