import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from spinboson import experiments
from spinboson.cli import main
from spinboson.correlations import classical_correlation_spins_two_exc, concurrence_wootters
from spinboson.experiments import (
    SERIES_MEASURES,
    SQUARE_SUM_PARTITIONS,
    agreement_audit,
    bisect_positive_boundary,
    count_local_maxima,
    count_sign_changes,
    flat_classical_tail_audit,
    reservoir_transfer_audit,
    run_audits,
    run_sweep,
    square_sum_audit,
    square_sum_series,
)
from spinboson.io import parse_config
from spinboson.model import (
    PARTITION_ORDER,
    Scenario,
    SpectralDensity,
    amplitudes_flat,
    amplitudes_lorentz,
    pure_state,
    reduced,
)

ROOT = Path(__file__).resolve().parents[1]
BELL = (2.0**-0.5, 2.0**-0.5)
LOPSIDED = (1.0 / math.sqrt(10.0), 3.0 / math.sqrt(10.0))
FLAT = SpectralDensity("flat", gamma=1.0)
LORENTZ = SpectralDensity("lorentz", W=math.sqrt(200.0), lam=1.0)


def h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


class TestRunSweep:
    def test_bell_flat_transfer(self):
        sc = Scenario("two_exc", *BELL, FLAT, np.arange(0.0, 5.01, 0.5))
        res = run_sweep(sc, ("s1s2", "r1r2"), "closed_form")
        spins_q = res.series("s1s2", "closed_form", "quantum")
        spins_c = res.series("s1s2", "closed_form", "classical")
        assert np.array_equal(spins_q, spins_c)
        assert np.all(np.diff(spins_q) < 0.0)
        assert spins_q[-1] < 0.01
        res_q = res.series("r1r2", "closed_form", "quantum")
        assert np.all(np.diff(res_q) > 0.0)
        assert res_q[0] == 0.0
        assert res_q[-1] > 0.9

    def test_one_exc_initial_discord(self):
        sc = Scenario("one_exc", *LOPSIDED, FLAT, np.array([0.0, 1.0, 2.0]))
        res = run_sweep(sc, ("s1s2",), "closed_form")
        q = res.series("s1s2", "closed_form", "quantum")
        assert abs(q[0] - h2(0.1)) < 1e-12
        assert abs(q[0] - 0.468996) < 1e-6
        assert np.all(np.diff(q) < 0.0)

    def test_initial_reservoir_rows_zero(self):
        sc = Scenario("two_exc", *BELL, FLAT, np.array([0.0, 1.0]))
        res = run_sweep(sc, ("r1r2", "s1r1", "s1r2"), "brute_force", grid=16, refine_iters=2)
        assert res.times()[0] == 0.0
        for part in ("r1r2", "s1r1", "s1r2"):
            for measure in ("classical", "quantum", "concurrence"):
                assert res.series(part, "brute_force", measure)[0] < 1e-9

    def test_each_grid_point_once_per_pipeline(self):
        sc = Scenario("two_exc", *BELL, FLAT, np.array([0.0, 0.7, 1.9]))
        res = run_sweep(sc, ("s1s2", "r1r2"), "both", grid=12, refine_iters=2)
        assert np.array_equal(res.times(), [0.0, 0.7, 1.9])
        pairs = {(part, pipe) for part in ("s1s2", "r1r2") for pipe in ("closed_form", "brute_force")}
        assert set(res.values) == pairs
        for pair in pairs:
            # one (4, T) block per pair, its rows in SERIES_MEASURES order
            block = res.values[pair]
            assert block.shape == (4, 3)
            for row, measure in enumerate(SERIES_MEASURES):
                assert np.array_equal(res.series(*pair, measure), block[row])
            if pair[1] == "closed_form":
                assert np.array_equal(block[0], block[1] + block[2])

    def test_series_rejects_an_unknown_measure(self):
        # a misspelt measure used to read as an empty series, as if the sweep lacked it
        sc = Scenario("two_exc", *BELL, FLAT, np.array([0.0, 0.7]))
        res = run_sweep(sc, ("s1s2",), "closed_form")
        with pytest.raises(ValueError, match="'qunatum'"):
            res.series("s1s2", "closed_form", "qunatum")

    def test_series_of_a_pair_not_run_is_empty(self):
        sc = Scenario("two_exc", *BELL, FLAT, np.array([0.0, 0.7]))
        res = run_sweep(sc, ("s1s2",), "closed_form")
        for part, pipe in (("s1s2", "brute_force"), ("r1r2", "closed_form")):
            empty = res.series(part, pipe, "quantum")
            assert empty.shape == (0,) and empty.dtype == float

    def test_both_pipelines_agree(self):
        sc = Scenario("one_exc", *LOPSIDED, LORENTZ, np.linspace(0.0, 1.0, 9))
        res = run_sweep(sc, ("s1s2", "r1r2"), "both", grid=32, refine_iters=3)
        audit = agreement_audit(res)
        assert audit.name == "closed_vs_brute"
        assert audit.passed
        assert audit.margin < 1e-6

    @pytest.mark.parametrize("partitions,pipeline", [
        (("s1r1",), "both"), (("s1s2", "r1r2"), "closed_form"), (("s1s2",), "brute_force"),
    ])
    def test_agreement_audit_needs_both_blocks_of_a_pair(self, partitions, pipeline):
        # comparing nothing used to report a PASS (margin 0, worst_at "")
        sc = Scenario("two_exc", *BELL, FLAT, np.array([0.0, 0.7, 1.9]))
        res = run_sweep(sc, partitions, pipeline, grid=12, refine_iters=2)
        with pytest.raises(ValueError, match="agreement_audit: no partition"):
            agreement_audit(res)

    def test_agreement_audit_covers_the_pairs_with_both_blocks(self):
        sc = Scenario("two_exc", *BELL, FLAT, np.array([0.0, 0.7, 1.9]))
        res = run_sweep(sc, ("s1s2", "s1r1"), "both", grid=12, refine_iters=2)
        # a sweep holds data only; audits are calls on it
        assert [f.name for f in dataclasses.fields(res)] == ["scenario", "values", "side"]
        audit = agreement_audit(res)
        assert audit.passed
        assert audit.details["worst_at"].startswith("s1s2/")

    def test_non_finite_cell_fails_agreement(self):
        sc = Scenario("two_exc", *BELL, FLAT, np.array([0.0, 0.7, 1.9]))
        res = run_sweep(sc, ("s1s2", "r1r2"), "both", grid=12, refine_iters=2)
        assert agreement_audit(res).passed
        res.values["r1r2", "brute_force"][SERIES_MEASURES.index("quantum"), 1] = np.nan
        audit = agreement_audit(res)
        assert not audit.passed
        assert audit.margin == np.inf
        assert audit.details["worst_at"] == "r1r2/quantum@t=0.7"

    def test_series_and_times_are_copies(self):
        sc = Scenario("two_exc", *BELL, FLAT, np.array([0.0, 0.7, 1.9]))
        res = run_sweep(sc, ("s1s2",), "closed_form")
        q = res.series("s1s2", "closed_form", "quantum")
        before = q.tolist()
        t = res.times()
        q -= 1.0
        t += 1.0
        assert res.series("s1s2", "closed_form", "quantum").tolist() == before
        assert res.times().tolist() == sc.time_grid.tolist() == [0.0, 0.7, 1.9]

    def test_optimiser_overshoot_raises_as_discord_does(self, monkeypatch):
        # a C above I on a mixed pair used to be floored to Q = 0 silently
        real = experiments.classical_correlation_batch

        def overshoot(*args):
            c, thetas, phis = real(*args)
            return c + 1e-6, thetas, phis

        monkeypatch.setattr(experiments, "classical_correlation_batch", overshoot)
        sc = Scenario("two_exc", *BELL, FLAT, np.array([0.0, 0.7, 1.9]))
        with pytest.raises(ValueError, match="discord"):
            run_sweep(sc, ("s1r2",), "brute_force", grid=8, refine_iters=1)

    @pytest.mark.parametrize("side", ["first", "second"])
    @pytest.mark.parametrize("spectral", [FLAT, LORENTZ], ids=["flat", "lorentz"])
    @pytest.mark.parametrize("family", ["two_exc", "one_exc"])
    def test_closed_forms_measure_the_side(self, family, spectral, side):
        # the closed forms used to measure the second qubit whatever the side, so
        # one_exc C and Q at unequal weights missed the brute rows by up to 5e-2
        sc = Scenario(family, 0.6, 0.8j, spectral, np.linspace(0.0, 3.0, 31))
        res = run_sweep(sc, ("s1s2", "r1r2"), "both", side)
        for part in ("s1s2", "r1r2"):
            # the C, Q and concurrence rows
            off = np.abs(res.values[part, "closed_form"][1:] - res.values[part, "brute_force"][1:])
            assert off.max() <= 1e-12, f"{part}: off by {off.max():.3e}"

    def test_closed_form_rejected_off_diagonal_pairs(self):
        sc = Scenario("two_exc", *BELL, FLAT, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="closed-form"):
            run_sweep(sc, ("s1r1",), "closed_form")

    @pytest.mark.parametrize("pipeline", ["closed_form", "brute_force", "both"])
    def test_unknown_side_rejected(self, pipeline):
        # the closed-form pipeline used to measure the second qubit and write "bogus" into measured_side
        sc = Scenario("two_exc", *BELL, FLAT, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match=r"run_sweep: side must be one of \('first', 'second'\)"):
            run_sweep(sc, ("s1s2",), pipeline, side="bogus", grid=8, refine_iters=1)

    @pytest.mark.parametrize("pipeline", ["closed_form", "brute_force", "both"])
    @pytest.mark.parametrize("partitions,message", [
        # empty: numpy's "need at least one array to concatenate", or an empty result
        ((), "partitions must not be empty"),
        # repeated: computed twice and collapsed to one key
        (("s1s2", "s1s2"), "partitions must be unique"),
    ], ids=["empty", "repeated"])
    def test_partitions_empty_or_repeated_rejected(self, pipeline, partitions, message):
        sc = Scenario("two_exc", *BELL, FLAT, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match=f"run_sweep: {message}"):
            run_sweep(sc, partitions, pipeline, grid=8, refine_iters=1)

    def test_partition_set_invariance(self):
        # the brute-force measures of all partitions are one stacked call
        sc = Scenario("one_exc", *LOPSIDED, LORENTZ, np.linspace(0.0, 1.0, 12))
        every = run_sweep(sc, PARTITION_ORDER, "brute_force", grid=12, refine_iters=2)
        for part in PARTITION_ORDER:
            alone = run_sweep(sc, (part,), "brute_force", grid=12, refine_iters=2)
            for measure in SERIES_MEASURES:
                assert np.array_equal(alone.series(part, "brute_force", measure),
                                      every.series(part, "brute_force", measure))


class TestFlatTailAudit:
    def test_moderate_weights_pass_in_band(self):
        for b2 in (0.5, 0.9):
            audit = flat_classical_tail_audit(b2)
            assert audit.passed
            assert audit.details["in_band"]
            assert audit.details["gamma_ts"] == [8.0, 9.0, 10.0, 11.0, 12.0]

    def test_small_weight_converges_from_outside_band(self):
        # ratio carries a -ln(beta2)/gamma_t correction: for beta2 = 0.1 it
        # still sits near 1.29 at gamma_t = 8, far outside [0.9, 1.1]
        audit = flat_classical_tail_audit(0.1)
        assert audit.passed
        assert not audit.details["in_band"]
        ratios = np.array(audit.details["ratios"])
        assert abs(ratios[0] - (1.0 - math.log(0.1) / 8.0)) < 2e-3

    def test_gap_shrinks_for_heavy_weight(self):
        audit = flat_classical_tail_audit(0.9)
        gaps = np.abs(np.array(audit.details["ratios"]) - 1.0)
        assert np.all(np.diff(gaps) < 0.0)

    def test_zero_weight_trivial(self):
        audit = flat_classical_tail_audit(0.0)
        assert audit.passed
        assert audit.details["ratios"] == [1.0] * 5


class TestReservoirTransferAudit:
    def test_two_exc_bell(self):
        audit = reservoir_transfer_audit("two_exc", 0.5, 0.5)
        assert audit.passed
        assert audit.margin < 1e-3
        assert audit.details["gamma_ts"] == [20.0]

    def test_one_exc_tail_ratio(self):
        # the closed-form Q took H(q) - H(xi2) by subtraction and lost all of Q from
        # |alpha|^2 ~ 1e-16 (margin 38 at 1e-18)
        for a2 in (0.1, 0.5, 1e-9, 1e-16, 1e-18):
            audit = reservoir_transfer_audit("one_exc", a2, 1.0 - a2)
            assert audit.passed
            assert audit.margin < 0.1
            assert audit.details["gamma_ts"] == [8.0, 9.0, 10.0, 11.0, 12.0]

    def test_one_exc_degenerate_weight(self):
        audit = reservoir_transfer_audit("one_exc", 0.0, 1.0)
        assert audit.passed

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            reservoir_transfer_audit("none", 0.5, 0.5)

    @pytest.mark.parametrize("family,alpha2,beta2", [("one_exc", 0.3, 0.3), ("two_exc", 0.9, 0.5)])
    def test_weights_must_sum_to_one(self, family, alpha2, beta2):
        # both used to pass
        with pytest.raises(ValueError, match=f"alpha2 = {alpha2}, beta2 = {beta2}"):
            reservoir_transfer_audit(family, alpha2, beta2)


# the README's example config, as JSON text
README_JSON = re.search(r"^```json\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S).group(1)


def audit_lines(outcomes):
    return "".join(f"{'PASS' if a.passed else 'FAIL'} {a.name} margin={a.margin:.3e}\n" for a in outcomes)


class TestRunAudits:
    def test_readme_config_matches_the_cli(self, tmp_path, capsys):
        cfg = parse_config(README_JSON)
        outcomes = run_audits(cfg.scenario(), cfg.partitions, cfg.side, cfg.grid, cfg.refine_iters)
        assert [a.name for a in outcomes] == ["closed_vs_brute", "square_sum_quantum", "square_sum_classical",
                                               "square_sum_concurrence", "flat_classical_tail",
                                               "reservoir_transfer_two_exc"]
        assert all(a.passed for a in outcomes)
        path = tmp_path / "run.json"
        path.write_text(README_JSON)
        capsys.readouterr()
        assert main(["audit", str(path)]) == 0
        assert capsys.readouterr().out == audit_lines(outcomes)

    def test_late_start_makes_one_sweep_from_t_0(self, monkeypatch):
        cfg = dataclasses.replace(parse_config(README_JSON), time_start=0.5)
        grids = []

        def counted(scenario, *args):
            grids.append(scenario.time_grid)
            return run_sweep(scenario, *args)

        monkeypatch.setattr(experiments, "run_sweep", counted)
        outcomes = run_audits(cfg.scenario(), cfg.partitions, cfg.side, cfg.grid, cfg.refine_iters)
        assert len(grids) == 1 and grids[0][0] == 0.0 and np.array_equal(grids[0][1:], cfg.scenario().time_grid)
        assert len(outcomes) == 6 and all(a.passed for a in outcomes)

    def test_lorentzian_gives_four_outcomes(self):
        sc = Scenario("one_exc", *LOPSIDED, LORENTZ, np.linspace(0.0, 2.0, 21))
        outcomes = run_audits(sc, ("s1s2", "r1r2"), "first", grid=16, refine_iters=2)
        assert [a.name for a in outcomes] == ["closed_vs_brute", "square_sum_quantum", "square_sum_classical",
                                               "square_sum_concurrence"]
        assert all(a.passed for a in outcomes)

    def test_one_exc_small_alpha_passes(self):
        # the config alpha_re = 1e-9, beta_re = 1 failed reservoir_transfer_one_exc with
        # margin 38: the closed-form Q of the spin pair was lost to rounding
        sc = Scenario("one_exc", 1e-9, 1.0, FLAT, np.linspace(0.0, 10.0, 41))
        outcomes = run_audits(sc, ("s1s2", "r1r2"), grid=16, refine_iters=2)
        assert outcomes[-1].name == "reservoir_transfer_one_exc"
        assert all(a.passed for a in outcomes), audit_lines(outcomes)


@pytest.fixture(scope="module")
def flat_sweep():
    sc = Scenario("two_exc", *BELL, FLAT, np.linspace(0.0, 8.0, 160))
    return run_sweep(sc, SQUARE_SUM_PARTITIONS, "brute_force", grid=16, refine_iters=3)


class TestSquareSumAudit:
    def test_never_exceeds_initial(self, flat_sweep):
        for measure in ("quantum", "classical", "concurrence"):
            audit = square_sum_audit(flat_sweep, measure)
            assert audit.passed
            assert audit.margin <= 1e-9

    def test_initial_value_is_spin_term(self, flat_sweep):
        sums = square_sum_series(flat_sweep, "classical")
        c0 = classical_correlation_spins_two_exc(0.5, 1.0, 0.0)
        assert abs(sums[0] - c0**2) < 1e-9

    def test_transfer_breaks_monotonicity(self, flat_sweep):
        # the reservoir share grows back toward the initial value, so the
        # sum dips and recovers; monotonicity is a diagnostic, not a law
        audit = square_sum_audit(flat_sweep, "classical")
        assert not audit.details["monotone_nonincreasing"]
        sums = square_sum_series(flat_sweep, "classical")
        imin = int(np.argmin(sums))
        assert 0 < imin < len(sums) - 1
        assert sums[-1] > sums[imin]

    def test_lorentz_oscillation_stays_below_initial(self):
        sc = Scenario("two_exc", *BELL, LORENTZ, np.linspace(0.0, 2.0, 400))
        res = run_sweep(sc, SQUARE_SUM_PARTITIONS, "brute_force", grid=16, refine_iters=3)
        for measure in ("quantum", "classical", "concurrence"):
            audit = square_sum_audit(res, measure)
            assert audit.passed
            assert not audit.details["monotone_nonincreasing"]

    def test_requires_exact_partition_set(self, flat_sweep):
        sc = Scenario("two_exc", *BELL, FLAT, np.array([0.0, 1.0]))
        res = run_sweep(sc, ("s1s2", "r1r2"), "brute_force", grid=8, refine_iters=1)
        with pytest.raises(ValueError, match=r"must cover \('s1s2', 's1r2', 's2r1', 'r1r2'\), got \['r1r2', 's1s2'\]"):
            square_sum_audit(res, "quantum")
        # a superset sums the same four pairs: a state's brute-force values do not
        # depend on the partitions or pipelines swept beside it
        every = run_sweep(flat_sweep.scenario, PARTITION_ORDER, "both", grid=16, refine_iters=3)
        for measure in ("quantum", "classical", "concurrence"):
            assert square_sum_series(every, measure).tobytes() == square_sum_series(flat_sweep, measure).tobytes()

    def test_unknown_measure(self, flat_sweep):
        with pytest.raises(ValueError, match="measure"):
            square_sum_audit(flat_sweep, "purity")

    def test_grid_must_start_at_zero(self):
        # the sums used to be compared with their value at the first grid time
        sc = Scenario("two_exc", *BELL, FLAT, np.linspace(0.5, 5.0, 10))
        res = run_sweep(sc, SQUARE_SUM_PARTITIONS, "brute_force", grid=8, refine_iters=1)
        with pytest.raises(ValueError, match="must start at t = 0, got first time 0.5"):
            square_sum_audit(res, "quantum")


class TestRootFinding:
    def test_entanglement_death_point(self):
        alpha, beta = LOPSIDED

        def spin_concurrence(gamma_t):
            amps = amplitudes_flat(gamma_t)
            return concurrence_wootters(reduced(pure_state("two_exc", alpha, beta, amps), "s1s2"))

        death = bisect_positive_boundary(spin_concurrence, 0.0, 1.0, tol=1e-9)
        assert abs(death - math.log(1.5)) < 1e-6
        # dead and staying dead while the quantum correlation survives
        for gamma_t in np.linspace(math.log(1.5) + 0.01, math.log(1.5) + 0.3, 7):
            amps = amplitudes_flat(gamma_t)
            assert spin_concurrence(gamma_t) == 0.0
            # Q = C in the two-excitation family
            q = classical_correlation_spins_two_exc(beta**2, amps.xi**2, amps.chi**2)
            assert q > 1e-6

    def test_boundary_validation(self):
        with pytest.raises(ValueError, match="positive"):
            bisect_positive_boundary(lambda x: 0.0, 0.0, 1.0)
        # a reversed bracket used to return its midpoint, 0.5, as the root
        with pytest.raises(ValueError, match="lo = 1.0, hi = 0.0"):
            bisect_positive_boundary(lambda x: x - 0.3, 1.0, 0.0)
        with pytest.raises(ValueError, match="lo < hi"):
            bisect_positive_boundary(lambda x: 1.0 - x, float("nan"), 2.0)

    def test_zero_tolerance_stops_at_adjacent_floats(self):
        # with no tolerance the bracket closes to two adjacent floats, however
        # many halvings that takes (about 1,050 here)
        root = bisect_positive_boundary(lambda x: 1e-300 - x, 0.0, 1.0, tol=0.0)
        assert abs(root - 1e-300) <= math.ulp(1e-300)

    def test_bracket_near_the_top_of_the_float_range(self):
        # lo + hi overflows to inf here, so the midpoint must come from the halves
        root = bisect_positive_boundary(lambda x: 1.2e308 - x, 1e308, 1.5e308)
        assert math.isfinite(root)
        assert abs(root - 1.2e308) <= math.ulp(1.2e308)


class TestSeriesDiagnostics:
    def test_sign_changes(self):
        assert count_sign_changes([1.0, -1.0, 1.0, 1.0, -2.0]) == 3
        assert count_sign_changes([1.0, 0.0, 1.0]) == 0
        assert count_sign_changes([1.0, 0.0, -1.0]) == 1

    def test_local_maxima(self):
        xs = np.linspace(0.0, 4.0 * np.pi, 400)
        assert count_local_maxima(np.sin(xs)) == 2
        assert count_local_maxima([0.0, 1.0]) == 0

    @pytest.mark.parametrize("counter", [count_sign_changes, count_local_maxima])
    @pytest.mark.parametrize("series,index", [([1.0, math.nan, 1.0], 1), ([0.0, 2.0, 1.0, -math.inf, math.nan], 3)])
    def test_non_finite_series_rejected(self, counter, series, index):
        # NaN compares unequal to everything: it would count as two sign flips
        # and hide any maximum beside it
        with pytest.raises(ValueError, match=f"^{counter.__name__}: non-finite value .* at index {index}$"):
            counter(series)

    def test_lorentz_amplitude_oscillates(self):
        taus = np.linspace(0.0, 1.0, 2001)
        xis = amplitudes_lorentz(taus, math.sqrt(200.0)).xi
        assert count_sign_changes(xis) >= 4
        # zero spacing matches the underdamped period
        om = math.sqrt(799.0)
        zeros = taus[:-1][np.sign(xis[:-1]) * np.sign(xis[1:]) < 0]
        spacing = np.diff(zeros)
        assert np.abs(spacing - 2.0 * math.pi / om).max() < 2e-3
