"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with the
measured worst case (run with ``pytest tests/test_acceptance.py -s`` to see
the lines as they appear).  Two checks encode externally pinned targets
that the exact dynamics contradict; they are kept as stated, fail by
design, and print the measured value next to the pinned one.  Everything
else must pass.
"""

import math

import numpy as np
import pytest

from spinboson.correlations import (
    classical_correlation_batch,
    classical_correlation_spins_two_exc,
    concurrence_batch,
    concurrence_closed,
    concurrence_wootters,
    mutual_information_batch,
    quantum_correlation_spins_one_exc,
    reservoir_correlations_two_exc,
)
from spinboson.experiments import (
    SQUARE_SUM_PARTITIONS,
    bisect_positive_boundary,
    count_local_maxima,
    count_sign_changes,
    flat_classical_tail_audit,
    reservoir_transfer_audit,
    run_sweep,
    square_sum_audit,
    square_sum_series,
)
from spinboson.io import emit_figures
from spinboson.linalg import random_pure_state
from spinboson.model import (
    PARTITION_ORDER,
    Scenario,
    SpectralDensity,
    amplitudes_flat,
    amplitudes_lorentz,
    pure_state,
    reduced,
    reduced_batch,
)

BELL = (2.0**-0.5, 2.0**-0.5)
LOPSIDED = (10.0**-0.5, 3.0 * 10.0**-0.5)
WEIGHTS = (BELL, LOPSIDED)
RATIO = math.sqrt(200.0)
FLAT = SpectralDensity("flat", gamma=1.0)
LORENTZ = SpectralDensity("lorentz", W=RATIO, lam=1.0)

FLAT_GRID = np.linspace(0.0, 10.0, 50)
LORENTZ_GRID = np.linspace(0.0, 2.0, 50)

AUDIT_STEPS = 2000
AUDIT_GRID = 16
AUDIT_REFINE = 3


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def grids():
    return (("flat", FLAT, FLAT_GRID), ("lorentz", LORENTZ, LORENTZ_GRID))


def states_over(family, weights, spectral, taus):
    alpha, beta = weights
    sc = Scenario(family, alpha, beta, spectral, taus)
    amps = np.array([spectral.amplitudes(t) for t in taus])
    psi = np.stack([pure_state(family, alpha, beta, (x, c)) for x, c in amps])
    return amps, psi


def test_criterion_1_oracle_equivalence_two_excitation():
    worst_closed = 0.0
    worst_qc = 0.0
    for _, spectral, taus in grids():
        for weights in WEIGHTS:
            b2 = weights[1] ** 2
            amps, psi = states_over("two_exc", weights, spectral, taus)
            for part in ("s1s2", "r1r2"):
                rhos = reduced_batch(psi, part)
                c_brute, _, _ = classical_correlation_batch(rhos, "second", 64, 4)
                q_brute = mutual_information_batch(rhos) - c_brute
                closed = np.array(
                    [
                        classical_correlation_spins_two_exc(b2, x * x, min(c * c, 1.0))
                        if part == "s1s2"
                        else reservoir_correlations_two_exc(b2, x * x, min(c * c, 1.0))[0]
                        for x, c in amps
                    ]
                )
                worst_closed = max(
                    worst_closed,
                    np.abs(c_brute - closed).max(),
                    np.abs(q_brute - closed).max(),
                )
                worst_qc = max(worst_qc, np.abs(q_brute - c_brute).max())
    passed = worst_closed < 1e-6 and worst_qc < 1e-6
    report("1 oracle equivalence two_exc", passed,
           f"worst closed-vs-brute {worst_closed:.2e}, worst |Q-C| {worst_qc:.2e}")
    assert worst_closed < 1e-6
    assert worst_qc < 1e-6


def test_criterion_2_oracle_equivalence_one_excitation():
    worst = 0.0
    for _, spectral, taus in grids():
        for weights in WEIGHTS:
            a2 = weights[0] ** 2
            amps, psi = states_over("one_exc", weights, spectral, taus)
            x2 = amps[:, 0] ** 2
            c2 = np.minimum(amps[:, 1] ** 2, 1.0)

            rhos = reduced_batch(psi, "s1s2")
            c_brute, _, _ = classical_correlation_batch(rhos, "second", 64, 4)
            q_brute = mutual_information_batch(rhos) - c_brute
            c_closed = np.array([classical_correlation_spins_two_exc(1.0 - a2, x, c) for x, c in zip(x2, c2)])
            q_closed = np.array([quantum_correlation_spins_one_exc(a2, x, c) for x, c in zip(x2, c2)])
            worst = max(worst, np.abs(c_brute - c_closed).max(), np.abs(q_brute - q_closed).max())

            rhos = reduced_batch(psi, "r1r2")
            c_brute, _, _ = classical_correlation_batch(rhos, "second", 64, 4)
            q_brute = mutual_information_batch(rhos) - c_brute
            c_closed = np.array([classical_correlation_spins_two_exc(1.0 - a2, c, x) for x, c in zip(x2, c2)])
            q_closed = np.array([quantum_correlation_spins_one_exc(a2, c, x) for x, c in zip(x2, c2)])
            worst = max(worst, np.abs(c_brute - c_closed).max(), np.abs(q_brute - q_closed).max())
    report("2 oracle equivalence one_exc", worst < 1e-6, f"worst deviation {worst:.2e}")
    assert worst < 1e-6


def test_criterion_3_concurrence():
    worst = 0.0
    for fam in ("two_exc", "one_exc"):
        for _, spectral, taus in grids():
            for weights in WEIGHTS:
                amps, psi = states_over(fam, weights, spectral, taus)
                wootters = concurrence_batch(reduced_batch(psi, "s1s2"))
                closed = np.array([concurrence_closed(fam, *weights, x, c) for x, c in amps])
                worst = max(worst, np.abs(wootters - closed).max())

    alpha, beta = LOPSIDED

    def spin_concurrence(gamma_t):
        amps = amplitudes_flat(gamma_t)
        return concurrence_wootters(reduced(pure_state("two_exc", alpha, beta, amps), "s1s2"))

    death = bisect_positive_boundary(spin_concurrence, 0.0, 1.0, tol=1e-9)
    death_err = abs(death - math.log(1.5))

    one_exc_min = min(
        concurrence_closed("one_exc", alpha, beta, *amplitudes_flat(t)) for t in FLAT_GRID
    )
    passed = worst < 1e-9 and death_err < 1e-6 and one_exc_min > 0.0
    report("3 concurrence", passed,
           f"worst wootters-vs-closed {worst:.2e}, death point error {death_err:.2e}, "
           f"one_exc min {one_exc_min:.2e}")
    assert worst < 1e-9
    assert death_err < 1e-6
    assert one_exc_min > 0.0


def test_criterion_4_asymptotics():
    outcomes = []
    for b2 in (0.1, 0.5, 0.9):
        audit = flat_classical_tail_audit(b2)
        outcomes.append(audit.passed)
        if b2 in (0.5, 0.9):
            outcomes.append(audit.details["in_band"])
    transfer_margin = 0.0
    for b2 in (0.1, 0.5, 0.9):
        audit = reservoir_transfer_audit("two_exc", 1.0 - b2, b2)
        outcomes.append(audit.passed)
        transfer_margin = max(transfer_margin, audit.margin)
    for a2 in (0.1, 0.5):
        audit = reservoir_transfer_audit("one_exc", a2, 1.0 - a2)
        outcomes.append(audit.passed)
    passed = all(outcomes)
    report("4 asymptotics", passed,
           f"{sum(outcomes)}/{len(outcomes)} audits, transfer margin {transfer_margin:.2e}")
    assert passed


@pytest.fixture(scope="module")
def conservation_sweeps():
    sweeps = {}
    for fam in ("two_exc", "one_exc"):
        for kind, spectral, t_end in (("flat", FLAT, 10.0), ("lorentz", LORENTZ, 2.0)):
            sc = Scenario(fam, *BELL, spectral, np.linspace(0.0, t_end, AUDIT_STEPS))
            sweeps[(fam, kind)] = run_sweep(
                sc, SQUARE_SUM_PARTITIONS, "brute_force", grid=AUDIT_GRID, refine_iters=AUDIT_REFINE
            )
    return sweeps


def test_criterion_5_no_increase_over_initial(conservation_sweeps):
    worst = -np.inf
    for (fam, kind), sweep in conservation_sweeps.items():
        for measure in ("quantum", "classical", "concurrence"):
            audit = square_sum_audit(sweep, measure)
            worst = max(worst, audit.margin)
            assert audit.passed, f"{fam}/{kind}/{measure} exceeds initial by {audit.margin:.2e}"
    report("5 square sums never exceed initial", True,
           f"4 families x 3 measures x {AUDIT_STEPS} points, worst excess {worst:.2e}")


def test_criterion_5_flat_strict_monotonicity(conservation_sweeps):
    """Pinned claim: flat-spectrum square sums decrease sample to sample.

    The exact dynamics contradict this: the sums dip while the spin share
    decays, then climb back toward the initial value as the reservoir pair
    picks the correlations up (they stay below the t = 0 value throughout,
    which is what criterion 5's first half verifies).  The check is kept
    as pinned and fails, printing the measured uptick.
    """
    violations = []
    for (fam, kind), sweep in conservation_sweeps.items():
        if kind != "flat":
            continue
        for measure in ("quantum", "classical", "concurrence"):
            steps = np.diff(square_sum_series(sweep, measure))
            if steps.max() > 1e-12:
                violations.append(f"{fam}/{measure} rises {steps.max():.2e} per step")
    report("5b flat square sums strictly non-increasing", not violations,
           "; ".join(violations) if violations else "monotone")
    assert not violations, (
        "flat square sums are not monotone; the transfer back into the "
        "reservoirs raises them mid-evolution: " + "; ".join(violations)
    )


def test_criterion_6_oscillation_counts():
    taus = np.linspace(0.0, 1.0, 2001)
    xi = np.array([amplitudes_lorentz(t, RATIO).xi for t in taus])
    flips = count_sign_changes(xi)

    taus2 = np.linspace(0.0, 2.0, AUDIT_STEPS)
    peaks = []
    for fam, closed_q in (
        ("two_exc", lambda x2, c2: classical_correlation_spins_two_exc(0.5, x2, c2)),
        ("one_exc", lambda x2, c2: quantum_correlation_spins_one_exc(0.5, x2, c2)),
    ):
        series = []
        for t in taus2:
            x, c = amplitudes_lorentz(t, RATIO)
            series.append(closed_q(x * x, min(c * c, 1.0)))
        peaks.append(count_local_maxima(series))
    passed = flips >= 4 and all(p >= 4 for p in peaks)
    report("6 non-Markov oscillation", passed,
           f"{flips} amplitude sign changes on [0,1], spin-pair Q maxima {peaks} on [0,2]")
    assert flips >= 4
    assert all(p >= 4 for p in peaks)


def test_criterion_6_first_zero_pinned_location():
    """Pinned target: first zero of the Lorentzian amplitude at 0.2237.

    The underdamped branch is exp(-t/2) (sin(om t/2)/om + cos(om t/2))
    with om = sqrt(799); its first zero solves tan(om t/2) = -om, giving
    2 (pi - atan om) / om = 0.113644.  The amplitude at 0.2237 is about
    -0.895 (near its first minimum, 2 pi/om = 0.222283).  The pinned
    value is kept as stated and recorded as failing.
    """
    lo, hi = 0.05, 0.2
    xi = lambda t: amplitudes_lorentz(t, RATIO).xi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if xi(lo) * xi(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    first_zero = 0.5 * (lo + hi)
    analytic = 2.0 * (math.pi - math.atan(math.sqrt(799.0))) / math.sqrt(799.0)
    assert abs(first_zero - analytic) < 1e-9
    passed = abs(first_zero - 0.2237) <= 1e-3
    report("6b first amplitude zero at pinned 0.2237", passed,
           f"measured {first_zero:.6f}, analytic {analytic:.6f}, pinned 0.2237")
    assert passed, (
        f"first zero of the underdamped amplitude is {first_zero:.6f} "
        f"(= 2(pi - atan sqrt(799))/sqrt(799)), not 0.2237"
    )


def test_criterion_7_structural_invariants():
    rng = np.random.default_rng(20260808)
    count = 1000
    states = np.stack([random_pure_state(rng) for _ in range(count)])

    worst_trace = 0.0
    worst_eig = 0.0
    worst_schmidt = 0.0
    worst_identity = 0.0
    min_c = np.inf
    min_q = np.inf

    complements = {"s1s2": "r1r2", "r1r2": "s1s2", "s1r1": "s2r2",
                   "s1r2": "s2r1", "s2r1": "s1r2", "s2r2": "s1r1"}
    for k, part in enumerate(PARTITION_ORDER):
        group = states[k::len(PARTITION_ORDER)]
        rhos = reduced_batch(group, part)
        comp = reduced_batch(group, complements[part])
        traces = np.trace(rhos, axis1=1, axis2=2)
        worst_trace = max(worst_trace, np.abs(traces - 1.0).max())
        vals = np.linalg.eigvalsh(rhos)
        worst_eig = max(worst_eig, float(-vals.min()))
        s_a = np.sum(_safe_entropy_terms(vals), axis=1)
        s_b = np.sum(_safe_entropy_terms(np.linalg.eigvalsh(comp)), axis=1)
        worst_schmidt = max(worst_schmidt, np.abs(s_a - s_b).max())

        c_vals, _, _ = classical_correlation_batch(rhos, "second", 16, 2)
        info = mutual_information_batch(rhos)
        q_vals = info - c_vals
        min_c = min(min_c, c_vals.min())
        min_q = min(min_q, q_vals.min())
        worst_identity = max(worst_identity, np.abs((c_vals + q_vals) - info).max())

    passed = (
        worst_trace < 1e-10
        and worst_eig < 1e-10
        and worst_schmidt < 1e-8
        and min_c > -1e-8
        and min_q > -1e-8
        and worst_identity < 1e-6
    )
    report("7 structural invariants", passed,
           f"{count} random pure states: trace {worst_trace:.2e}, eig {worst_eig:.2e}, "
           f"schmidt {worst_schmidt:.2e}, min C {min_c:.2e}, min Q {min_q:.2e}, "
           f"identity {worst_identity:.2e}")
    assert worst_trace < 1e-10
    assert worst_eig < 1e-10
    assert worst_schmidt < 1e-8
    assert min_c > -1e-8
    assert min_q > -1e-8
    assert worst_identity < 1e-6


def _safe_entropy_terms(vals):
    lam = np.clip(vals, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lam > 0.0, -lam * np.log2(np.where(lam > 0.0, lam, 1.0)), 0.0)


def test_criterion_8_reproducibility(tmp_path):
    run_a = sorted(emit_figures(tmp_path / "a"))
    run_b = sorted(emit_figures(tmp_path / "b"))
    assert len(run_a) == 8
    identical = True
    for pa, pb in zip(run_a, run_b):
        identical &= pa.read_bytes() == pb.read_bytes()
    report("8 reproducibility", identical, "figures byte-identical across reruns")
    assert identical
