"""Time sweeps, asymptotic checks and conservation audits.

A sweep evaluates mutual information, classical correlation C, quantum
correlation Q and concurrence for chosen two-qubit partitions of the
four-party state, on every point of a scenario's time grid.  Two pipelines
exist: ``closed_form`` (spin pair and reservoir pair only, one array-valued
closed-form call per partition) and ``brute_force`` (any partition, via
the measurement optimiser on the stack of reduced states); ``both`` runs
the two side by side.  A sweep's result is data only: one ``(4, T)`` array
over the T grid times per (partition, pipeline), one row per measure.

Every audit is a call: ``agreement_audit`` and ``square_sum_audit`` on a
sweep result, the two flat-spectrum audits on weights and a tail of times.
They never return bare booleans: each outcome carries the pass flag, a
worst-case margin and enough numbers to diagnose a regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .correlations import (
    classical_correlation_batch,
    classical_correlation_spins_two_exc,
    concurrence_batch,
    concurrence_closed,
    discord_from,
    mutual_information_batch,
    quantum_correlation_spins_one_exc,
    reservoir_correlations_two_exc,
)
from .linalg import binary_entropy, require_finite
from .model import PARTITION_ORDER, PARTITIONS, Scenario, amplitudes_flat, reduced_batch, state_batch

PIPELINES = ("closed_form", "brute_force", "both")

CLOSED_FORM_PARTITIONS = ("s1s2", "r1r2")

# The conservation statement sums the non-interacting pairs only.
SQUARE_SUM_PARTITIONS = ("s1s2", "s1r2", "s2r1", "r1r2")

MEASURES = ("quantum", "classical", "concurrence")

# What a sweep stores per (partition, pipeline), in CSV column order.
SERIES_MEASURES = ("mutual_info", "classical", "quantum", "concurrence")

_AGREEMENT_TOL = 1e-6
_SQUARE_SUM_TOL = 1e-9  # how far a square sum may top its t = 0 value

# Ratio band of the asymptotic audits, and how close the late two_exc
# reservoir Q must come to its target H(beta2).
_TAIL_BAND = (0.9, 1.1)
_TRANSFER_TOL = 1e-3


@dataclass
class AuditOutcome:
    """Structured audit result: pass flag plus diagnostic margins."""

    name: str
    passed: bool
    margin: float
    details: dict = field(default_factory=dict)


@dataclass
class SweepResult:
    """A sweep's measures over the scenario's time grid.

    ``values[(partition, pipeline)]`` is a ``(4, T)`` array: one row per
    measure in ``SERIES_MEASURES`` order, one column per grid time.  ``side``
    names the qubit both pipelines measured.
    """

    scenario: Scenario
    values: dict
    side: str

    def series(self, partition: str, pipeline: str, measure: str) -> np.ndarray:
        """Time-ordered values of one measure (a copy); empty if the sweep did not run the pair."""
        if measure not in SERIES_MEASURES:
            raise ValueError(f"series: unknown measure {measure!r}; must be one of {SERIES_MEASURES}")
        block = self.values.get((partition, pipeline))
        return np.empty(0) if block is None else block[SERIES_MEASURES.index(measure)].copy()

    def times(self) -> np.ndarray:
        """The grid times (a copy)."""
        return self.scenario.time_grid.copy()

    def main_pipeline(self) -> str:
        """``brute_force`` when the sweep ran it (it covers every partition)."""
        return "brute_force" if any(pipe == "brute_force" for _, pipe in self.values) else "closed_form"


def _closed_values(scenario: Scenario, side: str, x: np.ndarray, y: np.ndarray):
    """Spin-pair closed-form (C, Q, concurrence) arrays at the amplitudes (x, y), measuring ``side``.

    The spin pair takes (xi, chi); the reservoir pair obeys the same
    formulas with the two exchanged, so it takes (chi, xi).  The formulas
    measure the second qubit; exchanging (s1, r1) with (s2, r2) leaves
    two_exc as it is and takes one_exc (alpha, beta) to (beta, alpha).
    """
    x2, y2 = x**2, y**2
    alpha, beta, family = scenario.alpha, scenario.beta, scenario.family
    if family == "one_exc" and side == "first":
        alpha, beta = beta, alpha
    cs = classical_correlation_spins_two_exc(abs(beta) ** 2, x2, y2)
    qs = cs if family == "two_exc" else quantum_correlation_spins_one_exc(abs(alpha) ** 2, x2, y2)
    return cs, qs, concurrence_closed(family, alpha, beta, x, y)


def check_partitions(partitions, caller: str) -> tuple:
    """``partitions`` as a non-empty tuple of known, distinct names; errors begin with ``caller``."""
    partitions = tuple(partitions)
    for p in partitions:
        if not isinstance(p, str) or p not in PARTITIONS:
            raise ValueError(f"{caller}: unknown partition {p!r} in partitions")
    if len(partitions) != len(set(partitions)):
        raise ValueError(f"{caller}: partitions must be unique")
    if not partitions:
        raise ValueError(f"{caller}: partitions must not be empty")
    return partitions


def run_sweep(
    scenario: Scenario,
    partitions=PARTITION_ORDER,
    pipeline: str = "both",
    side: str = "second",
    grid: int = 64,
    refine_iters: int = 4,
) -> SweepResult:
    """Evaluate correlation measures over a scenario's whole time grid in one pass."""
    if pipeline not in PIPELINES:
        raise ValueError(f"run_sweep: pipeline must be one of {PIPELINES}")
    partitions = check_partitions(partitions, "run_sweep")
    for p in partitions:
        if pipeline == "closed_form" and p not in CLOSED_FORM_PARTITIONS:
            raise ValueError(
                f"run_sweep: closed-form pipeline covers {CLOSED_FORM_PARTITIONS}, not {p!r}"
            )

    times = scenario.time_grid
    # the closed forms read only the amplitudes
    (xi, chi), states = (scenario.spectral.amplitudes(times), None) if pipeline == "closed_form" else state_batch(scenario)
    values = {}
    amplitudes = {"s1s2": (xi, chi), "r1r2": (chi, xi)}
    for part in partitions:
        if pipeline != "brute_force" and part in CLOSED_FORM_PARTITIONS:
            cs, qs, cons = _closed_values(scenario, side, *amplitudes[part])
            values[part, "closed_form"] = np.stack((cs + qs, cs, qs, cons))
    if pipeline != "closed_form":
        # one call per measure on the reduced states of every partition
        rhos = np.concatenate([reduced_batch(states, part) for part in partitions])
        cvals, _, _ = classical_correlation_batch(rhos, side, grid, refine_iters)
        info = mutual_information_batch(rhos)
        measures = np.stack([info, cvals, discord_from(info, cvals), concurrence_batch(rhos)])
        for part, block in zip(partitions, np.split(measures, len(partitions), axis=1)):
            values[part, "brute_force"] = block
    return SweepResult(scenario, values, side)


def agreement_audit(result: SweepResult) -> AuditOutcome:
    """Closed-form vs brute-force agreement of C, Q and concurrence on every partition with both blocks."""
    audited = SERIES_MEASURES[1:]
    compared = [p for p in CLOSED_FORM_PARTITIONS if {(p, "closed_form"), (p, "brute_force")} <= result.values.keys()]
    if not compared:
        raise ValueError(f"agreement_audit: no partition of {CLOSED_FORM_PARTITIONS} has both pipelines' values")
    worst = 0.0
    worst_where = ""
    for part in compared:
        # (T, 3): the two blocks' C, Q and concurrence rows, one row per time
        dev = np.abs(result.values[part, "closed_form"][1:] - result.values[part, "brute_force"][1:]).T
        # a non-finite deviation is a failed comparison, not a skipped one
        dev[~np.isfinite(dev)] = np.inf
        # the first worst cell in (time, measure) order
        i, j = np.unravel_index(np.argmax(dev), dev.shape)
        if dev[i, j] > worst:
            worst = dev[i, j]
            worst_where = f"{part}/{audited[j]}@t={result.times()[i]:g}"
    return AuditOutcome(
        name="closed_vs_brute",
        passed=worst <= _AGREEMENT_TOL,
        margin=worst,
        details={"tolerance": _AGREEMENT_TOL, "worst_at": worst_where},
    )


# ---------------------------------------------------------------------------
# Asymptotic audits (flat spectral density).
# ---------------------------------------------------------------------------


def _ratio(num: np.ndarray, denom: np.ndarray, floor: float) -> np.ndarray:
    """num / denom where denom > floor, else 1."""
    ok = denom > floor
    return np.where(ok, num / np.where(ok, denom, 1.0), 1.0)


def flat_classical_tail_audit(beta2: float, gamma_ts) -> AuditOutcome:
    """Late-time behaviour of the spin-pair C against its leading form.

    Compares C to (beta2 - beta2^2) * gamma_t * exp(-2 gamma_t) / ln 2 on a
    tail of times gamma_t >= 8.  The subleading correction is
    -ln(beta2)/gamma_t, so the ratio approaches 1 from above; the audit
    passes when |ratio - 1| shrinks monotonically along the tail.  Band
    membership is reported as a separate, non-gating diagnostic (for small
    beta2 the correction keeps the ratio outside any fixed band until far
    larger times).
    """
    ts = np.asarray(list(gamma_ts), dtype=float)
    if ts.size < 2 or np.any(np.diff(ts) <= 0):
        raise ValueError("flat_classical_tail_audit: need an increasing tail of times")
    if ts[0] < 8.0:
        raise ValueError("flat_classical_tail_audit: tail must start at gamma_t >= 8")
    xi2, chi2 = np.square(amplitudes_flat(ts))
    c = classical_correlation_spins_two_exc(beta2, xi2, chi2)
    lead = (beta2 - beta2 * beta2) * ts * np.exp(-2.0 * ts) / np.log(2.0)
    ratios = _ratio(c, lead, 0.0)
    gaps = np.abs(ratios - 1.0)
    monotone = bool(np.all(np.diff(gaps) <= 1e-12)) and gaps[-1] <= gaps[0] + 1e-12
    in_band = bool(np.all((ratios >= _TAIL_BAND[0]) & (ratios <= _TAIL_BAND[1])))
    return AuditOutcome(
        name="flat_classical_tail",
        passed=monotone,
        margin=float(gaps.max()),
        details={
            "beta2": beta2,
            "gamma_ts": ts.tolist(),
            "ratios": ratios.tolist(),
            "band": _TAIL_BAND,
            "in_band": in_band,
        },
    )


def reservoir_transfer_audit(family: str, alpha2: float, beta2: float, gamma_ts) -> AuditOutcome:
    """Checks that correlations complete their move into the reservoirs.

    two_exc: at late gamma_t (>= 15) the reservoir-pair Q must sit within
    1e-3 of the initial spin-pair value H(beta2).
    one_exc: the spin-pair Q must track H(alpha2) * exp(-gamma_t) within
    a factor in [0.9, 1.1] on a tail of times gamma_t >= 8.
    """
    ts = np.asarray(list(gamma_ts), dtype=float)
    if ts.size == 0:
        raise ValueError("reservoir_transfer_audit: need at least one time")
    if not abs(alpha2 + beta2 - 1.0) <= 1e-10:
        raise ValueError(f"reservoir_transfer_audit: alpha2 + beta2 must be 1, got alpha2 = {alpha2!r}, beta2 = {beta2!r}")
    if family == "two_exc":
        if ts.min() < 15.0:
            raise ValueError("reservoir_transfer_audit: two_exc tail must satisfy gamma_t >= 15")
        xi2, chi2 = np.square(amplitudes_flat(ts))
        target = binary_entropy(beta2)
        _, q = reservoir_correlations_two_exc(beta2, xi2, chi2)
        worst = float(np.abs(q - target).max())
        return AuditOutcome(
            name="reservoir_transfer_two_exc",
            passed=worst < _TRANSFER_TOL,
            margin=worst,
            details={"beta2": beta2, "target": float(target), "gamma_ts": ts.tolist(), "tol": _TRANSFER_TOL},
        )
    if family == "one_exc":
        if ts.min() < 8.0:
            raise ValueError("reservoir_transfer_audit: one_exc tail must satisfy gamma_t >= 8")
        xi2, chi2 = np.square(amplitudes_flat(ts))
        q = quantum_correlation_spins_one_exc(alpha2, xi2, chi2)
        ratios = _ratio(q, binary_entropy(alpha2) * xi2, 1e-300)
        in_band = bool(np.all((ratios >= _TAIL_BAND[0]) & (ratios <= _TAIL_BAND[1])))
        return AuditOutcome(
            name="reservoir_transfer_one_exc",
            passed=in_band,
            margin=float(np.abs(ratios - 1.0).max()),
            details={"alpha2": alpha2, "gamma_ts": ts.tolist(), "ratios": ratios.tolist(), "band": _TAIL_BAND},
        )
    raise ValueError(f"reservoir_transfer_audit: unknown family {family!r}")


# ---------------------------------------------------------------------------
# Square-sum conservation audit.
# ---------------------------------------------------------------------------


def square_sum_series(result: SweepResult, measure: str) -> np.ndarray:
    """Sum of squared measures over the four non-interacting partitions; others are left out."""
    if measure not in MEASURES:
        raise ValueError(f"square_sum_series: measure must be one of {MEASURES}")
    present = {part for part, _ in result.values}
    if not present >= set(SQUARE_SUM_PARTITIONS):
        raise ValueError(
            f"square_sum_series: sweep must cover {SQUARE_SUM_PARTITIONS}, got {sorted(present)}"
        )
    pipe, row = result.main_pipeline(), SERIES_MEASURES.index(measure)
    return sum(result.values[part, pipe][row] ** 2 for part in SQUARE_SUM_PARTITIONS)


def square_sum_audit(result: SweepResult, measure: str) -> AuditOutcome:
    """No net creation of correlation: sum of squares never tops its start.

    Passes when measure(t)^2 summed over the four non-interacting pairs
    stays below its t = 0 value (within 1e-9) on the whole grid, which
    must start at t = 0.  The sum is *not* monotone in general: the
    reservoir share grows back toward the initial value as the transfer
    completes, and under a Lorentzian spectrum everything oscillates, so
    sample-to-sample monotonicity is only reported as a diagnostic.
    """
    start = result.scenario.time_grid[0]
    if start != 0.0:
        raise ValueError(f"square_sum_audit: the time grid must start at t = 0, got first time {start:g}")
    sums = square_sum_series(result, measure)
    excess = sums - sums[0]
    steps = np.diff(sums)
    worst = float(excess.max())
    return AuditOutcome(
        name=f"square_sum_{measure}",
        passed=worst <= _SQUARE_SUM_TOL,
        margin=worst,
        details={
            "initial": float(sums[0]),
            "max_excess_over_initial": worst,
            "monotone_nonincreasing": bool(steps.size == 0 or steps.max() <= 1e-12),
            "max_step_increase": float(steps.max()) if steps.size else 0.0,
            "tolerance": _SQUARE_SUM_TOL,
        },
    )


# ---------------------------------------------------------------------------
# Root finding and series diagnostics.
# ---------------------------------------------------------------------------


def bisect_positive_boundary(f, lo: float, hi: float, tol: float = 1e-9) -> float:
    """Boundary between f > 0 and f <= 0 on [lo, hi].

    Requires f(lo) > 0 and f(hi) <= 0; bisects on f > 0 to a bracket under ``tol`` or of adjacent floats.
    Suited to concurrence, which dies at a point and stays dead, and to
    the first zero of a function that changes sign once on the bracket.
    """
    if not lo < hi:  # also rejects NaN
        raise ValueError(f"bisect_positive_boundary: need lo < hi, got lo = {lo!r}, hi = {hi!r}")
    if not f(lo) > 0.0:
        raise ValueError("bisect_positive_boundary: f(lo) must be positive")
    if f(hi) > 0.0:
        raise ValueError("bisect_positive_boundary: f(hi) must not be positive")
    # halves first: lo + hi overflows to inf near the top of the float range
    while not hi - lo < tol:
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:  # no float left between the ends
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * lo + 0.5 * hi


def count_sign_changes(values) -> int:
    """Number of strict sign flips along a finite sampled series (zeros skipped)."""
    v = require_finite(values, "count_sign_changes")
    s = np.sign(v)
    s = s[s != 0.0]
    return int(np.sum(s[:-1] != s[1:]))


def count_local_maxima(values) -> int:
    """Strict interior local maxima of a finite sampled series."""
    v = require_finite(values, "count_local_maxima")
    if v.size < 3:
        return 0
    return int(np.sum((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])))
