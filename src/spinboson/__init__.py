"""Exact correlation dynamics of two spins in independent bosonic reservoirs.

Quantum correlation (discord), classical correlation and Wootters
concurrence for every two-party cut of the four-party system, computed
both from closed forms and from a brute-force measurement optimiser, with
audits for the correlation-transfer and no-increase statements.
"""

from .linalg import binary_entropy, von_neumann_entropy
from .model import (
    PARTITION_ORDER,
    PARTITIONS,
    Amplitudes,
    Scenario,
    SpectralDensity,
    amplitudes_flat,
    amplitudes_lorentz,
    pure_state,
    reduced,
)
from .correlations import (
    MeasurementAxis,
    classical_correlation_bruteforce,
    classical_correlation_spins_two_exc,
    concurrence_closed,
    concurrence_wootters,
    discord,
    mutual_information,
    quantum_correlation_spins_one_exc,
    reservoir_correlations_two_exc,
)
from .experiments import (
    AuditOutcome,
    SweepResult,
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
from .io import (
    RunConfig,
    emit_csv,
    emit_figures,
    emit_svg_plot,
    parse_config,
)

__version__ = "0.1.0"
