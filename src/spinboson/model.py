"""Exactly solvable model of two spins in independent bosonic reservoirs.

Each spin exchanges a single excitation with its own zero-temperature
reservoir.  Collecting every reservoir mode that can hold the excitation
into one collective state turns each reservoir into an effective two-level
system, so the whole problem lives in a 16-dimensional space ordered as
(spin 1, spin 2, reservoir 1, reservoir 2), big-endian.

All dynamics enter through a single pair of real amplitudes: the survival
amplitude ``xi(t)`` of an excitation on its spin and the leakage amplitude
``chi(t) = sqrt(1 - xi^2)`` into the collective reservoir mode.  A flat
spectral density gives plain exponential decay; a Lorentzian at strong
coupling makes ``xi`` oscillate through zero, which is where all the
non-Markovian structure comes from.  Time is handled dimensionlessly
(gamma*t for flat, lambda*t for Lorentzian).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

FAMILIES = ("two_exc", "one_exc")

# Partition label -> subsystem indices kept, in (s1, s2, r1, r2) order.
PARTITIONS = {
    "s1s2": (0, 1),
    "r1r2": (2, 3),
    "s1r1": (0, 2),
    "s1r2": (0, 3),
    "s2r1": (1, 2),
    "s2r2": (1, 3),
}

PARTITION_ORDER = ("s1s2", "r1r2", "s1r1", "s1r2", "s2r1", "s2r2")

# Critical-damping window for the Lorentzian discriminant 1 - 4 (W/lambda)^2.
_CRITICAL_EPS = 1e-12


class Amplitudes(NamedTuple):
    """Survival/leakage amplitude pair with xi^2 + chi^2 = 1.

    ``xi`` keeps its sign: in the underdamped Lorentzian regime it passes
    through zero, and the sign feeds coherences of the reduced states.
    ``chi`` is non-negative by convention.
    """

    xi: float
    chi: float


def amplitudes_flat(gamma_t: float) -> Amplitudes:
    """Amplitudes for a flat spectral density: exponential decay.

    xi = exp(-gamma*t/2), chi = sqrt(1 - exp(-gamma*t)).
    """
    if gamma_t < 0.0:
        raise ValueError("amplitudes_flat: negative time")
    xi = math.exp(-gamma_t / 2.0)
    chi = math.sqrt(-math.expm1(-gamma_t))
    return Amplitudes(xi, chi)


def amplitudes_lorentz(lambda_t: float, coupling_ratio: float) -> Amplitudes:
    """Amplitudes for a resonant Lorentzian spectral density.

    Parameters
    ----------
    lambda_t : dimensionless time lambda*t, >= 0.
    coupling_ratio : W / lambda.  Below 1/2 the decay is overdamped,
        above it the amplitude oscillates (underdamped); the critical
        point is handled by its analytic limit.
    """
    if lambda_t < 0.0:
        raise ValueError("amplitudes_lorentz: negative time")
    if coupling_ratio <= 0.0:
        raise ValueError("amplitudes_lorentz: coupling ratio must be positive")
    tau = float(lambda_t)
    d2 = 1.0 - 4.0 * coupling_ratio * coupling_ratio
    if d2 > _CRITICAL_EPS:
        d = math.sqrt(d2)
        # exp-combined form stays finite for large tau
        xi = 0.5 * ((1.0 + 1.0 / d) * math.exp(-(1.0 - d) * tau / 2.0)
                    + (1.0 - 1.0 / d) * math.exp(-(1.0 + d) * tau / 2.0))
    elif d2 < -_CRITICAL_EPS:
        om = math.sqrt(-d2)
        xi = math.exp(-tau / 2.0) * (math.sin(om * tau / 2.0) / om + math.cos(om * tau / 2.0))
    else:
        xi = math.exp(-tau / 2.0) * (1.0 + tau / 2.0)
    chi = math.sqrt(max(0.0, 1.0 - xi * xi))
    return Amplitudes(xi, chi)


@dataclass(frozen=True)
class SpectralDensity:
    """Reservoir coupling profile: flat (Markovian) or Lorentzian.

    flat: J(w) = gamma, exponential decay at rate gamma.
    lorentz: J(w) centered on the spin frequency with width ``lam`` and
    coupling ``W``; only the ratio W/lam and the product lambda*t matter.
    """

    kind: str
    gamma: float = 0.0
    W: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if self.kind == "flat":
            if self.gamma <= 0.0:
                raise ValueError("SpectralDensity: flat spectrum needs gamma > 0")
        elif self.kind == "lorentz":
            if self.W <= 0.0 or self.lam <= 0.0:
                raise ValueError("SpectralDensity: lorentz spectrum needs W > 0 and lambda > 0")
        else:
            raise ValueError(f"SpectralDensity: unknown kind {self.kind!r}")

    @property
    def rate(self) -> float:
        """Rate converting raw time to the dimensionless evolution variable."""
        return self.gamma if self.kind == "flat" else self.lam

    def amplitudes(self, tau: float) -> Amplitudes:
        """Amplitude pair at dimensionless time tau (gamma*t or lambda*t)."""
        if self.kind == "flat":
            return amplitudes_flat(tau)
        return amplitudes_lorentz(tau, self.W / self.lam)


@dataclass(frozen=True)
class Scenario:
    """An initial-state family on a dimensionless time grid.

    family ``two_exc``: alpha |00> + beta |11> on the spins.
    family ``one_exc``: alpha |01> + beta |10> on the spins.
    Both reservoirs start empty; |alpha|^2 + |beta|^2 = 1.
    """

    family: str
    alpha: complex
    beta: complex
    spectral: SpectralDensity
    time_grid: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 5.0, 101))

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"Scenario: unknown family {self.family!r}")
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"Scenario: |alpha|^2 + |beta|^2 = {norm!r}, must be 1")
        grid = np.asarray(self.time_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("Scenario: time_grid must be a non-empty 1-d array")
        if not np.all(np.isfinite(grid)):
            raise ValueError("Scenario: time_grid must be finite")
        if grid[0] < 0.0:
            raise ValueError("Scenario: time_grid must start at or after 0")
        if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
            raise ValueError("Scenario: time_grid must be strictly increasing")
        object.__setattr__(self, "time_grid", grid)


def pure_state(family: str, alpha: complex, beta: complex, amps: Amplitudes) -> np.ndarray:
    """16-amplitude state of (s1, s2, r1, r2) at given survival amplitude.

    For ``two_exc`` the excitation pair decays independently, spreading
    weight over |1100>, |1001>, |0110>, |0011>; for ``one_exc`` the single
    excitation is shared between each spin and its own reservoir mode.
    Tracing out both reservoirs reproduces the familiar X-shaped reduced
    spin states entrywise.
    """
    xi, chi = amps
    psi = np.zeros(16, dtype=complex)
    if family == "two_exc":
        psi[0b0000] = alpha
        psi[0b1100] = beta * xi * xi
        psi[0b1001] = beta * xi * chi
        psi[0b0110] = beta * chi * xi
        psi[0b0011] = beta * chi * chi
    elif family == "one_exc":
        psi[0b0100] = alpha * xi
        psi[0b0001] = alpha * chi
        psi[0b1000] = beta * xi
        psi[0b0010] = beta * chi
    else:
        raise ValueError(f"pure_state: unknown family {family!r}")
    return psi


def build_state(scenario: Scenario, amps: Amplitudes) -> np.ndarray:
    """State vector for a scenario's initial weights at given amplitudes."""
    return pure_state(scenario.family, scenario.alpha, scenario.beta, amps)


def reduced(state: np.ndarray, partition: str) -> np.ndarray:
    """Two-qubit reduced density matrix of one partition of the pure state."""
    return reduced_batch(np.asarray(state, dtype=complex)[None], partition)[0]


def reduced_batch(states: np.ndarray, partition: str) -> np.ndarray:
    """Reduced density matrices (N, 4, 4) for a batch of 16-vectors."""
    if partition not in PARTITIONS:
        raise ValueError(f"reduced: unknown partition {partition!r}")
    keep = PARTITIONS[partition]
    rest = tuple(i for i in range(4) if i not in keep)
    t = np.asarray(states, dtype=complex).reshape(-1, 2, 2, 2, 2)
    t = np.transpose(t, (0,) + tuple(k + 1 for k in keep) + tuple(r + 1 for r in rest))
    m = t.reshape(-1, 4, 4)
    return np.einsum("nij,nkj->nik", m, m.conj())


def amplitude_batch(scenario: Scenario) -> np.ndarray:
    """The (xi, chi) pairs over a scenario's whole grid, shape (T, 2)."""
    return np.array([scenario.spectral.amplitudes(t) for t in scenario.time_grid])


def state_batch(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Evolve a scenario over its whole grid.

    Returns the (T, 2) amplitude pairs of :func:`amplitude_batch` and the
    (T, 16) stack of pure states.
    """
    amps = amplitude_batch(scenario)
    states = np.stack(
        [pure_state(scenario.family, scenario.alpha, scenario.beta, Amplitudes(*a)) for a in amps]
    )
    return amps, states
