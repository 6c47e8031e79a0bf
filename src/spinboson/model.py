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
(gamma*t for flat, lambda*t for Lorentzian).  The amplitudes and the pure
states take a whole time grid as one array.

The state is sum_ij c_ij |e_i>_{s1 r1} |e_j>_{s2 r2}, with |e_0> = |00>,
|e_1> = xi |10> + chi |01> in (spin, reservoir) order and the 2x2 matrix c
the initial spin state sum_ij c_ij |ij>.  Each family is a preset of c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Complex, Real
from typing import NamedTuple

import numpy as np

# Each family's initial spin state sum_ij c_ij |ij>: the entries (i, j) of c holding alpha and beta, the rest 0.
FAMILY_PRESETS = {"two_exc": ((0, 0), (1, 1)), "one_exc": ((0, 1), (1, 0))}
FAMILIES = tuple(FAMILY_PRESETS)

# Partition label -> subsystem indices kept, in (s1, s2, r1, r2) order.
PARTITIONS = {
    "s1s2": (0, 1),
    "r1r2": (2, 3),
    "s1r1": (0, 2),
    "s1r2": (0, 3),
    "s2r1": (1, 2),
    "s2r2": (1, 3),
}

PARTITION_ORDER = tuple(PARTITIONS)

# Critical-damping window for the Lorentzian discriminant 1 - 4 (W/lambda)^2.
_CRITICAL_EPS = 1e-12


class Amplitudes(NamedTuple):
    """Survival/leakage amplitude pair with xi^2 + chi^2 = 1.

    ``xi`` keeps its sign: in the underdamped Lorentzian regime it passes
    through zero, and the sign feeds coherences of the reduced states.
    ``chi`` is non-negative by convention.  Both are numpy scalars for a
    scalar time and arrays of its shape for an array of times.
    """

    xi: np.ndarray
    chi: np.ndarray


def amplitudes_flat(gamma_t) -> Amplitudes:
    """Amplitudes for a flat spectral density: exponential decay.

    xi = exp(-gamma*t/2), chi = sqrt(1 - exp(-gamma*t)), for a scalar or
    an array of times gamma*t >= 0.
    """
    tau = np.asarray(gamma_t, dtype=float)
    if not np.all(tau >= 0.0):  # also rejects NaN
        raise ValueError("amplitudes_flat: negative time")
    return Amplitudes(np.exp(-tau / 2.0), np.sqrt(-np.expm1(-tau)))


def amplitudes_lorentz(lambda_t, coupling_ratio: float) -> Amplitudes:
    """Amplitudes for a resonant Lorentzian spectral density.

    Parameters
    ----------
    lambda_t : dimensionless time lambda*t >= 0, a scalar or an array.
    coupling_ratio : W / lambda.  Below 1/2 the decay is overdamped,
        above it the amplitude oscillates (underdamped); the critical
        point is handled by its analytic limit.
    """
    tau = np.asarray(lambda_t, dtype=float)
    if not np.all(tau >= 0.0):  # also rejects NaN
        raise ValueError("amplitudes_lorentz: negative time")
    if not coupling_ratio > 0.0:  # also rejects NaN
        raise ValueError("amplitudes_lorentz: coupling ratio must be positive")
    d2 = 1.0 - 4.0 * coupling_ratio * coupling_ratio
    if d2 > _CRITICAL_EPS:
        d = math.sqrt(d2)
        # exp-combined form stays finite for large tau
        xi = 0.5 * ((1.0 + 1.0 / d) * np.exp(-(1.0 - d) * tau / 2.0)
                    + (1.0 - 1.0 / d) * np.exp(-(1.0 + d) * tau / 2.0))
    elif d2 < -_CRITICAL_EPS:
        om = math.sqrt(-d2)
        with np.errstate(over="ignore"):
            phase = om * tau / 2.0
        if not np.all(np.isfinite(phase)):
            raise ValueError("amplitudes_lorentz: oscillation phase is not finite")
        xi = np.exp(-tau / 2.0) * (np.sin(phase) / om + np.cos(phase))
    else:
        xi = np.exp(-tau / 2.0) * (1.0 + tau / 2.0)
    return Amplitudes(xi, np.sqrt(np.maximum(0.0, 1.0 - xi * xi)))


def as_number(value, kind: type = float):
    """``value`` as a ``kind``, float or complex, or None if it is not such a number (numpy's are, bools not)."""
    if isinstance(value, bool) or not isinstance(value, Real if kind is float else Complex):
        return None
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range: an infinity, which every caller rejects
        return kind(math.inf if value > 0 else -math.inf)


# Each spectral kind's fields: config key -> SpectralDensity attribute, the rate first.
SPECTRAL_FIELDS = {"flat": {"gamma": "gamma"}, "lorentz": {"lambda": "lam", "W": "W"}}


@dataclass(frozen=True)
class SpectralDensity:
    """Reservoir coupling profile: flat (Markovian) or Lorentzian.

    flat: J(w) = gamma, exponential decay at rate gamma.
    lorentz: J(w) centered on the spin frequency with width ``lam`` and
    coupling ``W``; only the ratio W/lam and the product lambda*t matter.

    A kind's fields (``SPECTRAL_FIELDS``) must be finite numbers > 0 and
    W/lam finite and nonzero; another kind's stay None.  Errors name the key.
    """

    kind: str
    gamma: float | None = None
    W: float | None = None
    lam: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in SPECTRAL_FIELDS:
            raise ValueError(f"SpectralDensity: kind must be one of {tuple(SPECTRAL_FIELDS)}, got {self.kind!r}")
        own = SPECTRAL_FIELDS[self.kind]
        for fields in SPECTRAL_FIELDS.values():
            for key, attr in fields.items():
                value = getattr(self, attr)
                if key not in own:
                    if value is not None:
                        raise ValueError(f"SpectralDensity: a {self.kind} spectrum takes no {key}, got {value!r}")
                    continue
                # NaN fails the comparison
                if (number := as_number(value)) is None or not 0.0 < number < math.inf:
                    raise ValueError(f"SpectralDensity: {self.kind} spectrum needs a finite {key} > 0, got {value!r}")
                object.__setattr__(self, attr, number)
        if self.kind == "lorentz":
            ratio = self.W / self.lam
            if not math.isfinite(ratio) or ratio == 0.0:
                raise ValueError(f"SpectralDensity: lorentz W / lambda is {ratio!r}; must be finite and nonzero")

    @property
    def rate_key(self) -> str:
        """Config key of the rate: ``gamma`` or ``lambda``."""
        return next(iter(SPECTRAL_FIELDS[self.kind]))

    @property
    def rate(self) -> float:
        """Rate converting raw time to the dimensionless evolution variable."""
        return getattr(self, SPECTRAL_FIELDS[self.kind][self.rate_key])

    def amplitudes(self, tau) -> Amplitudes:
        """Amplitude pair at dimensionless time(s) tau (gamma*t or lambda*t)."""
        if self.kind == "flat":
            return amplitudes_flat(tau)
        return amplitudes_lorentz(tau, self.W / self.lam)


@dataclass(frozen=True)
class Scenario:
    """An initial-state family (a preset of ``FAMILY_PRESETS``) on a dimensionless time grid.

    Both reservoirs start empty; |alpha|^2 + |beta|^2 = 1.
    """

    family: str
    alpha: complex
    beta: complex
    spectral: SpectralDensity
    time_grid: np.ndarray

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"Scenario: unknown family {self.family!r}")
        for name in ("alpha", "beta"):
            if (w := as_number(value := getattr(self, name), complex)) is None:
                raise ValueError(f"Scenario: {name} must be a number, got {value!r}")
            object.__setattr__(self, name, w)
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm - 1.0) <= 1e-10:  # NaN fails too
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
    """The state sum_ij c_ij |e_i>_{s1 r1} |e_j>_{s2 r2} as 16 amplitudes of (s1, s2, r1, r2).

    c is ``family``'s preset (``FAMILY_PRESETS``) holding alpha and beta; amps of shape S give S + (16,).
    """
    if not isinstance(family, str) or family not in FAMILY_PRESETS:
        raise ValueError(f"pure_state: unknown family {family!r}")
    c = np.zeros((2, 2), dtype=complex)
    c[tuple(zip(*FAMILY_PRESETS[family]))] = alpha, beta
    e = np.zeros(np.shape(amps[0]) + (2, 2, 2), dtype=complex)  # e[..., i, spin, reservoir]
    e[..., 0, 0, 0], e[..., 1, 1, 0], e[..., 1, 0, 1] = 1.0, *amps
    half = np.einsum("ij,...iab->...jab", c, e)  # sum over i first: each entry is (weight * amp1) * amp2
    return np.einsum("...jab,...jcd->...acbd", half, e).reshape(e.shape[:-3] + (16,))


def reduced(state: np.ndarray, partition: str) -> np.ndarray:
    """Two-qubit reduced density matrix of one partition of the pure state."""
    return reduced_batch(np.asarray(state, dtype=complex)[None], partition)[0]


def reduced_batch(states: np.ndarray, partition: str) -> np.ndarray:
    """Reduced density matrices (N, 4, 4) for a batch of 16-vectors."""
    if not isinstance(partition, str) or partition not in PARTITIONS:
        raise ValueError(f"reduced: unknown partition {partition!r}")
    states = np.asarray(states, dtype=complex)
    if states.shape[-1:] != (16,):
        raise ValueError(f"reduced: expected states of 16 amplitudes, got shape {states.shape}")
    keep = PARTITIONS[partition]
    rest = tuple(i for i in range(4) if i not in keep)
    t = states.reshape(-1, 2, 2, 2, 2)
    t = np.transpose(t, (0,) + tuple(k + 1 for k in keep) + tuple(r + 1 for r in rest))
    m = t.reshape(-1, 4, 4)
    return np.einsum("nij,nkj->nik", m, m.conj())


def state_batch(scenario: Scenario) -> tuple[Amplitudes, np.ndarray]:
    """Evolve a scenario over its whole grid.

    Returns the :class:`Amplitudes` pair of (T,) arrays and the (T, 16)
    stack of pure states.
    """
    amps = scenario.spectral.amplitudes(scenario.time_grid)
    return amps, pure_state(scenario.family, scenario.alpha, scenario.beta, amps)
