#!/usr/bin/env python3
"""Correlation transfer under a flat (Markovian) spectral density.

Two spins start in alpha|00> + beta|11> and each leaks its excitation into
its own reservoir at rate gamma.  This script tracks where the quantum and
classical correlations go: the spin pair loses them smoothly, the reservoir
pair picks them up, and entanglement dies suddenly while the quantum
correlation never does.
"""

import math

from spinboson import (
    amplitudes_flat,
    bisect_positive_boundary,
    classical_correlation_spins_two_exc,
    concurrence_closed,
    concurrence_wootters,
    pure_state,
    reduced,
    reservoir_correlations_two_exc,
)

alpha, beta = 1.0 / math.sqrt(10.0), 3.0 / math.sqrt(10.0)
beta2 = beta**2

print(f"initial state: {alpha:.4f}|00> + {beta:.4f}|11>  (|beta|^2 = {beta2})")
print(f"initial spin correlations: C = Q = H(|beta|^2) = "
      f"{classical_correlation_spins_two_exc(beta2, 1.0, 0.0):.6f} bits")
print()

print("gamma*t   C=Q(spins)   C=Q(reservoirs)   concurrence(spins)")
for gamma_t in (0.0, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0):
    xi, chi = amplitudes_flat(gamma_t)
    spins = classical_correlation_spins_two_exc(beta2, xi**2, chi**2)
    reservoirs, _ = reservoir_correlations_two_exc(beta2, xi**2, chi**2)
    con = concurrence_closed("two_exc", alpha, beta, xi, chi)
    print(f"{gamma_t:7.2f}   {spins:10.6f}   {reservoirs:15.6f}   {con:18.6f}")

print()
print("everything stored between the spins reappears between the reservoirs;")
print(f"the late-time reservoir value matches the t=0 spin value "
      f"{classical_correlation_spins_two_exc(beta2, 1.0, 0.0):.6f}")
print()

# entanglement sudden death: |alpha| < |beta| makes the spin concurrence
# hit exact zero at finite time


def spin_concurrence(gamma_t):
    rho = reduced(pure_state("two_exc", alpha, beta, amplitudes_flat(gamma_t)), "s1s2")
    return concurrence_wootters(rho)


death = bisect_positive_boundary(spin_concurrence, 0.0, 1.0, tol=1e-10)
print(f"entanglement death point:  gamma*t = {death:.9f}")
print(f"analytic value ln(3/2)   = {math.log(1.5):.9f}")
for gamma_t in (death + 0.05, death + 0.2):
    xi, chi = amplitudes_flat(gamma_t)
    q = classical_correlation_spins_two_exc(beta2, xi**2, chi**2)
    print(f"  gamma*t = {gamma_t:.3f}: concurrence = {spin_concurrence(gamma_t):.2e}, "
          f"but Q = {q:.6f} bits is alive and well")
