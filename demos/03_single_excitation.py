#!/usr/bin/env python3
"""The single-excitation family: where Q and C part ways.

For alpha|01> + beta|10> the classical correlation follows the same curve
as in the two-excitation case, but the quantum correlation does not: Q
starts at H(|alpha|^2), decays like exp(-gamma t), and never equals C
except in degenerate corners.  Entanglement never suddenly dies here.
"""

import math

from spinboson import (
    amplitudes_flat,
    classical_correlation_spins_two_exc,
    concurrence_closed,
    quantum_correlation_spins_one_exc,
)

alpha2 = 0.1
beta2 = 1.0 - alpha2


def h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


print(f"|alpha|^2 = {alpha2}: Q(0) = H(|alpha|^2) = {h2(alpha2):.6f} bits")
print()
print("gamma*t     C(spins)    Q(spins)    |Q-C|      Q/(Q(0) e^-gt)   concurrence")
for gamma_t in (0.0, 0.3, 0.7, 1.5, 3.0, 6.0, 10.0):
    xi, chi = amplitudes_flat(gamma_t)
    x2, c2 = xi**2, chi**2
    c = classical_correlation_spins_two_exc(beta2, x2, c2)
    q = quantum_correlation_spins_one_exc(alpha2, x2, c2)
    ratio = q / (h2(alpha2) * math.exp(-gamma_t))
    con = concurrence_closed("one_exc", math.sqrt(alpha2), math.sqrt(beta2), xi, chi)
    print(f"{gamma_t:7.2f}  {c:10.6f}  {q:10.6f}  {abs(q - c):8.2e}  {ratio:14.6f}  {con:11.6f}")

print()
print("the ratio column shows Q settling onto H(|alpha|^2) exp(-gamma t);")
print("the concurrence column is 2|alpha beta| exp(-gamma t): positive forever, no sudden death")
print()

# the reservoirs end up with *different* C and Q, unlike the spin story;
# they obey the spin formulas with xi and chi exchanged
print("late-time reservoir pair:")
for gamma_t in (2.0, 5.0, 12.0):
    xi, chi = amplitudes_flat(gamma_t)
    c = classical_correlation_spins_two_exc(beta2, chi**2, xi**2)
    q = quantum_correlation_spins_one_exc(alpha2, chi**2, xi**2)
    print(f"  gamma*t = {gamma_t:5.1f}: C = {c:.6f} -> H(|beta|^2) = {h2(beta2):.6f}, "
          f"Q = {q:.6f} -> H(|alpha|^2) = {h2(alpha2):.6f}")
