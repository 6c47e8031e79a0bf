#!/usr/bin/env python3
"""Non-Markovian revivals under a strong-coupling Lorentzian spectrum.

With W/lambda = sqrt(200) the reservoir memory makes the survival
amplitude ring: it crosses zero roughly every 2 pi / sqrt(799) in
lambda*t, and each swing hands correlations back and forth between the
spins and the reservoirs.
"""

import math

import numpy as np

from spinboson import (
    amplitudes_lorentz,
    bisect_positive_boundary,
    classical_correlation_spins_two_exc,
    count_local_maxima,
    count_sign_changes,
)

ratio = math.sqrt(200.0)
omega = math.sqrt(4.0 * ratio**2 - 1.0)

taus = np.linspace(0.0, 1.0, 4001)
xi = amplitudes_lorentz(taus, ratio).xi

print(f"coupling ratio W/lambda = sqrt(200), ringing frequency sqrt(799) = {omega:.4f}")
print(f"amplitude sign changes on lambda*t in [0, 1]: {count_sign_changes(xi)}")
print(f"expected zero spacing 2 pi / sqrt(799) = {2 * math.pi / omega:.6f}")

first_zero = bisect_positive_boundary(lambda t: amplitudes_lorentz(t, ratio).xi, 0.05, 0.2, tol=1e-12)
analytic = 2.0 * (math.pi - math.atan(omega)) / omega
print(f"first zero (bisection): lambda*t = {first_zero:.9f}")
print(f"first zero (analytic 2(pi - atan omega)/omega): {analytic:.9f}")
print()

# the spin-pair correlation touches zero with the amplitude and revives
# in between: count the revival peaks over two units of lambda*t
taus2 = np.linspace(0.0, 2.0, 4001)
x, c = amplitudes_lorentz(taus2, ratio)
series = classical_correlation_spins_two_exc(0.5, x * x, np.minimum(c * c, 1.0))

print(f"spin-pair C = Q revival peaks on lambda*t in [0, 2]: {count_local_maxima(series)}")
print()
print("lambda*t     xi        C=Q(spins)")
for t in (0.0, 0.11, 0.2223, 0.33, 0.4446, 0.89):
    x, c = amplitudes_lorentz(t, ratio)
    v = classical_correlation_spins_two_exc(0.5, x * x, min(c * c, 1.0))
    print(f"{t:8.4f}  {x:+8.4f}   {v:10.6f}")
print()
print("zeros of xi empty the spin pair completely; the local maxima of xi^2")
print("at multiples of 2 pi / sqrt(799) bring the correlations partway back")
