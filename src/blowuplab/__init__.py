"""Numerical laboratory for self-similar blow-up of the fourth-order
p-Laplacian equation with source.

Modules by task: model (exponent pair, regime, tail exponents and P_k
coefficients), newton (the damped Newton loop), bvp (profile solver and
periodic shooting), oscillation (interface components), spectral (linear
kernel and eigenfunction ladder), variational (energy, fibering and
nonlinear eigenvalues), branching (p-continuation), patterns
(classification and guesses), cli (command-line front end).
"""

__version__ = "0.1.0"
