"""Exact-arithmetic Saito-Kurokawa lifts and friends.

Subpackages/modules:

* ``arith``      -- Bernoulli numbers, Kronecker symbols, the sieve split
                    of a discriminant into D_0 f^2, Dirichlet L-values at
                    negative integers.
* ``qseries``    -- truncated q-expansions with exact rational coefficients.
* ``eigenforms`` -- level-one cusp forms and Hecke operators.
* ``siegel``     -- degree-2 Siegel expansions: Fourier indices, Eisenstein
                    coefficients, the Phi operator and the degree-2 Hecke
                    action.
* ``lift``       -- interpolation of local Laurent factors across Eisenstein
                    weights and assembly of the lift.
* ``jacobi``     -- index-m Fourier-Jacobi components and their checks.
* ``jordan``     -- rational octonions and the 3x3 exceptional Jordan algebra.
* ``lfactor``    -- symbolic Satake multisets and standard L-factor identities.
* ``cli``        -- file-emitting command line front end.

All computations are exact; no floating point is used anywhere.
"""

__version__ = "0.1.0"
