"""Private counting with sampled two-round responses and non-attributable writes.

The package is organized as a pipeline:

- :mod:`covercount.field` -- array arithmetic mod 2^61 - 1 and bitstrings.
- :mod:`covercount.mechanisms` -- local privatization (randomized response and
  the two-round sampling mechanisms), their estimators, leakage calculators,
  and grid discretization.
- :mod:`covercount.privwrite` -- non-attributable database writes through
  seed-compressed point-function shares.
- :mod:`covercount.verify` -- blinded-share verification that each write is a
  unit vector.
- :mod:`covercount.harness` -- end-to-end epoch simulation.
- :mod:`covercount.cli` -- the ``covercount`` command.

The cryptography is simulation-grade: it demonstrates the protocols but makes
no side-channel or deployment-hardening claims.
"""

__version__ = "0.1.0"
