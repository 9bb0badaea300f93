"""Arbitrary-precision rational coefficients.

The one module that names the coefficient type: fractions.Fraction. All
serialization goes through .numerator/.denominator.
"""

from fractions import Fraction

BACKEND = "fractions"

rat = Fraction
RAT_ZERO = rat(0)
RAT_ONE = rat(1)
