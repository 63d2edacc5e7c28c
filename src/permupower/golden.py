"""Reference census data for small dimensions.

The d = 3 table is the classical 15-class census.  One published variant
lists the 10368-member class as 182/375 (~0.4853); that number cannot be a
d = 3 class value, since every d = 3 power is an even integer over 96,
and with it the table's mean would be 9701/17500 rather than the exact 31/56.
Exhaustive recomputation, cross-checked against the dense oracle, gives
11/24 (= 44/96) for that class, which is what this table carries.
"""

from __future__ import annotations

from fractions import Fraction

# d -> {power: number of permutations with that power}, over all d^2!
EXPECTED_CENSUS = {
    2: {
        Fraction(0): 8,
        Fraction(4, 9): 16,
    },
    3: {
        Fraction(0): 72,
        Fraction(1, 3): 2592,
        Fraction(3, 8): 864,
        Fraction(5, 12): 1296,
        Fraction(11, 24): 10368,
        Fraction(23, 48): 20736,
        Fraction(1, 2): 27432,
        Fraction(25, 48): 36288,
        Fraction(13, 24): 44064,
        Fraction(9, 16): 101376,
        Fraction(7, 12): 44712,
        Fraction(29, 48): 46656,
        Fraction(5, 8): 22464,
        Fraction(2, 3): 3888,
        Fraction(3, 4): 72,
    },
}
