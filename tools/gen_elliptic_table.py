#!/usr/bin/env python3
"""Regenerate tests/elliptic_table.inc: reference values of the complete
elliptic integrals K(m) and E(m) (parameter convention, m = k^2) from
mpmath at 60 significant digits, for the table tests in
tests/test_special_math.cpp and tests/test_landau_tensor.cpp.

Each m is a double; mpmath evaluates K and E at that exact binary value, so
the only error left in a committed constant is its final rounding to double.

    python3 tools/gen_elliptic_table.py > tests/elliptic_table.inc
"""

import mpmath

mpmath.mp.dps = 60

# (0, 1) from the series end to the logarithmic pole, including m = 0.9625
# and m = 1 - 1e-15, the largest m the fixed-trip AGM is specified for.
M_VALUES = (
    [1e-300, 1e-15, 1e-10, 1e-6, 1e-4, 1e-3, 2e-3, 0.01, 0.05, 0.1, 0.2, 0.25, 0.3,
     0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95, 0.9625, 0.99, 0.999]
    + [1.0 - 10.0 ** -k for k in range(4, 16)]
)


def main():
    print("// Generated by tools/gen_elliptic_table.py (mpmath %s); do not edit."
          % mpmath.__version__)
    print("// {m, K(m), E(m)}, each correctly rounded from 60 digits.")
    for m in M_VALUES:
        x = mpmath.mpf(m)  # exact value of the double
        k = float(mpmath.ellipk(x))
        e = float(mpmath.ellipe(x))
        print("{%r, %r, %r}," % (m, k, e))


if __name__ == "__main__":
    main()
