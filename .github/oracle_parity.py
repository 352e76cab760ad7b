"""The Euler-pairing kernel against its composition, without pytest.

chi_pair_oracle(M_i, T_j, S) takes the one-pass kernel of ulrich_lab.chern
on one lattice.  On each of the 72**2 ordered pairs of twisted cubics it must
equal euler_char(tensor(dual(M_i), M_j), S), the same chi built through a
dual bundle, a product bundle and Riemann-Roch, and the closed form
2 - T_i.T_j.  Fixed-seed random bundles of ranks 1-6 on the cubic lattice,
in place of M_i, must give the composition's value too.

Usage: python3 .github/oracle_parity.py   (with ulrich_lab importable, e.g.
after `pip install .` or with PYTHONPATH=src; needs only the standard
library; exits non-zero on the first mismatch)
"""

import random
import sys

from ulrich_lab import (
    CUBIC_SURFACE,
    BundleNumerics,
    DivisorClass,
    chi_pair_closed_form,
    chi_pair_oracle,
    dual,
    euler_char,
    kernel_bundle_of_cubic,
    tensor,
    twisted_cubics,
)


def expect(ok, what):
    if not ok:
        sys.exit(f"oracle_parity: {what}")


divisors = [t.divisor for t in twisted_cubics()]
kernels = [kernel_bundle_of_cubic(t) for t in divisors]
expect(len(divisors) == 72, f"{len(divisors)} twisted cubics")
pairs = 0
for t1, m1 in zip(divisors, kernels):
    m1_dual = dual(m1)
    for t2, m2 in zip(divisors, kernels):
        oracle = chi_pair_oracle(m1, t2, CUBIC_SURFACE)
        composed = euler_char(tensor(m1_dual, m2), CUBIC_SURFACE)
        expect(oracle == composed, f"chi({t1}, {t2}): kernel {oracle}, composition {composed}")
        closed = chi_pair_closed_form(2, [t1.dot(t2)])
        expect(oracle == closed, f"chi({t1}, {t2}): kernel {oracle}, closed form {closed}")
        pairs += 1

rng = random.Random(0x0C1)
for _ in range(2000):
    fprev = BundleNumerics(rng.randint(1, 6),
                           DivisorClass(rng.randint(-9, 9), tuple(rng.randint(-9, 9) for _ in range(6))),
                           rng.randint(-50, 50))
    t2, m2 = rng.choice(list(zip(divisors, kernels)))
    oracle = chi_pair_oracle(fprev, t2, CUBIC_SURFACE)
    composed = euler_char(tensor(dual(fprev), m2), CUBIC_SURFACE)
    expect(oracle == composed, f"chi({fprev}, {t2}): kernel {oracle}, composition {composed}")
print(f"oracle_parity: {pairs} cubic pairs, 2000 random bundles, "
      f"Python {sys.version.split()[0]}: ok")
