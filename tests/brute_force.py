"""Brute-force references that only the tests use."""

import itertools


def hypersurface_lengths(num_vars: int, degree: int, j_max: int):
    """l(j) for O/(f) at the cone point of a degree-d hypersurface whose
    leading form has x_{k}^d as leading monomial: monomials with last
    exponent < degree, counted by total degree (order j^num_vars work)."""
    out = []
    for j in range(1, j_max + 1):
        c = 0
        for v in itertools.product(range(j), repeat=num_vars):
            if sum(v) < j and v[-1] < degree:
                c += 1
        out.append(c)
    return out
