"""Brute-force references that only the tests use."""

import itertools
import math
from fractions import Fraction

from heights.heightvalue import HeightValue, ZERO
from heights.intersection import FormalSum, SymmetricForm


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


def primes_to(n: int) -> list:
    """The primes p <= n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"[:n + 1]
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


def p1_deg_hat_exact(m: int) -> HeightValue:
    """deg_hat(m) = -1/2 [2 sum_{k<=m} (m-k+1) log k - (m+1) log (m+1)!
    + (m+1) log m] with each logarithm split over the primes: the bracket
    has integer log-prime coefficients, from the p-adic valuations of k,
    of m and (by Legendre's formula) of (m+1)!."""
    logs = {}
    for p in primes_to(m + 1):
        c, q = 0, p
        while q <= m + 1:
            # the k <= m divisible by q are k = j q, j = 1..J
            J = m // q
            c += 2 * (J * (m + 1) - q * J * (J + 1) // 2)
            c -= (m + 1) * ((m + 1) // q)
            if m % q == 0:
                c += m + 1
            q *= p
        logs[p] = c
    return HeightValue(log_terms=logs).scale(Fraction(-1, 2))


def blowup_primitive_form(primes, arity=3) -> SymmetricForm:
    """Exact triple products over {Lb, Kb, F_p} from the toric rules:
    pure-base and two-base monomials vanish, (Lb.F_p^2) = -log p,
    (Kb.F_p^2) = +log p, (F_p^3) = +log p, distinct primes are disjoint."""
    names = ["Lb", "Kb"] + [f"F{p}" for p in primes]
    entries = {}
    for key in itertools.combinations_with_replacement(sorted(names), arity):
        entries[key] = ZERO
    for p in primes:
        f = f"F{p}"
        lp = {p: Fraction(1)}
        entries[tuple(sorted(("Lb", f, f)))] = HeightValue(
            log_terms={p: Fraction(-1)})
        entries[tuple(sorted(("Kb", f, f)))] = HeightValue(log_terms=lp)
        entries[(f, f, f)] = HeightValue(log_terms=lp)
    return SymmetricForm(arity, entries)


def blowup_subs(primes, twist: int) -> dict:
    """The blow-up family's joint class names in the primitive classes:
    L = Lb - twist sum F_p, K = Kb + sum F_p, F_p, L_base = Lb and
    K_base = Kb."""
    fnames = [f"F{p}" for p in primes]
    subs = {"L": FormalSum("Lb") - FormalSum({f: twist for f in fnames}),
            "K": FormalSum("Kb") + FormalSum({f: 1 for f in fnames}),
            "L_base": FormalSum("Lb"), "K_base": FormalSum("Kb")}
    subs.update((f, FormalSum(f)) for f in fnames)
    return subs
