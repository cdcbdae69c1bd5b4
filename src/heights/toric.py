"""Small exact toric calculators.

Two jobs: triple intersection numbers on complete simplicial toric
threefolds (the independent oracle for the blow-up family rules) and
log discrepancies of divisorial valuations on simplicial cones.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from types import MappingProxyType

from .errors import OutsideCone, ValidationError


def _solve(mat, rhs):
    """Exact Gaussian elimination; mat square over Fractions."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValidationError("singular system (non-simplicial data?)")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def _det3(u, v, w):
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


class ToricThreefold:
    """Complete simplicial fan in R^3 given by rays and maximal cones."""

    def __init__(self, rays, cones):
        self.rays = [tuple(int(x) for x in r) for r in rays]
        self.cones = [tuple(sorted(c)) for c in cones]
        self._mult = {}
        for c in self.cones:
            d = abs(_det3(*(self.rays[i] for i in c)))
            if d == 0:
                raise ValidationError(f"degenerate cone {c}")
            self._mult[c] = d
        self._cache = {}

    def _adjacent(self, i, j) -> bool:
        return any(i in c and j in c for c in self.cones)

    def _distinct(self, i, j, k) -> Fraction:
        c = tuple(sorted((i, j, k)))
        if c in self._mult:
            return Fraction(1, self._mult[c])
        return Fraction(0)

    def _dual_vector(self, a: int, zero_on: int | None):
        """u with <u, v_a> = 1 and optionally <u, v_zero> = 0."""
        rows = [self.rays[a]]
        rhs = [1]
        if zero_on is not None:
            rows.append(self.rays[zero_on])
            rhs.append(0)
        basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for extra in itertools.combinations(basis, 3 - len(rows)):
            mat = rows + list(extra)
            try:
                return _solve([list(r) for r in mat], rhs + [0] * len(extra))
            except ValidationError:
                continue
        raise ValidationError("could not build a dual vector")

    def triple(self, i, j, k) -> Fraction:
        key = tuple(sorted((i, j, k)))
        if key in self._cache:
            return self._cache[key]
        i, j, k = key
        if i != j and j != k:
            val = self._distinct(i, j, k)
        elif len({i, j, k}) == 2 and not self._adjacent(*sorted({i, j, k})):
            # the two distinct prime divisors are disjoint
            val = Fraction(0)
        else:
            # reduce one repeated slot with a linear equivalence
            if i == j:
                a, others = i, (j, k)
            else:
                a, others = k, (i, j)
            zero_on = others[1] if others[1] != a else (
                others[0] if others[0] != a else None)
            u = self._dual_vector(a, zero_on)
            val = Fraction(0)
            for t, ray in enumerate(self.rays):
                if t == a:
                    continue
                coef = sum(Fraction(x) * y for x, y in zip(u, ray))
                if coef != 0:
                    val -= coef * self.triple(t, *others)
        self._cache[key] = val
        return val

    def product(self, d1, d2, d3) -> Fraction:
        """Triple product of rational divisor combinations {ray index: coeff}."""
        total = Fraction(0)
        for (i, a), (j, b), (k, c) in itertools.product(
                d1.items(), d2.items(), d3.items()):
            f = Fraction(a) * Fraction(b) * Fraction(c)
            if f != 0:
                total += f * self.triple(i, j, k)
        return total


@functools.cache
def blowup_family_oracle(t: int = 2) -> MappingProxyType:
    """Independent toric computation of the degree-8 del Pezzo family
    blown up along the exceptional curve of one closed fiber.

    Returns the exact changes of (L^3) and (L^2.K) and of h_K (all as
    coefficients of log p) for the twist L_t = pi*(-K) - t*F, plus the
    six primitive products per prime that the rule-based builder
    assumes.  Computed once per twist; the mapping is read-only.
    """
    rays = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (1, 1, 0),
            (0, 0, 1), (0, 0, -1), (1, 1, 1)]
    up = [(0, 3, 6), (0, 6, 4), (3, 1, 6), (6, 1, 4), (1, 2, 4), (2, 0, 4)]
    down = [(0, 3, 5), (3, 1, 5), (1, 2, 5), (2, 0, 5)]
    X = ToricThreefold(rays, up + down)
    # pullbacks: pi*D_{v3} = D3 + D6, pi*D_{central} = D4 + D6
    piL = {0: 1, 1: 1, 2: 1, 3: 1, 6: 1}          # pi*(-K_X)
    F = {6: 1}
    K_rel = {0: -1, 1: -1, 2: -1, 3: -1}          # K_{X~/base}
    piK_rel = {0: -1, 1: -1, 2: -1, 3: -1, 6: -1}  # pi* of the base K_rel
    Lt = {k: Fraction(v) for k, v in piL.items()}
    Lt[6] = Lt.get(6, Fraction(0)) - t
    dA = X.product(Lt, Lt, Lt) - X.product(piL, piL, piL)
    dB = X.product(Lt, Lt, K_rel) - X.product(piL, piL, piK_rel)
    n, deg_Ln, deg_LK = 2, 8, -8
    dhk = -n * deg_LK * dA + (n + 1) * deg_Ln * dB
    return MappingProxyType({
        "delta_L3": dA,
        "delta_L2K": dB,
        "delta_hk": dhk,
        "piL2_F": X.product(piL, piL, F),
        "piL_piK_F": X.product(piL, piK_rel, F),
        "piK2_F": X.product(piK_rel, piK_rel, F),
        "piL_F2": X.product(piL, F, F),
        "F3": X.product(F, F, F),
        "piK_F2": X.product(piK_rel, F, F),
    })


def toric_log_discrepancy(cone_rays, v):
    """<v, m_sigma> - 1 where m_sigma is the linear functional taking the
    value 1 on every primitive ray generator of the simplicial cone."""
    rays = [tuple(int(x) for x in r) for r in cone_rays]
    dim = len(rays[0])
    if len(rays) != dim:
        raise ValidationError("cone must be simplicial of full dimension")
    lam = _solve([[rays[j][i] for j in range(dim)] for i in range(dim)],
                 list(v))
    if any(x < 0 for x in lam):
        raise OutsideCone(f"{tuple(v)} is not inside the cone")
    m = _solve([list(r) for r in rays], [1] * dim)
    return sum(Fraction(x) * y for x, y in zip(v, m)) - 1


def barycentric_log_discrepancy(cone_rays, v):
    """Brute-force cross-check: write v = sum lambda_i u_i and return
    sum lambda_i - 1 (equal to the dual-functional formula on simplicial
    cones)."""
    rays = [tuple(int(x) for x in r) for r in cone_rays]
    dim = len(rays[0])
    lam = _solve([[rays[j][i] for j in range(dim)] for i in range(dim)],
                 list(v))
    if any(x < 0 for x in lam):
        raise OutsideCone(f"{tuple(v)} is not inside the cone")
    return sum(lam) - 1
