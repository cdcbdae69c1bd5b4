"""Intersection-theoretic functionals on models and model pairs.

All formulas are multilinear expressions in the stored form entries and
are therefore exact on the exact parts of HeightValues.  See
docs/normalization.md for the conventions that pin the archimedean
scale factors.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

from .errors import (GenericFiberMismatch, NegativeArchTerm, NonPrimeLabel,
                     UnknownComponent, UnknownPrime, ZeroCoverDegree,
                     ZeroSelfIntersection, ValidationError)
from .heightvalue import HeightValue, is_prime
from .intersection import (KIND_VERTICAL, FormalSum, IntersectionModel,
                           ModelPair)


def _hk_terms(m: IntersectionModel, L: FormalSum):
    """(L^{n+1}), (L^n.K) and -n*deg_LK*(L^{n+1}) + (n+1)*deg_Ln*(L^n.K)."""
    a, b = m.top_power(L), m.lnk(L)
    return a, b, a.scale(-m.n * m.deg_LK) + b.scale((m.n + 1) * m.deg_Ln)


def _hk(m: IntersectionModel, L: FormalSum, degree: int) -> HeightValue:
    """The third value of _hk_terms over a nonzero degree: [K:Q] for h_K,
    the cover degree for the normalized degree."""
    if degree == 0:
        raise ZeroCoverDegree("cover degree must be nonzero")
    return _hk_terms(m, L)[2].scale(Fraction(1, degree))


def modular_height(m: IntersectionModel) -> HeightValue:
    """h_K = (1/[K:Q]) * ( -n*deg_LK*(L^{n+1}) + (n+1)*deg_Ln*(L^n.K) )."""
    return _hk(m, m.L(), m.degree_KQ)


def arakelov_energy(m: IntersectionModel) -> HeightValue:
    return m.top_power().scale(Fraction(1, m.degree_KQ))


def relative_modular_height(m: IntersectionModel,
                            ref: IntersectionModel) -> HeightValue:
    if not m.same_generic_fiber(ref):
        raise GenericFiberMismatch("models have different generic fibers")
    return modular_height(m) - modular_height(ref)


def _rel(pair: ModelPair, first: list, second: list) -> HeightValue:
    """((first) - (second)) / [K:Q], both slot lists on the joint form."""
    return (pair.joint_form.pair(*first) - pair.joint_form.pair(*second)
            ).scale(Fraction(1, pair.model.degree_KQ))


def _pair_energy(pair: ModelPair) -> HeightValue:
    n = pair.model.n
    return _rel(pair, [pair.model.L()] * (n + 1), [pair.rL()] * (n + 1))


def ricci_energy_rel(pair: ModelPair) -> HeightValue:
    """(1/[K:Q]) * ( ((q*L_ref)^n - (p*L)^n) . K_ref^{Ric} ).

    The Ricci pairing uses the reference canonical class; this is what
    makes the decomposition of the modular height an exact identity.
    """
    n = pair.model.n
    return _rel(pair, [pair.rL()] * n + [pair.rK()],
                [pair.model.L()] * n + [pair.rK()])


def entropy_rel(pair: ModelPair) -> HeightValue:
    """(1/[K:Q]) * ( (p*L)^n . (p*K - q*K_ref) )."""
    m = pair.model
    return _rel(pair, [m.L()] * m.n + [m.K()], [m.L()] * m.n + [pair.rK()])


def aubin_I_rel(pair: ModelPair) -> HeightValue:
    """I^{Ar} = (1/d)[ (L-r).r^n - (L-r).L^n ] with L = p*L, r = q*L_ref."""
    n = pair.model.n
    L, r = pair.model.L(), pair.rL()
    diff = L - r
    return _rel(pair, [r] * n + [diff], [L] * n + [diff])


def aubin_J_rel(pair: ModelPair) -> HeightValue:
    """J^{Ar} = (1/d)[ (L-r).r^n - ( L^{n+1} - r^{n+1} )/(n+1) ]."""
    n, d = pair.model.n, pair.model.degree_KQ
    L, r = pair.model.L(), pair.rL()
    a = pair.joint_form.pair(*([r] * n + [L - r]))
    b = pair.joint_form.pair(*([L] * (n + 1)))
    c = pair.joint_form.pair(*([r] * (n + 1)))
    return (a - (b - c).scale(Fraction(1, n + 1))).scale(Fraction(1, d))


def decomposition_check(pair: ModelPair):
    """Both sides of the decomposition of h_K(model) - h_K(ref).

    rhs = (n+1)*deg_Ln * [ (Sbar/(n+1))*E - E^{Ric} + Ent ] with the
    relative energies above; the (n+1)*deg_Ln scale is forced by the
    exactness of the identity (docs/normalization.md).
    """
    m = pair.model
    lhs = relative_modular_height(m, pair.ref)
    inner = (_pair_energy(pair).scale(m.Sbar() / (m.n + 1))
             - ricci_energy_rel(pair) + entropy_rel(pair))
    rhs = inner.scale((m.n + 1) * m.deg_Ln)
    return lhs, rhs


def na_scalar_curvature(m: IntersectionModel, prime: int) -> dict:
    comps = [f for f in m.fibers if f.prime == prime]
    if not comps:
        raise UnknownPrime(f"no fiber components at prime {prime}")
    return {f.component_id: Fraction(-m.n) * f.deg_LK / f.deg_L
            for f in comps}


def normalized_df(m: IntersectionModel, cover_degree: int = 1) -> HeightValue:
    return _hk(m, m.L(), cover_degree)


def normalized_df_twisted(m: IntersectionModel, component_class: str,
                          eps: Fraction, cover_degree: int = 1) -> HeightValue:
    """normalized_df of the vertical twist L + eps*E, used by the e-grid tests."""
    return _hk(m, m.L() + FormalSum(component_class).scale(eps), cover_degree)


def component_twist_derivative(m: IntersectionModel, prime: int,
                               component_id: str,
                               cover_degree: int = 1) -> HeightValue:
    """d/de at e=0 of normalized_df under L -> L + e*E_i."""
    if cover_degree == 0:
        raise ZeroCoverDegree("cover degree must be nonzero")
    name = None
    for c in m.classes:
        if c.kind == KIND_VERTICAL and c.prime == prime \
                and c.component_id == component_id:
            name = c.name
            break
    if name is None:
        raise UnknownComponent(
            f"no vertical class for ({prime}, {component_id!r})")
    L, K, E = m.L(), m.K(), FormalSum(name)
    a = m.form.pair(*([L] * m.n + [E]))          # d/de (L+eE)^{n+1} /(n+1)
    b = m.form.pair(*([L] * (m.n - 1) + [K, E])) # d/de (L+eE)^n.K /n
    out = (a.scale(-m.n * (m.n + 1) * m.deg_LK)
           + b.scale(m.n * (m.n + 1) * m.deg_Ln))
    return out.scale(Fraction(1, cover_degree))


def na_calabi(m: IntersectionModel, primes) -> Fraction:
    """Sum of (s^NA / n)^2 over the components at the given primes."""
    return sum(((s / m.n) ** 2 for p in primes
                for s in na_scalar_curvature(m, p).values()), Fraction(0))


def arakelov_calabi(m: IntersectionModel, primes, arch_term: float) -> float:
    if not math.isfinite(arch_term):
        raise ValidationError(f"archimedean Calabi term must be finite, "
                              f"got {arch_term!r}")
    if arch_term < 0:
        raise NegativeArchTerm("archimedean Calabi term is a square; "
                               "negative input signals an upstream bug")
    return float(na_calabi(m, primes)) + arch_term


def slope_semistability_test(tc: IntersectionModel) -> str:
    """Compare -(n+1)(L^n.K)/(L^{n+1}) with Sbar = -n*deg_LK/deg_Ln on a
    geometric-base configuration (pure rational form entries)."""
    a, b, _ = _hk_terms(tc, tc.L())
    for v in (a, b):
        if v.log_terms or not v.real_exact:
            raise ValidationError(
                "slope test needs a geometric base: entries must be rational")
    if a.const_part == 0:
        raise ZeroSelfIntersection("(L^{n+1}) = 0")
    lhs = Fraction(-(tc.n + 1)) * b.const_part / a.const_part
    rhs = tc.Sbar()
    if lhs == rhs:
        return "equality"
    return "stable-direction" if lhs < rhs else "violated"


def twist_by_base_divisor(m: IntersectionModel,
                          D: Mapping[int, Fraction]) -> IntersectionModel:
    """Model of L(pi*D) for a formal rational sum D of primes.

    Expansion rules: (pi*D)^2-monomials vanish, and an n-monomial M meets
    pi*D in its generic degree times sum c_p log p.
    """
    for p in D:
        if not is_prime(p):
            raise NonPrimeLabel(f"base divisor label {p} is not prime")
    T = HeightValue._from_parts(
        Fraction(0), {int(p): Fraction(c) for p, c in D.items()}, 0.0, True)
    if T.is_zero():
        return m
    return m.replace_form({key: val + T.scale(k_l * gd)
                           for key, val, k_l, gd in m.l_slots()})


def model_beta(m: IntersectionModel) -> Fraction:
    """Scale of archimedean Bott-Chern updates on model forms.

    One metric-change slot contributes beta * integral(potential * wedge
    of curvature densities); beta = 1/((n+1)*(L^n)) makes the K-energy
    identity h_K(phi) - h_K(0) = (L^n)/[K:Q] * mu(phi) hold on the nose.
    """
    return Fraction(1, (m.n + 1)) / m.deg_Ln


def rescale_metric_const(m: IntersectionModel, c: float) -> IntersectionModel:
    """Model of (X, L, e^{2c} h): every L-slot shifts by -2c*beta*gdeg."""
    if c == 0:
        return m
    beta = float(model_beta(m))
    return m.replace_form({
        key: val.shift_real(-2.0 * c * beta * k_l * float(gd))
        for key, val, k_l, gd in m.l_slots()})
