"""Concrete model families.

Builders return IntersectionModel / ModelPair instances with every form
entry pinned by a closed form or by the exact toric oracle, plus the
local analyzers (quotient-singularity multiplicities, log discrepancies)
and the elliptic-curve height bridge.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .errors import (BadTau, CoprimalityViolated, DuplicatePrime,
                     NonMinimalModel, ValidationError)
from .heightvalue import HeightValue, ZERO
from .intersection import (DivisorClassId, FiberComponent, FormalSum,
                           IntersectionModel, ModelPair, SymmetricForm,
                           KIND_CANONICAL, KIND_POLARIZATION, KIND_VERTICAL)
from .toric import blowup_family_oracle, toric_log_discrepancy

LOG_2PI = math.log(2.0 * math.pi)


# -- the projective line with the Fubini-Study metric ------------------

def build_p1_fs(fiber_primes=(2, 3, 5)) -> IntersectionModel:
    """O(1) on the projective line over Z with the mass-1 FS metric.

    The three form entries are closed forms: (L.L) = 1/2 exactly,
    (L.K) = log(2 pi)/2 - 1, (K.K) = 2 - 2 log(2 pi).
    """
    L = DivisorClassId("L", KIND_POLARIZATION)
    K = DivisorClassId("K", KIND_CANONICAL)
    form = SymmetricForm(2, {
        ("L", "L"): HeightValue(const_part=Fraction(1, 2)),
        ("L", "K"): HeightValue(const_part=Fraction(-1),
                                real_part=0.5 * LOG_2PI, real_exact=False),
        ("K", "K"): HeightValue(const_part=Fraction(2),
                                real_part=-2.0 * LOG_2PI, real_exact=False),
    })
    fibers = tuple(FiberComponent(p, "fiber", Fraction(1), Fraction(-2))
                   for p in fiber_primes)
    return IntersectionModel(
        n=1, degree_KQ=1, classes=(L, K), form=form,
        L_class="L", K_class="K", deg_Ln=Fraction(1), deg_LK=Fraction(-2),
        fibers=fibers, family="p1-fs")


# -- degree-8 del Pezzo family with fiberwise blow-downs ----------------

def _blowup_primitive_form(primes, arity=3) -> SymmetricForm:
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


def build_p2_blowup_family(primes=(2, 3, 5), twist: int = 2,
                           validate: bool = True) -> ModelPair:
    """Two models of the same del Pezzo surface of degree 8.

    The reference spreads the surface with all form entries zero; the
    second model contracts the exceptional curve in the fibers over the
    given primes and twists L by -twist * (sum of exceptional divisors).
    When validate is set, the rule-based form entries are checked against
    the independent toric fan computation.
    """
    primes = tuple(primes)
    if len(set(primes)) != len(primes):
        raise DuplicatePrime(f"repeated primes in {primes}")
    t = int(twist)
    if t < 1:
        raise ValidationError("twist must be a positive integer")
    prim = _blowup_primitive_form(primes)

    if validate:
        orc = blowup_family_oracle(t)
        assert orc["piL2_F"] == 0 and orc["piL_F2"] == -1
        assert orc["F3"] == 1 and orc["piK_F2"] == 1

    deg_Ln, deg_LK, n = Fraction(8), Fraction(-8), 2

    base_classes = (DivisorClassId("L", KIND_POLARIZATION),
                    DivisorClassId("K", KIND_CANONICAL))
    base_names = ("L", "K")
    base_form = SymmetricForm(3, {
        key: ZERO for key in itertools.combinations_with_replacement(
            base_names, 3)})
    base_fibers = tuple(FiberComponent(p, "fiber", deg_Ln, deg_LK)
                        for p in primes)
    base = IntersectionModel(
        n=n, degree_KQ=1, classes=base_classes, form=base_form,
        L_class="L", K_class="K", deg_Ln=deg_Ln, deg_LK=deg_LK,
        fibers=base_fibers, generic_degrees={("K", "K"): Fraction(8)})

    # blown-up model classes in primitive coordinates
    fnames = [f"F{p}" for p in primes]
    subs = {
        "L": FormalSum("Lb") - FormalSum(
            {f: Fraction(t) for f in fnames}),
        "K": FormalSum("Kb") + FormalSum(
            {f: Fraction(1) for f in fnames}),
    }
    for f in fnames:
        subs[f] = FormalSum(f)

    # joint form over {L, K, F_p, L_base, K_base}; the blown-up model's
    # entries are its restriction to the blown-up classes
    blown_names = ["L", "K"] + fnames
    subs["L_base"] = FormalSum("Lb")
    subs["K_base"] = FormalSum("Kb")
    joint_names = blown_names + ["L_base", "K_base"]
    joint_entries = {
        key: prim.pair(*(subs[nm] for nm in key))
        for key in itertools.combinations_with_replacement(
            sorted(joint_names), 3)}
    blown_entries = {
        key: joint_entries[key]
        for key in itertools.combinations_with_replacement(
            sorted(blown_names), 3)}
    blown_classes = [DivisorClassId("L", KIND_POLARIZATION),
                     DivisorClassId("K", KIND_CANONICAL)]
    for p in primes:
        blown_classes.append(DivisorClassId(
            f"F{p}", KIND_VERTICAL, prime=p, component_id="exc"))
    # exceptional fiber-component degrees at the nef boundary twist
    degL_exc = Fraction(t * t + 2 * t)
    degLK_exc = Fraction(-(1 + 2 * t))
    blown_fibers = tuple(FiberComponent(p, "exc", degL_exc, degLK_exc)
                         for p in primes)
    blown = IntersectionModel(
        n=n, degree_KQ=1, classes=tuple(blown_classes),
        form=SymmetricForm(3, blown_entries),
        L_class="L", K_class="K", deg_Ln=deg_Ln, deg_LK=deg_LK,
        fibers=blown_fibers, generic_degrees={("K", "K"): Fraction(8)})

    if validate:
        dA = (blown.form.pair(blown.L(), blown.L(), blown.L())
              - base.form.pair(base.L(), base.L(), base.L()))
        dB = (blown.form.pair(blown.L(), blown.L(), blown.K())
              - base.form.pair(base.L(), base.L(), base.K()))
        wantA = HeightValue(log_terms={p: orc["delta_L3"] for p in primes})
        wantB = HeightValue(log_terms={p: orc["delta_L2K"] for p in primes})
        if not (dA.exact_eq(wantA) and dB.exact_eq(wantB)):
            raise ValidationError(
                "rule-based form disagrees with the toric oracle")

    return ModelPair(model=blown, ref=base,
                     joint_form=SymmetricForm(3, joint_entries),
                     model_map={nm: nm for nm in blown_names},
                     ref_map={"L": "L_base", "K": "K_base"})


# -- quotient-chart multiplicities --------------------------------------

@dataclass(frozen=True)
class BrieskornPhamSpec:
    """Diagonal hypersurface sum x_i^{a_i} with pairwise coprime exponents,
    analyzed at a prime of bad reduction."""
    weights: tuple
    prime: int

    def __post_init__(self):
        w = tuple(int(a) for a in self.weights)
        object.__setattr__(self, "weights", w)
        if len(w) < 3:
            raise ValidationError("need at least three exponents")
        n = len(w) - 1
        for a in w:
            if a <= n:
                raise ValidationError(
                    f"exponent {a} too small for fiber dimension {n}")
        for a, b in itertools.combinations(w, 2):
            if math.gcd(a, b) != 1:
                raise CoprimalityViolated(f"gcd({a}, {b}) != 1")
        for a in w:
            if math.gcd(a, self.prime) != 1:
                raise CoprimalityViolated(
                    f"prime {self.prime} divides exponent {a}")

    @property
    def n(self) -> int:
        return len(self.weights) - 1


class CongruenceSemigroup:
    """Monomials of the cyclic quotient chart 1/r(w_1..w_k): lattice
    points v in N^k with sum w_i v_i = 0 mod r."""

    def __init__(self, residues, modulus: int):
        self.residues = tuple(int(w) % int(modulus) for w in residues)
        self.modulus = int(modulus)
        self.dims = len(self.residues)

    def contains(self, v) -> bool:
        return sum(w * x for w, x in zip(self.residues, v)) \
            % self.modulus == 0

    def generators(self):
        """Minimal nonzero elements (coordinates bounded by the modulus)."""
        box = range(self.modulus + 1)
        elems = sorted((v for v in itertools.product(box, repeat=self.dims)
                        if any(v) and self.contains(v)), key=sum)
        gens = []
        for v in elems:
            if not any(all(x >= y for x, y in zip(v, g)) and v != g
                       for g in gens):
                gens.append(v)
        return gens

    def lengths(self, j_max: int):
        """l(j) = dim O/m^j for j = 1..j_max via the order filtration."""
        gens = self.generators()
        max_gen = max(sum(g) for g in gens)
        bound = j_max * max_gen
        order = {(0,) * self.dims: 0}
        frontier = [(0,) * self.dims]
        # breadth-first by total degree keeps the DP for ord(v) well founded
        by_degree = {0: frontier}
        for deg in range(1, bound + 1):
            layer = []
            for v in itertools.product(range(deg + 1), repeat=self.dims):
                if sum(v) != deg or not self.contains(v):
                    continue
                best = -1
                for g in gens:
                    w = tuple(x - y for x, y in zip(v, g))
                    if min(w) >= 0 and w in order:
                        best = max(best, order[w] + 1)
                if best >= 0:
                    order[v] = best
                    layer.append(v)
            by_degree[deg] = layer
        counts = [0] * (j_max + 1)
        for v, o in order.items():
            if o < j_max:
                counts[o + 1] += 1
        # counts[j] = #{ord == j-1}; cumulative sum gives l(j)
        out = []
        total = 0
        for j in range(1, j_max + 1):
            total += counts[j]
            out.append(total)
        return out


def hypersurface_lengths(num_vars: int, degree: int, j_max: int):
    """l(j) for O/(f) at the cone point of a degree-d hypersurface whose
    leading form has x_{k}^d as leading monomial: monomials with last
    exponent < degree, counted by total degree."""
    out = []
    for j in range(1, j_max + 1):
        c = 0
        for v in itertools.product(range(j), repeat=num_vars):
            if sum(v) < j and v[-1] < degree:
                c += 1
        out.append(c)
    return out


def multiplicity_from_lengths(lengths, dim: int):
    """Stable dim-th finite difference of the length sequence.

    Returns (estimate, stable); stable means the last three differences
    agree, i.e. the Hilbert-Samuel polynomial regime is reached.
    """
    seq = [Fraction(x) for x in lengths]
    for _ in range(dim):
        seq = [b - a for a, b in zip(seq, seq[1:])]
    if len(seq) < 3:
        return (seq[-1] if seq else Fraction(0)), False
    stable = seq[-1] == seq[-2] == seq[-3]
    return seq[-1], stable


def brieskorn_pham_analyze(spec: BrieskornPhamSpec, j_max: int = 12) -> dict:
    """Local model at the bad prime: the cyclic quotient chart
    1/a_n(a_0..a_{n-1}), its Hilbert-Samuel multiplicity and the log
    discrepancies of the quadrant rays and barycenter valuation."""
    w = spec.weights
    n = spec.n
    r = w[-1]
    residues = tuple(a % r for a in w[:-1])
    sg = CongruenceSemigroup(residues, r)
    lens = sg.lengths(j_max)
    mult, stable = multiplicity_from_lengths(lens, n)
    threshold = Fraction(math.factorial(n + 1))

    rays = [tuple(Fraction(int(i == j)) for j in range(n))
            for i in range(n)]
    q = tuple(Fraction(a, r) for a in residues)
    samples = {"barycenter": tuple(sum(c) for c in zip(*rays, q)),
               "quotient": q}
    discrepancies = {k: toric_log_discrepancy(rays, v)
                     for k, v in samples.items()}
    min_disc = min(discrepancies.values())
    return {
        "chart": f"1/{r}({','.join(str(a) for a in residues)})",
        "lengths": lens,
        "multiplicity": mult,
        "stable": stable,
        "threshold": threshold,
        "destabilizing": stable and mult > threshold,
        "log_discrepancies": discrepancies,
        "klt": min_disc > -1,
    }


# -- elliptic curves: periods and the height bridge ---------------------

_CURVE_TABLE = {
    "37a1": ((0, 0, 1, -1, 0), 37),
    "11a1": ((0, -1, 1, -10, -20), -161051),
    "389a1": ((0, 1, 1, -2, 0), 389),
    "5077a1": ((0, 0, 1, -7, 6), 5077),
}


@dataclass(frozen=True)
class EllipticCurveData:
    a_invariants: tuple
    delta_min: int

    def __post_init__(self):
        a = tuple(int(x) for x in self.a_invariants)
        object.__setattr__(self, "a_invariants", a)
        if len(a) != 5:
            raise ValidationError("need (a1, a2, a3, a4, a6)")
        if self.discriminant() != self.delta_min:
            raise NonMinimalModel(
                f"model discriminant {self.discriminant()} != "
                f"declared minimal discriminant {self.delta_min}")

    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.a_invariants
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4
              + a2 * a3 * a3 - a4 * a4)
        return b2, b4, b6, b8

    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants()
        return (-b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6
                + 9 * b2 * b4 * b6)


def curve_from_label(label: str) -> EllipticCurveData:
    if label not in _CURVE_TABLE:
        raise ValidationError(
            f"unknown curve {label!r}; known: {sorted(_CURVE_TABLE)}")
    a, d = _CURVE_TABLE[label]
    return EllipticCurveData(a, d)


def curve_periods(curve: EllipticCurveData, prec: int = 50) -> dict:
    """Period lattice of the Neron differential via the AGM.

    Returns omega1 (real > 0), omega2, tau = omega2/omega1 in the upper
    half plane and the covolume |Im(conj(omega1) * omega2)|.
    """
    b2, b4, b6, _ = curve.b_invariants()
    with mpmath.workdps(prec):
        roots = mpmath.polyroots([4, b2, 2 * b4, b6], maxsteps=200,
                                 extraprec=80)
        disc = curve.delta_min
        if disc > 0:
            es = sorted((mpmath.re(r) for r in roots), reverse=True)
            e1, e2, e3 = es
            w1 = mpmath.pi / mpmath.agm(mpmath.sqrt(e1 - e3),
                                        mpmath.sqrt(e1 - e2))
            w2 = mpmath.mpc(0, 1) * mpmath.pi / mpmath.agm(
                mpmath.sqrt(e1 - e3), mpmath.sqrt(e2 - e3))
        else:
            e1 = next(mpmath.re(r) for r in roots
                      if abs(mpmath.im(r)) < 1e-20 * (1 + abs(r)))
            pair = [r for r in roots if abs(mpmath.im(r)) >= 1e-20 * (1 + abs(r))]
            if len(pair) != 2:
                pair = sorted(roots, key=lambda r: abs(mpmath.im(r)))[1:]
                e1 = mpmath.re(sorted(roots, key=lambda r: abs(mpmath.im(r)))[0])
            c1, c2 = pair
            w1 = mpmath.pi / abs(mpmath.agm(mpmath.sqrt(e1 - c1),
                                            mpmath.sqrt(e1 - c2)))
            nu = mpmath.pi / abs(mpmath.agm(mpmath.sqrt(c1 - e1),
                                            mpmath.sqrt(c2 - e1)))
            w2 = (w1 + mpmath.mpc(0, 1) * nu) / 2
        tau = w2 / w1
        if mpmath.im(tau) <= 0:
            raise BadTau("period ratio left the upper half plane")
        area = abs(mpmath.im(mpmath.conj(w1) * w2))
        return {
            "omega1": complex(w1), "omega2": complex(w2),
            "tau": complex(tau), "area": float(area),
        }


def dedekind_eta(tau: complex, terms: int = 80) -> complex:
    if tau.imag <= 0:
        raise BadTau("eta needs Im(tau) > 0")
    q = np.exp(2j * np.pi * tau)
    prod = 1.0 + 0j
    for k in range(1, terms + 1):
        prod *= 1.0 - q ** k
    return np.exp(2j * np.pi * tau / 24.0) * prod


def elliptic_faltings_height(curve: EllipticCurveData,
                             method: str = "qexp",
                             eta_terms: int = 80) -> float:
    """Faltings height of E/Q from the minimal model.

    qexp: (1/12) log|delta_min| - log(2 pi) - 2 log|eta(tau)|
          - (1/2) log Im(tau); agm: -(1/2) log of the period covolume.
    """
    per = curve_periods(curve)
    if method == "agm":
        return -0.5 * math.log(per["area"])
    if method != "qexp":
        raise ValidationError(f"unknown method {method!r}")
    tau = per["tau"]
    # shift into |Re| <= 1/2 for fast q-convergence (eta transforms by a
    # phase under tau -> tau + 1, harmless inside log| |)
    tau = complex(tau.real - round(tau.real), tau.imag)
    if eta_terms < 50:
        raise ValidationError("eta product needs at least 50 terms")
    eta = dedekind_eta(tau, eta_terms)
    return (math.log(abs(curve.delta_min)) / 12.0 - LOG_2PI
            - 2.0 * math.log(abs(eta)) - 0.5 * math.log(tau.imag))


def faltings_to_hk(h_faltings: float, d: int) -> float:
    """Modular height of the degree-d polarized model attached to the
    curve: 2 d (h_F + (1/2) log d)."""
    if d < 1:
        raise ValidationError("polarization degree must be >= 1")
    return 2.0 * d * (h_faltings + 0.5 * math.log(d))
