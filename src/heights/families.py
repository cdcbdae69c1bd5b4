"""Concrete model families.

Builders return IntersectionModel / ModelPair instances with every form
entry pinned by a closed form or by the exact toric oracle, plus the
local analyzers (quotient-singularity multiplicities, log discrepancies)
and the elliptic-curve height bridge.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

from ._frozen import FrozenValue
from .errors import (BadTau, CoprimalityViolated, DuplicatePrime,
                     NonMinimalModel, NonPrimeLabel, ValidationError,
                     _check_limit, _int_text)
from .heightvalue import HeightValue, ZERO, is_prime
from .intersection import (DivisorClassId, FiberComponent,
                           IntersectionModel, ModelPair, SymmetricForm,
                           KIND_CANONICAL, KIND_POLARIZATION, KIND_VERTICAL)

# toric is imported inside its two callers (the validate branch of
# build_p2_blowup_family, brieskorn_pham_analyze), so that the CLI calls
# that run neither do not compile it

LOG_2PI = math.log(2.0 * math.pi)


# -- the projective line with the Fubini-Study metric ------------------

def build_p1_fs() -> IntersectionModel:
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
                   for p in (2, 3, 5))
    return IntersectionModel(
        n=1, degree_KQ=1, classes=(L, K), form=form,
        L_class="L", K_class="K", deg_Ln=Fraction(1), deg_LK=Fraction(-2),
        fibers=fibers, family="p1-fs")


# -- degree-8 del Pezzo family with fiberwise blow-downs ----------------

# most primes a blow-up family takes: its joint form holds all C(P + 6, 3)
# multisets of three of its P + 4 classes (54 740 entries at 64 primes)
MAX_BLOWUP_PRIMES = 64


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
    _check_limit("primes", len(primes), MAX_BLOWUP_PRIMES)
    if len(set(primes)) != len(primes):
        raise DuplicatePrime(f"repeated primes in {primes}")
    t = int(twist)
    if t < 1:
        raise ValidationError("twist must be a positive integer")

    if validate:
        from .toric import blowup_family_oracle

        orc = blowup_family_oracle(t)
        rule = dict(piL2_F=0, piL_F2=-1, F3=1, piK_F2=1, piL_piK_F=0, piK2_F=0)
        if broken := rule.items() - orc.items():
            raise ValidationError(f"toric oracle breaks the rules {broken}")

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

    # joint form over {L, K, F_p, L_base, K_base}; the blown-up model's
    # entries are its restriction to the blown-up classes.  Over Lb, Kb,
    # F_p a name has gamma = [Kb] - [Lb] and F_p coefficients phi(p), one
    # value at all p or, for F_q, 1 at q alone; the toric rules of
    # docs/normalization.md give (a.b.c) = sum_p log p (gamma_a phi_b phi_c
    # + gamma_b phi_a phi_c + gamma_c phi_a phi_b + phi_a phi_b phi_c)
    fnames = [f"F{p}" for p in primes]
    joint_names = ["L", "K", *fnames, "L_base", "K_base"]
    slots = {"L": (-1, -t, None), "K": (1, 1, None),
             "L_base": (-1, 0, None), "K_base": (1, 0, None)}
    slots.update((f, (0, 1, p)) for f, p in zip(fnames, primes))

    def entry(key):
        (ga, fa, pa), (gb, fb, pb), (gc, fc, pc) = map(slots.get, key)
        labels = {pa, pb, pc} - {None}
        c = ga * fb * fc + gb * fa * fc + gc * fa * fb + fa * fb * fc
        if len(labels) > 1 or not c:     # distinct primes are disjoint
            return ZERO
        return HeightValue._from_parts(
            Fraction(0), dict.fromkeys(labels or primes, Fraction(c)), 0.0,
            True)

    joint_entries = {
        key: entry(key) for key in itertools.combinations_with_replacement(
            sorted(joint_names), 3)}
    blown_entries = {key: v for key, v in joint_entries.items()
                     if "L_base" not in key and "K_base" not in key}
    exceptional = tuple(
        DivisorClassId(f"F{p}", KIND_VERTICAL, prime=p, component_id="exc")
        for p in primes)
    # exceptional fiber-component degrees at the nef boundary twist
    degL_exc = Fraction(t * t + 2 * t)
    degLK_exc = Fraction(-(1 + 2 * t))
    blown = base.replace_form(
        blown_entries, classes=base_classes + exceptional,
        fibers=tuple(FiberComponent(p, "exc", degL_exc, degLK_exc)
                     for p in primes))

    # the base form is zero, so the blown model's (L^3) and (L^2.K) are
    # the changes the oracle predicts
    if validate:
        dA, dB = blown.top_power(), blown.lnk()
        wantA = HeightValue(log_terms={p: orc["delta_L3"] for p in primes})
        wantB = HeightValue(log_terms={p: orc["delta_L2K"] for p in primes})
        if not (dA.exact_eq(wantA) and dB.exact_eq(wantB)):
            raise ValidationError(
                "rule-based form disagrees with the toric oracle")

    return ModelPair(model=blown, ref=base,
                     joint_form=SymmetricForm(3, joint_entries),
                     ref_map={"L": "L_base", "K": "K_base"})


# -- quotient-chart multiplicities --------------------------------------

class BrieskornPhamSpec(FrozenValue):
    """Diagonal hypersurface sum x_i^{a_i} with pairwise coprime exponents,
    analyzed at a prime of bad reduction."""

    _fields = ("weights", "prime")

    def __init__(self, weights: tuple, prime: int):
        w = tuple(int(a) for a in weights)
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
        if not is_prime(prime):
            raise NonPrimeLabel(f"bp prime {prime} is not prime")
        for a in w:
            if math.gcd(a, prime) != 1:
                raise CoprimalityViolated(
                    f"prime {prime} divides exponent {a}")
        self.__dict__.update(weights=w, prime=prime)

    @property
    def n(self) -> int:
        return len(self.weights) - 1


# most lattice points a bp chart may scan, both in the generator box and
# below the degree bound of CongruenceSemigroup.lengths
BP_WORK_LIMIT = 2_000_000


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
        _check_limit("bp work (points in the generator box)",
                     (self.modulus + 1) ** self.dims, BP_WORK_LIMIT)
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
        """l(j) = dim O/m^j = #{v in S : ord(v) < j} for j = 1..j_max.

        ord(v) is the largest number of generators summing to v, so an
        element of ord < j_max has degree <= (j_max - 1) * max_gen.  One
        forward pass over the degrees up to that bound pushes each element
        v to v + g for every generator g, keeping the larger order; the
        predecessors of v have smaller degree, so its order is final when
        its degree is reached.  Elements are mixed-radix integer keys.
        """
        gens = self.generators()
        bound = (j_max - 1) * max(sum(g) for g in gens)
        _check_limit(f"bp work (points of degree <= {_int_text(bound)})",
                     math.comb(bound + self.dims, self.dims), BP_WORK_LIMIT)
        steps = [(sum(g), sum(x * (bound + 1) ** i for i, x in enumerate(g)))
                 for g in gens]
        layers = [{} for _ in range(bound + 1)]
        layers[0][0] = 0
        counts = [0] * j_max
        for deg, layer in enumerate(layers):
            fits = [(layers[deg + d], k) for d, k in steps if deg + d <= bound]
            for key, o in layer.items():
                if o < j_max:
                    counts[o] += 1
                for nxt, k in fits:
                    if nxt.get(key + k, -1) <= o:
                        nxt[key + k] = o + 1
        return list(itertools.accumulate(counts))


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
    from .toric import toric_log_discrepancy

    if j_max < 1:
        raise ValidationError(f"degree bound j_max must be >= 1, got {j_max}")
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


class EllipticCurveData(FrozenValue):
    _fields = ("a_invariants", "delta_min")

    def __init__(self, a_invariants: tuple, delta_min: int):
        a = tuple(int(x) for x in a_invariants)
        self.__dict__.update(a_invariants=a, delta_min=delta_min)
        if len(a) != 5:
            raise ValidationError("need (a1, a2, a3, a4, a6)")
        if self.discriminant() != delta_min:
            raise NonMinimalModel(
                f"model discriminant {_int_text(self.discriminant())} != "
                f"declared minimal discriminant {delta_min}")
        if delta_min == 0:
            raise ValidationError("discriminant 0: the Weierstrass cubic "
                                  "is singular, not an elliptic curve")

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


def curve_periods(curve: EllipticCurveData) -> dict:
    """Period lattice of the Neron differential via the AGM at 50 digits.

    Returns omega1 (real > 0), omega2, tau = omega2/omega1 in the upper
    half plane, unreduced, and the covolume |Im(conj(omega1) * omega2)|.
    """
    import mpmath   # the only user; the exact paths never load it

    b2, b4, b6, _ = curve.b_invariants()
    with mpmath.workdps(50):
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
            # one real root, the one nearest the real axis, and a pair
            e1, c1, c2 = sorted(roots, key=lambda r: abs(mpmath.im(r)))
            e1 = mpmath.re(e1)
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


def dedekind_eta(tau: complex) -> complex:
    """eta(tau) by 12 q-product factors: exact where Im(tau) >= sqrt(3)/2."""
    if tau.imag <= 0:
        raise BadTau("eta needs Im(tau) > 0")
    q = cmath.exp(2j * math.pi * tau)
    prod = math.prod(1.0 - q ** k for k in range(1, 13))
    return cmath.exp(2j * math.pi * tau / 24.0) * prod


def elliptic_faltings_height(curve: EllipticCurveData,
                             method: str = "qexp") -> float:
    """Faltings height of E/Q from the minimal model; the method is
    checked before the periods are computed."""
    if method not in ("qexp", "agm"):
        raise ValidationError(f"unknown method {method!r}")
    return faltings_from_periods(curve, curve_periods(curve), method)


def faltings_from_periods(curve: EllipticCurveData, per: dict,
                          method: str) -> float:
    """Faltings height from the minimal model and its curve_periods.

    qexp: (1/12) log|delta_min| - log(2 pi) - 2 log|eta(tau)|
          - (1/2) log Im(tau); agm: -(1/2) log of the period covolume.
    """
    if method == "agm":
        return -0.5 * math.log(per["area"])
    # Im(tau)^(1/2) |eta(tau)|^2 is SL2(Z)-invariant: reduce tau to
    # |Re tau| <= 1/2, |tau| >= 1, less a margin so rounding cannot cycle
    tau = per["tau"] - round(per["tau"].real)
    while 0 < tau.imag and abs(tau) < 1.0 - 1e-12:
        tau = -1.0 / tau
        tau -= round(tau.real)
    eta = dedekind_eta(tau)
    return (math.log(abs(curve.delta_min)) / 12.0 - LOG_2PI
            - 2.0 * math.log(abs(eta)) - 0.5 * math.log(tau.imag))


def faltings_to_hk(h_faltings: float, d: int) -> float:
    """Modular height of the degree-d polarized model attached to the
    curve: 2 d (h_F + (1/2) log d)."""
    if d < 1:
        raise ValidationError("polarization degree must be >= 1")
    return 2.0 * d * (h_faltings + 0.5 * math.log(d))
