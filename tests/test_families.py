"""Family builders, the toric oracle, local analyzers and the elliptic
height bridge."""

import hashlib
import itertools
import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from brute_force import hypersurface_lengths, primes_to
from heights import families, toric
from heights.errors import (CoprimalityViolated, DuplicatePrime,
                            NonMinimalModel, NonPrimeLabel, OutsideCone,
                            ValidationError)
from heights.families import (BrieskornPhamSpec, CongruenceSemigroup,
                              EllipticCurveData, brieskorn_pham_analyze,
                              build_p1_fs, build_p2_blowup_family,
                              curve_from_label, curve_periods,
                              dedekind_eta, elliptic_faltings_height,
                              faltings_from_periods, faltings_to_hk,
                              multiplicity_from_lengths)
from heights.functionals import (aubin_I_rel, aubin_J_rel,
                                 decomposition_check, modular_height,
                                 na_scalar_curvature,
                                 relative_modular_height)
from heights.heightvalue import HeightValue
from heights.intersection import SymmetricForm
from heights.toric import (barycentric_log_discrepancy,
                           blowup_family_oracle, toric_log_discrepancy)


# -- P^1 ----------------------------------------------------------------

def test_p1_closed_forms():
    m = build_p1_fs()
    hk = modular_height(m)
    assert hk.const_part == -1
    assert hk.evaluate() == pytest.approx(math.log(2 * math.pi) - 1,
                                          abs=1e-14)
    assert m.form.value(("L", "L")).exact_eq(HeightValue(Fraction(1, 2)))
    assert m.Sbar() == 2
    snA = na_scalar_curvature(m, 2)
    assert snA == {"fiber": Fraction(2)}


# -- blow-up family ------------------------------------------------------

def test_blowup_relative_height_constant():
    cs = {}
    for primes in [(2,), (3,), (2, 3, 5)]:
        pair = build_p2_blowup_family(primes)
        rel = relative_modular_height(pair.model, pair.ref)
        assert rel.const_part == 0 and rel.real_exact
        assert set(rel.log_terms) == set(primes)
        for p in primes:
            cs.setdefault("c", rel.log_terms[p])
            assert rel.log_terms[p] == cs["c"]
    assert cs["c"] == -32


def test_blowup_matches_toric_oracle():
    orc = blowup_family_oracle(2)
    assert orc["delta_hk"] == -32
    assert orc["delta_L3"] == -20 and orc["delta_L2K"] == 12
    # sign flip at twist 1
    assert blowup_family_oracle(1)["delta_hk"] == 32
    for twist in (0, -1):
        with pytest.raises(ValidationError, match="positive integer"):
            build_p2_blowup_family((2, 3), twist=twist)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_toric_oracle_pins_the_six_per_prime_rules(t):
    # the products of _blowup_primitive_form: two-base monomials vanish,
    # (Lb.F^2) = -1, (Kb.F^2) = (F^3) = 1, whatever the twist
    orc = blowup_family_oracle(t)
    assert {k: orc[k] for k in ("piL2_F", "piL_piK_F", "piK2_F", "piL_F2",
                                "piK_F2", "F3")} == {
        "piL2_F": 0, "piL_piK_F": 0, "piK2_F": 0, "piL_F2": -1,
        "piK_F2": 1, "F3": 1}
    with pytest.raises(TypeError):
        orc["F3"] = 0


def test_validated_builds_compute_the_fan_once(monkeypatch):
    fans = []

    class CountedFan(toric.ToricThreefold):
        def __init__(self, *args):
            fans.append(1)
            super().__init__(*args)

    blowup_family_oracle.cache_clear()
    monkeypatch.setattr(toric, "ToricThreefold", CountedFan)
    try:
        for primes in [(2, 3), (5,)]:
            build_p2_blowup_family(primes, twist=3)
    finally:
        blowup_family_oracle.cache_clear()
    assert len(fans) == 1


def test_blowup_build_refuses_an_oracle_that_breaks_a_rule(monkeypatch):
    # (F^3) = 2 leaves the oracle's changes of (L^3) and (L^2.K) alone,
    # so only the check of the six per-prime rules can see it
    real = blowup_family_oracle(2)
    monkeypatch.setattr(toric, "blowup_family_oracle",
                        lambda t: {**real, "F3": 2})
    with pytest.raises(ValidationError, match="F3"):
        build_p2_blowup_family((2, 3, 5))


def test_blowup_decomposition_and_aubin():
    pair = build_p2_blowup_family((2, 5))
    lhs, rhs = decomposition_check(pair)
    assert (lhs - rhs).is_zero()
    I = aubin_I_rel(pair)
    J = aubin_J_rel(pair)
    assert I.log_terms == {2: Fraction(16), 5: Fraction(16)}
    assert J.log_terms == {2: Fraction(20, 3), 5: Fraction(20, 3)}
    # 0 <= I/(n+1) <= J <= n I/(n+1), n = 2
    iv, jv = I.evaluate(), J.evaluate()
    assert 0 <= iv / 3 <= jv <= 2 * iv / 3


def test_blowup_fiber_degrees():
    pair = build_p2_blowup_family((3,))
    s = na_scalar_curvature(pair.model, 3)
    assert s == {"exc": Fraction(5, 4)}


def test_blowup_duplicate_prime_rejected():
    with pytest.raises(DuplicatePrime):
        build_p2_blowup_family((2, 2))


# SHA-256 prefixes of the model, ref and joint-form JSON of the blow-up
# family for twists 1, 2 and 3, recorded when the builder expanded every
# joint entry through SymmetricForm.pair
BLOWUP_DIGESTS = {
    (2,): [("2c9e42182e66dd48", "99fda0733ab80c8f", "dd9398611eed39b4"),
           ("f570c43b024ba10f", "99fda0733ab80c8f", "9ab5ed0fdafd62fa"),
           ("93439ad6117f445f", "99fda0733ab80c8f", "77024338f9d9f8be")],
    (2, 3, 5): [
        ("39336a0748dadaae", "bb9647b0d86e738e", "359b655cf05baa6a"),
        ("0f37676906883aac", "bb9647b0d86e738e", "a0e7c2517d026bc4"),
        ("cd127c2d060fcc58", "bb9647b0d86e738e", "7fb31a561e5b2b6e")],
    tuple(primes_to(37)): [
        ("383ec969c259fedc", "5b1df7358aa79a71", "ef00b3bca218a2a8"),
        ("25143ca2d2a6981a", "5b1df7358aa79a71", "1692de2277c6c405"),
        ("fc5170ac5b76ccad", "5b1df7358aa79a71", "5a9c9fcf91073f12")],
}


@pytest.mark.parametrize("primes", list(BLOWUP_DIGESTS), ids=len)
def test_blowup_json_is_bit_identical_to_recorded(primes):
    def digest(obj):
        return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]

    for twist, want in enumerate(BLOWUP_DIGESTS[primes], start=1):
        pair = build_p2_blowup_family(primes, twist=twist)
        joint = {",".join(k): v.to_json()
                 for k, v in sorted(pair.joint_form.entries.items())}
        assert (digest(pair.model.to_json()), digest(pair.ref.to_json()),
                digest(joint)) == want, twist


def test_blowup_build_pairs_only_to_validate(monkeypatch):
    # the four pairings of the toric check; no joint entry is expanded
    calls = 0
    real_pair = SymmetricForm.pair

    def counting_pair(self, *combos):
        nonlocal calls
        calls += 1
        return real_pair(self, *combos)

    monkeypatch.setattr(SymmetricForm, "pair", counting_pair)
    pair = build_p2_blowup_family(primes_to(173))
    assert len(pair.model.fibers) == 40 and calls <= 4


def test_blowup_primes_over_the_limit(monkeypatch):
    primes = primes_to(1000)[:families.MAX_BLOWUP_PRIMES + 1]
    pair = build_p2_blowup_family(primes[:-1], validate=False)
    assert len(pair.joint_form.entries) == math.comb(
        families.MAX_BLOWUP_PRIMES + 6, 3)

    def unbuilt(*args, **kwargs):
        raise AssertionError("built past the limit")

    # refused before any class, fiber or form is made
    for name in ("DivisorClassId", "FiberComponent", "SymmetricForm"):
        monkeypatch.setattr(families, name, unbuilt)
    with pytest.raises(ValidationError, match="over the limit of "
                       f"{families.MAX_BLOWUP_PRIMES}$"):
        build_p2_blowup_family(primes)


# -- toric discrepancies --------------------------------------------------

def test_log_discrepancy_smooth_cone():
    rays = [(1, 0), (0, 1)]
    assert toric_log_discrepancy(rays, (1, 1)) == 1
    assert toric_log_discrepancy(rays, (2, 3)) == 4
    assert barycentric_log_discrepancy(rays, (2, 3)) == 4


def test_log_discrepancy_quotient_cone():
    # 1/3(1,1): N = Z^2 + Z(1/3, 1/3); ray generators stay e1, e2
    rays = [(1, 0), (0, 1)]
    v = (Fraction(1, 3), Fraction(1, 3))
    assert toric_log_discrepancy(rays, v) == Fraction(-1, 3)


def test_log_discrepancy_outside_cone():
    for discrepancy in (toric_log_discrepancy, barycentric_log_discrepancy):
        with pytest.raises(OutsideCone):
            discrepancy([(1, 0), (0, 1)], (-1, 2))


def test_cones_must_be_simplicial_and_full():
    with pytest.raises(ValidationError, match="simplicial of full"):
        toric_log_discrepancy([(1, 0), (0, 1), (1, 1)], (1, 1))
    with pytest.raises(ValidationError, match="degenerate cone"):
        toric.ToricThreefold([(1, 0, 0), (0, 1, 0), (1, 1, 0)], [(0, 1, 2)])


# -- Brieskorn-Pham -------------------------------------------------------

def test_spec_validation():
    with pytest.raises(CoprimalityViolated):
        BrieskornPhamSpec((4, 6, 7), 5)
    with pytest.raises(CoprimalityViolated):
        BrieskornPhamSpec((8, 15, 7), 7)
    with pytest.raises(ValidationError):
        BrieskornPhamSpec((2, 3, 5), 7)   # exponent 2 <= n
    for prime in (1, -11, 121):
        with pytest.raises(NonPrimeLabel, match=str(prime)):
            BrieskornPhamSpec((8, 15, 7), prime)


def test_half_1_1_multiplicity():
    sg = CongruenceSemigroup((1, 1), 2)
    mult, stable = multiplicity_from_lengths(sg.lengths(10), 2)
    assert stable and mult == 2


def lengths_by_box_scan(sg, j_max):
    """Reference lengths: every point of the (deg+1)^dims box for each
    degree up to j_max * max_gen, its order taken from its predecessors."""
    gens = sg.generators()
    bound = j_max * max(sum(g) for g in gens)
    order = {(0,) * sg.dims: 0}
    for deg in range(1, bound + 1):
        for v in itertools.product(range(deg + 1), repeat=sg.dims):
            if sum(v) != deg or not sg.contains(v):
                continue
            best = -1
            for g in gens:
                w = tuple(x - y for x, y in zip(v, g))
                if min(w) >= 0 and w in order:
                    best = max(best, order[w] + 1)
            if best >= 0:
                order[v] = best
    return [sum(o < j for o in order.values()) for j in range(1, j_max + 1)]


def chart(weights):
    r = weights[-1]
    return CongruenceSemigroup([a % r for a in weights[:-1]], r)


# the three-exponent charts of the exact benchmark workload
BP_CHARTS = ((8, 15, 7), (5, 7, 11), (3, 5, 7), (4, 5, 9), (7, 11, 13))


def test_lengths_match_box_scan():
    cases = [(CongruenceSemigroup((1, 1), 2), 10), (chart((4, 5, 7, 9)), 8)]
    cases += [(CongruenceSemigroup((a, b), r), 8) for r in range(2, 8)
              for a in range(1, r) for b in range(a, r)]
    cases += [(chart(w), 12) for w in BP_CHARTS]
    for sg, j_max in cases:
        assert sg.lengths(j_max) == lengths_by_box_scan(sg, j_max), \
            (sg.residues, sg.modulus)


def test_four_exponent_lengths_pinned():
    # recorded from the box scan, which takes about a minute on each
    for weights, want in [
            ((7, 11, 13, 17),
             [1, 15, 56, 138, 275, 481, 770, 1156, 1653, 2275, 3036, 3950]),
            ((5, 7, 11, 13),
             [1, 17, 65, 162, 325, 571, 917, 1380, 1977, 2725, 3641, 4742])]:
        rep = brieskorn_pham_analyze(BrieskornPhamSpec(weights, 3))
        assert rep["lengths"] == want


def hirzebruch_jung_multiplicity(a, b, r):
    """2 + sum(b_i - 2) over r/q = [b_1, ..., b_k], q = b/a mod r
    (Riemenschneider 1974)."""
    total, num, den = 2, r, b * pow(a, -1, r) % r
    while den:
        c = -(-num // den)
        total += c - 2
        num, den = den, c * den - num
    return total


def test_two_dimensional_charts_match_hirzebruch_jung():
    # quotient surface singularities are rational: l(j) is the
    # Hilbert-Samuel polynomial from j = 1, so six lengths are stable
    for r in (2, 3, 5, 7, 11, 13, 17, 19):
        for a in range(1, r):
            for b in range(a, r):
                lens = CongruenceSemigroup((a, b), r).lengths(6)
                mult, stable = multiplicity_from_lengths(lens, 2)
                assert stable and mult == hirzebruch_jung_multiplicity(
                    a, b, r), (a, b, r)


def test_lengths_test_membership_only_in_the_generator_box(monkeypatch):
    calls = []
    contains = CongruenceSemigroup.contains
    monkeypatch.setattr(CongruenceSemigroup, "contains",
                        lambda self, v: calls.append(v) or contains(self, v))
    for weights, j_max in [(w, 12) for w in BP_CHARTS] + [((4, 5, 7, 9), 8)]:
        sg = chart(weights)
        calls.clear()
        sg.lengths(j_max)
        assert len(calls) <= (sg.modulus + 1) ** sg.dims, weights


def test_generator_box_over_the_limit():
    with pytest.raises(ValidationError, match="generator box"):
        CongruenceSemigroup((1, 2, 3), 200).generators()


def test_hypersurface_multiplicity_exact():
    for D in range(2, 13):
        lens = hypersurface_lengths(3, D, D + 5)
        mult, stable = multiplicity_from_lengths(lens, 2)
        assert stable and mult == D


def test_destabilizing_spec():
    rep = brieskorn_pham_analyze(BrieskornPhamSpec((8, 15, 7), 11))
    assert rep["chart"] == "1/7(1,1)"
    assert rep["multiplicity"] == 7 and rep["stable"]
    assert rep["threshold"] == 6 and rep["destabilizing"]
    assert all(v >= -1 for v in rep["log_discrepancies"].values())
    assert rep["klt"]


def test_stable_spec_not_flagged():
    rep = brieskorn_pham_analyze(BrieskornPhamSpec((3, 4, 5), 7))
    # chart 1/5(3,4): multiplicity stays at or below the threshold
    assert rep["multiplicity"] <= 6 or not rep["destabilizing"]


# -- elliptic curves -------------------------------------------------------

def test_degree_bound_must_be_positive():
    spec = BrieskornPhamSpec((8, 15, 7), 11)
    for j_max in (0, -3):
        with pytest.raises(ValidationError, match="j_max"):
            brieskorn_pham_analyze(spec, j_max=j_max)
    assert brieskorn_pham_analyze(spec, j_max=1)["lengths"] == [1]


def test_discriminant_validation():
    E = curve_from_label("37a1")
    assert E.discriminant() == 37
    with pytest.raises(NonMinimalModel):
        EllipticCurveData((0, 0, 1, -1, 0), 38)
    with pytest.raises(ValidationError):
        curve_from_label("99z9")
    with pytest.raises(ValidationError, match="singular"):
        EllipticCurveData((0, 0, 0, 0, 0), 0)


def test_negative_discriminant_periods_pinned():
    # 11a1 has one real root; the pair is the other two roots, and the
    # AGM is symmetric in them, so the periods do not depend on their order
    per = curve_periods(curve_from_label("11a1"))
    assert per["omega1"] == complex(1.2692093042795534, 0.0)
    assert per["omega2"] == complex(0.6346046521397767, 1.4588166169384953)
    assert per["tau"] == complex(0.5, 1.1493901061232523)
    assert per["area"] == 1.8515436234559592


@pytest.mark.parametrize("label", ["37a1", "11a1", "389a1", "5077a1"])
def test_two_paths_agree(label):
    E = curve_from_label(label)
    hq = elliptic_faltings_height(E, "qexp")
    ha = elliptic_faltings_height(E, "agm")
    assert hq == pytest.approx(ha, abs=1e-8)


@pytest.mark.parametrize("label", ["37a1", "11a1"])
def test_agm_periods_match_quadrature(label):
    E = curve_from_label(label)
    per = curve_periods(E)
    b2, b4, b6, _ = E.b_invariants()

    def f(x):
        return 4 * x ** 3 + b2 * x ** 2 + 2 * b4 * x + b6

    roots = mpmath.polyroots([4, b2, 2 * b4, b6])
    reals = sorted((mpmath.re(r) for r in roots
                    if abs(mpmath.im(r)) < 1e-10), reverse=True)
    e_top = reals[0]
    w1 = 2 * mpmath.quad(
        lambda x: mpmath.re(1 / mpmath.sqrt(mpmath.mpc(f(x)))),
        [e_top, mpmath.inf])
    assert per["omega1"].real == pytest.approx(float(w1), abs=1e-8)
    if E.delta_min > 0:
        w2 = 2 * mpmath.quad(
            lambda x: mpmath.re(1 / mpmath.sqrt(mpmath.mpc(-f(x)))),
            [-mpmath.inf, reals[-1]])
        assert abs(per["omega2"].imag) == pytest.approx(float(w2), abs=1e-8)
    else:
        nu = 2 * mpmath.quad(
            lambda x: mpmath.re(1 / mpmath.sqrt(mpmath.mpc(-f(x)))),
            [-mpmath.inf, e_top])
        assert 2 * per["omega2"].imag == pytest.approx(float(nu), abs=1e-8)


def test_eta_terms_guard(monkeypatch):
    E = curve_from_label("37a1")
    # bad arguments fail before the 50-digit period computation
    monkeypatch.setattr(families, "curve_periods",
                        lambda *a, **k: pytest.fail("periods computed"))
    with pytest.raises(ValidationError, match="unknown method"):
        elliptic_faltings_height(E, "lattice")
    from heights.errors import BadTau
    with pytest.raises(BadTau):
        dedekind_eta(1 - 2j)


def _discriminant(a):
    """Discriminant of the Weierstrass model with a-invariants a."""
    probe = object.__new__(EllipticCurveData)
    probe.__dict__["a_invariants"] = a
    return probe.discriminant()


# y^2 = x(x - 1)(x + N) for N from 2 to 10^60, spread over its digit
# counts (Im tau falls to 0.022 at 1e60), and small random models
LEGENDRE = st.integers(1, 60).flatmap(lambda e: st.integers(2, 10 ** e)).map(
    lambda N: (0, N - 1, 0, -N, 0))
SMALL = st.tuples(*[st.integers(-50, 50)] * 5)


@given(st.one_of(LEGENDRE, SMALL))
@settings(max_examples=200, deadline=None)
def test_qexp_and_agm_agree(a):
    disc = _discriminant(a)
    assume(disc != 0)
    E = EllipticCurveData(a, disc)
    per = curve_periods(E)
    assert abs(faltings_from_periods(E, per, "qexp")
               - faltings_from_periods(E, per, "agm")) <= 1e-12


def test_faltings_bridge_formula():
    h = -0.5
    assert faltings_to_hk(h, 1) == pytest.approx(-1.0)
    assert faltings_to_hk(h, 4) == pytest.approx(
        8 * (-0.5 + 0.5 * math.log(4)))
    with pytest.raises(ValidationError):
        faltings_to_hk(h, 0)


def test_tau_in_fundamental_strip_sense():
    for label in ("37a1", "11a1"):
        per = curve_periods(curve_from_label(label))
        assert per["tau"].imag > 0
        assert per["area"] > 0
