"""Models, forms, pairs and the exact functionals on them."""

import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brute_force import blowup_primitive_form, blowup_subs, primes_to
from heights import heightvalue, intersection
from heights.errors import (IncompleteJointForm, MissingClass,
                            MissingGenericDegree, NonPrimeLabel, UnknownComponent, UnknownPrime,
                            ValidationError, ZeroCoverDegree)
from heights.heightvalue import HeightValue, ZERO
from heights.intersection import (DivisorClassId, FiberComponent, FormalSum,
                                  IntersectionModel, ModelPair, SymmetricForm,
                                  form_key)
from heights.families import build_p1_fs, build_p2_blowup_family
from heights.functionals import (arakelov_calabi,
                                 component_twist_derivative,
                                 decomposition_check, modular_height,
                                 na_calabi, na_scalar_curvature,
                                 normalized_df, normalized_df_twisted,
                                 relative_modular_height,
                                 rescale_metric_const,
                                 slope_semistability_test,
                                 twist_by_base_divisor)


def simple_model(a=Fraction(1, 2), b=Fraction(-1), c=Fraction(2)):
    form = SymmetricForm(2, {("L", "L"): HeightValue(a),
                             ("L", "K"): HeightValue(b),
                             ("K", "K"): HeightValue(c)})
    return IntersectionModel(
        n=1, degree_KQ=1,
        classes=(DivisorClassId("L", "polarization"),
                 DivisorClassId("K", "relative-canonical")),
        form=form, L_class="L", K_class="K",
        deg_Ln=Fraction(1), deg_LK=Fraction(-2))


def test_form_pairing_is_multilinear():
    form = SymmetricForm(2, {("L", "L"): HeightValue(2),
                             ("L", "K"): HeightValue(3),
                             ("K", "K"): HeightValue(5)})
    s = FormalSum({"L": Fraction(2), "K": Fraction(-1)})
    v = form.pair(s, s)
    # 4*2 - 4*3 + 1*5
    assert v.exact_eq(HeightValue(4 * 2 - 4 * 3 + 5))


def test_form_missing_monomial_raises():
    form = SymmetricForm(2, {("L", "L"): ZERO})
    with pytest.raises(IncompleteJointForm):
        form.value(("L", "K"))


def test_pair_slot_is_a_formal_sum_or_what_formal_sum_takes():
    form = simple_model().form
    want = form.pair(FormalSum("L"), FormalSum({"K": Fraction(2)}))
    assert form.pair("L", {"K": 2}).exact_eq(want)
    assert form.pair(None, "L").exact_eq(ZERO)
    for bad in (DivisorClassId("L", "polarization"), 1, ["L"]):
        with pytest.raises(TypeError, match="class combination"):
            form.pair(bad, "L")
    for slots in (("L",), ("L", "L", "K")):
        with pytest.raises(ValidationError,
                           match=f"expected 2 slots, got {len(slots)}"):
            form.pair(*slots)


def test_replace_form_keeps_every_other_field():
    m = build_p1_fs()
    # a key out of sorted order overwrites its sorted entry
    new = m.replace_form({("L", "K"): HeightValue(3)})
    assert new.form.entries == {**m.form.entries, ("K", "L"): HeightValue(3)}
    for name in m._fields:
        if name != "form":
            assert getattr(new, name) == getattr(m, name)
    assert m.replace_form({}, family=None).family is None


def pair_by_product(form, *combos):
    """Reference expansion: one term per element of the slots' product."""
    total = ZERO
    for picks in itertools.product(*(FormalSum(c).items() for c in combos)):
        coeff = Fraction(1)
        names = []
        for name, q in picks:
            coeff *= q
            names.append(name)
        if coeff != 0:
            total = total + form.value(names).scale(coeff)
    return total


def real_term_size(form, *combos):
    """Sum of |coefficient * real part| over the product terms; the float
    remainders are compared relative to it, since terms can cancel."""
    return sum(abs(float(math.prod(q for _, q in picks))
                   * form.value([name for name, _ in picks]).real_part)
               for picks in itertools.product(
                   *(FormalSum(c).items() for c in combos)))


def assert_same_pairing(got, want, size):
    assert got.const_part == want.const_part
    assert got.log_terms == want.log_terms
    assert got.real_exact == want.real_exact
    assert abs(got.real_part - want.real_part) <= 1e-14 * size


NAMES = ("A", "B", "C", "D")
fracs = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
form_values = st.builds(
    HeightValue, fracs,
    st.dictionaries(st.sampled_from((2, 3, 5)), fracs, max_size=2),
    st.one_of(st.just(0.0), st.floats(min_value=-50, max_value=50,
                                      allow_nan=False)),
    st.booleans())
slots = st.dictionaries(st.sampled_from(NAMES), fracs,
                        max_size=len(NAMES)).map(FormalSum)


@st.composite
def forms_and_slots(draw):
    arity = draw(st.sampled_from((2, 3)))
    entries = {key: draw(form_values) for key in
               itertools.combinations_with_replacement(NAMES, arity)}
    return SymmetricForm(arity, entries), draw(st.lists(
        slots, min_size=arity, max_size=arity))


@given(forms_and_slots())
@settings(max_examples=100, deadline=None)
def test_pair_matches_product_expansion(case):
    form, combos = case
    assert_same_pairing(form.pair(*combos), pair_by_product(form, *combos),
                        real_term_size(form, *combos))


def test_pair_reads_cancelled_monomials():
    # (A+B).(A-B): the A.B coefficients cancel, yet A.B must exist
    form = SymmetricForm(2, {("A", "A"): HeightValue(1),
                             ("B", "B"): HeightValue(2)})
    plus = FormalSum({"A": 1, "B": 1})
    minus = FormalSum({"A": 1, "B": -1})
    with pytest.raises(IncompleteJointForm):
        pair_by_product(form, plus, minus)
    with pytest.raises(IncompleteJointForm, match="A,B"):
        form.pair(plus, minus)
    # the cancelled entry still decides real_exact
    form = SymmetricForm(2, {("A", "A"): HeightValue(1),
                             ("B", "B"): HeightValue(2),
                             ("A", "B"): HeightValue(0, {}, 0.0, False)})
    assert form.pair(plus, minus) == pair_by_product(form, plus, minus)
    assert not form.pair(plus, minus).real_exact


@pytest.mark.parametrize("primes", [
    (2, 3, 5), (2, 3, 5, 7, 11, 13), (7,),
    (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 1000000007)])
def test_blowup_entries_match_product_expansion(primes):
    # the reference expands each joint name in the primitive classes and
    # multiplies out the product of the three slots
    prim = blowup_primitive_form(primes)
    for twist in (1, 2, 3, 4):
        subs = blowup_subs(primes, twist)
        pair = build_p2_blowup_family(primes, twist=twist)
        assert list(pair.joint_form.entries) == list(
            itertools.combinations_with_replacement(sorted(subs), 3))
        for key, val in pair.joint_form.entries.items():
            assert val == pair_by_product(prim, *(subs[nm] for nm in key))
        for key, val in pair.model.form.entries.items():
            assert val == pair.joint_form.entries[key]


def test_blowup_build_checks_few_labels(monkeypatch):
    calls = 0
    real_is_prime = heightvalue.is_prime

    def counting_is_prime(k):
        nonlocal calls
        calls += 1
        return real_is_prime(k)

    monkeypatch.setattr(heightvalue, "is_prime", counting_is_prime)
    monkeypatch.setattr(intersection, "is_prime", counting_is_prime)
    build_p2_blowup_family((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert 0 < calls < 5000


def test_model_requires_total_form():
    form = SymmetricForm(2, {("L", "L"): ZERO, ("L", "K"): ZERO})
    with pytest.raises(IncompleteJointForm):
        IntersectionModel(
            n=1, degree_KQ=1,
            classes=(DivisorClassId("L", "polarization"),
                     DivisorClassId("K", "relative-canonical")),
            form=form, L_class="L", K_class="K",
            deg_Ln=Fraction(1), deg_LK=Fraction(-2))
    # a model file builds its form with arity n + 1, so only a direct
    # call can pass another
    m = simple_model()
    cubic = SymmetricForm(3, {k: ZERO for k in
                              itertools.combinations_with_replacement(
                                  "KL", 3)})
    with pytest.raises(ValidationError, match="arity must equal n\\+1"):
        m.replace_form({}, form=cubic)
    with pytest.raises(MissingClass, match="no class named 'E'"):
        m.class_by_name("E")


def test_vertical_class_needs_prime():
    with pytest.raises(NonPrimeLabel):
        DivisorClassId("E", "vertical", prime=6, component_id="c")


def test_fiber_component_validation():
    with pytest.raises(ValidationError):
        FiberComponent(2, "c", Fraction(0), Fraction(1))
    with pytest.raises(NonPrimeLabel):
        FiberComponent(4, "c", Fraction(1), Fraction(1))
    # a prime's components are keyed by id (na_scalar_curvature, and so
    # na_calabi), so an id may occur once per prime
    obj = simple_model().to_json()
    obj["fibers"] = [{"prime": 3, "component_id": "c", "deg_L": "1",
                      "deg_LK": dk} for dk in ("-2", "-3")]
    with pytest.raises(ValidationError, match="unique per prime"):
        IntersectionModel.from_json(obj)
    obj["fibers"][1]["prime"] = 5
    assert len(IntersectionModel.from_json(obj).fibers) == 2


def test_modular_height_formula():
    m = simple_model()
    # h_K = -1*(-2)*(LL) + 2*1*(LK) = 2*(1/2) + 2*(-1) = -1
    assert modular_height(m).exact_eq(HeightValue(-1))


def test_generic_degree_rules():
    m = simple_model()
    assert m.generic_degree(["L"]) == 1
    assert m.generic_degree(["K"]) == -2
    for names in ([], ["L", "K"]):
        with pytest.raises(ValidationError, match="size-n monomials"):
            m.generic_degree(names)
    with pytest.raises(MissingGenericDegree):
        m2 = IntersectionModel(
            n=2, degree_KQ=1,
            classes=(DivisorClassId("L", "polarization"),
                     DivisorClassId("K", "relative-canonical")),
            form=SymmetricForm(3, {k: ZERO for k in
                                   [("L",) * 3, ("L", "L", "K"),
                                    ("L", "K", "K"), ("K",) * 3]}),
            L_class="L", K_class="K", deg_Ln=Fraction(8),
            deg_LK=Fraction(-8))
        m2.generic_degree(["K", "K"])


def test_serialization_roundtrip(tmp_path):
    m = simple_model()
    p = tmp_path / "m.json"
    m.save(p)
    m2 = IntersectionModel.load(p)
    for k, v in m.form.entries.items():
        assert m2.form.value(k).exact_eq(v) or m2.form.value(k).close_to(v)
    assert m2.deg_Ln == m.deg_Ln and m2.deg_LK == m.deg_LK


def test_a_monomial_is_named_once():
    # ("L", "K") and ("K", "L") name one monomial: a form, the new entries
    # of replace_form and a model's generic degrees each take it once
    twice = {("L", "K"): ZERO, ("K", "L"): HeightValue(5)}
    with pytest.raises(ValidationError,
                       match="form names the monomial K,L twice"):
        SymmetricForm(2, twice)
    m = simple_model()
    with pytest.raises(ValidationError, match="names the monomial K,L twice"):
        m.replace_form(twice)
    # one key out of order still replaces its sorted entry
    assert m.replace_form({("L", "K"): HeightValue(7)}).form.value(
        ("K", "L")).exact_eq(HeightValue(7))
    blown = build_p2_blowup_family((2,)).model
    fields = dict(zip(blown._fields, blown._values()))
    with pytest.raises(ValidationError, match="generic_degrees names the "
                                              "monomial K,L twice"):
        IntersectionModel(**{**fields, "generic_degrees": {
            ("K", "L"): Fraction(1), ("L", "K"): Fraction(2)}})


def test_a_class_name_holds_no_comma(tmp_path):
    # a model file joins the class names of a form key with ',': such a
    # name would save to a file that load refuses
    with pytest.raises(ValidationError, match="holds a ','"):
        DivisorClassId("x,y")
    # any other name survives save and load
    names = ("L", "K", "E (exc); 2")
    form = SymmetricForm(2, {
        k: HeightValue(i, {2: i}) for i, k in
        enumerate(itertools.combinations_with_replacement(names, 2))})
    m = IntersectionModel(
        n=1, degree_KQ=1,
        classes=(DivisorClassId("L", "polarization"),
                 DivisorClassId("K", "relative-canonical"),
                 DivisorClassId(names[2])),
        form=form, L_class="L", K_class="K", deg_Ln=1, deg_LK=-2,
        generic_degrees={(names[2],): Fraction(3)})
    p = tmp_path / "m.json"
    m.save(p)
    assert IntersectionModel.load(p) == m


def test_bad_model_json_rejects_composite_prime(tmp_path):
    m = simple_model()
    obj = m.to_json()
    obj["form"]["K,L"] = {"const": "0", "logs": {"6": "1"}, "real": 0.0,
                          "real_exact": True}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    with pytest.raises(NonPrimeLabel):
        IntersectionModel.load(p)


@pytest.mark.parametrize("label", [3.0, True, "3"])
def test_model_json_rejects_non_integer_class_prime(label):
    obj = build_p2_blowup_family((3,)).model.to_json()
    vertical = [c for c in obj["classes"] if c["kind"] == "vertical"]
    assert [c["prime"] for c in vertical] == [3]
    vertical[0]["prime"] = label
    with pytest.raises(ValidationError, match="model field 'classes'"):
        IntersectionModel.from_json(obj)


@pytest.mark.parametrize("field", ["n", "degree_KQ"])
def test_model_json_rejects_boolean_integers(field):
    obj = simple_model().to_json()
    obj[field] = True
    with pytest.raises(ValidationError, match=f"'{field}'"):
        IntersectionModel.from_json(obj)


@pytest.mark.parametrize("arch_term", [math.nan, math.inf])
def test_arakelov_calabi_rejects_non_finite_arch_term(arch_term):
    with pytest.raises(ValidationError, match="finite"):
        arakelov_calabi(two_component_model(), [7], arch_term)


def test_twist_by_base_divisor_preserves_hk():
    m = simple_model()
    tw = twist_by_base_divisor(m, {2: Fraction(3), 5: Fraction(-1, 2)})
    assert modular_height(tw).exact_eq(modular_height(m))
    # but the energy changes
    assert not tw.form.value(("L", "L")).exact_eq(m.form.value(("L", "L")))


def test_twist_by_zero_base_divisor_returns_the_model():
    m = simple_model()
    assert twist_by_base_divisor(m, {}) is m
    assert twist_by_base_divisor(m, {2: 0, 5: Fraction(0)}) is m


def test_twist_by_composite_label_rejected():
    with pytest.raises(NonPrimeLabel):
        twist_by_base_divisor(simple_model(), {2: Fraction(1), 6: Fraction(1)})


def test_every_public_entry_checks_labels():
    for make in (
            lambda: HeightValue(log_terms={2: 1, 9: 1}),
            lambda: HeightValue.from_json({"const": "1", "logs": {"15": "2"}}),
            lambda: DivisorClassId("F4", "vertical", 4, "exc"),
            lambda: DivisorClassId("F", "vertical"),
            lambda: FiberComponent(21, "fiber", 1, -2),
            lambda: twist_by_base_divisor(simple_model(), {2: 1, 1: 1})):
        with pytest.raises(NonPrimeLabel):
            make()


def count_is_prime(monkeypatch) -> list:
    """Route every module's is_prime through a counter; returns the list
    that records each checked label."""
    from heights import families, functionals
    seen, real_is_prime = [], heightvalue.is_prime

    def counting_is_prime(k):
        seen.append(k)
        return real_is_prime(k)

    for module in (heightvalue, intersection, functionals, families):
        monkeypatch.setattr(module, "is_prime", counting_is_prime)
    return seen


def test_internal_arithmetic_checks_no_labels(monkeypatch):
    big = 10 ** 9 + 7
    pair = build_p2_blowup_family((2, 3, big))
    model, ref = pair.model, pair.ref
    a = HeightValue(Fraction(1, 3), {big: Fraction(1, 2), 2: 1}, 0.5)
    b = HeightValue(-1, {3: 2, big: Fraction(-1, 2)})
    seen = count_is_prime(monkeypatch)
    s = a + b
    assert list(s.log_terms) == [2, 3] and s.log_terms[3] == 2
    assert (b - b).exact_eq(ZERO) and (a - a).log_terms == {}
    assert (-a).log_terms == {2: -1, big: Fraction(-1, 2)}
    assert a.scale(0).log_terms == {} and list((3 * b).log_terms) == [3, big]
    assert b.shift_real(0.0).real_exact and not b.shift_real(1.0).real_exact
    assert sum([a, b]) == s
    form_value = model.form.pair(model.L(), model.L(), model.K())
    assert list(form_value.log_terms) == sorted(form_value.log_terms)
    lhs, rhs = decomposition_check(pair)
    assert lhs.exact_eq(rhs)
    relative_modular_height(model, ref)
    rescale_metric_const(model, 0.25)
    assert seen == []
    # the public constructor still checks every label it is given
    HeightValue(log_terms={big: 1})
    assert seen == [big]


def test_rescale_metric_const_preserves_hk():
    m = simple_model()
    rs = rescale_metric_const(m, 1.75)
    assert abs((modular_height(rs) - modular_height(m)).evaluate()) < 1e-12


def test_cover_degree_zero_rejected():
    m = two_component_model()
    for call in (lambda: normalized_df(m, 0),
                 lambda: normalized_df_twisted(m, "E1", Fraction(1, 2), 0),
                 lambda: component_twist_derivative(m, 7, "c1", 0)):
        with pytest.raises(ZeroCoverDegree):
            call()


def two_component_model(dL=(2, 3), dK=(-1, -4), prime=7):
    """n = 1 arithmetic surface with a two-component fiber at `prime`."""
    lp = lambda c: HeightValue(log_terms={prime: Fraction(c)})
    names = ["L", "K", "E1", "E2"]
    entries = {
        ("L", "L"): HeightValue(Fraction(3)),
        ("K", "L"): HeightValue(Fraction(-2)),
        ("K", "K"): HeightValue(Fraction(1)),
        ("E1", "L"): lp(dL[0]), ("E2", "L"): lp(dL[1]),
        ("E1", "K"): lp(dK[0]), ("E2", "K"): lp(dK[1]),
        ("E1", "E1"): lp(-dL[0]), ("E2", "E2"): lp(-dL[1]),
        ("E1", "E2"): lp(dL[0]),
    }
    classes = (DivisorClassId("L", "polarization"),
               DivisorClassId("K", "relative-canonical"),
               DivisorClassId("E1", "vertical", prime, "c1"),
               DivisorClassId("E2", "vertical", prime, "c2"))
    fibers = (FiberComponent(prime, "c1", Fraction(dL[0]), Fraction(dK[0])),
              FiberComponent(prime, "c2", Fraction(dL[1]), Fraction(dK[1])))
    return IntersectionModel(
        n=1, degree_KQ=1, classes=classes,
        form=SymmetricForm(2, {form_key(k): v for k, v in entries.items()}),
        L_class="L", K_class="K",
        deg_Ln=Fraction(sum(dL)), deg_LK=Fraction(sum(dK)), fibers=fibers)


def test_na_scalar_curvature_per_component():
    m = two_component_model()
    s = na_scalar_curvature(m, 7)
    assert s == {"c1": Fraction(1, 2), "c2": Fraction(4, 3)}
    with pytest.raises(UnknownPrime):
        na_scalar_curvature(m, 11)


def test_na_calabi_sum():
    m = two_component_model()
    assert na_calabi(m, [7]) == Fraction(1, 4) + Fraction(16, 9)
    # n = 2: each blow-up fiber adds 25/64
    m = build_p2_blowup_family((2, 3, 5)).model
    assert na_calabi(m, [2, 3]) == Fraction(25, 32)
    assert na_calabi(m, []) == Fraction(0)
    with pytest.raises(UnknownPrime):
        na_calabi(m, [7])


def test_twist_derivative_matches_eps_grid():
    m = two_component_model()
    d = component_twist_derivative(m, 7, "c1")
    eps = Fraction(1, 100)
    up = normalized_df_twisted(m, "E1", eps)
    dn = normalized_df_twisted(m, "E1", -eps)
    central = (up - dn).scale(Fraction(1, 2) / eps)
    assert central.exact_eq(d)
    with pytest.raises(UnknownComponent):
        component_twist_derivative(m, 7, "missing")


def test_lnk_is_the_written_out_pairing():
    # (L^n.K) on the model's L, and on the twist L + eps*E that
    # normalized_df_twisted pairs, is the pairing written out slot by
    # slot, to the last bit, and agrees with the product expansion
    m = two_component_model()
    cases = [(build_p1_fs(), None),
             (build_p2_blowup_family((2, 3, 5)).model, None),
             (build_p2_blowup_family(primes_to(37)).model, None),
             (m, m.L() + FormalSum("E1").scale(Fraction(1, 100)))]
    for model, L in cases:
        slots = [model.L() if L is None else L] * model.n + [model.K()]
        got, want = model.lnk(L), model.form.pair(*slots)
        assert got.const_part == want.const_part
        assert got.log_terms == want.log_terms
        assert got.real_part == want.real_part
        assert got.real_exact == want.real_exact
        assert_same_pairing(got, pair_by_product(model.form, *slots),
                            real_term_size(model.form, *slots))


def test_twist_derivative_vanishes_iff_constant_snA():
    flat = two_component_model(dL=(2, 3), dK=(-4, -6))   # S = 2 on both
    for comp in ("c1", "c2"):
        assert component_twist_derivative(flat, 7, comp).is_zero()
    bent = two_component_model(dL=(2, 3), dK=(-4, -5))
    assert not all(component_twist_derivative(bent, 7, c).is_zero()
                   for c in ("c1", "c2"))


def test_slope_semistability_verdicts():
    # lhs = -2 b/a compared against Sbar = 2
    eq = simple_model(a=Fraction(1), b=Fraction(-1))
    assert slope_semistability_test(eq) == "equality"
    st = simple_model(a=Fraction(1), b=Fraction(-1, 2))
    assert slope_semistability_test(st) == "stable-direction"
    bad = simple_model(a=Fraction(1), b=Fraction(-3))
    assert slope_semistability_test(bad) == "violated"


def test_model_pair_rejects_mismatched_joint_form():
    m = simple_model()
    ref = simple_model()
    joint = SymmetricForm(2, {("L", "L"): HeightValue(Fraction(1, 2)),
                              ("K", "L"): HeightValue(-1),
                              ("K", "K"): HeightValue(2),
                              ("L", "Lr"): ZERO, ("K", "Lr"): ZERO,
                              ("Lr", "Lr"): HeightValue(99),  # wrong
                              ("Kr", "Lr"): HeightValue(-1),
                              ("K", "Kr"): ZERO, ("L", "Kr"): ZERO,
                              ("Kr", "Kr"): HeightValue(2)})
    with pytest.raises(ValidationError):
        ModelPair(model=m, ref=ref, joint_form=joint,
                  ref_map={"L": "Lr", "K": "Kr"})


# the identity renaming: a pair of a model with itself on its own form
SAME = {"L": "L", "K": "K"}


def test_model_pair_rejects_joint_form_missing_a_monomial():
    m = simple_model()
    entries = dict(m.form.entries)
    del entries[("K", "L")]
    with pytest.raises(IncompleteJointForm,
                       match=r"misses embedded monomial \('K', 'L'\)"):
        ModelPair(model=m, ref=m, joint_form=SymmetricForm(2, entries),
                  ref_map=SAME)


@pytest.mark.parametrize("off, ok", [(5e-10, True), (2e-9, False)])
def test_model_pair_tolerates_real_drift_up_to_1e_9(off, ok):
    m = simple_model()
    entries = dict(m.form.entries)
    entries[("L", "L")] = entries[("L", "L")].shift_real(off)
    joint = SymmetricForm(2, entries)
    if ok:
        ModelPair(model=m, ref=m, joint_form=joint, ref_map=SAME)
    else:
        with pytest.raises(ValidationError, match="disagrees"):
            ModelPair(model=m, ref=m, joint_form=joint, ref_map=SAME)


def test_relative_height_needs_same_generic_fiber():
    from heights.errors import GenericFiberMismatch
    m = simple_model()
    other = IntersectionModel(
        n=1, degree_KQ=1, classes=m.classes, form=m.form,
        L_class="L", K_class="K", deg_Ln=Fraction(2), deg_LK=Fraction(-2))
    with pytest.raises(GenericFiberMismatch):
        relative_modular_height(m, other)
