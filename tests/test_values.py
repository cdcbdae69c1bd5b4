"""Value semantics of the immutable value classes."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from heights.families import (BrieskornPhamSpec, EllipticCurveData,
                              build_p1_fs, build_p2_blowup_family)
from heights.heightvalue import HeightValue
from heights.intersection import (DivisorClassId, FiberComponent,
                                  IntersectionModel, ModelPair,
                                  SymmetricForm)
from heights.quantize import SectionGram, l2_gram
from heights.scans import ScanResult

P1 = build_p1_fs()
PAIR = build_p2_blowup_family((2,))
MODEL_KW = dict(n=1, degree_KQ=1, classes=P1.classes, form=P1.form,
                L_class="L", K_class="K", deg_Ln=1, deg_LK=-2,
                fibers=P1.fibers, family="p1-fs")

# (class, positional args, the same value by keyword, a different value)
CASES = [
    (HeightValue, (Fraction(1, 2), {3: -1, 2: 2}, 0.25),
     dict(const_part=Fraction(1, 2), log_terms={2: 2, 3: -1},
          real_part=0.25),
     (Fraction(1, 2), {2: 2}, 0.25)),
    (DivisorClassId, ("F3", "vertical", 3, "exc"),
     dict(name="F3", kind="vertical", prime=3, component_id="exc"),
     ("F5", "vertical", 5, "exc")),
    (FiberComponent, (5, "fiber", 1, Fraction(-2)),
     dict(prime=5, component_id="fiber", deg_L=Fraction(1), deg_LK=-2,
          fiber_multiplicity=1),
     (5, "fiber", 1, Fraction(-2), 2)),
    (IntersectionModel, (1, 1, P1.classes, P1.form, "L", "K", 1, -2,
                         P1.fibers, {}, "p1-fs"),
     MODEL_KW, (1, 1, P1.classes, P1.form, "L", "K", 1, -2, P1.fibers)),
    (ModelPair, (PAIR.model, PAIR.ref, PAIR.joint_form, PAIR.ref_map),
     dict(model=PAIR.model, ref=PAIR.ref, joint_form=PAIR.joint_form,
          ref_map=dict(PAIR.ref_map)),
     (PAIR.model, PAIR.model, PAIR.joint_form)),
    (BrieskornPhamSpec, ([8, 15, 7], 11), dict(weights=(8, 15, 7), prime=11),
     ((8, 15, 7), 13)),
    (EllipticCurveData, ([0, 0, 1, -1, 0], 37),
     dict(a_invariants=(0, 0, 1, -1, 0), delta_min=37),
     ((0, 1, 1, -2, 0), 389)),
    (SectionGram, (1, ("a", "b"), [[1.0, 0.0], [0.0, 2.0]], "omega"),
     dict(m=1, basis=("a", "b"), gram=np.diag([1.0, 2.0]),
          volume_convention="omega"),
     (1, ("a", "b"), [[1.0, 0.0], [0.0, 2.0]], "m-omega")),
    (ScanResult, (1.5, -0.25, [(1, 2.0)], ("m", "x")),
     dict(fitted_constant=1.5, fitted_log_slope=-0.25, table=[(1, 2.0)],
          columns=("m", "x")),
     (1.5, -0.25)),
]
IDS = [case[0].__name__ for case in CASES]
HASHABLE = (DivisorClassId, FiberComponent, BrieskornPhamSpec,
            EllipticCurveData)


@pytest.mark.parametrize("cls, args, kwargs, other", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs, other):
    a, b, c = cls(*args), cls(**kwargs), cls(*other)
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != object() and a != args and not a == repr(a)
    assert (a == object()) is False


@pytest.mark.parametrize("cls, args, kwargs, other", CASES, ids=IDS)
def test_hash_follows_value(cls, args, kwargs, other):
    a, b = cls(*args), cls(**kwargs)
    if cls in HASHABLE:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
    else:
        # a field holds a dict, an array or a list (ScanResult)
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


@pytest.mark.parametrize("cls, args, kwargs, other", CASES, ids=IDS)
def test_assignment_and_deletion(cls, args, kwargs, other):
    a = cls(*args)
    name = next(iter(kwargs))       # the first field
    before = repr(a)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(a, name, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        a.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(a, name)
    assert repr(a) == before


@pytest.mark.parametrize("cls, args, kwargs, other", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(cls, args, kwargs, other):
    a = cls(*args)
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(b) is cls and b == a
        if cls is not ScanResult:
            with pytest.raises(AttributeError):
                setattr(b, next(iter(kwargs)), None)


def test_grams_compare_by_value():
    # the Gram is an array: == compares it whole, not element by element
    a, b = l2_gram("p1-fs", 2), l2_gram("p1-fs", 2)
    assert a == b and not a != b
    assert a != l2_gram("p1-fs", 3)     # another shape
    assert a != l2_gram("p1-fs", 2, "fs", "m-omega")
    assert a != SectionGram(2, a.basis, a.gram * 1.5, a.volume_convention)
    assert a != SectionGram(2, ("a", "b", "c"), a.gram, a.volume_convention)
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_forms_and_models_compare_by_value():
    # a form compares by arity and entries; models and pairs compare
    # through it.  Entries hold HeightValues with dicts, so forms, models
    # and pairs stay unhashable
    m = build_p1_fs()
    assert m.form == build_p1_fs().form and m.form is not build_p1_fs().form
    assert m == build_p1_fs() and copy.deepcopy(m) == m
    assert PAIR == build_p2_blowup_family((2,))
    assert PAIR != build_p2_blowup_family((3,))
    shifted = m.replace_form({("L", "L"): m.form.value(("L", "L"))
                              .shift_real(1e-300)})
    assert shifted != m and shifted.form != m.form
    assert SymmetricForm(2, {}) != SymmetricForm(3, {})
    assert SymmetricForm(2, {}) != {} and m.form != m.form.entries
    for value in (m.form, m, PAIR):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


def test_repr_is_the_dataclass_repr():
    assert repr(HeightValue(Fraction(1, 2), {3: -1, 2: 2}, 0.25)) == (
        "HeightValue(const_part=Fraction(1, 2), log_terms={2: Fraction(2, "
        "1), 3: Fraction(-1, 1)}, real_part=0.25, real_exact=False)")
    assert repr(HeightValue()) == (
        "HeightValue(const_part=Fraction(0, 1), log_terms={}, "
        "real_part=0.0, real_exact=True)")
    assert repr(DivisorClassId("L")) == (
        "DivisorClassId(name='L', kind='auxiliary', prime=None, "
        "component_id=None)")
    assert repr(FiberComponent(2, "exc", Fraction(8), -5, 2)) == (
        "FiberComponent(prime=2, component_id='exc', deg_L=Fraction(8, 1), "
        "deg_LK=Fraction(-5, 1), fiber_multiplicity=2)")
    assert repr(BrieskornPhamSpec([8, 15, 7], 11)) == \
        "BrieskornPhamSpec(weights=(8, 15, 7), prime=11)"
    assert repr(EllipticCurveData([0, 0, 1, -1, 0], 37)) == \
        "EllipticCurveData(a_invariants=(0, 0, 1, -1, 0), delta_min=37)"
    assert repr(SectionGram(1, ("a", "b"), [[1.0, 0.0], [0.0, 2.0]],
                            "omega")) == (
        "SectionGram(m=1, basis=('a', 'b'), gram=array([[1., 0.],\n"
        "       [0., 2.]]), volume_convention='omega')")
    assert repr(ScanResult(0.0, 1.0)) == (
        "ScanResult(fitted_constant=0.0, fitted_log_slope=1.0, table=[], "
        "columns=())")
    classes = ", ".join(map(repr, P1.classes))
    fibers = ", ".join(map(repr, P1.fibers))
    assert repr(P1) == (
        f"IntersectionModel(n=1, degree_KQ=1, classes=({classes}), "
        f"form={P1.form!r}, L_class='L', K_class='K', "
        "deg_Ln=Fraction(1, 1), deg_LK=Fraction(-2, 1), "
        f"fibers=({fibers}), generic_degrees={{}}, family='p1-fs')")
    assert repr(PAIR) == (
        f"ModelPair(model={PAIR.model!r}, ref={PAIR.ref!r}, "
        f"joint_form={PAIR.joint_form!r}, "
        "ref_map={'L': 'L_base', 'K': 'K_base'})")


def test_defaults_are_fresh_and_normalized():
    assert HeightValue().log_terms == {} and HeightValue().real_exact
    a, b = ScanResult(0.0, 0.0), ScanResult(0.0, 0.0)
    a.table.append((1, 0.0))
    assert b.table == []
    model = IntersectionModel(**MODEL_KW)
    assert model.generic_degrees == {} and model.fibers == P1.fibers
    assert model.deg_Ln == Fraction(1) and isinstance(model.deg_LK, Fraction)
    pair = ModelPair(P1, P1, P1.form)
    assert pair.ref_map == {"L": "L", "K": "K"}
