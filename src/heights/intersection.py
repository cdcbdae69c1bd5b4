"""Integral models as exact symmetric intersection forms.

A model stores nothing about equations: it is the (n+1)-fold symmetric
multilinear form over labelled divisor classes, plus the marked
polarization and relative-canonical classes, generic-fiber degrees and
per-prime fiber component data.  Family builders fill in the numbers.
"""

from __future__ import annotations

import itertools
import json
import operator
from collections.abc import Iterable, Mapping, Sequence
from contextlib import contextmanager
from fractions import Fraction

from ._frozen import FrozenValue
from .errors import (GenericFiberMismatch, IncompleteJointForm, MissingClass,
                     MissingGenericDegree, NonPrimeLabel, UnsupportedFamily,
                     ValidationError)
from .heightvalue import HeightValue, as_height, is_prime, json_rational

KIND_POLARIZATION = "polarization"
KIND_CANONICAL = "relative-canonical"
KIND_VERTICAL = "vertical"
KIND_BASE_PULLBACK = "base-pullback"
KIND_AUXILIARY = "auxiliary"
_KINDS = {KIND_POLARIZATION, KIND_CANONICAL, KIND_VERTICAL,
          KIND_BASE_PULLBACK, KIND_AUXILIARY}

# the family ids a model may store in its `family` field, with the kind
# of fiber geometry each expects; quantize has closed forms (Grams,
# arithmetic degrees) for "p1-fs" only, and a test checks that every id
# here has them
FAMILY_GEOMETRY = {"p1-fs": "sphere"}


def _check_family(family: str | None) -> None:
    """The one family rule: an id needs closed-form providers."""
    if family not in FAMILY_GEOMETRY:
        raise UnsupportedFamily(
            f"no closed-form providers for family {family!r}; "
            f"known: {sorted(FAMILY_GEOMETRY)}")


class DivisorClassId(FrozenValue):
    _fields = ("name", "kind", "prime", "component_id")

    def __init__(self, name: str, kind: str = KIND_AUXILIARY,
                 prime: int | None = None, component_id: str | None = None):
        if kind not in _KINDS:
            raise ValidationError(f"unknown class kind {kind!r}")
        if kind == KIND_VERTICAL:
            if prime is None or not is_prime(prime):
                raise NonPrimeLabel(
                    f"vertical class {name!r} needs a valid prime")
        self.__dict__.update(name=name, kind=kind, prime=prime,
                             component_id=component_id)


class FiberComponent(FrozenValue):
    _fields = ("prime", "component_id", "deg_L", "deg_LK",
               "fiber_multiplicity")

    def __init__(self, prime: int, component_id: str, deg_L: Fraction,
                 deg_LK: Fraction, fiber_multiplicity: int = 1):
        deg_L, deg_LK = Fraction(deg_L), Fraction(deg_LK)
        if not is_prime(prime):
            raise NonPrimeLabel(f"fiber prime {prime} is not prime")
        if deg_L <= 0:
            raise ValidationError(
                f"component {component_id!r}: deg_L must be > 0")
        if fiber_multiplicity < 1:
            raise ValidationError("fiber_multiplicity must be >= 1")
        self.__dict__.update(prime=prime, component_id=component_id,
                             deg_L=deg_L, deg_LK=deg_LK,
                             fiber_multiplicity=fiber_multiplicity)


class FormalSum(dict):
    """Rational formal combination of class names: a name, a mapping of
    names to rationals or None (the empty sum)."""

    def __init__(self, terms: Mapping[str, Fraction] | str | None = None):
        super().__init__()
        if isinstance(terms, str):
            terms = {terms: Fraction(1)}
        elif terms is not None and not isinstance(terms, Mapping):
            raise TypeError(
                f"cannot interpret {terms!r} as a class combination")
        for k, v in (terms or {}).items():
            v = Fraction(v)
            if v != 0:
                self[k] = v

    def __add__(self, other):
        out = dict(self)
        for k, v in FormalSum(other).items():
            out[k] = out.get(k, Fraction(0)) + v
        return FormalSum(out)

    def __sub__(self, other):
        return self + FormalSum(other).scale(-1)

    def scale(self, q):
        q = Fraction(q)
        return FormalSum({k: q * v for k, v in self.items()})


def form_key(names: Iterable[str]) -> tuple:
    return tuple(sorted(names))


class SymmetricForm:
    """Total symmetric (n+1)-linear form: multiset of class names -> HeightValue."""

    def __init__(self, arity: int, entries: Mapping[tuple, HeightValue]):
        self.arity = arity
        self.entries = {form_key(k): as_height(v) for k, v in entries.items()}
        for k in self.entries:
            if len(k) != arity:
                raise ValidationError(
                    f"form key {k} has size {len(k)}, expected {arity}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.arity == other.arity and self.entries == other.entries

    # entries is a dict of unhashable HeightValues, so a form (and every
    # model or pair holding one) is unhashable too
    __hash__ = None

    def value(self, key: Sequence[str]) -> HeightValue:
        k = form_key(key)
        if k not in self.entries:
            raise IncompleteJointForm(f"form misses monomial {','.join(k)}")
        return self.entries[k]

    def pair(self, *combos) -> HeightValue:
        """Multilinear evaluation on `arity` formal combinations, each a
        FormalSum or anything FormalSum() accepts.

        The slots are multiplied out one at a time into merged rational
        coefficients per multiset of names, so each form entry is read
        once.  Every multiset the product reaches is looked up, also
        where its coefficients cancel to zero, so that a missing
        monomial raises IncompleteJointForm and real_exact covers it.
        """
        if len(combos) != self.arity:
            raise ValidationError(
                f"expected {self.arity} slots, got {len(combos)}")
        coeffs = {(): Fraction(1)}
        for combo in combos:
            if not isinstance(combo, FormalSum):
                combo = FormalSum(combo)
            terms = [(name, q) for name, q in combo.items() if q]
            merged = {}
            for key, c in coeffs.items():
                for name, q in terms:
                    k = form_key(key + (name,))
                    cq = c * q
                    merged[k] = merged[k] + cq if k in merged else cq
            coeffs = merged
        const, logs, real, real_exact = Fraction(0), {}, 0.0, True
        for key, c in coeffs.items():
            v = self.value(key)
            real_exact = real_exact and v.real_exact
            if not c:
                continue
            const += c * v.const_part
            for p, lc in v.log_terms.items():
                logs[p] = logs[p] + c * lc if p in logs else c * lc
            real += float(c) * v.real_part
        return HeightValue._from_parts(const, logs, real, real_exact)

    def is_total_over(self, names: Sequence[str]) -> bool:
        for key in itertools.combinations_with_replacement(sorted(names),
                                                           self.arity):
            if form_key(key) not in self.entries:
                return False
        return True


class IntersectionModel(FrozenValue):
    _fields = ("n", "degree_KQ", "classes", "form", "L_class", "K_class",
               "deg_Ln", "deg_LK", "fibers", "generic_degrees", "family")

    def __init__(self, n: int, degree_KQ: int, classes: Iterable,
                 form: SymmetricForm, L_class: str, K_class: str,
                 deg_Ln: Fraction, deg_LK: Fraction, fibers: Iterable = (),
                 generic_degrees: Mapping[tuple, Fraction] | None = None,
                 family: str | None = None):
        # family: an id in FAMILY_GEOMETRY, carried through form changes
        classes, fibers = tuple(classes), tuple(fibers)
        deg_Ln, deg_LK = Fraction(deg_Ln), Fraction(deg_LK)
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise ValidationError("class names must be unique")
        if n < 1 or degree_KQ < 1:
            raise ValidationError("n and degree_KQ must be positive")
        if deg_Ln <= 0:
            raise ValidationError("deg_Ln must be > 0")
        if L_class not in names or K_class not in names:
            raise MissingClass("L_class and K_class must be listed classes")
        if form.arity != n + 1:
            raise ValidationError("form arity must equal n+1")
        if not form.is_total_over(names):
            raise IncompleteJointForm("form is not total over the class list")
        if len({(f.prime, f.component_id) for f in fibers}) < len(fibers):
            raise ValidationError(
                "fiber component ids must be unique per prime")
        gd = {form_key(k): Fraction(v)
              for k, v in dict(generic_degrees or {}).items()}
        if family is not None:
            _check_family(family)
        self.__dict__.update(
            n=n, degree_KQ=degree_KQ, classes=classes, form=form,
            L_class=L_class, K_class=K_class, deg_Ln=deg_Ln, deg_LK=deg_LK,
            fibers=fibers, generic_degrees=gd, family=family)

    # -- helpers ------------------------------------------------------

    def class_by_name(self, name: str) -> DivisorClassId:
        for c in self.classes:
            if c.name == name:
                return c
        raise MissingClass(f"no class named {name!r}")

    def L(self) -> FormalSum:
        return FormalSum(self.L_class)

    def K(self) -> FormalSum:
        return FormalSum(self.K_class)

    def top_power(self, L: FormalSum | None = None) -> HeightValue:
        """(L^{n+1}): the form on n+1 copies of L, by default the model's."""
        return self.form.pair(*([self.L() if L is None else L] * (self.n + 1)))

    def lnk(self, L: FormalSum | None = None) -> HeightValue:
        """(L^n.K): n copies of L, by default the model's, and K."""
        return self.form.pair(*([self.L() if L is None else L] * self.n),
                              self.K())

    def l_slots(self):
        """(key, value, k_L, gd) per form entry with k_L >= 1 L-slots whose
        other n slots have nonzero generic degree gd."""
        for key, val in self.form.entries.items():
            k_l = key.count(self.L_class)
            if k_l == 0:
                continue
            rest = list(key)
            rest.remove(self.L_class)
            gd = self.generic_degree(rest)
            if gd != 0:
                yield key, val, k_l, gd

    def Sbar(self) -> Fraction:
        return Fraction(self.n) * (-self.deg_LK) / self.deg_Ln

    def same_generic_fiber(self, other: "IntersectionModel") -> bool:
        return (self.n == other.n and self.degree_KQ == other.degree_KQ
                and self.deg_Ln == other.deg_Ln
                and self.deg_LK == other.deg_LK)

    def generic_degree(self, names: Sequence[str]) -> Fraction:
        """Degree of an n-fold monomial on the generic fiber.

        Monomials touching vertical or base-pullback classes restrict to
        zero on the generic fiber.  Pure L/K monomials use deg_Ln and
        deg_LK; anything else must be registered by the builder.
        """
        key = form_key(names)
        if len(key) != self.n:
            raise ValidationError("generic degree takes size-n monomials")
        if key in self.generic_degrees:
            return self.generic_degrees[key]
        kinds = [self.class_by_name(nm).kind for nm in key]
        if any(k in (KIND_VERTICAL, KIND_BASE_PULLBACK) for k in kinds):
            return Fraction(0)
        l_count = key.count(self.L_class)
        if l_count == self.n:
            return self.deg_Ln
        if l_count == self.n - 1 and key.count(self.K_class) == 1:
            return self.deg_LK
        raise MissingGenericDegree(
            f"generic degree of {','.join(key)} not registered")

    def replace_form(self, new_entries: Mapping[tuple, HeightValue],
                     **overrides) -> "IntersectionModel":
        """This model with new_entries written over its form entries; the
        other fields are kept unless overrides name them."""
        fields = dict(zip(self._fields, self._values()))
        # a key given out of order still wins: SymmetricForm sorts each
        # key, and a later duplicate overwrites an earlier one
        fields["form"] = SymmetricForm(
            self.n + 1, {**self.form.entries, **new_entries})
        return IntersectionModel(**{**fields, **overrides})

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        classes = []
        for c in self.classes:
            entry = {"name": c.name, "kind": c.kind}
            if c.kind == KIND_VERTICAL:
                entry["prime"] = c.prime
                entry["component"] = c.component_id
            classes.append(entry)
        return {
            "n": self.n,
            "degree_KQ": self.degree_KQ,
            "deg_Ln": str(self.deg_Ln),
            "deg_LK": str(self.deg_LK),
            "classes": classes,
            "form": {",".join(k): v.to_json()
                     for k, v in sorted(self.form.entries.items())},
            "L_class": self.L_class,
            "K_class": self.K_class,
            "fibers": [{
                "prime": f.prime, "component_id": f.component_id,
                "deg_L": str(f.deg_L), "deg_LK": str(f.deg_LK),
                "fiber_multiplicity": f.fiber_multiplicity,
            } for f in self.fibers],
            "generic_degrees": {",".join(k): str(v)
                                for k, v in sorted(self.generic_degrees.items())},
            "family": self.family,
        }

    @staticmethod
    def from_json(obj: dict) -> "IntersectionModel":
        with _json_field("classes"):
            classes = [DivisorClassId(
                _json_str(c["name"]), _json_str(c.get("kind", KIND_AUXILIARY)),
                None if c.get("prime") is None else _json_int(c["prime"]),
                None if c.get("component") is None
                else _json_str(c["component"]))
                for c in obj["classes"]]
        entries = {}
        with _json_field("form"):
            raw_form = obj["form"].items()
        for k, v in raw_form:
            with _json_field(f"form[{k}]"):
                entries[tuple(k.split(","))] = HeightValue.from_json(v)
        with _json_field("fibers"):
            fibers = [FiberComponent(
                _json_int(f["prime"]), _json_str(f["component_id"]),
                json_rational(f["deg_L"]), json_rational(f["deg_LK"]),
                _json_int(f.get("fiber_multiplicity", 1)))
                for f in obj.get("fibers", [])]
        with _json_field("generic_degrees"):
            generic_degrees = {
                tuple(k.split(",")): json_rational(v)
                for k, v in obj.get("generic_degrees", {}).items()}
        fields = {}
        for name, convert in (("n", _json_int), ("degree_KQ", _json_int),
                              ("deg_Ln", json_rational),
                              ("deg_LK", json_rational),
                              ("L_class", _json_str), ("K_class", _json_str)):
            with _json_field(name):
                fields[name] = convert(obj[name])
        with _json_field("family"):
            family = obj.get("family")
            family = family if family is None else _json_str(family)
        return IntersectionModel(
            classes=classes, form=SymmetricForm(fields["n"] + 1, entries),
            fibers=fibers, generic_degrees=generic_degrees, family=family,
            **fields)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)

    @staticmethod
    def load(path) -> "IntersectionModel":
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except ValueError as exc:   # also an over-long integer literal
                raise ValidationError(
                    f"model file {str(path)!r} is not readable JSON: "
                    f"{exc}") from None
        return IntersectionModel.from_json(obj)


def _json_int(v) -> int:
    """An exact JSON integer: true and false are not 1 and 0 here."""
    if isinstance(v, bool):
        raise TypeError(f"expected an integer, got {v!r}")
    return operator.index(v)


def _json_str(v) -> str:
    """A JSON string: a list, an object or a number is not a name here."""
    if not isinstance(v, str):
        raise TypeError(f"expected a string, got {v!r}")
    return v


@contextmanager
def _json_field(name: str):
    """Re-raise a malformed or missing model-JSON field as ValidationError."""
    try:
        yield
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise ValidationError(
            f"model field {name!r} is missing or malformed: "
            f"{type(exc).__name__}: {exc}") from exc


class ModelPair(FrozenValue):
    """Two models of the same generic fiber joined on a common resolution.

    joint_form lives on the union of the class lists, under the model's
    class names and ref_map's joint names for the reference's classes.
    Pure-model monomials must agree with the constituents' own forms.
    """

    _fields = ("model", "ref", "joint_form", "ref_map")

    def __init__(self, model: IntersectionModel, ref: IntersectionModel,
                 joint_form: SymmetricForm,
                 ref_map: Mapping[str, str] | None = None):
        if not model.same_generic_fiber(ref):
            raise GenericFiberMismatch(
                "pair constituents must share the generic fiber data")
        if ref_map is None:
            ref_map = {c.name: c.name for c in ref.classes}
        for m, mp in ((model, None), (ref, ref_map)):
            for key, val in m.form.entries.items():
                jkey = key if mp is None else form_key(mp[nm] for nm in key)
                if jkey not in joint_form.entries:
                    raise IncompleteJointForm(
                        f"joint form misses embedded monomial {jkey}")
                if not joint_form.entries[jkey].close_to(val, 1e-9):
                    raise ValidationError(
                        f"joint form disagrees with constituent on {jkey}")
        self.__dict__.update(model=model, ref=ref, joint_form=joint_form,
                             ref_map=ref_map)

    def rL(self) -> FormalSum:
        return FormalSum(self.ref_map[self.ref.L_class])

    def rK(self) -> FormalSum:
        return FormalSum(self.ref_map[self.ref.K_class])
