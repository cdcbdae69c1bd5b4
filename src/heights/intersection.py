"""Integral models as exact symmetric intersection forms.

A model stores nothing about equations: it is the (n+1)-fold symmetric
multilinear form over labelled divisor classes, plus the marked
polarization and relative-canonical classes, generic-fiber degrees and
per-prime fiber component data.  Family builders fill in the numbers.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (GenericFiberMismatch, IncompleteJointForm, MissingClass,
                     MissingGenericDegree, NonPrimeLabel, ValidationError)
from .heightvalue import HeightValue, as_height, is_prime
from .quantize import family_providers

KIND_POLARIZATION = "polarization"
KIND_CANONICAL = "relative-canonical"
KIND_VERTICAL = "vertical"
KIND_BASE_PULLBACK = "base-pullback"
KIND_AUXILIARY = "auxiliary"
_KINDS = {KIND_POLARIZATION, KIND_CANONICAL, KIND_VERTICAL,
          KIND_BASE_PULLBACK, KIND_AUXILIARY}


@dataclass(frozen=True)
class DivisorClassId:
    name: str
    kind: str = KIND_AUXILIARY
    prime: int | None = None
    component_id: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown class kind {self.kind!r}")
        if self.kind == KIND_VERTICAL:
            if self.prime is None or not is_prime(self.prime):
                raise NonPrimeLabel(
                    f"vertical class {self.name!r} needs a valid prime")


@dataclass(frozen=True)
class FiberComponent:
    prime: int
    component_id: str
    deg_L: Fraction
    deg_LK: Fraction
    fiber_multiplicity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "deg_L", Fraction(self.deg_L))
        object.__setattr__(self, "deg_LK", Fraction(self.deg_LK))
        if not is_prime(self.prime):
            raise NonPrimeLabel(f"fiber prime {self.prime} is not prime")
        if self.deg_L <= 0:
            raise ValidationError(
                f"component {self.component_id!r}: deg_L must be > 0")
        if self.fiber_multiplicity < 1:
            raise ValidationError("fiber_multiplicity must be >= 1")


class FormalSum(dict):
    """Rational formal combination of class names."""

    def __init__(self, terms: Mapping[str, Fraction] | str | None = None):
        super().__init__()
        if isinstance(terms, str):
            terms = {terms: Fraction(1)}
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


def _as_sum(x) -> FormalSum:
    if isinstance(x, FormalSum):
        return x
    if isinstance(x, str):
        return FormalSum(x)
    if isinstance(x, DivisorClassId):
        return FormalSum(x.name)
    if isinstance(x, Mapping):
        return FormalSum(x)
    raise TypeError(f"cannot interpret {x!r} as a class combination")


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

    def value(self, key: Sequence[str]) -> HeightValue:
        k = form_key(key)
        if k not in self.entries:
            raise IncompleteJointForm(f"form misses monomial {','.join(k)}")
        return self.entries[k]

    def pair(self, *combos) -> HeightValue:
        """Multilinear evaluation on `arity` formal combinations.

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
            terms = [(name, q) for name, q in _as_sum(combo).items() if q]
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
        return HeightValue(const, logs, real, real_exact)

    def is_total_over(self, names: Sequence[str]) -> bool:
        for key in itertools.combinations_with_replacement(sorted(names),
                                                           self.arity):
            if form_key(key) not in self.entries:
                return False
        return True


@dataclass(frozen=True)
class IntersectionModel:
    n: int
    degree_KQ: int
    classes: tuple
    form: SymmetricForm
    L_class: str
    K_class: str
    deg_Ln: Fraction
    deg_LK: Fraction
    fibers: tuple = ()
    generic_degrees: Mapping[tuple, Fraction] = field(default_factory=dict)
    # id in quantize.FAMILIES of the closed-form providers (Gram,
    # arithmetic degrees, geometry kind); carried through form changes
    family: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "fibers", tuple(self.fibers))
        object.__setattr__(self, "deg_Ln", Fraction(self.deg_Ln))
        object.__setattr__(self, "deg_LK", Fraction(self.deg_LK))
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValidationError("class names must be unique")
        if self.n < 1 or self.degree_KQ < 1:
            raise ValidationError("n and degree_KQ must be positive")
        if self.deg_Ln <= 0:
            raise ValidationError("deg_Ln must be > 0")
        if self.L_class not in names or self.K_class not in names:
            raise MissingClass("L_class and K_class must be listed classes")
        if self.form.arity != self.n + 1:
            raise ValidationError("form arity must equal n+1")
        if not self.form.is_total_over(names):
            raise IncompleteJointForm("form is not total over the class list")
        gd = {form_key(k): Fraction(v)
              for k, v in dict(self.generic_degrees).items()}
        object.__setattr__(self, "generic_degrees", gd)
        if self.family is not None:
            family_providers(self.family)

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
        counts = {}
        for nm in key:
            counts[nm] = counts.get(nm, 0) + 1
        if counts == {self.L_class: self.n}:
            return self.deg_Ln
        if self.n >= 1 and counts.get(self.L_class, 0) == self.n - 1 \
                and counts.get(self.K_class, 0) == 1:
            return self.deg_LK
        raise MissingGenericDegree(
            f"generic degree of {','.join(key)} not registered")

    def replace_form(self, new_entries: Mapping[tuple, HeightValue],
                     **overrides) -> "IntersectionModel":
        merged = dict(self.form.entries)
        merged.update({form_key(k): as_height(v)
                       for k, v in new_entries.items()})
        kwargs = dict(
            n=self.n, degree_KQ=self.degree_KQ, classes=self.classes,
            form=SymmetricForm(self.n + 1, merged),
            L_class=self.L_class, K_class=self.K_class,
            deg_Ln=self.deg_Ln, deg_LK=self.deg_LK, fibers=self.fibers,
            generic_degrees=self.generic_degrees, family=self.family)
        kwargs.update(overrides)
        return IntersectionModel(**kwargs)

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
                name=c["name"], kind=c.get("kind", KIND_AUXILIARY),
                prime=c.get("prime"), component_id=c.get("component"))
                for c in obj["classes"]]
        entries = {}
        with _json_field("form"):
            raw_form = obj["form"].items()
        for k, v in raw_form:
            with _json_field(f"form[{k}]"):
                entries[tuple(k.split(","))] = HeightValue.from_json(v)
        with _json_field("fibers"):
            fibers = [FiberComponent(
                prime=f["prime"], component_id=f["component_id"],
                deg_L=Fraction(f["deg_L"]), deg_LK=Fraction(f["deg_LK"]),
                fiber_multiplicity=f.get("fiber_multiplicity", 1))
                for f in obj.get("fibers", [])]
        with _json_field("generic_degrees"):
            generic_degrees = {
                tuple(k.split(",")): Fraction(v)
                for k, v in obj.get("generic_degrees", {}).items()}
        fields = {}
        for name, convert in (("n", operator.index),
                              ("degree_KQ", operator.index),
                              ("deg_Ln", Fraction), ("deg_LK", Fraction),
                              ("L_class", str), ("K_class", str)):
            with _json_field(name):
                fields[name] = convert(obj[name])
        return IntersectionModel(
            classes=classes, form=SymmetricForm(fields["n"] + 1, entries),
            fibers=fibers, generic_degrees=generic_degrees,
            family=obj.get("family"), **fields)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)

    @staticmethod
    def load(path) -> "IntersectionModel":
        with open(path) as fh:
            return IntersectionModel.from_json(json.load(fh))


@contextmanager
def _json_field(name: str):
    """Re-raise a malformed or missing model-JSON field as ValidationError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"model field {name!r} is missing or malformed: "
            f"{type(exc).__name__}: {exc}") from exc


@dataclass(frozen=True)
class ModelPair:
    """Two models of the same generic fiber joined on a common resolution.

    joint_form lives on the union of the class lists; model_map / ref_map
    translate constituent class names into joint names.  Pure-model
    monomials must agree with the constituents' own forms.
    """

    model: IntersectionModel
    ref: IntersectionModel
    joint_form: SymmetricForm
    model_map: Mapping[str, str] = None
    ref_map: Mapping[str, str] = None

    def __post_init__(self):
        if not self.model.same_generic_fiber(self.ref):
            raise GenericFiberMismatch(
                "pair constituents must share the generic fiber data")
        if self.model_map is None:
            object.__setattr__(self, "model_map",
                               {c.name: c.name for c in self.model.classes})
        if self.ref_map is None:
            object.__setattr__(self, "ref_map",
                               {c.name: c.name for c in self.ref.classes})
        for m, mp in ((self.model, self.model_map), (self.ref, self.ref_map)):
            for key, val in m.form.entries.items():
                jkey = form_key(mp[nm] for nm in key)
                if jkey not in self.joint_form.entries:
                    raise IncompleteJointForm(
                        f"joint form misses embedded monomial {jkey}")
                if not _embeds_ok(self.joint_form.entries[jkey], val):
                    raise ValidationError(
                        f"joint form disagrees with constituent on {jkey}")

    def mL(self) -> FormalSum:
        return FormalSum(self.model_map[self.model.L_class])

    def mK(self) -> FormalSum:
        return FormalSum(self.model_map[self.model.K_class])

    def rL(self) -> FormalSum:
        return FormalSum(self.ref_map[self.ref.L_class])

    def rK(self) -> FormalSum:
        return FormalSum(self.ref_map[self.ref.K_class])


def _embeds_ok(a: HeightValue, b: HeightValue, tol: float = 1e-9) -> bool:
    d = a - b
    return d.const_part == 0 and not d.log_terms and abs(d.real_part) <= tol
