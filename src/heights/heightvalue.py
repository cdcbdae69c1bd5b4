"""Exact log-linear numbers q0 + sum_p q_p*log(p) + r.

The exact parts (q0 and the log coefficients) are Fractions; r is an
ordinary float remainder for archimedean contributions.  real_exact
marks values whose remainder is exactly zero, so that purely
non-archimedean identities can be tested with exact equality.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

from ._frozen import FrozenValue
from .errors import NonPrimeLabel

RationalLike = int | str | Fraction


# Python's default limit on the digits of an int <-> str conversion
# (sys.int_info.default_max_str_digits); str() of a longer Fraction fails
RATIONAL_DIGITS = 4300


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def json_rational(x) -> Fraction:
    """A rational read from JSON: an integer, a finite float or a string
    Fraction accepts ("-3/4", "1.5e-3").  A string whose numerator or
    denominator would have more than RATIONAL_DIGITS digits raises
    ValueError before Fraction expands its exponent."""
    if isinstance(x, bool):
        raise TypeError(f"expected a rational, got {x!r}")
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"expected a finite rational, got {x!r}")
    # with no exponent, neither part has more digits than x has characters
    if isinstance(x, str) and ("e" in x or "E" in x
                               or len(x) >= RATIONAL_DIGITS):
        mantissa, _, exp = x.strip().lower().partition("e")
        digits = sum(c.isdigit() for c in mantissa)
        # value = (mantissa digits) * 10^shift
        shift = (int(exp) if exp else 0) - sum(
            c.isdigit() for c in mantissa.partition(".")[2])
        if digits + max(shift, 0) > RATIONAL_DIGITS \
                or -shift >= RATIONAL_DIGITS:
            raise ValueError(f"rational {x[:40]!r} has more than "
                             f"{RATIONAL_DIGITS} digits")
    return Fraction(x)


# Miller-Rabin on these bases is exact below _MR_BOUND (Sorenson-Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(k: int) -> bool:
    """Deterministic Miller-Rabin; labels >= _MR_BOUND raise NonPrimeLabel."""
    if k < 2:
        return False
    if k >= _MR_BOUND:
        raise NonPrimeLabel(f"log label {k} is at or above {_MR_BOUND}, "
                            "where the primality test is not exact")
    for p in _MR_BASES:         # trial division decides every k < 41^2
        if k % p == 0:
            return k == p
        if p * p > k:
            return True
    s = ((k - 1) & (1 - k)).bit_length() - 1     # k - 1 = d * 2^s, d odd
    d = (k - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, k)
        if x == 1 or x == k - 1:
            continue
        for _ in range(s - 1):
            x = x * x % k
            if x == k - 1:
                break
        else:
            return False
    return True


_NO_LOGS = MappingProxyType({})


class HeightValue(FrozenValue):
    """Immutable exact height value in canonical form: log labels sorted,
    no zero coefficients, and real_exact false once real_part != 0."""

    _fields = ("const_part", "log_terms", "real_part", "real_exact")

    def __init__(self, const_part: RationalLike = Fraction(0),
                 log_terms: Mapping[int, RationalLike] = _NO_LOGS,
                 real_part: float = 0.0, real_exact: bool = True):
        const = _frac(const_part)
        terms = {}
        for p, c in log_terms.items():
            p = int(p)
            if not is_prime(p):
                raise NonPrimeLabel(f"log label {p} is not prime")
            c = _frac(c)
            if c != 0:
                terms[p] = terms.get(p, Fraction(0)) + c
        self._store(const, terms, real_part, real_exact)

    @classmethod
    def _from_parts(cls, const: Fraction, terms: dict, real: float,
                    real_exact: bool) -> "HeightValue":
        """Internal arithmetic: labels already checked, coefficients
        already Fractions, so no is_prime; the form is still canonical."""
        self = object.__new__(cls)
        self._store(const, terms, real, real_exact)
        return self

    def _store(self, const, terms, real, real_exact):
        real = float(real)
        self.__dict__.update(
            const_part=const,
            log_terms={p: c for p, c in sorted(terms.items()) if c != 0},
            real_part=real,
            real_exact=real_exact if real == 0.0 else False)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "HeightValue") -> "HeightValue":
        other = as_height(other)
        logs = dict(self.log_terms)
        for p, c in other.log_terms.items():
            logs[p] = logs.get(p, Fraction(0)) + c
        return HeightValue._from_parts(
            self.const_part + other.const_part,
            logs,
            self.real_part + other.real_part,
            self.real_exact and other.real_exact,
        )

    def __radd__(self, other):
        if other == 0:
            return self
        return as_height(other) + self

    def __neg__(self) -> "HeightValue":
        return HeightValue._from_parts(
            -self.const_part,
            {p: -c for p, c in self.log_terms.items()},
            -self.real_part,
            self.real_exact,
        )

    def __sub__(self, other: "HeightValue") -> "HeightValue":
        return self + (-as_height(other))

    def scale(self, q: RationalLike) -> "HeightValue":
        q = _frac(q)
        return HeightValue._from_parts(
            q * self.const_part,
            {p: q * c for p, c in self.log_terms.items()},
            float(q) * self.real_part,
            self.real_exact,
        )

    def __mul__(self, q):
        return self.scale(q)

    __rmul__ = __mul__

    def shift_real(self, r: float) -> "HeightValue":
        return HeightValue._from_parts(
            self.const_part, self.log_terms, self.real_part + r,
            self.real_exact and r == 0.0)

    # -- queries ------------------------------------------------------

    def evaluate(self) -> float:
        total = float(self.const_part)
        for p, c in self.log_terms.items():
            total += float(c) * math.log(p)
        return total + self.real_part

    def is_zero(self, real_tol: float = 1e-12) -> bool:
        return (self.const_part == 0 and not self.log_terms
                and abs(self.real_part) <= real_tol)

    def exact_eq(self, other: "HeightValue") -> bool:
        """Exact equality of the exact parts; requires both remainders exact."""
        other = as_height(other)
        return (self.real_exact and other.real_exact
                and self.const_part == other.const_part
                and self.log_terms == other.log_terms)

    def close_to(self, other: "HeightValue", real_tol: float = 1e-12) -> bool:
        other = as_height(other)
        return (self.const_part == other.const_part
                and self.log_terms == other.log_terms
                and abs(self.real_part - other.real_part) <= real_tol)

    def __str__(self) -> str:
        parts = []
        if self.const_part != 0 or (not self.log_terms and self.real_part == 0):
            parts.append(str(self.const_part))
        for p, c in self.log_terms.items():
            parts.append(f"{c}*log {p}")
        if self.real_part != 0.0:
            parts.append(repr(self.real_part))
        return " + ".join(parts)

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        return {
            "const": str(self.const_part),
            "logs": {str(p): str(c) for p, c in self.log_terms.items()},
            "real": self.real_part,
            "real_exact": self.real_exact,
        }

    @staticmethod
    def from_json(obj: dict) -> "HeightValue":
        real = float(obj.get("real", 0.0))
        if not math.isfinite(real):
            raise ValueError(f"real part must be finite, got {real!r}")
        real_exact = obj.get("real_exact", obj.get("real", 0.0) == 0.0)
        if not isinstance(real_exact, bool):
            raise TypeError(f"real_exact must be true or false, "
                            f"got {real_exact!r}")
        return HeightValue(
            json_rational(obj.get("const", 0)),
            {int(k): json_rational(v) for k, v in obj.get("logs", {}).items()},
            real, real_exact)


ZERO = HeightValue()


def as_height(x) -> HeightValue:
    if isinstance(x, HeightValue):
        return x
    if isinstance(x, (int, Fraction)):
        return HeightValue(const_part=Fraction(x))
    if isinstance(x, float):
        return HeightValue(real_part=x)
    raise TypeError(f"cannot interpret {x!r} as HeightValue")
