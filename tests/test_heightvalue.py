"""Property tests for the exact log-linear number type."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heights.errors import NonPrimeLabel
from heights.heightvalue import HeightValue, ZERO, as_height, is_prime

PRIMES = [2, 3, 5, 7, 11, 13]

fracs = st.fractions(min_value=-100, max_value=100, max_denominator=64)
log_dicts = st.dictionaries(st.sampled_from(PRIMES), fracs, max_size=4)
reals = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def heights_st(draw):
    return HeightValue(draw(fracs), draw(log_dicts), draw(reals))


@given(heights_st(), heights_st())
def test_add_commutes(a, b):
    s1, s2 = a + b, b + a
    assert s1.const_part == s2.const_part
    assert s1.log_terms == s2.log_terms
    assert s1.real_part == pytest.approx(s2.real_part, abs=1e-12)


@given(heights_st(), heights_st(), heights_st())
@settings(max_examples=50)
def test_add_associates_exactly(a, b, c):
    s1, s2 = (a + b) + c, a + (b + c)
    assert s1.const_part == s2.const_part
    assert s1.log_terms == s2.log_terms


@given(heights_st(), fracs, fracs)
@settings(max_examples=50)
def test_scale_distributes(a, p, q):
    lhs = a.scale(p + q)
    rhs = a.scale(p) + a.scale(q)
    assert lhs.const_part == rhs.const_part
    assert lhs.log_terms == rhs.log_terms


@given(heights_st())
def test_sub_self_is_zero(a):
    d = a - a
    assert d.const_part == 0 and not d.log_terms
    assert d.real_part == 0.0


# remainders that include both signed zeros, and values whose zero
# remainder is marked inexact (a cancelled archimedean term)
signed_reals = st.one_of(reals, st.sampled_from([0.0, -0.0]))


@st.composite
def flagged_heights_st(draw):
    return HeightValue(draw(fracs), draw(log_dicts), draw(signed_reals),
                       draw(st.booleans()))


@given(st.lists(st.tuples(st.one_of(st.just(Fraction(0)), fracs),
                          flagged_heights_st()), max_size=6))
def test_combine_is_the_in_order_sum(terms):
    got = HeightValue._combine(terms)
    const, logs, real = Fraction(0), {}, 0.0
    for c, v in terms:
        if c != 0:
            const += c * v.const_part
            for p, lc in v.log_terms.items():
                logs[p] = logs.get(p, 0) + c * lc
            real += float(c) * v.real_part
    assert got.const_part == const
    assert got.log_terms == {p: c for p, c in sorted(logs.items()) if c}
    assert got.real_part == real
    assert math.copysign(1.0, got.real_part) == math.copysign(1.0, real)
    # a term with c = 0 still counts for real_exact
    assert got.real_exact == (real == 0.0
                              and all(v.real_exact for _, v in terms))


@given(flagged_heights_st(), flagged_heights_st())
def test_add_sub_and_neg_keep_their_written_out_results(a, b):
    # field by field: exact parts with ==, the remainder as the bare
    # float operation
    labels = {*a.log_terms, *b.log_terms}
    for got, const, logs, real in (
            (a + b, a.const_part + b.const_part,
             {p: a.log_terms.get(p, 0) + b.log_terms.get(p, 0)
              for p in labels}, a.real_part + b.real_part),
            (a - b, a.const_part - b.const_part,
             {p: a.log_terms.get(p, 0) - b.log_terms.get(p, 0)
              for p in labels}, a.real_part + -b.real_part)):
        assert got.const_part == const
        assert got.log_terms == {p: c for p, c in sorted(logs.items()) if c}
        assert got.real_part == real
        # the kernel's float sum starts at +0.0, so a zero result may
        # lose its sign only where the left remainder is -0.0
        if math.copysign(1.0, a.real_part) > 0 or a.real_part != 0.0:
            assert math.copysign(1.0, got.real_part) == \
                math.copysign(1.0, real)
        assert got.real_exact == (a.real_exact and b.real_exact
                                  and real == 0.0)
    neg = -a
    assert neg.const_part == -a.const_part
    assert neg.log_terms == {p: -c for p, c in a.log_terms.items()}
    assert math.copysign(1.0, neg.real_part) == \
        -math.copysign(1.0, a.real_part)
    assert neg.real_exact == a.real_exact


@given(heights_st())
def test_evaluate_is_linear(a):
    want = float(a.const_part) + sum(
        float(c) * math.log(p) for p, c in a.log_terms.items()) + a.real_part
    assert a.evaluate() == pytest.approx(want, rel=1e-14, abs=1e-12)


@given(heights_st())
def test_json_roundtrip_exact(a):
    b = HeightValue.from_json(a.to_json())
    assert b.const_part == a.const_part
    assert b.log_terms == a.log_terms
    assert b.real_part == a.real_part
    assert b.real_exact == a.real_exact


def test_canonical_drops_zero_coefficients():
    v = HeightValue(1, {2: Fraction(0), 3: Fraction(1, 2)})
    assert list(v.log_terms) == [3]
    w = v + HeightValue(0, {3: Fraction(-1, 2)})
    assert not w.log_terms


def test_composite_label_rejected():
    with pytest.raises(NonPrimeLabel):
        HeightValue(0, {6: Fraction(1)})
    with pytest.raises(NonPrimeLabel):
        HeightValue.from_json({"const": "0", "logs": {"9": "1"}})


@pytest.mark.parametrize("logs", [{"2": "1", "02": "1"},
                                  {"3": "1", " 3": "-1"}, {"5": "1", "+5": "2"}])
def test_from_json_takes_each_log_label_once(logs):
    # labels are read as integers, so "2" and "02" are one label
    with pytest.raises(ValueError, match="is given twice"):
        HeightValue.from_json({"const": "0", "logs": logs})


@pytest.mark.parametrize("real", [math.nan, math.inf, -math.inf])
def test_from_json_rejects_non_finite_real(real):
    with pytest.raises(ValueError, match="finite"):
        HeightValue.from_json({"const": "0", "real": real})


@pytest.mark.parametrize("flag", ["no", 0, 1, None])
def test_from_json_rejects_non_boolean_real_exact(flag):
    with pytest.raises(TypeError, match="real_exact"):
        HeightValue.from_json({"const": "0", "real": 0.0,
                               "real_exact": flag})


def test_real_exact_flag():
    assert HeightValue(Fraction(1, 3)).real_exact
    assert not HeightValue(0, {}, 0.5).real_exact
    assert HeightValue(1).shift_real(0.1).real_exact is False


def test_exact_eq_and_close_to():
    a = HeightValue(1, {2: Fraction(3)})
    b = HeightValue(1, {2: Fraction(3)})
    assert a.exact_eq(b)
    c = a.shift_real(1e-13)
    assert not c.exact_eq(a)
    assert c.close_to(a, 1e-12)


def test_str_has_symbolic_logs():
    s = str(HeightValue(Fraction(-1), {2: Fraction(5)}))
    assert "log 2" in s and "-1" in s


def test_is_prime_small():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    n = 10 ** 5
    sieve = [False, False] + [True] * (n - 2)
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, n, p))
    assert [k for k in range(n) if is_prime(k)] == \
        [k for k in range(n) if sieve[k]]
    # strong pseudoprimes to the first bases, and a Carmichael number
    for k in (2047, 1373653, 3215031751, 3825123056546413051, 561):
        assert not is_prime(k)
    assert is_prime(10 ** 9 + 7) and is_prime(2 ** 61 - 1)


def test_huge_label_fails_fast():
    start = time.perf_counter()
    with pytest.raises(NonPrimeLabel, match="3317044064679887385961981"):
        HeightValue(log_terms={10 ** 29 + 7: 1})
    assert time.perf_counter() - start < 1.0


def test_as_height_coercions():
    assert as_height(3).const_part == 3
    assert as_height(0.5).real_part == 0.5
    assert as_height(ZERO) is ZERO
