"""CLI plumbing: subcommands, emit formats, exit codes."""

import contextlib
import csv
import io
import json
import math
import re
import time
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from brute_force import primes_to
from heights import families, quantize, scans
from heights.cli import main
from heights.families import build_p1_fs


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_hk_table(capsys):
    code, out, _ = run(["compute", "--family", "p1-fs",
                        "--functional", "hk"], capsys)
    assert code == 0
    assert "hk" in out and "0.8378770664" in out


def test_compute_relative_json(capsys):
    code, out, _ = run(["compute", "--family", "p2-blowup",
                        "--primes", "2,3", "--functional", "hk",
                        "--relative-to", "base", "--emit", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["symbolic"] == "-32*log 2 + -32*log 3"
    assert rows[0]["value"] == pytest.approx(-32 * (0.6931471805599453
                                                    + 1.0986122886681098))


def test_compute_unknown_family_exits_2(capsys):
    code, _, err = run(["compute", "--family", "nope"], capsys)
    assert code == 2 and "validation error" in err


def test_compute_bad_model_composite_prime(tmp_path, capsys):
    m = build_p1_fs()
    obj = m.to_json()
    obj["form"]["K,L"] = {"const": "0", "logs": {"6": "1"},
                          "real": 0.0, "real_exact": True}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, _, err = run(["compute", "--model", str(bad)], capsys)
    assert code == 2 and "NonPrimeLabel" in err


def _malform_deg_ln(obj):
    obj["deg_Ln"] = "abc"


def _drop_k_class(obj):
    del obj["K_class"]


def _bad_log_label(obj):
    obj["form"]["K,L"] = {"const": "0", "logs": {"x": "1"},
                          "real": 0.0, "real_exact": True}


def _string_degree(obj):
    obj["degree_KQ"] = "1"


def _zero_denominator_const(obj):
    obj["form"]["K,L"]["const"] = "1/0"


def _zero_denominator_deg_ln(obj):
    obj["deg_Ln"] = "1/0"


def _nan_real(obj):
    obj["form"]["K,L"]["real"] = float("nan")


def _inf_real(obj):
    obj["form"]["K,L"]["real"] = float("inf")


def _string_real_exact(obj):
    obj["form"]["K,L"]["real_exact"] = "no"


def _boolean_n(obj):
    obj["n"] = True


def _boolean_degree(obj):
    obj["degree_KQ"] = True


def _huge_exponent_const(obj):
    obj["form"]["K,L"]["const"] = "1e9999999"


def _long_const(obj):
    obj["form"]["K,L"]["const"] = "1e999999"


def _long_decimal_const(obj):
    obj["form"]["K,L"]["const"] = "0." + "0" * 4299 + "1"


def _long_denominator_log(obj):
    obj["form"]["K,L"]["logs"] = {"2": "1e-9999999"}


def _long_deg_ln(obj):
    obj["deg_Ln"] = "1e999999"


def _long_deg_lk(obj):
    obj["deg_LK"] = "-1e5000"


def _long_generic_degree(obj):
    obj["generic_degrees"] = {"K": "1e999999"}


def _long_fiber_degree(obj):
    obj["fibers"][0]["deg_L"] = "1e999999"


def _huge_integer_real(obj):
    obj["form"]["K,L"]["real"] = 10 ** 400


def _boolean_deg_lk(obj):
    obj["deg_LK"] = True


def _infinite_deg_ln(obj):
    obj["deg_Ln"] = float("inf")


def _fractional_fiber_multiplicity(obj):
    obj["fibers"][0]["fiber_multiplicity"] = 1.5


def _float_fiber_prime(obj):
    obj["fibers"][0]["prime"] = 3.0


def _boolean_fiber_multiplicity(obj):
    obj["fibers"][0]["fiber_multiplicity"] = True


def _list_family(obj):
    obj["family"] = ["p1-fs"]


def _object_family(obj):
    obj["family"] = {"id": "p1-fs"}


def _list_class_name(obj):
    obj["classes"][0]["name"] = ["L"]


def _list_component_id(obj):
    obj["fibers"][0]["component_id"] = ["fiber"]


def _number_l_class(obj):
    obj["L_class"] = 5


def _list_k_class(obj):
    obj["K_class"] = ["K"]


@pytest.mark.parametrize("malform, field", [
    (_malform_deg_ln, "deg_Ln"),
    (_drop_k_class, "K_class"),
    (_bad_log_label, "form[K,L]"),
    (_string_degree, "degree_KQ"),
    (_zero_denominator_const, "form[K,L]"),
    (_zero_denominator_deg_ln, "deg_Ln"),
    (_nan_real, "form[K,L]"),
    (_inf_real, "form[K,L]"),
    (_string_real_exact, "form[K,L]"),
    (_boolean_n, "n"),
    (_boolean_degree, "degree_KQ"),
    (_huge_exponent_const, "form[K,L]"),
    (_long_const, "form[K,L]"),
    (_long_decimal_const, "form[K,L]"),
    (_long_denominator_log, "form[K,L]"),
    (_long_deg_ln, "deg_Ln"),
    (_long_deg_lk, "deg_LK"),
    (_long_generic_degree, "generic_degrees"),
    (_long_fiber_degree, "fibers"),
    (_huge_integer_real, "form[K,L]"),
    (_boolean_deg_lk, "deg_LK"),
    (_infinite_deg_ln, "deg_Ln"),
    (_fractional_fiber_multiplicity, "fibers"),
    (_float_fiber_prime, "fibers"),
    (_boolean_fiber_multiplicity, "fibers"),
    (_list_family, "family"),
    (_object_family, "family"),
    (_list_class_name, "classes"),
    (_list_component_id, "fibers"),
    (_number_l_class, "L_class"),
    (_list_k_class, "K_class"),
])
def test_malformed_model_field_exits_2(tmp_path, capsys, malform, field):
    obj = build_p1_fs().to_json()
    malform(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    for argv in (["validate", "--model", str(bad)],
                 ["compute", "--model", str(bad)]):
        start = time.perf_counter()
        code, _, err = run(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and "ValidationError" in err
        assert f"model field {field!r}" in err and "Traceback" not in err


def _duplicate_class(obj):
    obj["classes"].append({"name": "L", "kind": "auxiliary"})


def _zero_n(obj):
    # keys of size n + 1 = 1, so that the form itself is well formed
    obj["n"] = 0
    obj["form"] = {"L": obj["form"]["L,L"], "K": obj["form"]["K,K"]}


def _zero_degree(obj):
    obj["degree_KQ"] = 0


def _zero_deg_ln(obj):
    obj["deg_Ln"] = "0"


def _negative_deg_ln(obj):
    obj["deg_Ln"] = "-1/2"


def _zero_fiber_multiplicity(obj):
    obj["fibers"][0]["fiber_multiplicity"] = 0


def _long_form_key(obj):
    obj["form"]["L,L,L"] = obj["form"]["L,L"]


def _monomial_named_twice_last(obj):
    # "L,K" and "K,L" name one monomial: were the later key to win, h_K
    # would be 11 with this key last and 0.838 with it first
    obj["form"]["L,K"] = {"const": "5"}


def _monomial_named_twice_first(obj):
    obj["form"] = {"L,K": {"const": "5"}, **obj["form"]}


def _log_label_named_twice(obj):
    # "2" and "02" are one label (1*log 2, were the later one to win)
    obj["form"]["L,L"]["logs"] = {"2": "1", "02": "1"}


def _repeated_json_key(obj):
    # json itself keeps the last of two equal keys, here n = 1
    return json.dumps(obj).replace('"n": 1', '"n": 2, "n": 1', 1)


@pytest.mark.parametrize("malform, message", [
    (_monomial_named_twice_last, "form names the monomial K,L twice"),
    (_monomial_named_twice_first, "form names the monomial K,L twice"),
    (_log_label_named_twice, "log label 2 is given twice"),
    (_repeated_json_key, "not readable JSON: key 'n' is repeated"),
    (_duplicate_class, "class names must be unique"),
    (_zero_n, "n and degree_KQ must be positive"),
    (_zero_degree, "n and degree_KQ must be positive"),
    (_zero_deg_ln, "deg_Ln must be > 0"),
    (_negative_deg_ln, "deg_Ln must be > 0"),
    (_zero_fiber_multiplicity, "fiber_multiplicity must be >= 1"),
    (_long_form_key, "has size 3, expected 2"),
])
def test_model_breaking_an_invariant_exits_2(tmp_path, capsys, malform,
                                             message):
    # well-formed fields whose values the model refuses
    obj = build_p1_fs().to_json()
    text = malform(obj)     # the file's text, where it is not the object's
    bad = tmp_path / "bad.json"
    bad.write_text(text or json.dumps(obj))
    code, out, err = run(["validate", "--model", str(bad)], capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("validation error: ValidationError: ")
    assert message in err


def test_long_integer_literal_in_model_exits_2(tmp_path, capsys):
    # json.load itself refuses an integer of more than 4300 digits
    text = json.dumps(build_p1_fs().to_json())
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"degree_KQ": 1', '"degree_KQ": 1'
                                + "0" * 5000))
    code, out, err = run(["validate", "--model", str(bad)], capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    assert "ValidationError" in err and "not readable JSON" in err


def model_with(tmp_path, field, value):
    """The P^1 model file with deg_Ln or the (L.L) constant set to value."""
    obj = build_p1_fs().to_json()
    if field == "deg_Ln":
        obj["deg_Ln"] = value
    else:
        obj["form"]["L,L"]["const"] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("field, value", [
    ("deg_Ln", "1/1" + "0" * 400),      # float() rounds it to 0.0
    ("deg_Ln", "1" + "0" * 400),        # float() overflows
    ("form[L,L]", "1" + "0" * 400),
], ids=["tiny_deg_Ln", "huge_deg_Ln", "huge_const"])
@pytest.mark.parametrize("argv", [["validate"], ["compute"],
                                  ["scan", "--m-max", "5"],
                                  ["balanced", "--m", "1"]],
                         ids=lambda argv: argv[0])
def test_rational_outside_float_range_exits_2(tmp_path, capsys, field,
                                              value, argv):
    code, out, err = run(argv + ["--model", model_with(tmp_path, field,
                                                      value)], capsys)
    assert code in (2, 3) and out == "" and "Traceback" not in err
    assert f"model field {field!r}" in err and "float range" in err


NON_FINITE_MODELS = {"big": ("form[L,L]", "1.7e308"),
                     "tiny": ("deg_Ln", "1e-320")}


# each value loads, but a height derived from it leaves the float range:
# h_K doubles the big constant, and the Chow height multiplies it by m^2
# or divides by the tiny degree
@pytest.mark.parametrize("case, argv", [
    ("big", ["compute"]),
    ("big", ["scan", "--m-max", "5"]),
    ("tiny", ["scan", "--m-max", "5", "--emit", "json"]),
    ("big", ["scan", "--m-max", "5", "--kind", "hilbert-samuel"]),
    ("big", ["balanced", "--m", "2"]),
    ("tiny", ["balanced", "--m", "2"]),
], ids=["compute-big", "scan-big", "scan-tiny", "hs-big", "balanced-big",
        "balanced-tiny"])
def test_non_finite_derived_value_exits_3(tmp_path, capsys, case, argv):
    path = model_with(tmp_path, *NON_FINITE_MODELS[case])
    code, out, err = run(argv + ["--model", path], capsys)
    assert code == 3 and out == "" and "Traceback" not in err
    assert err.startswith("numeric failure:") and "float range" in err


@pytest.mark.parametrize("argv", [
    ["compute"], ["scan", "--m-max", "5", "--kind", "hilbert-samuel"]],
    ids=["compute", "hs"])
def test_tiny_degree_with_finite_output_exits_0(tmp_path, capsys, argv):
    path = model_with(tmp_path, *NON_FINITE_MODELS["tiny"])
    code, out, _ = run(argv + ["--model", path, "--emit", "json"], capsys)
    assert code == 0
    assert all(math.isfinite(v) for row in json.loads(out)
               for v in row.values() if isinstance(v, float))


@pytest.mark.parametrize("arch_term", ["nan", "inf"])
def test_non_finite_arch_term_exits_2(capsys, arch_term):
    code, out, err = run(["compute", "--family", "p1-fs", "--functional",
                          "calabi", "--arch-term", arch_term], capsys)
    assert code == 2 and "finite" in err and out == ""


def test_compute_bad_primes_token_exits_2(capsys):
    code, _, err = run(["compute", "--family", "p2-blowup",
                        "--primes", "2,x"], capsys)
    assert code == 2 and "ValidationError" in err and "'x'" in err


@pytest.mark.parametrize("primes", ["", ","], ids=["empty", "comma"])
def test_compute_empty_primes_exits_2(capsys, primes):
    # calabi on p1-fs reads --primes too, not only the blow-up family
    for argv in (["--family", "p2-blowup"],
                 ["--family", "p1-fs", "--functional", "calabi"]):
        code, out, err = run(["compute", *argv, "--primes", primes], capsys)
        assert code == 2 and out == "" and "Traceback" not in err
        assert "ValidationError: --primes: no prime given" in err


def test_compute_primes_over_the_limit_exits_2(capsys):
    primes = primes_to(1000)[:families.MAX_BLOWUP_PRIMES + 1]
    start = time.perf_counter()
    code, out, err = run(["compute", "--family", "p2-blowup", "--primes",
                          ",".join(map(str, primes))], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "Traceback" not in err
    assert f"is over the limit of {families.MAX_BLOWUP_PRIMES}" in err


def test_compute_pair_functionals(capsys):
    code, out, _ = run(["compute", "--family", "p2-blowup",
                        "--functional", "I,J", "--emit", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["functional"] == "I" and "16*log" in rows[0]["symbolic"]


def test_compute_pair_functional_needs_pair(capsys):
    code, _, err = run(["compute", "--family", "p1-fs",
                        "--functional", "I"], capsys)
    assert code == 2


def test_compute_snA(capsys):
    code, out, _ = run(["compute", "--family", "p2-blowup",
                        "--functional", "snA", "--prime", "3",
                        "--emit", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["symbolic"] == "5/4"


def test_compute_relative_to_names_the_reference(capsys):
    # the reference of a family pair is its only choice
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--family", "p2-blowup", "--functional", "hk",
              "--relative-to", "nonsense"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--relative-to" in out.err


def test_compute_relative_to_needs_a_pair(capsys):
    code, out, err = run(["compute", "--family", "p1-fs", "--relative-to",
                          "base"], capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    assert "--relative-to needs a family with a reference model" in err


def test_compute_ndf(capsys):
    # on P^1 ([K:Q] = 1) the normalized degree over cover degree 1 is h_K
    rows = {}
    for fn, degree in (("hk", "1"), ("ndf", "1"), ("ndf", "2")):
        code, out, _ = run(["compute", "--family", "p1-fs", "--functional",
                            fn, "--cover-degree", degree, "--emit", "json"],
                           capsys)
        assert code == 0
        rows[fn, degree] = json.loads(out)[0]
    assert rows["ndf", "1"] == {**rows["hk", "1"], "functional": "ndf"}
    assert rows["ndf", "2"]["value"] == rows["hk", "1"]["value"] / 2
    code, out, err = run(["compute", "--family", "p1-fs", "--functional",
                          "ndf", "--cover-degree", "0"], capsys)
    assert code == 2 and out == "" and "ZeroCoverDegree" in err


def test_compute_energy(capsys):
    # (L.L) = 1/2 on P^1; (L^3) = -20 log(2 3 5) on the blow-up, twist 2
    code, out, _ = run(["compute", "--family", "p1-fs",
                        "--functional", "energy", "--emit", "json"], capsys)
    assert code == 0 and json.loads(out) == [
        {"functional": "energy", "symbolic": "1/2", "value": 0.5}]
    code, out, _ = run(["compute", "--family", "p2-blowup",
                        "--functional", "energy", "--emit", "json"], capsys)
    assert code == 0
    assert json.loads(out)[0]["symbolic"] == \
        "-20*log 2 + -20*log 3 + -20*log 5"


def test_compute_calabi_adds_the_arch_term(capsys):
    argv = ["compute", "--family", "p2-blowup", "--primes", "3",
            "--functional", "calabi", "--emit", "json", "--arch-term"]
    code, out, _ = run(argv + ["0.5"], capsys)
    assert code == 0 and json.loads(out)[0]["value"] == 0.890625
    code, out, err = run(argv + ["-0.5"], capsys)
    assert code == 2 and out == "" and "NegativeArchTerm" in err


def test_compute_slope(tmp_path, capsys):
    # P^1 with its real parts zeroed: -(n+1)(L.K)/(L.L) = 4 > Sbar = 2
    obj = build_p1_fs().to_json()
    for v in obj["form"].values():
        v.update(real=0.0, real_exact=True)
    path = tmp_path / "p1_rational.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(["compute", "--model", str(path),
                        "--functional", "slope", "--emit", "json"], capsys)
    assert code == 0 and json.loads(out) == [
        {"functional": "slope", "symbolic": "violated", "value": ""}]
    code, out, err = run(["compute", "--family", "p1-fs",
                          "--functional", "slope"], capsys)
    assert code == 2 and out == "" and "geometric base" in err


@pytest.mark.parametrize("argv, message", [
    (["compute", "--family", "p2-blowup", "--functional", "snA"],
     "snA needs --prime"),
    (["compute", "--family", "p1-fs", "--functional", "hk,bogus"],
     "unknown functional 'bogus'"),
    (["faltings", "--a-invariants", "0,0,1,-1,0"],
     "--a-invariants needs --delta-min"),
    (["faltings"], "pass --curve or --a-invariants"),
], ids=["snA-without-prime", "unknown-functional", "no-delta-min",
        "no-curve"])
def test_missing_or_unknown_input_exits_2(capsys, argv, message):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    assert f"ValidationError: {message}" in err


def test_scan_writes_rfc4180_csv(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, out, _ = run(["scan", "--family", "p1-fs", "--m-max", "12",
                        "--out", str(out_path), "--emit", "json"], capsys)
    assert code == 0
    raw = out_path.read_bytes().decode()
    assert "\r\n" in raw
    rows = list(csv.DictReader(io.StringIO(raw)))
    assert len(rows) == 12 and rows[0]["m"] == "1"
    fit = json.loads((tmp_path / "scan.csv.fit.json").read_text())
    assert "fitted_log_slope" in fit


def test_scan_mmax_zero_exits_2(capsys):
    code, _, err = run(["scan", "--family", "p1-fs", "--m-max", "0"], capsys)
    assert code == 2


@pytest.mark.parametrize("m_max", [1, 2, 3, 4])
def test_scan_refuses_an_underdetermined_tail_fit(capsys, m_max):
    # the tail m_max//2..m_max has fewer rows than the fit's four columns
    code, out, err = run(["scan", "--family", "p1-fs", "--m-max",
                          str(m_max)], capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    assert "m_max must be >= 5 for the 4-parameter tail fit" in err
    code, out, _ = run(["scan", "--family", "p1-fs", "--m-max", str(m_max),
                        "--kind", "hilbert-samuel", "--emit", "json"], capsys)
    assert code == 0 and len(json.loads(out)) == 1
    code, out, _ = run(["scan", "--family", "p1-fs", "--m-max", "5",
                        "--emit", "json"], capsys)
    assert code == 0 and math.isfinite(json.loads(out)[0]["fitted_constant"])


def test_scan_and_balanced_reject_primes(capsys):
    # neither subcommand takes a family that uses primes
    for argv in (["scan", "--family", "p1-fs", "--m-max", "5"],
                 ["balanced", "--family", "p1-fs", "--m", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--primes", "2"])
        assert exc.value.code == 2
        assert "--primes" in capsys.readouterr().err


def test_scan_hilbert_samuel(tmp_path, capsys):
    out_path = tmp_path / "hs.csv"
    code, out, _ = run(["scan", "--family", "p1-fs", "--m-max", "60",
                        "--kind", "hilbert-samuel", "--out", str(out_path),
                        "--emit", "json"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_path.read_text())))
    assert len(rows) == 60
    # residual/m shrinks on the tail (the crossover region at tiny m
    # is not monotone)
    assert abs(float(rows[-1]["residual_over_m"])) < \
        abs(float(rows[29]["residual_over_m"]))


def test_balanced_trace(tmp_path, capsys):
    out_path = tmp_path / "bal.csv"
    code, out, _ = run(["balanced", "--family", "p1-fs", "--m", "4",
                        "--perturb", "0.05", "--tol", "1e-8", "--grid", "64",
                        "--out", str(out_path), "--emit", "csv"], capsys)
    assert code == 0
    assert out_path.read_bytes() == out.encode()
    rows = list(csv.DictReader(io.StringIO(out_path.read_text())))
    assert rows[-1]["iteration"] == "converged"
    assert rows[-1]["distance"] == "True"
    hs = [float(r["htilde_C"]) for r in rows[:-1]]
    assert all(b <= a + 1e-10 for a, b in zip(hs, hs[1:]))


def test_balanced_zero_perturb_fast(capsys):
    code, out, _ = run(["balanced", "--family", "p1-fs", "--m", "4",
                        "--perturb", "0", "--tol", "1e-8", "--grid", "64",
                        "--emit", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[-1]["htilde_C"] <= 1    # converged within one iteration


def test_balanced_bad_tol_exits_2(capsys):
    for bad in (["--tol", "-1"], ["--tol", "nan"], ["--max-iter", "0"],
                ["--max-iter", "-1"], ["--grid", "0"], ["--grid", "-4"]):
        code, _, err = run(["balanced", "--family", "p1-fs", *bad], capsys)
        assert code == 2 and "ValidationError" in err


def test_balanced_perturb_past_the_float_range_exits_2_quietly(capsys):
    # 1e308 overflows the perturbation, which the Gram check refuses; nan
    # is refused by name; neither makes numpy warn
    for perturb, msg in (("1e308", "gram must be finite"),
                         ("nan", "--perturb must be finite")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(["balanced", "--family", "p1-fs", "--m",
                                  "1", "--grid", "8", "--perturb", perturb],
                                 capsys)
        assert code == 2 and out == "" and msg in err


def test_balanced_negative_seed_exits_2(capsys):
    # refused before numpy's generator sees it
    code, out, err = run(["balanced", "--family", "p1-fs", "--m", "1",
                          "--seed", "-1"], capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    assert "ValidationError: --seed must be >= 0" in err


def test_bp_report(capsys):
    code, out, _ = run(["bp", "--weights", "8,15,7", "--prime", "11"],
                       capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["chart"] == "1/7(1,1)"
    assert rep["destabilizing"] is True


def test_bp_bad_weights_exits_2(capsys):
    code, _, err = run(["bp", "--weights", "4,6,7", "--prime", "5"], capsys)
    assert code == 2 and "CoprimalityViolated" in err


def test_bp_weights_token_exits_2(capsys):
    code, _, err = run(["bp", "--weights", "8,x,7", "--prime", "11"], capsys)
    assert code == 2 and "--weights: 'x' is not an integer" in err


def test_bp_degree_bound_zero_exits_2(capsys):
    code, out, err = run(["bp", "--weights", "8,15,7", "--prime", "11",
                          "--degree-bound", "0"], capsys)
    assert code == 2 and "ValidationError" in err and out == ""


def test_bp_over_work_limit_exits_2_quickly(capsys):
    t0 = time.perf_counter()
    code, out, err = run(["bp", "--weights", "5,7,11,13,17", "--prime", "3"],
                         capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and "over the limit" in err and out == ""


def test_faltings_singular_curve_exits_2(capsys):
    code, _, err = run(["faltings", "--a-invariants", "0,0,0,0,0",
                        "--delta-min", "0"], capsys)
    assert code == 2 and "singular" in err


def test_faltings_computes_periods_once(monkeypatch, capsys):
    calls = []
    periods = families.curve_periods

    def counted(curve, *args, **kwargs):
        calls.append(curve)
        return periods(curve, *args, **kwargs)
    monkeypatch.setattr(families, "curve_periods", counted)
    code, _, _ = run(["faltings", "--curve", "37a1", "--method", "both"],
                     capsys)
    assert code == 0 and len(calls) == 1


def test_faltings_a_invariants_token_exits_2(capsys):
    code, _, err = run(["faltings", "--a-invariants", "0,0,1,x,0",
                        "--delta-min", "37"], capsys)
    assert code == 2 and "--a-invariants: 'x' is not an integer" in err


def test_faltings_both_methods(capsys):
    code, out, _ = run(["faltings", "--curve", "37a1", "--emit", "json",
                        "--polarization", "2"], capsys)
    assert code == 0
    rows = json.loads(out)
    bym = {r["method"]: r for r in rows}
    assert bym["qexp"]["h_faltings"] == pytest.approx(
        bym["agm"]["h_faltings"], abs=1e-10)
    assert bym["qexp"]["h_K"] == pytest.approx(
        4 * (bym["qexp"]["h_faltings"] + 0.5 * 0.6931471805599453))


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_faltings_polarization_below_one_exits_2(capsys, degree):
    # 0 is refused like -1, not read as "no polarization"
    code, out, err = run(["faltings", "--curve", "37a1",
                          "--polarization", degree], capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    assert "polarization degree must be >= 1" in err


def test_faltings_nonminimal_exits_2(capsys):
    code, _, err = run(["faltings", "--a-invariants", "0,0,1,-1,0",
                        "--delta-min", "38"], capsys)
    assert code == 2 and "NonMinimalModel" in err


def test_validate_roundtrip(tmp_path, capsys):
    m = build_p1_fs()
    path = tmp_path / "model.json"
    m.save(path)
    code, out, _ = run(["validate", "--model", str(path), "--emit", "json"],
                       capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["check"] == "ok" and rows[0]["Sbar"] == "2"


def test_validate_missing_file_exits_2(capsys):
    code, _, _ = run(["validate", "--model", "/nonexistent.json"], capsys)
    assert code == 2


def test_numeric_failure_exits_3(tmp_path, capsys):
    gram = tmp_path / "g.json"
    gram.write_text(json.dumps([[1.0, 0.0], [0.0, -1.0]]))
    code, _, err = run(["balanced", "--family", "p1-fs", "--m", "1",
                        "--gram", str(gram), "--grid", "64"], capsys)
    assert code == 3 and "numeric failure" in err
    assert "NonPositiveDefinite" in err


def test_overflowing_gram_exits_3(tmp_path, capsys):
    # H^{-1} = diag(1e300, 1) overflows the FS(H) curvature to NaN
    gram = tmp_path / "g.json"
    gram.write_text(json.dumps([[1e-300, 0.0], [0.0, 1.0]]))
    code, _, err = run(["balanced", "--family", "p1-fs", "--m", "1",
                        "--gram", str(gram)], capsys)
    assert code == 3 and "NonPositiveDefinite" in err


def test_singular_gram_exits_3(capsys):
    # 64 latitudes cannot resolve m = 400: the T-operator Gram passes
    # its Cholesky but its factor cannot be inverted
    code, _, err = run(["balanced", "--family", "p1-fs", "--m", "400",
                        "--grid", "64", "--max-iter", "3"], capsys)
    assert code == 3 and "NonPositiveDefinite" in err


@pytest.mark.parametrize("entries", [
    [[1, "a"], [0, 1]], [[1, 2], [3]], {"a": 1}, [[10 ** 400, 0], [0, 1]]])
def test_malformed_gram_file_exits_2(tmp_path, capsys, entries):
    gram = tmp_path / "g.json"
    gram.write_text(json.dumps(entries))
    code, _, err = run(["balanced", "--family", "p1-fs", "--m", "1",
                        "--gram", str(gram)], capsys)
    assert code == 2 and "ValidationError" in err and "--gram" in err


def test_long_integer_literal_in_gram_exits_2(tmp_path, capsys):
    gram = tmp_path / "g.json"
    gram.write_text("[[1" + "0" * 5000 + ", 0], [0, 1]]")
    code, _, err = run(["balanced", "--family", "p1-fs", "--m", "1",
                        "--gram", str(gram)], capsys)
    assert code == 2 and "ValidationError" in err and "--gram" in err


def test_grid_over_the_limit_exits_2(capsys):
    start = time.perf_counter()
    code, out, err = run(["balanced", "--family", "p1-fs", "--m", "2",
                          "--grid", "200000"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "grid n_theta = 200000" in err


@pytest.mark.parametrize("argv, limit", [
    (["balanced", "--family", "p1-fs", "--m", "100000", "--grid", "16",
      "--max-iter", "1"], quantize.MAX_GRAM_M),
    (["balanced", "--family", "p1-fs", "--m", str(quantize.MAX_GRAM_M + 1),
      "--gram", "missing.json"], quantize.MAX_GRAM_M),
    (["scan", "--family", "p1-fs", "--m-max", "1000000000"],
     scans.MAX_SCAN_M),
    (["scan", "--family", "p1-fs", "--kind", "hilbert-samuel", "--m-max",
      str(scans.MAX_SCAN_M + 1)], scans.MAX_SCAN_M),
])
def test_m_over_the_limit_exits_2(capsys, argv, limit):
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "Traceback" not in err
    assert f"is over the limit of {limit}" in err


def test_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(["scan", "--family", "p1-fs", "--m-max", "15",
                          "--out", str(path), "--emit", "json"], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_saved_model_matches_family(tmp_path, capsys):
    path = tmp_path / "p1.json"
    build_p1_fs().save(path)
    outs = []
    for source in (["--model", str(path)], ["--family", "p1-fs"]):
        code, out, _ = run(["scan", *source, "--m-max", "200"], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_validate_unknown_family_exits_2(tmp_path, capsys):
    obj = build_p1_fs().to_json()
    obj["family"] = "p9"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(["validate", "--model", str(path)], capsys)
    assert code == 2 and "UnsupportedFamily" in err


def test_balanced_without_family_gram_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(quantize, "balanced_iterate",
                        lambda *a, **k: pytest.fail("iteration started"))
    code, _, err = run(["balanced", "--family", "p2-blowup", "--m", "3"],
                       capsys)
    assert code == 2 and "UnsupportedFamily" in err


def test_balanced_saved_model_matches_family(tmp_path, capsys):
    model = tmp_path / "p1.json"
    build_p1_fs().save(model)
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps([[0.5, 0.02], [0.02, 0.45]]))
    outs = []
    for source in (["--model", str(model)], ["--family", "p1-fs"]):
        code, out, _ = run(["balanced", *source, "--m", "1",
                            "--gram", str(gram)], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# -- the trust boundary: mutated model files and argv tokens ------------

def _exit_code(argv):
    """main's exit code with its output dropped; argparse exits 2."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def _json_paths(node, path=()):
    """Every key path into a JSON tree."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict)
                           else enumerate(node)):
            yield path + (key,)
            yield from _json_paths(child, path + (key,))


MODEL_JSON = {"p1": build_p1_fs().to_json(),
              "blowup": families.build_p2_blowup_family().model.to_json()}
MODEL_PATHS = [(name, path) for name, obj in MODEL_JSON.items()
               for path in _json_paths(obj)]
DROP = "drop the field"
# a value of every JSON type, two past the float range and an integer
# string at the int-to-text limit
ODD_JSON = [[], ["L"], {}, {"a": 1}, True, False, "x", "", None,
            10 ** 400, 1e308, -0.0, "7" * 4300]


@given(case=st.sampled_from(MODEL_PATHS),
       value=st.sampled_from([DROP, *ODD_JSON]))
@example(case=("p1", ("family",)), value=["p1-fs"])
@example(case=("p1", ("family",)), value={"a": 1})
@example(case=("p1", ("classes", 0, "name")), value=["L"])
@example(case=("p1", ("fibers", 0, "component_id")), value=["L"])
@example(case=("p1", ("degree_KQ",)), value=10 ** 400)
@example(case=("p1", ("degree_KQ",)), value=10 ** 308)
@example(case=("p1", ("deg_Ln",)), value=1e308)
@settings(max_examples=150, deadline=None)
def test_mutated_model_file_exits_0_2_or_3(tmp_path_factory, case, value):
    # each subcommand that reads a model refuses or evaluates a file with
    # one field dropped or retyped; no exception escapes main
    name, path = case
    obj = json.loads(json.dumps(MODEL_JSON[name]))
    *head, last = path
    node = obj
    for key in head:
        node = node[key]
    if value == DROP:
        del node[last]
    else:
        node[last] = value
    model = tmp_path_factory.getbasetemp() / "mutated.json"
    model.write_text(json.dumps(obj))
    for argv in (["validate"],
                 ["compute", "--functional", "hk,energy,ndf,slope,calabi"],
                 ["scan", "--m-max", "6"],
                 ["scan", "--m-max", "6", "--kind", "hilbert-samuel"],
                 ["balanced", "--m", "1", "--grid", "8", "--max-iter", "2"]):
        assert _exit_code(argv + ["--model", str(model)]) in (0, 2, 3), argv


# Gram entries at and past the float range's edges; JSON writes NaN and
# +-inf as NaN, Infinity and -Infinity, which json reads back
GRAM_ODD = [math.nan, math.inf, -math.inf, 1e-320, 1e308, -1e308, 0.0,
            -1.0]
GRAM_MS = [1, 2, 3, quantize.MAX_GRAM_M - 1, quantize.MAX_GRAM_M,
           quantize.MAX_GRAM_M + 1]


@st.composite
def gram_files(draw):
    """(m, text of a --gram file): a symmetric positive Gram of at most
    four rows, sized m + 1 or one off, with one mutation."""
    m = draw(st.sampled_from(GRAM_MS))
    size = min(m, 3) + 1 + draw(st.sampled_from([0, 0, -1, 1]))
    gram = [[1.0 if i == j else 0.02 for j in range(size)]
            for i in range(size)]
    kind = draw(st.sampled_from(["entry", "pair", "ragged", "row", "whole",
                                 "cut"]))
    i, j = (draw(st.integers(0, size - 1)) for _ in range(2))
    if kind in ("entry", "pair"):
        gram[i][j] = draw(st.sampled_from(GRAM_ODD))
        if kind == "pair":
            gram[j][i] = gram[i][j]
    elif kind == "ragged":
        del gram[i][-1]
    elif kind == "row":
        gram[i] = draw(st.sampled_from(ODD_JSON))
    elif kind == "whole":
        gram = draw(st.sampled_from(ODD_JSON))
    text = json.dumps(gram)
    if kind == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return m, text


@given(case=gram_files())
@example(case=(1, "[[1e-320, 0.0], [0.0, 1.0]]"))
@example(case=(1, "[[1e308, 0.0], [0.0, 1e308]]"))
@example(case=(quantize.MAX_GRAM_M, "[[1.0, 0.0], [0.0, 1.0]]"))
@example(case=(quantize.MAX_GRAM_M + 1, "[[1.0, 0.0], [0.0, 1.0]]"))
@example(case=(1, "[[1" + "0" * 400 + ", 0], [0, 1]]"))
@settings(max_examples=120, deadline=None)
def test_mutated_gram_file_exits_0_2_or_3(tmp_path_factory, case):
    # every file balanced --gram reads is iterated or refused, with no
    # warning and no exception escaping main
    m, text = case
    gram = tmp_path_factory.getbasetemp() / "mutated_gram.json"
    gram.write_text(text)
    argv = ["balanced", "--family", "p1-fs", "--m", str(m), "--gram",
            str(gram), "--grid", "8", "--max-iter", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _exit_code(argv) in (0, 2, 3), (argv, text)


NUMERIC_ARGVS = [
    ["compute", "--family", "p2-blowup", "--primes", "2,3", "--functional",
     "hk,energy,ndf,calabi,snA,I,J", "--prime", "3", "--cover-degree", "2",
     "--arch-term", "0.5"],
    ["scan", "--family", "p1-fs", "--m-max", "12"],
    ["scan", "--family", "p1-fs", "--kind", "hilbert-samuel", "--m-max",
     "12"],
    ["bp", "--weights", "8,15,7", "--prime", "11", "--degree-bound", "6"],
    ["faltings", "--curve", "37a1", "--polarization", "2"],
    ["faltings", "--a-invariants", "0,0,1,-1,0", "--delta-min", "37"],
    ["balanced", "--family", "p1-fs", "--m", "1", "--grid", "8",
     "--max-iter", "2", "--perturb", "0.1", "--tol", "1e-10", "--seed",
     "0"],
]
# (argv, token) of every numeric token; validate takes none
NUMERIC_TOKENS = [(i, j) for i, argv in enumerate(NUMERIC_ARGVS)
                  for j, tok in enumerate(argv)
                  if re.fullmatch(r"[-.,e\d]+", tok)]
ODD_TOKENS = ["-1", "0", "1", "-0.0", "1e308", "nan", "inf", "x", "",
              str(10 ** 400), "9" * 4300]


def _after(i, option):
    """(argv, token) of the value of option in NUMERIC_ARGVS[i]."""
    return i, NUMERIC_ARGVS[i].index(option) + 1


def _with_token(i, j, part, value):
    """NUMERIC_ARGVS[i] with comma-separated part `part` of token j
    replaced by value."""
    argv = list(NUMERIC_ARGVS[i])
    parts = argv[j].split(",")
    parts[part % len(parts)] = value
    argv[j] = ",".join(parts)
    return argv


@given(token=st.sampled_from(NUMERIC_TOKENS),
       part=st.integers(0, 4), value=st.sampled_from(ODD_TOKENS))
@example(token=_after(6, "--seed"), part=0, value="-1")
@example(token=_after(4, "--polarization"), part=0, value="0")
@example(token=_after(4, "--polarization"), part=0, value=str(10 ** 400))
@example(token=_after(3, "--degree-bound"), part=0, value="9" * 4300)
# a last exponent coprime to the others, whose generator box has more
# than 4300 digits
@example(token=_after(3, "--weights"), part=2, value=str(10 ** 2200 + 1))
@example(token=_after(5, "--a-invariants"), part=0, value="9" * 4300)
@settings(max_examples=200, deadline=None)
def test_mutated_numeric_token_exits_0_2_or_3(token, part, value):
    argv = _with_token(*token, part, value)
    assert _exit_code(argv) in (0, 2, 3), argv
