"""The lazy package namespace, the numpy-free exact core and the
package's private names."""

import ast
import collections
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heights

# every name `heights` exported when its __init__ imported each module
# eagerly, under its defining module
EAGER_EXPORTS = {
    "errors": ["HeightsError", "NumericError", "ValidationError"],
    "heightvalue": ["HeightValue", "ZERO", "as_height", "is_prime"],
    "intersection": ["DivisorClassId", "FiberComponent", "FormalSum",
                     "IntersectionModel", "ModelPair", "SymmetricForm",
                     "form_key"],
    "functionals": ["arakelov_calabi", "arakelov_energy", "aubin_I_rel",
                    "aubin_J_rel", "component_twist_derivative",
                    "decomposition_check", "entropy_rel", "model_beta",
                    "modular_height", "na_calabi", "na_scalar_curvature",
                    "normalized_df", "normalized_df_twisted",
                    "relative_modular_height", "rescale_metric_const",
                    "ricci_energy_rel", "slope_semistability_test",
                    "twist_by_base_divisor"],
    "geometry": ["SphereGeometry", "TorusGeometry", "make_geometry"],
    "potentials": ["PotentialField", "load_potential_csv",
                   "save_potential_csv"],
    "energies": ["am_energy", "apply_metric_change", "aubin_i", "aubin_j",
                 "bott_chern_delta", "cubic_identity_check", "entropy",
                 "k_energy", "metric_model_pair", "ricci_density",
                 "ricci_energy", "scalar_curvature_l2"],
    "quantize": ["SectionGram", "arithmetic_degree", "balanced_iterate",
                 "balanced_step", "bergman_density", "chow_height",
                 "extended_chow_height", "fubini_study_of", "l2_gram",
                 "l2_gram_quadrature"],
    "scans": ["dequantization_scan", "hilbert_samuel_residual",
              "p1_deg_hat"],
    "toric": ["ToricThreefold", "barycentric_log_discrepancy",
              "blowup_family_oracle", "toric_log_discrepancy"],
    "families": ["BrieskornPhamSpec", "EllipticCurveData",
                 "brieskorn_pham_analyze", "build_p1_fs",
                 "build_p2_blowup_family", "curve_from_label",
                 "curve_periods", "elliptic_faltings_height",
                 "faltings_to_hk", "multiplicity_from_lengths"],
}
NAMES = [n for names in EAGER_EXPORTS.values() for n in names]


def _python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that finds this checkout's package."""
    src = str(Path(heights.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def _exact_cli_calls(tmp_path) -> list:
    """CLI calls that need neither numpy nor mpmath, with their exit codes."""
    model = tmp_path / "p1.json"
    heights.build_p1_fs().save(model)
    bad = tmp_path / "bad.json"
    obj = heights.build_p1_fs().to_json()
    obj["form"]["K,L"]["real"] = float("nan")
    bad.write_text(json.dumps(obj))
    return [
        (["compute", "--family", "p1-fs", "--functional", "hk"], 0),
        (["compute", "--family", "p2-blowup", "--functional", "hk",
          "--relative-to", "base", "--emit", "json"], 0),
        (["validate", "--model", str(model)], 0),
        (["compute", "--model", str(model), "--functional", "hk"], 0),
        (["bp", "--weights", "8,15,7", "--prime", "11"], 0),
        (["scan", "--family", "p1-fs", "--m-max", "200"], 0),
        (["scan", "--family", "p1-fs", "--m-max", "200", "--kind",
          "hilbert-samuel"], 0),
        (["scan", "--model", str(model), "--m-max", "200"], 0),
        # error paths
        (["compute", "--family", "nope"], 2),
        (["bp", "--weights", "4,6,7", "--prime", "5"], 2),
        (["faltings", "--a-invariants", "0,0,1,-1,0", "--delta-min", "38"],
         2),
        (["validate", "--model", str(bad)], 2),
        (["compute", "--family", "p1-fs", "--functional", "calabi",
          "--arch-term", "nan"], 2),
        (["scan", "--family", "p1-fs", "--m-max", "4"], 2),
    ]


def test_lazy_namespace_keeps_every_name():
    assert len(NAMES) == 77
    assert sorted(heights.__all__) == sorted(NAMES)
    listing = dir(heights)
    assert all(name in listing for name in NAMES)
    for mod, names in EAGER_EXPORTS.items():
        module = importlib.import_module(f"heights.{mod}")
        for name in names:
            assert getattr(heights, name) is getattr(module, name), name
        assert getattr(heights, mod) is module
    star = {}
    exec("from heights import *", star)
    assert all(star[name] is getattr(heights, name) for name in NAMES)
    with pytest.raises(AttributeError, match="no_such_name"):
        heights.no_such_name
    assert heights.__version__ == "1.0.0"


def test_import_heights_loads_no_numpy():
    proc = _python("import sys, heights; "
                   "print('numpy' in sys.modules, 'mpmath' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_scans_load_no_numpy():
    proc = _python("import sys, heights; heights.dequantization_scan; "
                   "print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_exact_cli_calls_load_no_numpy_or_mpmath(tmp_path):
    calls, wants = zip(*_exact_cli_calls(tmp_path))
    proc = _python(f"""
import contextlib, io, json, sys
import heights.cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = heights.cli.main(argv)
    return [code, 'numpy' in sys.modules, 'mpmath' in sys.modules]

exact = [run(argv) for argv in {list(calls)!r}]
faltings = run(['faltings', '--curve', '37a1'])
print(json.dumps([exact, faltings]))
""")
    assert proc.returncode == 0, proc.stderr
    exact, faltings = json.loads(proc.stdout)
    assert [code for code, _, _ in exact] == list(wants)
    assert not any(np or mp for _, np, mp in exact), exact
    assert faltings[:2] == [0, False]


def test_exact_cli_calls_import_only_what_they_run(tmp_path):
    # -S: a site .pth file may preload typing into every process; each
    # call runs in a process of its own, so its modules are its own
    for argv, want in _exact_cli_calls(tmp_path):
        proc = _python(f"""
import contextlib, io, json, sys
import heights.cli

with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = heights.cli.main({argv!r})
print(json.dumps([code, sorted(sys.modules)]))
""", "-S")
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout)
        assert code == want, argv
        assert not {"dataclasses", "inspect", "typing"} & set(modules), argv
        if argv[0] in ("validate", "bp", "faltings"):
            assert "heights.functionals" not in modules, argv
        if argv[0] == "validate" or "--model" in argv:
            assert "heights.families" not in modules, argv
        if argv[:3] == ["compute", "--family", "p1-fs"]:
            assert "heights.toric" not in modules, argv
        if argv[0] == "scan":
            assert not {"numpy", "heights.geometry", "heights.quantize"} & \
                set(modules), argv


def test_blowup_checks_hold_under_optimize():
    # python -O strips assert statements, so a check of the toric oracle
    # written as one would let the second child exit 0
    build = "heights.build_p2_blowup_family((2, 3, 5))"
    good = _python(f"import heights; {build}", "-O")
    assert good.returncode == 0, good.stderr
    bad = _python(f"""
import heights, heights.toric as toric
real = toric.blowup_family_oracle(2)
toric.blowup_family_oracle = lambda t: {{**real, "F3": 2}}
{build}
""", "-O")
    assert bad.returncode != 0 and "ValidationError" in bad.stderr


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracing.py wraps these names; one that is renamed or
    # deleted would break a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for modname, attr_path, _ in tracing.TARGETS:
        obj = importlib.import_module(modname)
        for attr in attr_path.split("."):
            assert hasattr(obj, attr), f"{modname}.{attr_path}"
            obj = getattr(obj, attr)
        assert callable(obj), f"{modname}.{attr_path}"


def _names(node) -> collections.Counter:
    """Names and attribute names anywhere under an AST node."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_private_module_name_is_used():
    # no function that nothing calls: each module-level function or class
    # named _x (dunders such as __getattr__ aside) is referenced in the
    # package outside its own definition
    src = Path(heights.__file__).resolve().parent
    trees = [ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))]
    used = sum((_names(tree) for tree in trees), collections.Counter())
    unused = [
        node.name for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and used[node.name] == _names(node)[node.name]]
    assert unused == []


def test_only_intersection_knows_the_form_key_format():
    # a form's key format stays inside intersection: no other module
    # imports or reaches form_key, or reads an `.entries` attribute
    # (SymmetricForm.value reads an entry, IntersectionModel.l_slots walks
    # the L-slots)
    src = Path(heights.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "intersection.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and any(
                    a.name == "form_key" for a in node.names):
                found.append(f"{path.name}:{node.lineno} imports form_key")
            elif isinstance(node, ast.Attribute) and node.attr == "form_key":
                found.append(f"{path.name}:{node.lineno} reads form_key")
            elif isinstance(node, ast.Attribute) and node.attr == "entries":
                found.append(f"{path.name}:{node.lineno} reads entries")
    assert found == []


def test_only_intersection_and_functionals_pair_a_form():
    # every other module reads (L^{n+1}) and (L^n.K) through the model's
    # top_power and lnk (toric's ToricThreefold.product is its own method)
    src = Path(heights.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             if path.name not in ("intersection.py", "functionals.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "pair"]
    assert found == []


def test_only_heightvalue_reads_a_real_part():
    # sums of values go through HeightValue._combine, so no other module
    # reads the float remainder of a value to add it up by hand
    src = Path(heights.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             if path.name != "heightvalue.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "real_part"]
    assert found == []


def test_only_section_gram_decides_a_gram_is_positive_definite():
    # the refusal is made once, where a gram is built; arithmetic_degree
    # and the FS(H) evaluation read grams that passed it
    def sites(tree):
        return [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and node.value == "gram is not positive definite"]

    src = Path(heights.__file__).resolve().parent
    found = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
             for line in sites(ast.parse(path.read_text()))]
    gram = next(node for node in ast.parse(
        (src / "quantize.py").read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == "SectionGram")
    assert found == [f"quantize.py:{line}" for line in sites(gram)] != []


def test_one_positivity_test_for_sampled_densities():
    # a sampled density or mass is positive by geometry._positive, which
    # also refuses +-inf: no np.all(<comparison>) or (<comparison>).all()
    # decides it in the modules that sample them
    src = Path(heights.__file__).resolve().parent
    found = [f"{name}:{node.lineno}"
             for name in ("potentials.py", "energies.py", "quantize.py")
             for node in ast.walk(ast.parse((src / name).read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "all"
             and (isinstance(node.func.value, ast.Compare)
                  or any(isinstance(a, ast.Compare) for a in node.args))]
    assert found == []
