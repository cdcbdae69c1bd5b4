"""Acceptance criteria, one pass/fail line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from brute_force import hypersurface_lengths
from heights.energies import (apply_metric_change, aubin_i, aubin_j,
                              cubic_identity_check, k_energy,
                              metric_model_pair)
from heights.families import (BrieskornPhamSpec, brieskorn_pham_analyze,
                              build_p1_fs, build_p2_blowup_family,
                              curve_from_label, elliptic_faltings_height,
                              multiplicity_from_lengths)
from heights.functionals import (aubin_I_rel, aubin_J_rel,
                                 component_twist_derivative,
                                 decomposition_check, modular_height,
                                 na_scalar_curvature, normalized_df_twisted,
                                 relative_modular_height,
                                 rescale_metric_const,
                                 twist_by_base_divisor)
from heights.geometry import SphereGeometry, TorusGeometry
from heights.heightvalue import HeightValue
from heights.intersection import (DivisorClassId, FiberComponent,
                                  IntersectionModel, SymmetricForm, form_key)
from heights.potentials import PotentialField
from heights.quantize import balanced_iterate, l2_gram
from heights.scans import dequantization_scan, hilbert_samuel_residual
from heights.toric import blowup_family_oracle

TWIST_PRIMES = [2, 3, 5, 7, 11, 13]


def report(num, text):
    print(f"criterion {num:2d}: PASS  ({text})")


def all_family_models():
    pair = build_p2_blowup_family((2, 3, 5))
    return [build_p1_fs(), pair.model, pair.ref]


def random_exact_model(rng):
    """n = 1 model with random rational + log-exact entries, fixed
    generic fiber (deg_Ln = 1, deg_LK = -2)."""
    def hv():
        return HeightValue(
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
            {p: Fraction(rng.randint(-5, 5)) for p in (2, 3)})
    form = SymmetricForm(2, {("L", "L"): hv(), ("L", "K"): hv(),
                             ("K", "K"): hv()})
    return IntersectionModel(
        n=1, degree_KQ=1,
        classes=(DivisorClassId("L", "polarization"),
                 DivisorClassId("K", "relative-canonical")),
        form=form, L_class="L", K_class="K",
        deg_Ln=Fraction(1), deg_LK=Fraction(-2))


def two_component_model(dL, dK, prime=7):
    lp = lambda c: HeightValue(log_terms={prime: Fraction(c)})
    entries = {
        ("L", "L"): HeightValue(Fraction(3)),
        ("K", "L"): HeightValue(Fraction(-2)),
        ("K", "K"): HeightValue(Fraction(1)),
        ("E1", "L"): lp(dL[0]), ("E2", "L"): lp(dL[1]),
        ("E1", "K"): lp(dK[0]), ("E2", "K"): lp(dK[1]),
        ("E1", "E1"): lp(-dL[0]), ("E2", "E2"): lp(-dL[1]),
        ("E1", "E2"): lp(dL[0]),
    }
    return IntersectionModel(
        n=1, degree_KQ=1,
        classes=(DivisorClassId("L", "polarization"),
                 DivisorClassId("K", "relative-canonical"),
                 DivisorClassId("E1", "vertical", prime, "c1"),
                 DivisorClassId("E2", "vertical", prime, "c2")),
        form=SymmetricForm(2, {form_key(k): v for k, v in entries.items()}),
        L_class="L", K_class="K",
        deg_Ln=Fraction(sum(dL)), deg_LK=Fraction(sum(dK)),
        fibers=(FiberComponent(prime, "c1", Fraction(dL[0]), Fraction(dK[0])),
                FiberComponent(prime, "c2", Fraction(dL[1]), Fraction(dK[1]))))


def test_criterion_01_rigidity():
    rng = random.Random(1)
    models = all_family_models()
    for i in range(50):
        m = models[i % len(models)]
        D = {p: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             for p in rng.sample(TWIST_PRIMES, rng.randint(1, 3))}
        d = modular_height(twist_by_base_divisor(m, D)) - modular_height(m)
        assert d.const_part == 0 and not d.log_terms
        assert abs(d.real_part) <= 1e-12
        c = rng.uniform(-2, 2)
        d2 = modular_height(rescale_metric_const(m, c)) - modular_height(m)
        assert d2.const_part == 0 and not d2.log_terms
        assert abs(d2.real_part) <= 1e-12
    report(1, "h_K rigid under 50 rescales and base twists, all families")


def test_criterion_02_cocycle():
    rng = random.Random(2)
    for _ in range(20):
        m1, m2, m3 = (random_exact_model(rng) for _ in range(3))
        total = (relative_modular_height(m1, m2)
                 + relative_modular_height(m2, m3)
                 + relative_modular_height(m3, m1))
        assert total.exact_eq(HeightValue())
    report(2, "relative h_K cocycle exact on 20 random model triples")


def test_criterion_03_decomposition():
    pairs = [build_p2_blowup_family(ps) for ps in [(2,), (3,), (2, 3, 5)]]
    g = SphereGeometry(128)
    model = build_p1_fs()
    pairs += [metric_model_pair(model, PotentialField.random(g, s))
              for s in range(3)]
    for pair in pairs:
        lhs, rhs = decomposition_check(pair)
        d = lhs - rhs
        assert d.const_part == 0 and not d.log_terms
        assert abs(d.real_part) <= 1e-12
    report(3, "h_K decomposition exact on all model pairs")


def test_criterion_04_adfk_identity():
    g = SphereGeometry(512)
    model = build_p1_fs()
    worst = 0.0
    for seed in range(20):
        phi = PotentialField.random(g, seed)
        dh = (modular_height(apply_metric_change(model, phi))
              - modular_height(model)).evaluate()
        mu = k_energy(phi)
        worst = max(worst, abs(dh - mu) / max(abs(mu), 1e-30))
    assert worst <= 1e-8
    report(4, f"delta h_K = (L^n) mu(phi), worst rel err {worst:.2e}")


def test_criterion_05_aubin_chain():
    for ps in [(2,), (2, 3, 5)]:
        pair = build_p2_blowup_family(ps)
        iv = aubin_I_rel(pair).evaluate()
        jv = aubin_J_rel(pair).evaluate()
        n = pair.model.n
        assert iv / (n + 1) >= -1e-10
        assert jv - iv / (n + 1) >= -1e-10
        assert n * iv / (n + 1) - jv >= -1e-10
    g = SphereGeometry(128)
    for seed in range(100):
        phi = PotentialField.random(g, seed)
        I, J = aubin_i(phi), aubin_j(phi)
        assert I / 2 >= -1e-10
        assert J - I / 2 >= -1e-10
        assert I / 2 - J >= -1e-10
    report(5, "Aubin chain holds on pairs and 100 random potentials")


def test_criterion_06_dequantization():
    res = dequantization_scan(build_p1_fs(), 200)
    target = (math.log(2 * math.pi) - 1) / 4      # h_K / 4
    slope_err = abs(res.fitted_log_slope - 0.25)
    const_err = abs(res.fitted_constant - target)
    assert slope_err <= 1e-3
    assert const_err <= 1e-3
    report(6, f"slope err {slope_err:.1e}, constant err {const_err:.1e}")


def test_criterion_07_hilbert_samuel():
    rows = hilbert_samuel_residual(build_p1_fs(), 200)
    ratios = {m: abs(r) / m for m, r in rows}
    assert ratios[200] < 1e-2
    tail = [ratios[m] for m in range(100, 201)]
    assert all(b <= a + 1e-14 for a, b in zip(tail, tail[1:]))
    # refit the m log m coefficient dropped from the main term
    ms = np.array([m for m, _ in rows if m >= 100], float)
    res2 = np.array([r + m * math.log(m) / 4.0 for m, r in rows if m >= 100])
    X = np.column_stack([ms * np.log(ms), ms, np.log(ms), np.ones_like(ms)])
    coef, *_ = np.linalg.lstsq(X, res2, rcond=None)
    assert abs(coef[0] - 0.25) <= 1e-3
    report(7, f"|res(200)|/200 = {ratios[200]:.2e}, "
              f"refit log coefficient {coef[0]:+.5f}")


def test_criterion_08_balanced():
    geom = SphereGeometry(128)
    model = build_p1_fs()
    m = 5
    g0 = l2_gram("p1-fs", m, "fs", "m-omega")
    rng = np.random.default_rng(0)
    sym = rng.standard_normal((m + 1, m + 1))
    sym = (sym + sym.T) / 2
    from heights.quantize import SectionGram
    pert = SectionGram(m, g0.basis, g0.gram * np.exp(0.1 * sym),
                       g0.volume_convention)
    g, iters, converged, trace = balanced_iterate(
        pert, geom, tol=1e-10, max_iter=200, model=model)
    assert converged and iters <= 200
    # fixed points form the automorphism orbit of the FS Gram (the torus
    # z -> lam z acts as diag(lam^a)); quotient it out before comparing
    ratios = np.log(np.diag(g.gram) / np.diag(g0.gram))
    basis = np.column_stack([np.ones(m + 1), np.arange(m + 1)])
    coef, *_ = np.linalg.lstsq(basis, ratios, rcond=None)
    assert np.max(np.abs(ratios - basis @ coef)) < 1e-7
    off = g.gram - np.diag(np.diag(g.gram))
    assert np.max(np.abs(off)) < 1e-10
    from heights.quantize import htilde_c_of_gram
    assert htilde_c_of_gram(model, g, geom) == pytest.approx(
        htilde_c_of_gram(model, g0, geom), abs=1e-10)
    hs = [h for _, _, h in trace]
    assert all(later <= earlier + 1e-11
               for earlier, later in zip(hs, hs[1:]))
    report(8, f"converged to FS Gram in {iters} iterations, "
              "h~_C non-increasing")


def test_criterion_09_blowup_constant():
    cs = set()
    for ps in [(2,), (3,), (2, 3, 5)]:
        pair = build_p2_blowup_family(ps)
        rel = relative_modular_height(pair.model, pair.ref)
        assert rel.const_part == 0 and rel.real_exact
        for p in ps:
            cs.add(-rel.log_terms[p])
    assert cs == {Fraction(32)}
    orc = blowup_family_oracle(2)
    assert orc["delta_hk"] == -32
    report(9, "relative h_K = -32 sum log p, identical c, oracle-validated")


def test_criterion_10_brieskorn_pham():
    for D in range(2, 13):
        mult, stable = multiplicity_from_lengths(
            hypersurface_lengths(3, D, D + 5), 2)
        assert stable and mult == D
    rep = brieskorn_pham_analyze(BrieskornPhamSpec((8, 15, 7), 11))
    assert rep["destabilizing"] and rep["multiplicity"] == 7
    assert all(v >= -1 for v in rep["log_discrepancies"].values())
    report(10, "power hypersurface mult exact to D=12; (8,15,7)@11 "
               "destabilizing; discrepancies >= -1")


def test_criterion_11_faltings_bridge():
    worst = 0.0
    for label in ("37a1", "11a1", "389a1", "5077a1"):
        E = curve_from_label(label)
        hq = elliptic_faltings_height(E, "qexp")
        ha = elliptic_faltings_height(E, "agm")
        worst = max(worst, abs(hq - ha))
    assert worst <= 1e-8
    for tau in (1j, 2j, (1 + 1j * math.sqrt(3)) / 2):
        t = TorusGeometry(tau, n=32)
        lhs, rhs = cubic_identity_check(t)
        assert abs(lhs - rhs) <= 1e-10
    report(11, f"qexp vs AGM worst gap {worst:.1e}; "
               "cubic identity on 3 tori")


def test_criterion_12_twist_derivative_coupling():
    rng = random.Random(12)
    for k in range(10):
        dL = (rng.randint(1, 6), rng.randint(1, 6))
        if k % 2 == 0:
            s = rng.randint(1, 3)
            dK = (-s * dL[0], -s * dL[1])          # constant S^{nA}
        else:
            dK = (-rng.randint(1, 9), -rng.randint(1, 9))
        m = two_component_model(dL, dK)
        snA = na_scalar_curvature(m, 7)
        constant = len(set(snA.values())) == 1
        vanish = True
        for comp, cls in (("c1", "E1"), ("c2", "E2")):
            d = component_twist_derivative(m, 7, comp)
            eps = Fraction(1, 64)
            grid = [normalized_df_twisted(m, cls, e)
                    for e in (-eps, Fraction(0), eps)]
            central = (grid[2] - grid[0]).scale(Fraction(1, 2) / eps)
            assert central.exact_eq(d)
            vanish = vanish and d.is_zero()
        assert vanish == constant
    report(12, "twist derivative vanishes iff S^{nA} constant "
               "(10 synthetic models, eps-grid checked)")
