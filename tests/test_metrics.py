"""Quadrature geometries, potentials and archimedean energies."""

import math

import numpy as np
import pytest

from heights.energies import (am_energy, apply_metric_change, aubin_i,
                              aubin_j, bott_chern_delta,
                              cubic_identity_check, entropy, k_energy,
                              metric_model_pair, ricci_density,
                              scalar_curvature_l2)
from heights.errors import (ArityMismatch, GeometryMismatch, NonKahler,
                            ValidationError)
from heights.families import build_p1_fs
from heights.functionals import decomposition_check, modular_height
from heights.geometry import SphereGeometry, TorusGeometry, make_geometry
from heights.potentials import (PotentialField, load_potential_csv,
                                save_potential_csv)

SPHERE = SphereGeometry(128)


def test_reference_measure_mass():
    assert SPHERE.quad(np.ones(SPHERE.shape)) == pytest.approx(1.0, abs=1e-13)
    t = TorusGeometry(2j, n=32, degree=3)
    assert t.quad(np.ones(t.shape)) == pytest.approx(3.0, abs=1e-13)


def test_sphere_spectral_eigenfunctions():
    for g in (SPHERE, SphereGeometry(16, n_psi=33)):
        for (l, m) in [(1, 0), (2, 1), (5, -3)]:
            f = g.synth_harmonics({(l, m): 1.0})
            lap = g.laplacian(f)
            # numpy leggauss weights are off by ~1e-11 relative at
            # n_theta 128; analysis leaks that into every degree, and the
            # l(l+1) multiplier of the high degrees lifts it to ~1e-7
            assert np.max(np.abs(lap + l * (l + 1) * f)) < 1e-6


def complex_fft_laplacian(g, f):
    """Reference sphere Laplacian: full complex FFT in psi, one Legendre
    analysis and synthesis for each of +m and -m."""
    fm = np.fft.fft(f, axis=1) / g.n_psi
    out = np.zeros_like(fm)
    lam = -np.arange(g.lmax + 1.0) * np.arange(1.0, g.lmax + 2.0)
    for idx in range(g.n_psi):
        m = idx if idx <= g.n_psi // 2 else idx - g.n_psi
        if abs(m) > g.lmax:
            continue
        P = g._legendre_block(abs(m))
        out[:, idx] = P.T @ (lam[abs(m):] * (P @ (g._w_theta * fm[:, idx])))
    return np.fft.ifft(out * g.n_psi, axis=1).real


def test_laplacian_matches_complex_fft_reference():
    rng = np.random.default_rng(0)
    for shape in [(16, 32), (16, 33), (128, 256)]:
        g = SphereGeometry(*shape)
        # white noise carries the Nyquist column and degrees above lmax
        f = rng.normal(size=g.shape)
        want = complex_fft_laplacian(g, f)
        got = g.laplacian(f)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_synth_harmonics_matches_outer_products():
    coeffs = {(0, 0): 0.3, (1, 0): -1.1, (3, 2): 0.7, (3, -2): -0.4,
              (5, 2): 1.3, (4, -1): 0.9, (6, 6): -0.2, (6, -6): 0.5}
    for n_psi in (32, 33):
        g = SphereGeometry(16, n_psi=n_psi)
        want = np.zeros(g.shape)
        for (l, m), c in coeffs.items():
            P = g._legendre_block(abs(m))[l - abs(m)]
            ang = np.cos(m * g.psi) if m >= 0 else np.sin(-m * g.psi)
            want += c * np.outer(P, ang)
        got = g.synth_harmonics(coeffs)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    with pytest.raises(ValidationError):
        SPHERE.synth_harmonics({(2, 3): 1.0})


@pytest.mark.parametrize("geometry", [SPHERE, TorusGeometry(0.3 + 1j, n=32,
                                                            degree=2)])
def test_random_potential_takes_one_transform(geometry, monkeypatch):
    # both geometries take ddc through laplacian, so this counts every
    # transform, including any taken inside random_potential
    calls = []
    laplacian = geometry.laplacian
    monkeypatch.setattr(geometry, "laplacian",
                        lambda u: calls.append(1) or laplacian(u))
    phi = PotentialField.random(geometry, 6)
    assert len(calls) == 1
    peak = np.max(np.abs(phi.ddc))
    assert peak == pytest.approx(0.4, rel=1e-15)
    assert np.max(np.abs(phi.ddc - geometry.ddc(phi.samples))) <= 1e-12 * peak


def test_ddc_integrates_to_zero():
    phi = PotentialField.random(SPHERE, seed=3)
    assert abs(SPHERE.quad(phi.ddc)) < 1e-12
    t = TorusGeometry(1j + 0.3, n=64, degree=2)
    pt = PotentialField.random(t, seed=4)
    assert abs(t.quad(pt.ddc)) < 1e-12


def test_positivity_enforced():
    f = SPHERE.synth_harmonics({(2, 0): 1.0})
    scale = 1.0 / np.max(np.abs(SPHERE.laplacian(f)))
    PotentialField(SPHERE, 0.5 * scale * f)       # fine
    with pytest.raises(NonKahler):
        PotentialField(SPHERE, 3.0 * scale * f)


def test_round_metric_scalar_curvature():
    one = np.ones(SPHERE.shape)
    S = ricci_density(SPHERE, one) / one
    assert np.max(np.abs(S - 2.0)) < 1e-12
    assert scalar_curvature_l2(SPHERE, one) == pytest.approx(4.0, abs=1e-10)


def test_k_energy_vanishes_on_constants():
    c = PotentialField.constant(SPHERE, 0.7)
    assert abs(k_energy(c)) < 1e-12
    assert abs(am_energy(c) - 2 * 0.7) < 1e-12    # E(const c) = 2c, n = 1
    assert abs(entropy(c)) < 1e-14


def test_aubin_chain_quadrature():
    for seed in range(10):
        phi = PotentialField.random(SPHERE, seed)
        I, J = aubin_i(phi), aubin_j(phi)
        # n = 1: the chain 0 <= I/2 <= J <= I/2 collapses to J = I/2
        assert I >= -1e-10
        assert I / 2 <= J + 1e-10
        assert J <= I / 2 + 1e-10


def test_bott_chern_arity():
    phi = PotentialField.random(SPHERE, 0)
    with pytest.raises(ArityMismatch):
        bott_chern_delta(phi, [phi.omega_phi, phi.omega_phi])


def test_apply_metric_change_identity():
    model = build_p1_fs()
    phi = PotentialField.random(SPHERE, 11)
    changed = apply_metric_change(model, phi)
    dh = (modular_height(changed) - modular_height(model)).evaluate()
    mu = k_energy(phi)
    assert dh == pytest.approx(mu, rel=1e-12, abs=1e-14)


def test_apply_metric_change_geometry_guard():
    model = build_p1_fs()
    t = TorusGeometry(1j, n=32, degree=1)
    phi = PotentialField.constant(t, 0.0)
    with pytest.raises(GeometryMismatch):
        apply_metric_change(model, phi)


def test_metric_pair_decomposition_exact():
    model = build_p1_fs()
    phi = PotentialField.random(SPHERE, 5)
    pair = metric_model_pair(model, phi)
    lhs, rhs = decomposition_check(pair)
    assert lhs.const_part == rhs.const_part
    assert lhs.log_terms == rhs.log_terms
    assert lhs.real_part == pytest.approx(rhs.real_part, abs=1e-12)


def test_constant_potential_shifts_energy_only():
    model = build_p1_fs()
    c = PotentialField.constant(SPHERE, 0.3)
    changed = apply_metric_change(model, c)
    assert (modular_height(changed)
            - modular_height(model)).evaluate() == pytest.approx(0, abs=1e-13)


def test_cubic_identity_on_tori():
    for tau in (1j, 2j, 0.5 + 0.5j * math.sqrt(3)):
        for d in (1, 2):
            t = TorusGeometry(tau, n=32, degree=d)
            lhs, rhs = cubic_identity_check(t)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_potential_csv_roundtrip(tmp_path):
    phi = PotentialField.random(SPHERE, 9)
    p = tmp_path / "phi.csv"
    save_potential_csv(phi, p)
    back = load_potential_csv(p)
    assert back.geometry.shape == SPHERE.shape
    assert np.max(np.abs(back.samples - phi.samples)) < 1e-12

    t = TorusGeometry(0.25 + 1.5j, n=32, degree=2)
    pt = PotentialField.random(t, seed=2)
    q = tmp_path / "tor.csv"
    save_potential_csv(pt, q)
    back = load_potential_csv(q)
    assert back.geometry.kind == "torus"
    assert back.geometry.tau == t.tau
    assert np.max(np.abs(back.samples - pt.samples)) < 1e-12

    odd = PotentialField.random(SphereGeometry(16, n_psi=33), 3)
    r = tmp_path / "odd.csv"
    save_potential_csv(odd, r)
    back = load_potential_csv(r)
    assert back.geometry.shape == (16, 33)
    assert np.max(np.abs(back.samples - odd.samples)) < 1e-12


def test_geometry_rejects_bad_sizes():
    for bad in (lambda: SphereGeometry(0), lambda: SphereGeometry(-4),
                lambda: SphereGeometry(4, n_psi=0),
                lambda: SphereGeometry(4, n_psi=1),
                lambda: TorusGeometry(1j, n=0),
                lambda: TorusGeometry(1j, degree=0)):
        with pytest.raises(ValidationError):
            bad()


def test_make_geometry_rejects_unknown():
    with pytest.raises(ValidationError):
        make_geometry("plane")
    with pytest.raises(ValidationError):
        TorusGeometry(-1j)


def test_potential_addition_shares_grid():
    a = PotentialField.random(SPHERE, 1)
    b = PotentialField.random(SPHERE, 2)
    s = a + b
    assert np.max(np.abs(s.ddc - a.ddc - b.ddc)) < 1e-14
    other = SphereGeometry(64)
    c = PotentialField.constant(other, 0.0)
    with pytest.raises(ValidationError):
        a + c
