"""Section Grams, Chow heights, balanced iteration, scans."""

import copy
import hashlib
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from brute_force import p1_deg_hat_exact
from heights import quantize, scans
from heights.energies import apply_metric_change
from heights.errors import (ConventionMismatch, GeometryMismatch,
                            NonPositiveDefinite, UnsupportedFamily,
                            ValidationError)
from heights.families import build_p1_fs
from heights.geometry import SphereGeometry, TorusGeometry
from heights.intersection import FAMILY_GEOMETRY, IntersectionModel
from heights.potentials import PotentialField
from heights.quantize import (SectionGram, arithmetic_degree,
                              balanced_iterate, balanced_step,
                              bergman_density, chow_height,
                              extended_chow_height, fubini_study_of,
                              htilde_c_of_gram, l2_gram, l2_gram_quadrature,
                              p1_fs_gram_diag, p1_section_values)
from heights.scans import (dequantization_scan, hilbert_samuel_residual,
                           p1_deg_hat, p1_deg_hat_table)

GEOM = SphereGeometry(128)
MODEL = build_p1_fs()


def test_closed_form_gram_matches_quadrature():
    for m in (1, 3, 6):
        exact = l2_gram("p1-fs", m, "fs", "omega")
        quad = l2_gram_quadrature(GEOM, m, "omega")
        assert np.max(np.abs(exact.gram - quad.gram)) < 1e-12


def test_deg_hat_closed_form_matches_slogdet():
    for m in (1, 2, 5, 9, 40):
        for convention in ("m-omega", "omega"):
            g = l2_gram("p1-fs", m, "fs", convention)
            assert arithmetic_degree(g) == pytest.approx(
                p1_deg_hat(m, convention), rel=1e-13)


def test_gram_validation():
    with pytest.raises(ValidationError):
        SectionGram(2, ("a", "b"), np.array([[1.0, 0.5], [0.4, 1.0]]),
                    "omega")
    with pytest.raises(ValidationError):
        SectionGram(2, ("a",), np.eye(2), "omega")
    with pytest.raises(UnsupportedFamily):
        l2_gram("p9", 3)
    with pytest.raises(UnsupportedFamily, match="metric 'bergman'"):
        l2_gram("p1-fs", 3, "bergman")
    for bad in (np.ones(2), np.ones((2, 3))):
        with pytest.raises(ValidationError, match="square"):
            SectionGram(1, ("a", "b"), bad, "omega")
    with pytest.raises(ValidationError, match="volume convention 'mass'"):
        SectionGram(1, ("a", "b"), np.eye(2), "mass")
    with pytest.raises(ValidationError):
        p1_deg_hat(0)
    with pytest.raises(NonPositiveDefinite):
        arithmetic_degree(SectionGram(
            1, ("a", "b"), np.diag([1.0, -1.0]), "omega"))


@pytest.mark.parametrize("convention", ["omega", "m-omega"])
def test_closed_form_gram_equals_vectorized_lgamma(convention):
    # bit for bit the former expression, np.vectorize over math.lgamma
    for m in range(1, 49):
        a = np.arange(m + 1)
        logs = (np.vectorize(math.lgamma)(a + 1.0)
                + np.vectorize(math.lgamma)(m - a + 1.0)
                - math.lgamma(m + 2.0))
        if convention == "m-omega":
            logs = logs + math.log(m)
        assert np.array_equal(l2_gram("p1-fs", m, "fs", convention).gram,
                              np.diag(np.exp(logs)))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
def test_gram_symmetry_tolerance(scale):
    # |g - g^T| may reach 1e-13 max(1, max|g|) and no further
    tol = 1e-13 * max(1.0, scale)
    for off, ok in ((0.5 * tol, True), (tol, True), (2.0 * tol, False)):
        g = np.array([[scale, off], [0.0, 1.0]])
        if ok:
            SectionGram(1, ("a", "b"), g, "omega")
        else:
            with pytest.raises(ValidationError, match="symmetric"):
                SectionGram(1, ("a", "b"), g, "omega")


def test_chow_height_convention_guard():
    g = l2_gram("p1-fs", 4, "fs", "omega")
    with pytest.raises(ConventionMismatch):
        chow_height(MODEL, g)
    with pytest.raises(ConventionMismatch):
        htilde_c_of_gram(MODEL, g, GEOM)


def test_chow_height_rescale_invariant():
    m = 5
    g = l2_gram("p1-fs", m, "fs", "m-omega")
    base = chow_height(MODEL, g)
    lam = 3.7
    g2 = SectionGram(m, g.basis, lam * g.gram, g.volume_convention)
    from heights.functionals import rescale_metric_const
    # e^{2c} = lam on sections of L^m means c = log(lam)/(2m) on L
    rescaled = rescale_metric_const(MODEL, math.log(lam) / (2.0 * m))
    assert chow_height(rescaled, g2) == pytest.approx(base, abs=1e-12)


def test_fs_gram_is_balanced_fixed_point():
    m = 5
    g = l2_gram("p1-fs", m, "fs", "m-omega")
    nxt = balanced_step(g, GEOM)
    assert np.max(np.abs(nxt.gram - g.gram)) < 1e-10


def test_bergman_density_of_fs_is_flat():
    m = 4
    g = l2_gram("p1-fs", m, "fs", "omega")
    rho = bergman_density(GEOM, m, g.gram)
    assert np.max(np.abs(rho - (m + 1))) < 1e-10


def test_fubini_study_of_fs_is_reference():
    for geom in (SphereGeometry(64), GEOM):
        for m in range(1, 9):
            g = l2_gram("p1-fs", m, "fs", "m-omega")
            u, rho = fubini_study_of(geom, m, g.gram)
            assert np.max(np.abs(rho - m)) < 1e-12


def spectral_fs_curvature(geometry, m, H):
    """Reference FS(H) curvature density: m + spectral ddc of log Phi_H."""
    return m + geometry.ddc(np.log(bergman_density(geometry, m, H)))


def perturbed_gram(m, seed, scale=0.2):
    g0 = l2_gram("p1-fs", m, "fs", "m-omega")
    sym = np.random.default_rng(seed).standard_normal((m + 1, m + 1))
    return SectionGram(m, g0.basis, g0.gram * np.exp(scale * (sym + sym.T)),
                       g0.volume_convention)


# -- the grid path: sections as (m+1)-by-grid complex arrays ----------

def latitude_blocks(geometry, size=32):
    """(rows, copy of geometry on those latitudes) per block of rows, so
    the grid-sized reference arrays stay small on fine grids."""
    for lo in range(0, geometry.n_theta, size):
        block = copy.copy(geometry)
        block.theta = geometry.theta[lo:lo + size]
        yield slice(lo, lo + size), block


def weighted_gram_reference(geometry, m, dens):
    """Re sum over the grid of w_a(x) bar(w_b(x)) dens(x)."""
    g = 0.0
    for rows, block in latitude_blocks(geometry):
        w = p1_section_values(block, m).reshape(m + 1, -1)
        g = g + (w * dens[rows].ravel()) @ w.conj().T
    return g.real


def fs_density_reference(geometry, m, H):
    """(Phi_H, rho) from v = c^{-1} w and Dv = c^{-1} Dw on the grid,
    Dw_a = a w_{a-1} - (m-a) zbar w_a, for H = c c^T."""
    cinv = np.linalg.inv(np.linalg.cholesky(H))
    a = np.arange(m + 1)[:, None, None]
    phi, rho = [], []
    for _, block in latitude_blocks(geometry):
        w = p1_section_values(block, m)
        zbar = np.exp(0.5 * block.log_t2()[:, None] - 1j * block.psi)
        dw = -(m - a) * zbar * w
        dw[1:] += a[1:] * w[:-1]
        v, dv = cinv @ np.stack([w, dw]).reshape(2, m + 1, -1)
        vv = np.sum(np.abs(v) ** 2, axis=0)
        cross = np.sum(dv * v.conj(), axis=0)
        phi.append(vv)
        rho.append((vv * np.sum(np.abs(dv) ** 2, axis=0)
                    - np.abs(cross) ** 2) / vv ** 2)
    return (np.concatenate(phi).reshape(geometry.shape),
            np.concatenate(rho).reshape(geometry.shape))


REFERENCE_GRIDS = (SphereGeometry(64), GEOM, SphereGeometry(512),
                   SphereGeometry(17, 35), SphereGeometry(5, 7),
                   SphereGeometry(4, 6))


def test_quadrature_gram_matches_grid_reference():
    # m >= n_psi / 2 on the small grids: lags alias mod n_psi
    for geom in REFERENCE_GRIDS:
        for m in (1, 2, 5, 8, 12, 20) + ((48,) if geom is GEOM else ()):
            for conv in ("omega", "m-omega"):
                want = weighted_gram_reference(
                    geom, m, geom.weights * (m if conv == "m-omega" else 1))
                got = l2_gram_quadrature(geom, m, conv).gram
                assert np.max(np.abs(got - want)) <= \
                    1e-13 * np.max(np.abs(want))


def test_fs_density_matches_grid_reference():
    for geom in REFERENCE_GRIDS:
        for m in (1, 2, 5, 8, 12, 20):
            H = perturbed_gram(m, m).gram
            phi, rho = fs_density_reference(geom, m, H)
            u, got = fubini_study_of(geom, m, H)
            assert np.max(np.abs(u - np.log(phi))) <= 1e-13
            assert np.max(np.abs(got - rho) / np.abs(rho)) <= 1e-13
            assert np.max(np.abs(bergman_density(geom, m, H) - phi)
                          / phi) <= 1e-13


def test_t_operator_matches_grid_reference():
    for geom in (GEOM, SphereGeometry(5, 7)):
        for m in (3, 8):
            g = perturbed_gram(m, m + 1)
            phi, rho = fs_density_reference(geom, m, g.gram)
            want = weighted_gram_reference(geom, m,
                                           geom.weights * rho / phi)
            want *= np.trace(g.gram) / np.trace(want)
            got = balanced_step(g, geom).gram
            assert np.max(np.abs(got - want)) <= \
                1e-13 * np.max(np.abs(want))


def test_balanced_iterate_matches_grid_reference(monkeypatch):
    g0 = perturbed_gram(5, 2, scale=0.05)
    _, iters, converged, trace = balanced_iterate(g0, GEOM, model=MODEL)

    def fs_on_grid(jet, H, n_psi):
        phi, rho = fs_density_reference(GEOM, 5, H)
        assert np.all(phi > 0) and np.all(rho > 0)
        return phi, rho

    def t_on_grid(g, jet, phi, rho, geometry):
        newg = weighted_gram_reference(geometry, g.m,
                                       geometry.weights * rho / phi)
        newg *= np.trace(g.gram) / np.trace(newg)
        return SectionGram(g.m, g.basis, newg, g.volume_convention)
    monkeypatch.setattr(quantize, "_fs_density", fs_on_grid)
    monkeypatch.setattr(quantize, "_t_operator", t_on_grid)
    _, ref_iters, ref_converged, ref_trace = balanced_iterate(
        g0, GEOM, model=MODEL)
    assert converged and ref_converged and iters == ref_iters > 1
    assert max(abs(h - r) for (_, _, h), (_, _, r)
               in zip(trace, ref_trace)) <= 1e-13


def traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_quantized_side_allocates_no_rank_by_grid_arrays():
    # one (m+1)-by-grid complex array is 26 MB at m 48 on grid 128 and
    # 44 MB at m 20 on grid 256; the grid path peaked at 49 and 215 MB
    assert traced_peak_mb(lambda: l2_gram_quadrature(GEOM, 48)) <= 4
    geom, g0, runs = SphereGeometry(256), perturbed_gram(20, 0, 0.05), []
    assert traced_peak_mb(lambda: runs.append(balanced_iterate(
        g0, geom, tol=1e-300, max_iter=3, model=MODEL))) <= 16
    assert runs[0][1] == 3


def test_m_over_the_limit_allocates_nothing():
    # each would ask for gigabytes (a 74.5 GiB Gram at m 100000); the
    # refusal comes first
    too_big = [lambda: l2_gram("p1-fs", 100_000, "fs", "m-omega"),
               lambda: l2_gram("p1-fs", quantize.MAX_GRAM_M + 1),
               lambda: l2_gram_quadrature(GEOM, quantize.MAX_GRAM_M + 1),
               lambda: dequantization_scan(MODEL, 10 ** 9),
               lambda: hilbert_samuel_residual(MODEL, scans.MAX_SCAN_M + 1),
               lambda: p1_deg_hat(scans.MAX_SCAN_M + 1)]
    tracemalloc.start()
    try:
        for bad in too_big:
            with pytest.raises(ValidationError, match="over the limit of"):
                bad()
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    # the sizes at the limits are admitted
    assert l2_gram("p1-fs", quantize.MAX_GRAM_M).rank == \
        quantize.MAX_GRAM_M + 1
    assert len(p1_deg_hat_table(scans.MAX_SCAN_M)) == scans.MAX_SCAN_M
    p1_deg_hat(scans.MAX_SCAN_M)


def test_fs_density_rejects_nan_and_overflow():
    # H^{-1} = diag(1e300, 1) overflows Phi |Dv|^2 to a NaN rho
    with pytest.raises(NonPositiveDefinite):
        fubini_study_of(GEOM, 1, np.diag([1e-300, 1.0]))
    g = SectionGram(1, quantize.p1_basis(1), np.diag([1e-300, 1.0]),
                    "m-omega")
    with pytest.raises(NonPositiveDefinite):
        balanced_step(g, GEOM)


def test_gram_must_be_finite():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="finite"):
            SectionGram(1, ("a", "b"), np.array([[1.0, bad], [bad, 1.0]]),
                        "omega")


def test_closed_form_curvature_matches_spectral_ddc():
    # the spectral path is limited by the aliasing of log Phi_H
    for m in range(1, 9):
        H = perturbed_gram(m, m).gram
        _, rho = fubini_study_of(GEOM, m, H)
        assert np.max(np.abs(rho - spectral_fs_curvature(GEOM, m, H))) < 1e-6


def test_quantized_side_takes_no_sphere_transform(monkeypatch):
    def no_transform(self, f):
        raise AssertionError("sphere transform taken")
    monkeypatch.setattr(SphereGeometry, "laplacian", no_transform)
    g = perturbed_gram(4, 0, scale=0.05)
    fubini_study_of(GEOM, 4, g.gram)
    balanced_step(g, GEOM)
    htilde_c_of_gram(MODEL, g, GEOM)
    _, iters, converged, _ = balanced_iterate(g, GEOM, tol=1e-8,
                                              model=MODEL)
    assert converged and iters > 1


def test_balanced_iterate_evaluates_fs_once_per_gram(monkeypatch):
    calls = []
    fs_density = quantize._fs_density

    def counted(*args):
        calls.append(1)
        return fs_density(*args)
    monkeypatch.setattr(quantize, "_fs_density", counted)
    _, iters, converged, _ = balanced_iterate(
        perturbed_gram(3, 1, scale=0.05), GEOM, tol=1e-9, model=MODEL)
    assert converged and iters > 1
    assert len(calls) == iters + 1


def test_perturbed_gram_converges_to_fs():
    m = 5
    g0 = l2_gram("p1-fs", m, "fs", "m-omega")
    rng = np.random.default_rng(0)
    sym = rng.standard_normal((m + 1, m + 1))
    sym = (sym + sym.T) / 2
    pert = SectionGram(m, g0.basis, g0.gram * np.exp(0.1 * sym),
                       g0.volume_convention)
    g, iters, converged, trace = balanced_iterate(
        pert, GEOM, tol=1e-10, max_iter=200, model=MODEL)
    assert converged and iters <= 200
    # limit lies on the automorphism orbit of FS: diagonal with
    # geometric diagonal ratios, same extended Chow height
    off = g.gram - np.diag(np.diag(g.gram))
    assert np.max(np.abs(off)) < 1e-10
    lr = np.diff(np.log(np.diag(g.gram) / np.diag(g0.gram)))
    assert np.max(np.abs(lr - lr[0])) < 1e-7
    assert htilde_c_of_gram(MODEL, g, GEOM) == pytest.approx(
        htilde_c_of_gram(MODEL, g0, GEOM), abs=1e-10)
    hs = [h for _, _, h in trace]
    assert all(b2 <= a2 + 1e-11 for a2, b2 in zip(hs, hs[1:]))


def test_zero_perturbation_converges_immediately():
    g0 = l2_gram("p1-fs", 5, "fs", "m-omega")
    _, iters, converged, _ = balanced_iterate(g0, GEOM, tol=1e-9)
    assert converged and iters <= 1


def test_extended_chow_height_scale_invariant():
    m = 4
    g = l2_gram("p1-fs", m, "fs", "m-omega")
    u, rho = fubini_study_of(GEOM, m, g.gram)
    berg = bergman_density(GEOM, m, g.gram) * np.exp(-u)
    base = extended_chow_height(MODEL, g, berg, rho, GEOM)
    lam = 2.5
    g2 = SectionGram(m, g.basis, lam * g.gram, g.volume_convention)
    berg2 = berg / lam    # H-orthonormal basis scales by 1/sqrt(lam)
    v2 = extended_chow_height(MODEL, g2, berg2, rho, GEOM)
    assert v2 == pytest.approx(base, abs=1e-12)


def test_extended_chow_height_refuses_a_nan_bergman_mass():
    g = l2_gram("p1-fs", 2, "fs", "m-omega")
    berg, rho = np.ones(GEOM.shape), np.ones(GEOM.shape)
    berg[3, 5] = np.nan
    with pytest.raises(ValidationError, match="mass must be positive"):
        extended_chow_height(MODEL, g, berg, rho, GEOM)


def test_extended_chow_height_refuses_an_inf_bergman_sample():
    # the mass is then inf, and log(inf) made the height inf
    g = l2_gram("p1-fs", 2, "fs", "m-omega")
    geom = SphereGeometry(8)
    berg, rho = np.ones(geom.shape), np.ones(geom.shape)
    berg[3, 5] = np.inf
    with pytest.raises(ValidationError, match="mass must be positive"):
        extended_chow_height(MODEL, g, berg, rho, geom)


def test_dequantization_scan_small():
    res = dequantization_scan(MODEL, 40)
    assert len(res.table) == 40
    assert res.columns[0] == "m"
    assert res.fitted_log_slope == pytest.approx(0.25, abs=5e-3)
    with pytest.raises(ValidationError):
        dequantization_scan(MODEL, 0)
    # the four-column tail fit needs four rows
    with pytest.raises(ValidationError, match="m_max must be >= 5"):
        dequantization_scan(MODEL, 4)
    assert len(dequantization_scan(MODEL, 5).table) == 5


def test_hilbert_samuel_residual_small():
    rows = hilbert_samuel_residual(MODEL, 50)
    assert len(rows) == 50
    ratios = [abs(r) / m for m, r in rows[24:]]
    assert ratios[-1] < 2e-2
    assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_gram_diag_volume_conventions():
    d1 = p1_fs_gram_diag(3, "omega")
    d2 = p1_fs_gram_diag(3, "m-omega")
    assert np.allclose(d2, 3.0 * d1)


def test_scan_rows_in_m_order():
    res = dequantization_scan(MODEL, 10)
    assert [r[0] for r in res.table] == list(range(1, 11))
    assert all(type(r[0]) is int and all(type(x) is float for x in r[1:])
               for r in res.table)


def test_deg_hat_table_matches_mpmath():
    """-1/2 [sum_a log(a!(m-a)!/(m+1)!) + (m+1) log m] in 40 digits."""
    table = p1_deg_hat_table(2000)
    with mpmath.workdps(40):
        for m in (1, 2, 200, 2000):
            s = mpmath.fsum(mpmath.loggamma(a + 1) + mpmath.loggamma(m - a + 1)
                            - mpmath.loggamma(m + 2) for a in range(m + 1))
            want = float(-(s + (m + 1) * mpmath.log(m)) / 2)
            assert table[m - 1] == pytest.approx(want, rel=1e-13, abs=0)
            assert p1_deg_hat(m) == table[m - 1]


def test_deg_hat_table_matches_exact_log_primes():
    # a path with no log-gamma: deg_hat(m) as an exact sum of log p, in
    # 40 digits.  The bounds are about twice the table's absolute error
    # (3.1e-13, 2.6e-9 and 6.9e-9), which grows with the running sum
    table = p1_deg_hat_table(2000)
    with mpmath.workdps(40):
        for m, bound in [(1, 1e-15), (2, 4e-15), (100, 6e-13),
                         (1000, 5e-9), (2000, 1.4e-8)]:
            exact = p1_deg_hat_exact(m)
            assert exact.const_part == 0 and exact.real_part == 0.0
            assert all((2 * c).denominator == 1
                       for c in exact.log_terms.values())
            want = mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator
                               * mpmath.log(p)
                               for p, c in exact.log_terms.items())
            assert abs(table[m - 1] - want) <= bound


# SHA-256 of repr() of the scan rows at m_max 2000; repr round-trips
# every float, so equal digests mean bit-identical tables
SCAN_DIGESTS = (
    "3f4e37a1429bacedc6837ffa09bde068bd2994c8d3d2b834c1c56b1b134259b5",
    "b102617dc0fcf4a6789cb62651e9fa58281eb29fb60f5dc12bbb763d932aa74c")


def test_scan_tables_are_bit_identical_to_recorded():
    def digest(rows):
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    assert (digest(dequantization_scan(MODEL, 2000).table),
            digest(hilbert_samuel_residual(MODEL, 2000))) == SCAN_DIGESTS


@pytest.mark.parametrize("m_max", [5, 12, 60, 200, 2000, 100_000])
def test_tail_fit_matches_numpy_lstsq(m_max):
    res = dequantization_scan(MODEL, m_max)
    tail = np.array(res.table[m_max // 2 - 1:])
    ms = tail[:, 0]
    X = np.column_stack([np.ones_like(ms), np.log(ms), 1.0 / ms,
                         np.log(ms) / ms])
    ref, *_ = np.linalg.lstsq(X, tail[:, 2], rcond=None)
    assert abs(res.fitted_constant - ref[0]) <= 1e-10
    assert abs(res.fitted_log_slope - ref[1]) <= 1e-10


@st.composite
def tall_systems(draw):
    """(A, y) with n >= k rows; entries of moderate size, so the squares
    in the column norms neither underflow nor overflow."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 3 * k + 8))
    entry = st.integers(-10 ** 6, 10 ** 6).map(lambda i: i / 1000)
    A = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                      min_size=n, max_size=n))
    return np.array(A), np.array(draw(st.lists(entry, min_size=n,
                                               max_size=n)))


@given(tall_systems())
@settings(max_examples=100, deadline=None)
def test_lstsq_matches_numpy_on_random_systems(system):
    A, y = system
    cond = np.linalg.cond(A)
    assume(cond < 1e4)
    ref, *_ = np.linalg.lstsq(A, y, rcond=None)
    x = scans._lstsq([list(col) for col in A.T], list(y))
    # the forward error of a backward-stable solve is of order
    # eps (cond |x| + cond^2 |r| / |A|), for either solver
    r = np.linalg.norm(A @ ref - y)
    bound = 1e-13 * A.shape[0] * (
        cond * np.linalg.norm(ref) + cond ** 2 * r / np.linalg.norm(A, 2))
    assert np.linalg.norm(np.array(x) - ref) <= bound


def test_saved_p1_model_keeps_its_family(tmp_path):
    path = tmp_path / "p1.json"
    MODEL.save(path)
    back = IntersectionModel.load(path)
    assert back.family == "p1-fs"
    assert dequantization_scan(back, 60).table == \
        dequantization_scan(MODEL, 60).table
    assert hilbert_samuel_residual(back, 60) == \
        hilbert_samuel_residual(MODEL, 60)
    torus = TorusGeometry(1j, n=16, degree=1)
    with pytest.raises(GeometryMismatch):
        apply_metric_change(back, PotentialField.constant(torus, 0.0))


def test_every_family_id_has_closed_forms():
    # a family id added to the exact core without closed forms here
    # fails this test instead of running the P^1 ones
    for family_id in FAMILY_GEOMETRY:
        assert l2_gram(family_id, 3, "fs", "m-omega").rank == 4
        model = MODEL.replace_form({}, family=family_id)
        assert len(dequantization_scan(model, 10).table) == 10
        assert len(hilbert_samuel_residual(model, 10)) == 10
    known = f"known: {sorted(FAMILY_GEOMETRY)}"
    for family_id in ("p1", None):
        with pytest.raises(UnsupportedFamily, match=re.escape(known)):
            l2_gram(family_id, 3, "fs", "m-omega")
    untagged = MODEL.replace_form({}, family=None)
    for scan in (dequantization_scan, hilbert_samuel_residual):
        with pytest.raises(UnsupportedFamily,
                           match="no closed-form providers for family None"):
            scan(untagged, 10)


def test_model_json_family_key():
    obj = MODEL.to_json()
    del obj["family"]                 # files written before the field
    old = IntersectionModel.from_json(obj)
    assert old.family is None
    with pytest.raises(UnsupportedFamily):
        dequantization_scan(old, 10)
    obj["family"] = "p9"
    with pytest.raises(UnsupportedFamily):
        IntersectionModel.from_json(obj)
