"""Quadrature geometries, potentials and archimedean energies."""

import hashlib
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

from heights.energies import (am_energy, apply_metric_change, aubin_i,
                              aubin_j, bott_chern_delta,
                              cubic_identity_check, entropy, k_energy,
                              metric_model_pair, ricci_density,
                              scalar_curvature_l2)
from heights.errors import (ArityMismatch, GeometryMismatch, HeightsError,
                            NonKahler, ValidationError)
from heights.families import build_p1_fs, build_p2_blowup_family
from heights.functionals import (aubin_I_rel, aubin_J_rel,
                                  decomposition_check, model_beta,
                                  modular_height)
from heights.geometry import (MAX_GRID, SphereGeometry, TorusGeometry,
                              make_geometry)
from heights.heightvalue import HeightValue
from heights.intersection import (DivisorClassId, IntersectionModel,
                                  SymmetricForm, form_key)
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


def legendre_block_reference(g, m):
    """Orthonormal associated Legendre P_l^m(g.x) for l = m..g.lmax,
    normalized so that int_{-1}^{1} P^2 dx = 1: the per-order three-term
    recurrence in l over every node."""
    x = g.x
    lmax = g.lmax
    nl = lmax - m + 1
    P = np.empty((nl, x.size))
    # log of the m=m starting norm to dodge overflow
    logc = 0.5 * (math.lgamma(2 * m + 2) - (2 * m + 1) * math.log(2.0)) \
        - math.lgamma(m + 1)
    s = np.maximum(1.0 - x * x, 0.0)
    with np.errstate(divide="ignore"):
        logs = np.where(s > 0, np.log(s), -np.inf)
    P[0] = np.exp(logc + 0.5 * m * logs)
    if nl > 1:
        P[1] = math.sqrt(2 * m + 3.0) * x * P[0]
    for l in range(m + 2, lmax + 1):
        a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = math.sqrt(((2.0 * l + 1.0) * (l - 1.0 + m) * (l - 1.0 - m))
                      / ((2.0 * l - 3.0) * (l * l - m * m)))
        P[l - m] = a * x * P[l - m - 1] - b * P[l - m - 2]
    return P


def complex_fft_laplacian(g, f):
    """Reference sphere Laplacian: full complex FFT in psi, one Legendre
    analysis and synthesis for each of +m and -m."""
    fm = np.fft.fft(f, axis=1) / g.n_psi
    out = np.zeros_like(fm)
    lam = -np.arange(g.lmax + 1.0) * np.arange(1.0, g.lmax + 2.0)
    w = leggauss(g.n_theta)[1]
    for idx in range(g.n_psi):
        m = idx if idx <= g.n_psi // 2 else idx - g.n_psi
        if abs(m) > g.lmax:
            continue
        P = legendre_block_reference(g, abs(m))
        out[:, idx] = P.T @ (lam[abs(m):] * (P @ (w * fm[:, idx])))
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
            P = legendre_block_reference(g, abs(m))[l - abs(m)]
            ang = np.cos(m * g.psi) if m >= 0 else np.sin(-m * g.psi)
            want += c * np.outer(P, ang)
        got = g.synth_harmonics(coeffs)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(SPHERE.synth_harmonics({}),
                          np.zeros(SPHERE.shape))
    for bad in ({(2, 3): 1.0}, {(2, -3): 1.0}):
        with pytest.raises(ValidationError):
            SPHERE.synth_harmonics(bad)
    with pytest.raises(ValidationError, match=r"key \(2\.0, 1\)"):
        SphereGeometry(16).synth_harmonics({(2.0, 1): 1.0})
    assert np.array_equal(
        SPHERE.synth_harmonics({(np.int64(3), np.int32(-2)): 0.5}),
        SPHERE.synth_harmonics({(3, -2): 0.5}))


def rfft_laplacian_reference(g, f):
    """Reference sphere Laplacian: rfft in psi, then analysis and
    synthesis with the reference block of each order over every node."""
    fm = np.fft.rfft(f, axis=1)
    out = np.zeros_like(fm)
    lam = -np.arange(g.lmax + 1.0) * np.arange(1.0, g.lmax + 2.0)
    w = leggauss(g.n_theta)[1]
    for m in range(g.lmax + 1):
        P = legendre_block_reference(g, m)
        out[:, m] = P.T @ (lam[m:] * (P @ (w * fm[:, m])))
    return np.fft.irfft(out, n=g.n_psi, axis=1)


# an odd n_theta puts a node on the equator, its own mirror image
@pytest.mark.parametrize("shape", [(1, 2), (2, 4), (3, 7), (15, 30),
                                   (16, 33), (17, 34), (17, 35),
                                   (512, 1024)])
def test_laplacian_matches_reference_blocks(shape):
    g = SphereGeometry(*shape)
    f = np.random.default_rng(1).normal(size=g.shape)
    want = rfft_laplacian_reference(g, f)
    got = g.laplacian(f)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(17, 34), (17, 35), (512, 1024)])
def test_synth_harmonics_matches_reference_blocks(shape):
    g = SphereGeometry(*shape)
    rng = np.random.default_rng(2)
    coeffs = {(l, m): rng.normal() for l in range(13)
              for m in range(-l, l + 1)}
    blocks = [legendre_block_reference(g, m) for m in range(13)]
    want = np.zeros(g.shape)
    for (l, m), c in coeffs.items():
        ang = np.cos(m * g.psi) if m >= 0 else np.sin(-m * g.psi)
        want += c * np.outer(blocks[abs(m)][l - abs(m)], ang)
    got = g.synth_harmonics(coeffs)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("cap", [4, 16, 33, 40])
def test_legendre_chunks_equal_reference_blocks(cap, monkeypatch):
    # same recurrence, same operation order: equal to the last bit on
    # the northern nodes, for every order and below any degree cap.
    # Blocks of 5 degrees cross several block boundaries, and every
    # other block starts on an odd k.  All blocks share one buffer, so
    # each is copied as it is yielded; caps 33 and 40 take three chunks,
    # the last one short, and would show rows left over from an earlier
    # chunk or block
    monkeypatch.setattr("heights.geometry._BLOCK", 5)
    g = SphereGeometry(41, n_psi=83)
    chunks = [(m0, [(k0, even.copy(), odd.copy())
                    for k0, even, odd in blocks])
              for m0, blocks in g._legendre_blocks(cap)]
    assert [m0 for m0, _ in chunks] == list(range(0, cap + 1, 16))
    north = g.x >= 0
    for m0, blocks in chunks:
        K = cap - m0 + 1
        assert [k0 for k0, _, _ in blocks] == list(range(0, K, 5))
        got = {}
        for k0, even, odd in blocks:
            assert even.shape[1] + odd.shape[1] == min(5, K - k0)
            for first, P in ((k0 + k0 % 2, even), (k0 + (k0 + 1) % 2, odd)):
                for i in range(P.shape[1]):
                    assert first + 2 * i not in got
                    got[first + 2 * i] = P[:, i]
        assert sorted(got) == list(range(K))
        rows = np.stack([got[k] for k in range(K)], axis=1)
        for j in range(rows.shape[0]):
            m = m0 + j
            want = legendre_block_reference(g, m)[:cap - m + 1, north]
            assert np.array_equal(rows[j, :cap - m + 1], want)
            assert not rows[j, cap - m + 1:].any()


@pytest.mark.parametrize("shape", [(17, 35), (64, 128)],
                         ids=["17x35", "64x128"])
def test_short_blocks_match_default_blocks(shape, monkeypatch):
    # only the order of each chunk's synthesis sum changes with the
    # block size; (64, 128) also fills the memo with several blocks per
    # chunk, one-row blocks among them
    rng = np.random.default_rng(3)
    f = rng.normal(size=shape)
    coeffs = {(l, m): rng.normal() for l in range(shape[0])
              for m in range(-l, l + 1)}
    g = SphereGeometry(*shape)
    want = [g.laplacian(f), g.synth_harmonics(coeffs)]
    monkeypatch.setattr("heights.geometry._BLOCK", 5)
    g = SphereGeometry(*shape)
    got = [g.laplacian(f), g.synth_harmonics(coeffs)]
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))


def traced_peak(fn, *args) -> int:
    """Peak bytes tracemalloc sees while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_laplacian_memory_is_bounded_at_grid_512():
    # the recurrence buffer holds _BLOCK + 2 degrees (8.5 MB), not a
    # whole 16-order chunk of 512 (16.8 MB), and the rfft array (4.2 MB)
    # is also the output: 12.9 MB measured, 32.1 MB with whole chunks,
    # 16.4 MB if a view of the buffer outlives the chunk loop
    g = SphereGeometry(512)
    f = np.random.default_rng(4).normal(size=g.shape)
    assert traced_peak(g.laplacian, f) < 14 * 2 ** 20


@pytest.mark.parametrize("method, limit", [("synth_harmonics", 9),
                                           ("random_potential", 18)])
def test_synthesis_memory_is_bounded_at_grid_512(method, limit):
    # the recurrence buffer holds the 13 + 2 rows that degree cap 12 needs
    # (0.5 MB) and is freed before the inverse FFT allocates its output:
    # 8.1 and 16.1 MB measured; 12.3 and 16.4 MB with a buffer of
    # _BLOCK + 2 rows (8.5 MB), 16.2 and 24.3 MB when a view of a block
    # also outlives the chunk loop
    g = SphereGeometry(512)
    arg = ({(l, m): 0.1 for l in range(13) for m in range(-l, l + 1)}
           if method == "synth_harmonics" else np.random.default_rng(0))
    assert traced_peak(getattr(g, method), arg) < limit * 2 ** 20


# SHA-256 prefixes of the outputs for seeds 0-7 of the transform before
# the memo was shared and each block read once per parity
OUTPUT_DIGESTS = {
    (16, 33): ("b5a21f05fafc990e", "54e7e97d191ded58", "3001c7b56ba39864"),
    (17, 35): ("8c849332483ab4ee", "cd9978872886a73b", "faf6fe92ffa39b73"),
    (64, 128): ("a8ae6428a68ff870", "271577d63c07b0b4", "21e3520f577659c0"),
    (128, 256): ("e2b7c254d353a0d7", "349a40971bc5605a", "e997e779e2df6794"),
    (256, 512): ("590f2494d133d48a", "22b8e1ce256f9ff1", "bdace84867e25a98"),
    (512, 1024): ("06b7265c3be4d9a3", "b08aee5b649d3f41",
                  "1fb9c4b8ef19b3cb"),
}


@pytest.mark.parametrize("shape", list(OUTPUT_DIGESTS),
                         ids=lambda s: "%dx%d" % s)
def test_transforms_are_bit_identical_to_recorded(shape):
    # laplacian of white noise, synth_harmonics of all degrees to 20 and
    # PotentialField.random (samples, then ddc), hashed over the seeds
    g = SphereGeometry(*shape)
    digests = [hashlib.sha256() for _ in range(3)]
    for seed in range(8):
        rng = np.random.default_rng(seed)
        digests[0].update(g.laplacian(rng.normal(size=g.shape)).tobytes())
        cap = min(g.lmax, 20)
        coeffs = {(l, m): rng.normal() for l in range(cap + 1)
                  for m in range(-l, l + 1)}
        digests[1].update(g.synth_harmonics(coeffs).tobytes())
        p = PotentialField.random(g, seed)
        digests[2].update(p.samples.tobytes())
        digests[2].update(p.ddc.tobytes())
    assert tuple(d.hexdigest()[:16] for d in digests) == OUTPUT_DIGESTS[shape]


def test_grid_shares_one_legendre_memo():
    f = np.ones((64, 128))
    a, b = SphereGeometry(64), SphereGeometry(64)
    assert a._memo is None and b._memo is None
    a.laplacian(f)
    assert b._memo is None
    b.laplacian(f)
    assert a._memo is b._memo and a._memo is not None
    memo = weakref.ref(a._memo)
    del a
    assert memo() is b._memo
    del b
    assert memo() is None
    # the nodes depend on n_theta, the blocks on lmax = min(n_theta - 1,
    # n_psi / 2 - 1): 100 and 128 columns give lmax 49 and 63
    c, d, e = (SphereGeometry(64, n) for n in (100, 128, 129))
    for g in (c, d, e):
        g.laplacian(np.ones(g.shape))
    assert d._memo is e._memo and c._memo is not d._memo


def test_memo_follows_block_length(monkeypatch):
    # a memo built under one _BLOCK never serves another: the shared memo
    # and the memo a geometry already holds are both looked up again
    g = SphereGeometry(20)
    g.laplacian(np.ones(g.shape))
    before = g._memo
    monkeypatch.setattr("heights.geometry._BLOCK", 5)
    h = SphereGeometry(20)
    h.laplacian(np.ones(h.shape))
    assert h._memo is not before
    assert [len(blocks) for _, blocks in h._memo] == [4, 1]
    g.laplacian(np.ones(g.shape))
    assert g._memo is h._memo


@pytest.mark.parametrize("g, value", [(SPHERE, 2.0),
                                      (TorusGeometry(1j, n=8), 0.0)],
                         ids=["sphere", "torus"])
def test_reference_ricci_is_read_only(g, value):
    assert np.array_equal(g.ric, np.full(g.shape, value))
    with pytest.raises(ValueError):
        g.ric[0, 0] = 1.0
    # the quadrature weights are read-only views too, constant along psi
    # on the sphere and everywhere on the torus
    assert g.weights.shape == g.shape and g.weights.strides[1] == 0
    assert np.array_equal(g.weights, np.broadcast_to(g.weights[:, :1],
                                                     g.shape))
    assert g.quad(np.ones(g.shape)) == pytest.approx(g.V, rel=1e-14)
    with pytest.raises(ValueError):
        g.weights[0, 0] = 1.0


def held_bytes(g):
    """Bytes of the arrays a geometry holds, directly or in lists,
    tuples and dicts."""
    def size(v):
        if isinstance(v, np.ndarray):
            return v.nbytes
        if isinstance(v, dict):
            return size(list(v.values()))
        if isinstance(v, (list, tuple)):
            return sum(size(i) for i in v)
        return 0
    return sum(size(v) for v in vars(g).values())


def test_legendre_values_kept_only_up_to_grid_256():
    for n_theta, limit in [(256, 40e6), (512, 0)]:
        g = SphereGeometry(n_theta)
        before = held_bytes(g)
        g.laplacian(np.ones(g.shape))
        grown = held_bytes(g) - before
        assert grown <= limit and (grown > 0) == (limit > 0)


def torus_random_reference(g, rng):
    """Reference torus random field and its ddc: each cos/sin pair over
    the grid, times the flat multiplier of its wave number."""
    x = np.arange(g.n) / g.n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    f, d = np.zeros(g.shape), np.zeros(g.shape)
    for k in range(-6, 7):
        for l in range(-6, 7):
            if k == 0 and l == 0:
                continue
            c = rng.normal() / (1.0 + k * k + l * l)
            s = rng.normal() / (1.0 + k * k + l * l)
            ang = 2.0 * np.pi * (k * xx + l * yy)
            wave = c * np.cos(ang) + s * np.sin(ang)
            f += wave
            d += -np.pi * (k * k + ((l - k * g.tau.real) / g.tau.imag) ** 2) \
                * g.tau.imag / g.V * wave
    return f, d


def sphere_random_reference(g, rng):
    """Reference sphere random field and its ddc: each harmonic c Y_lm
    and -l(l+1) c Y_lm from the reference blocks."""
    blocks = [legendre_block_reference(g, m) for m in range(13)]
    f, d = np.zeros(g.shape), np.zeros(g.shape)
    for l in range(1, 13):
        for m in range(-l, l + 1):
            c = rng.normal() / (1.0 + l) ** 2
            ang = np.cos(m * g.psi) if m >= 0 else np.sin(-m * g.psi)
            wave = c * np.outer(blocks[abs(m)][l - abs(m)], ang)
            f += wave
            d += -l * (l + 1.0) * wave
    return f, d


@pytest.mark.parametrize("n", [8, 9, 32, 64])
def test_torus_random_potential_matches_loop(n):
    # n < 13 aliases wave numbers on the grid, the same way for both; an
    # even n puts aliased waves on the Nyquist row, where the multiplier
    # of a sheared torus is not even, so the ddc is checked against the
    # grid Laplacian of the samples
    g = TorusGeometry(0.3 + 1j, n=n, degree=2)
    want, _ = torus_random_reference(g, np.random.default_rng(5))
    got, ddc = g.random_potential(np.random.default_rng(5))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    lap = g.ddc(got)
    assert np.max(np.abs(ddc - lap)) <= 1e-13 * np.max(np.abs(lap))


def test_random_potential_needs_the_grid_to_reach_degree_12():
    # lmax = min(n_theta - 1, n_psi / 2 - 1) must reach the drawn degrees
    for shape in [(12, 24), (13, 24), (8, 16)]:
        with pytest.raises(ValidationError, match="band limit"):
            PotentialField.random(SphereGeometry(*shape), 0)
    assert PotentialField.random(SphereGeometry(13, 26), 0).samples.shape \
        == (13, 26)


# (geometry, bound on the stored ddc against the transform of the
# samples): the sphere transform carries the leggauss weight error,
# lifted by l(l+1), and the torus FFT is exact to rounding
NO_TRANSFORM_CASES = [(SPHERE, 1e-8), (SphereGeometry(512), 1e-6),
                      (TorusGeometry(0.3 + 1j, n=32, degree=2), 1e-13)]


@pytest.mark.parametrize("geometry, transform_err", NO_TRANSFORM_CASES,
                         ids=["sphere128", "sphere512", "torus32"])
def test_random_potential_takes_no_transform(geometry, transform_err,
                                             monkeypatch):
    # both geometries take ddc through laplacian, so this counts every
    # transform, including any taken inside random_potential
    calls = []
    laplacian = geometry.laplacian
    monkeypatch.setattr(geometry, "laplacian",
                        lambda u: calls.append(1) or laplacian(u))
    phi = PotentialField.random(geometry, 6)
    assert len(calls) == 0
    peak = np.max(np.abs(phi.ddc))
    assert peak == pytest.approx(0.4, rel=1e-15)
    reference = (sphere_random_reference if geometry.kind == "sphere"
                 else torus_random_reference)
    f, d = reference(geometry, np.random.default_rng(6))
    s = 0.4 / np.max(np.abs(d))
    assert np.max(np.abs(phi.ddc - s * d)) <= 1e-12 * peak
    assert np.max(np.abs(phi.samples - s * f)) <= \
        1e-12 * np.max(np.abs(phi.samples))
    lap = geometry.ddc(phi.samples)
    assert np.max(np.abs(phi.ddc - lap)) <= transform_err * peak


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
    # a NaN density fails the check too
    ddc = np.zeros(SPHERE.shape)
    ddc[5, 7] = np.nan
    with pytest.raises(NonKahler, match="positivity"):
        PotentialField(SPHERE, np.zeros(SPHERE.shape), _ddc=ddc)
    # and so does an infinite one
    ddc[5, 7] = np.inf
    with pytest.raises(NonKahler, match="positivity"):
        PotentialField(SPHERE, np.zeros(SPHERE.shape), _ddc=ddc)


def test_positive_needs_every_value_finite_and_above_the_bound():
    from heights.geometry import _positive
    assert _positive(np.ones((2, 3))) and _positive(2.0)
    assert _positive(np.zeros(0))           # no value breaks the rule
    assert _positive(np.full(4, 2e-10), 1e-10)
    assert not _positive(np.full(4, 1e-10), 1e-10)
    for bad in (np.nan, np.inf, -np.inf, 0.0, -1.0):
        x = np.ones((3, 4))
        x[1, 2] = bad
        assert not _positive(x) and not _positive(bad)


def test_scalar_curvature_refuses_an_inf_density():
    # one inf sample on a grid-8 sphere: the Laplacian would turn it
    # into NaN with a RuntimeWarning, and the L2 norm into nan
    g = SphereGeometry(8)
    dens = np.ones(g.shape)
    dens[3, 5] = np.inf
    with pytest.raises(ValidationError, match="metric density must be "
                                              "positive"):
        scalar_curvature_l2(g, dens)


def test_potentials_refuse_non_finite_samples():
    sphere, torus = SphereGeometry(8), TorusGeometry(1j, n=8)
    for g, bad in ((sphere, np.nan), (torus, np.inf), (sphere, -np.inf)):
        samples = np.zeros(g.shape)
        samples[2, 3] = bad
        with pytest.raises(ValidationError, match="finite"):
            PotentialField(g, samples)
    # a constant skips the transform: its ddc is zeros
    for c in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="finite"):
            PotentialField.constant(sphere, c)


def test_round_metric_scalar_curvature():
    one = np.ones(SPHERE.shape)
    S = ricci_density(SPHERE, one) / one
    assert np.max(np.abs(S - 2.0)) < 1e-12
    assert scalar_curvature_l2(SPHERE, one) == pytest.approx(4.0, abs=1e-10)
    for bad in (np.nan, 0.0, -1.0):
        dens = np.ones(SPHERE.shape)
        dens[4, 9] = bad
        with pytest.raises(ValidationError, match="positive"):
            scalar_curvature_l2(SPHERE, dens)


def test_k_energy_vanishes_on_constants():
    c = PotentialField.constant(SPHERE, 0.7)
    assert abs(k_energy(c)) < 1e-12
    assert abs(am_energy(c) - 2 * 0.7) < 1e-12    # E(const c) = 2c, n = 1
    assert abs(entropy(c)) < 1e-14


# (n_theta, lower and upper bound on the relative entropy error, bound on
# the transform's ddc error): Gauss-Legendre converges geometrically on
# the smooth, non-polynomial u log u, so the error falls from 4.9e-5 at
# n 4 to rounding by n 16; the transform's ddc carries the leggauss
# weight error, lifted by l(l+1) = 2 (measured 1.6e-8 at 128, 3.3e-6 at
# 512)
ENTROPY_GRIDS = [(4, 1e-5, 1e-4, 1e-14), (8, 1e-10, 1e-8, 1e-12),
                 (16, 0.0, 1e-13, 1e-11), (32, 0.0, 1e-13, 1e-10),
                 (64, 0.0, 1e-13, 1e-9), (128, 0.0, 1e-13, 1e-7),
                 (256, 0.0, 1e-13, 1e-6), (512, 0.0, 1e-13, 1e-5)]


@pytest.mark.parametrize("n, lo, hi, ddc_err", ENTROPY_GRIDS)
def test_entropy_matches_continuum_closed_form(n, lo, hi, ddc_err):
    # phi = eps cos(theta) has ddc phi = -2 eps cos(theta), so with
    # u = omega_phi = 1 - 2 eps x and dmu = dx/2 the entropy is
    # (1/4 eps) int u log u du from 1 - 2 eps to 1 + 2 eps
    eps = 0.3
    g = SphereGeometry(n)
    x = np.repeat(g.x[:, None], g.n_psi, axis=1)
    phi = PotentialField(g, eps * x, _ddc=-2.0 * eps * x)

    def prim(u):
        return u * u * (2.0 * math.log(u) - 1.0) / 4.0

    want = (prim(1.0 + 2.0 * eps) - prim(1.0 - 2.0 * eps)) / (4.0 * eps)
    err = abs(entropy(phi) - want) / want
    assert lo <= err <= hi
    assert np.max(np.abs(g.ddc(phi.samples) - phi.ddc)) <= ddc_err


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


@pytest.mark.parametrize("geometry", [SPHERE,
                                      TorusGeometry(0.3 + 1j, n=32, degree=2)],
                         ids=["sphere", "torus"])
def test_bott_chern_quadrature_is_the_mixed_energy(geometry):
    # against the densities omega + omega_phi, the quadrature is
    # int phi (omega + omega_phi) = V * am_energy
    for seed in range(3):
        phi = PotentialField.random(geometry, seed)
        assert bott_chern_delta(phi, [1 + phi.omega_phi]) == pytest.approx(
            geometry.V * am_energy(phi), rel=0, abs=1e-14)


@pytest.mark.parametrize("lmax", [12, 63])
def test_from_harmonics_samples_and_ddc(lmax):
    g = SphereGeometry(64)
    rng = np.random.default_rng(lmax)
    coeffs = {(l, m): rng.normal() / (1 + l) ** 2
              for l in range(1, lmax + 1) for m in range(-l, l + 1)}
    # harmonics are eigenfunctions: ddc is the synthesis of -l(l+1) c
    ddc = g.synth_harmonics({k: -k[0] * (k[0] + 1) * c
                             for k, c in coeffs.items()})
    # scaled to max|ddc phi| = 0.4, as PotentialField.random
    s = 0.4 / np.max(np.abs(ddc))
    coeffs = {k: s * c for k, c in coeffs.items()}
    phi = PotentialField.from_harmonics(g, coeffs)
    assert np.array_equal(phi.samples, g.synth_harmonics(coeffs))
    # the transform meets it to 3.5e-11 over 30 draws at lmax 12 and 63
    assert np.max(np.abs(phi.ddc - s * ddc)) < 1e-10
    with pytest.raises(ValidationError, match="sphere grid"):
        PotentialField.from_harmonics(TorusGeometry(1j, n=8), {(1, 0): 0.1})


def test_apply_metric_change_identity():
    model = build_p1_fs()
    phi = PotentialField.random(SPHERE, 11)
    changed = apply_metric_change(model, phi)
    dh = (modular_height(changed) - modular_height(model)).evaluate()
    mu = k_energy(phi)
    assert dh == pytest.approx(mu, rel=1e-12, abs=1e-14)


def torus_model(degree):
    """Genus-one fiber with deg_Ln = degree and deg_LK = 0."""
    form = SymmetricForm(2, {
        ("L", "L"): HeightValue(0.5),
        ("K", "L"): HeightValue(log_terms={2: 1}),
        ("K", "K"): HeightValue(0),
    })
    return IntersectionModel(
        n=1, degree_KQ=1,
        classes=(DivisorClassId("L", "polarization"),
                 DivisorClassId("K", "relative-canonical")),
        form=form, L_class="L", K_class="K", deg_Ln=degree, deg_LK=0)


FIELD_CASES = [(SPHERE, build_p1_fs()),
               (TorusGeometry(0.3 + 1j, n=32, degree=2), torus_model(2))]


INTEGRALS = ("int_phi", "int_phi_mixed", "int_phi_aubin", "int_phi_ric",
             "int_log", "int_log_omega_phi", "int_log_ric", "int_log_ricci")


@pytest.mark.parametrize("geometry, model", FIELD_CASES)
def test_metric_change_takes_one_ricci_transform(geometry, model,
                                                 monkeypatch):
    # the chain of a benchmark job: the field's ddc comes from its
    # coefficients and its Ricci curvature from one transform, and every
    # quadrature is a distinct integral taken once
    transforms, quads = [], []
    laplacian, quad = geometry.laplacian, geometry.quad
    monkeypatch.setattr(geometry, "laplacian",
                        lambda u: transforms.append(1) or laplacian(u))
    monkeypatch.setattr(geometry, "quad",
                        lambda f: quads.append(1) or quad(f))
    phi = PotentialField.random(geometry, 3)
    changed = apply_metric_change(model, phi)
    dh = (modular_height(changed) - modular_height(model)).evaluate()
    mu = float(model.deg_Ln) / model.degree_KQ * k_energy(phi)
    assert dh == pytest.approx(mu, rel=1e-12, abs=1e-14)
    pair = metric_model_pair(model, phi)
    decomposition_check(pair)
    aubin_I_rel(pair), aubin_J_rel(pair), aubin_i(phi), aubin_j(phi)
    k_energy(phi)
    assert len(transforms) == 1
    assert len(quads) == len(INTEGRALS)
    assert set(INTEGRALS) <= set(vars(phi))


@pytest.mark.parametrize("geometry, model", FIELD_CASES)
def test_cached_ricci_equals_explicit_path(geometry, model):
    phi = PotentialField.random(geometry, 12)
    g = geometry
    changed = apply_metric_change(model, phi)
    # the explicit path: Ric(omega_phi) = ric - ddc(log omega_phi)
    log_ratio = np.log(phi.omega_phi)
    ric_phi = g.ric - g.ddc(log_ratio)
    assert np.array_equal(phi.log_omega, log_ratio)
    assert np.array_equal(phi.ricci, ric_phi)
    assert np.array_equal(ricci_density(g, phi.omega_phi), ric_phi)
    beta = float(model_beta(model))
    Lk, Kk = model.L_class, model.K_class
    shifts = {
        (Lk, Lk): beta * g.quad(phi.samples * (1.0 + phi.omega_phi)),
        (Lk, Kk): beta * (g.quad(phi.samples * (-g.ric))
                          + g.quad(log_ratio * phi.omega_phi)),
        (Kk, Kk): beta * (g.quad(log_ratio * (-g.ric))
                          + g.quad(log_ratio * (-ric_phi))),
    }
    for pair, shift in shifts.items():
        key = form_key(pair)
        assert changed.form.entries[key] == \
            model.form.entries[key].shift_real(shift)
    joint = metric_model_pair(model, phi).joint_form.entries
    L0, K0 = Lk + "_ref", Kk + "_ref"
    mixed = {
        (Lk, L0): ((Lk, Lk), beta * g.quad(phi.samples * 1.0)),
        (Lk, K0): ((Lk, Kk), beta * g.quad(phi.samples * (-g.ric))),
        (L0, Kk): ((Lk, Kk), beta * g.quad(log_ratio * 1.0)),
        (Kk, K0): ((Kk, Kk), beta * g.quad(log_ratio * (-g.ric))),
    }
    for pair, (base, shift) in mixed.items():
        assert joint[form_key(pair)] == \
            model.form.entries[form_key(base)].shift_real(shift)
    ent = g.quad(log_ratio * phi.omega_phi)
    assert entropy(phi) == ent
    assert k_energy(phi) == (g.default_Sbar / 2) * am_energy(phi) \
        - g.quad(phi.samples * g.ric) / g.V + ent / g.V
    assert aubin_i(phi) == g.quad(phi.samples * (1.0 - phi.omega_phi)) / g.V
    assert aubin_j(phi) == g.quad(phi.samples) / g.V \
        - g.quad(phi.samples * (1.0 + phi.omega_phi)) / (2 * g.V)


def test_derived_fields_start_empty():
    # Ric is not linear in phi: a sum or a rescaling computes its own
    a = PotentialField.random(SPHERE, 1)
    b = PotentialField.random(SPHERE, 2)
    assert a.ricci is a.ricci and b.ricci is b.ricci    # kept once computed
    k_energy(a), aubin_i(a), aubin_j(a), metric_model_pair(build_p1_fs(), a)
    assert set(INTEGRALS) <= set(vars(a))
    c = PotentialField.constant(SPHERE, 0.3)
    for phi in (a + b, a.scale(0.5), c):
        assert not {"log_omega", "ricci", *INTEGRALS} & set(vars(phi))
        assert np.array_equal(phi.ricci, ricci_density(SPHERE,
                                                       phi.omega_phi))
    assert entropy(a.scale(0.5)) == \
        SPHERE.quad(np.log(1.0 + 0.5 * a.ddc) * (1.0 + 0.5 * a.ddc))


def test_apply_metric_change_geometry_guard():
    model = build_p1_fs()
    t = TorusGeometry(1j, n=32, degree=1)
    phi = PotentialField.constant(t, 0.0)
    with pytest.raises(GeometryMismatch):
        apply_metric_change(model, phi)
    # a model of no family on a torus of mass 2, and a surface
    free = model.replace_form({}, family=None)
    heavy = PotentialField.constant(TorusGeometry(1j, n=8, degree=2), 0.0)
    with pytest.raises(GeometryMismatch, match="grid mass"):
        apply_metric_change(free, heavy)
    surface = build_p2_blowup_family((2,)).model
    with pytest.raises(GeometryMismatch, match="n = 1"):
        apply_metric_change(surface, PotentialField.constant(SPHERE, 0.0))


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
    with pytest.raises(ValidationError, match="torus fiber"):
        cubic_identity_check(SPHERE)


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


def test_potential_csv_refuses_malformed_headers(tmp_path):
    p = tmp_path / "bad.csv"
    for header in ("# sphere,abc", "# sphere", "# torus,4,1,0.0"):
        p.write_text(header + "\n0\n")
        with pytest.raises(ValidationError, match=re.escape(repr(header))):
            load_potential_csv(p)
    for header, want in (("sphere,2,4", "must start with a header"),
                         ("# plane,4", "unknown geometry 'plane'")):
        p.write_text(header + "\n0\n")
        with pytest.raises(ValidationError, match=want):
            load_potential_csv(p)


def test_potential_csv_refuses_bad_data_rows(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("# sphere,2,4\n0,0,0,0\n0,x,0,0\n")
    with pytest.raises(ValidationError, match="could not convert"):
        load_potential_csv(p)
    p.write_text("# sphere,2,4\n" + "nan,nan,nan,nan\n" * 2)
    with pytest.raises(ValidationError, match="finite"):
        load_potential_csv(p)
    p.write_text("# sphere,2,4\n0,0,0,0\n")
    with pytest.raises(ValidationError, match="sample shape"):
        load_potential_csv(p)
    # a header alone: numpy's loadtxt would warn "input contained no
    # data" before the refusal
    for text in ("# sphere,2,4\n", "# sphere,2,4", "# torus,2,1,0,1\n\n# c\n"):
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="no data rows"):
                load_potential_csv(p)


# a cell past, at or beside the float range's edges, or no number at all
CSV_ODD = ["nan", "inf", "-inf", "1e-320", "1e308", "-1e308", "0.1", "x", ""]
# a header field: over MAX_GRID (the limit itself builds for seconds),
# not positive, not an integer or not finite
HEADER_ODD = [str(MAX_GRID + 1), str(2 * MAX_GRID + 1), "0", "-1", "1e3", "x",
              "", "nan", "inf", "-inf"]


@st.composite
def potential_csvs(draw):
    """The text of a potential CSV on a grid of at most 4 x 8 nodes, with
    mutations of its header and its data rows."""
    if draw(st.booleans()):
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 8))
        header = ["sphere", str(rows), str(cols)]
    else:
        rows = cols = draw(st.integers(1, 4))
        header = ["torus", str(rows), "1", "0.5", "1.5"]
    for _ in range(draw(st.integers(0, 2))):
        header[draw(st.integers(1, len(header) - 1))] = draw(
            st.sampled_from(HEADER_ODD))
    data = [["0"] * cols for _ in range(rows)]
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.integers(0, rows - 1))][draw(
            st.integers(0, cols - 1))] = draw(st.sampled_from(CSV_ODD))
    if draw(st.booleans()):
        data[draw(st.integers(0, rows - 1))].pop()          # ragged
    data = data[:draw(st.sampled_from([rows, rows, 0, rows - 1]))]
    return "\n".join(["# " + ",".join(header)]
                     + [",".join(r) for r in data]) + "\n"


@given(text=potential_csvs())
@example(text="# sphere,2,4\n")
@example(text=f"# sphere,{MAX_GRID + 1},4\n0\n")
@example(text="# sphere,2,4\n1e308,0,0,0\n0,0,0,0\n")
@example(text="# torus,2,1,inf,1.0\n0,0\n0,0\n")
@example(text="# torus,2,1,0.5,nan\n0,0\n0,0\n")
@settings(max_examples=150, deadline=None)
def test_mutated_potential_csv_raises_only_heights_errors(tmp_path_factory,
                                                           text):
    # a CSV loads or is refused by name, with no warning on the way
    p = tmp_path_factory.getbasetemp() / "mutated.csv"
    p.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            load_potential_csv(p)
        except HeightsError:
            pass


def test_geometry_rejects_bad_sizes():
    for bad in (lambda: SphereGeometry(0), lambda: SphereGeometry(-4),
                lambda: SphereGeometry(4, n_psi=0),
                lambda: SphereGeometry(4, n_psi=1),
                lambda: TorusGeometry(1j, n=0),
                lambda: TorusGeometry(1j, degree=0)):
        with pytest.raises(ValidationError):
            bad()


def test_grid_sizes_over_the_limit_allocate_nothing(tmp_path):
    # each size would ask for gigabytes; the refusal comes first
    csv_path = tmp_path / "big.csv"
    csv_path.write_text(f"# sphere,{MAX_GRID + 1},{2 * MAX_GRID}\n0\n")
    tracemalloc.start()
    try:
        for name, bad in (
                ("n_theta", lambda: SphereGeometry(200_000)),
                ("n_theta", lambda: SphereGeometry(MAX_GRID + 1)),
                ("n_psi", lambda: SphereGeometry(4, n_psi=2 * MAX_GRID + 1)),
                ("n", lambda: TorusGeometry(1j, n=MAX_GRID + 1)),
                ("n", lambda: make_geometry("torus", tau=1j, n=10 ** 9)),
                ("n_theta", lambda: load_potential_csv(csv_path))):
            with pytest.raises(ValidationError, match=f"grid {name} = "):
                bad()
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_make_geometry_rejects_unknown():
    with pytest.raises(ValidationError):
        make_geometry("plane")
    with pytest.raises(ValidationError):
        TorusGeometry(-1j)
    for tau in (complex(math.inf, 1), complex(0, math.inf),
                complex(0, math.nan), complex(math.nan, 1)):
        with pytest.raises(ValidationError, match="finite"):
            TorusGeometry(tau, n=4)


def test_potential_addition_shares_grid():
    a = PotentialField.random(SPHERE, 1)
    b = PotentialField.random(SPHERE, 2)
    s = a + b
    assert np.max(np.abs(s.ddc - a.ddc - b.ddc)) < 1e-14
    other = SphereGeometry(64)
    c = PotentialField.constant(other, 0.0)
    with pytest.raises(ValidationError):
        a + c
