"""Quantized heights: section Grams, arithmetic degrees, Chow heights
and balanced iteration.

v1 supports the P^1_Z / Fubini-Study family end to end: the closed-form
Grams and arithmetic degrees below are its, and `l2_gram` and the scans
(`heights.scans`) refuse any other `family` id through the one family
check, `intersection._check_family` (see `intersection.FAMILY_GEOMETRY`).
"""

from __future__ import annotations

import math

import numpy as np

from ._frozen import FrozenValue
from .errors import (ConventionMismatch, NonPositiveDefinite,
                     NumericError, UnsupportedFamily, ValidationError)
from .geometry import SphereGeometry, _positive
from .intersection import _check_family
# the two scans are not used here: the benchmark's tracer and its tests
# look them up under this module
from .scans import (VOL_M_OMEGA, VOL_OMEGA, _check_m, _chow,
                    dequantization_scan, hilbert_samuel_residual)

# largest tensor power m of a section Gram: the closed-form Gram holds
# (m+1)^2 floats (8 MB at 1000) and a balanced step's section jet
# 2 (m+1) n_theta (65 MB at grid 4096)
MAX_GRAM_M = 1000


class SectionGram(FrozenValue):
    _fields = ("m", "basis", "gram", "volume_convention")

    def __init__(self, m: int, basis: tuple, gram: np.ndarray,
                 volume_convention: str):
        g = np.asarray(gram, float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValidationError("gram must be square")
        if len(basis) != g.shape[0]:
            raise ValidationError("basis size must match gram dimension")
        if not np.all(np.isfinite(g)):
            raise ValidationError("gram must be finite")
        if np.max(np.abs(g - g.T)) > 1e-13 * max(1.0, np.abs(g).max()):
            raise ValidationError("gram must be symmetric")
        if volume_convention not in (VOL_OMEGA, VOL_M_OMEGA):
            raise ValidationError(
                f"unknown volume convention {volume_convention!r}")
        self.__dict__.update(m=m, basis=basis, gram=g,
                             volume_convention=volume_convention)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m == other.m and self.basis == other.basis
                and np.array_equal(self.gram, other.gram)
                and self.volume_convention == other.volume_convention)

    __hash__ = None     # gram is an array

    @property
    def rank(self) -> int:
        return self.gram.shape[0]


def p1_basis(m: int) -> tuple:
    return tuple(f"x^{a}*y^{m - a}" for a in range(m + 1))


def p1_fs_gram_diag(m: int, volume_convention: str) -> np.ndarray:
    """Closed-form L^2 norms of the monomial basis of H^0(O(m)) under the
    mass-1 Fubini-Study volume: Beta integrals a!(m-a)!/(m+1)!."""
    # log a! for a = 0..m; log (m-a)! is the same list reversed
    lf = [math.lgamma(a + 1.0) for a in range(m + 1)]
    logs = np.array(lf) + np.array(lf[::-1]) - math.lgamma(m + 2.0)
    if volume_convention == VOL_M_OMEGA:
        logs = logs + math.log(m)   # n = 1: one factor of m^n
    return np.exp(logs)


def l2_gram(family_id: str, m: int, metric_id: str = "fs",
            volume_convention: str = VOL_OMEGA) -> SectionGram:
    _check_family(family_id)
    if metric_id != "fs":
        raise UnsupportedFamily(f"unsupported metric {metric_id!r}")
    _check_m("tensor power m", m, MAX_GRAM_M)
    return SectionGram(m, p1_basis(m),
                       np.diag(p1_fs_gram_diag(m, volume_convention)),
                       volume_convention)


# -- sections on the sphere grid ----------------------------------------
#
# Every section is one Fourier mode in psi: w_a = mod_a(theta) e^{i a psi}
# and Dw_a = dmod_a(theta) e^{i (a-1) psi}.  So Grams and FS(H) come from
# per-latitude sums over the lag a - b and FFTs along psi; the quadrature
# rule is the grid's, with the sum over psi taken first.

def _section_jet(geometry: SphereGeometry, m: int) -> np.ndarray:
    """Per-latitude moduli (mod, dmod) stacked as (2, m+1, n_theta) of
    the monomial sections, |w_a|^2 = |z|^{2a}/(1+|z|^2)^m in the affine
    chart |z| = tan(theta/2), and of their Chern derivatives.
    Dw_a = a(1+|z|^2) w_{a-1} - m zbar w_a is taken as a w_{a-1} - (m-a)
    zbar w_a, whose terms do not cancel near either pole."""
    lt2 = geometry.log_t2()                        # log |z|^2 per latitude
    a = np.arange(m + 1)[:, None]
    mod = np.exp(0.5 * (a * lt2 - m * np.logaddexp(0.0, lt2)))
    dmod = -(m - a) * np.exp(0.5 * lt2) * mod
    dmod[1:] += a[1:] * mod[:-1]
    return np.stack([mod, dmod])


def p1_section_values(geometry: SphereGeometry, m: int) -> np.ndarray:
    """Matrix of monomial section values w_a on the grid,
    shaped (m+1, n_theta, n_psi)."""
    mod = _section_jet(geometry, m)[0]
    return mod[:, :, None] * np.exp(1j * np.arange(m + 1)[:, None, None]
                                    * geometry.psi)


def _gram_of_density(mod: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """Re sum over the grid of w_a bar(w_b) dens: sum over theta of
    mod_a mod_b Re F(a - b), F the FFT of dens along psi.  Lags fold
    mod n_psi, as the grid's e^{i(a-b)psi} do."""
    n_psi = dens.shape[1]
    # Re F(k) = Re F(n_psi - k) for real dens: the rfft half suffices
    re_f = np.fft.rfft(dens, axis=1).real
    n = mod.shape[0]
    g = np.empty((n, n))
    for d in range(n):
        a = np.arange(d, n)
        g[a, a - d] = g[a - d, a] = (mod[d:] * mod[:n - d]) @ re_f[
            :, min(d % n_psi, -d % n_psi)]
    return g


def l2_gram_quadrature(geometry: SphereGeometry, m: int,
                       volume_convention: str = VOL_OMEGA) -> SectionGram:
    _check_m("tensor power m", m, MAX_GRAM_M)
    dens = geometry.weights
    if volume_convention == VOL_M_OMEGA:
        dens = dens * float(m)
    return SectionGram(m, p1_basis(m),
                       _gram_of_density(_section_jet(geometry, m)[0], dens),
                       volume_convention)


# -- arithmetic degree and Chow heights --------------------------------

def arithmetic_degree(g: SectionGram) -> float:
    sign, logdet = np.linalg.slogdet(g.gram)
    if sign <= 0 or not np.isfinite(logdet):
        raise NonPositiveDefinite("gram is not positive definite")
    return -0.5 * logdet


def chow_height(model, g: SectionGram) -> float:
    """Chow height of the lattice (H^0(L^m), g) at the model's metric."""
    if g.volume_convention != VOL_M_OMEGA:
        raise ConventionMismatch(
            "Chow height requires the (m omega)^n volume convention")
    return _chow(model, g.m, model.top_power().evaluate(),
                 float(model.deg_Ln), arithmetic_degree(g), g.rank)


def extended_chow_height(model, g: SectionGram, bergman_samples,
                         density_samples, geometry) -> float:
    """Chow height plus (1/2) log of the averaged Bergman density.

    bergman_samples: nodal values of sum_a |s_a|^2_h for an H-orthonormal
    basis; density_samples: relative density of c1(L^m, h^m)^n w.r.t. the
    grid measure.  The 1/2 makes h~_C invariant under H -> lambda H and
    stationary at the balanced Gram (docs/normalization.md).
    """
    base = chow_height(model, g)
    mass = geometry.quad(np.asarray(bergman_samples)
                         * np.asarray(density_samples))
    vol = g.m ** model.n * float(model.deg_Ln)
    if not _positive(mass):
        raise ValidationError("Bergman density mass must be positive")
    return base + 0.5 * math.log(mass / vol) / model.degree_KQ


# -- balanced iteration -------------------------------------------------

def _lag_sums(A: np.ndarray, p: np.ndarray, q: np.ndarray,
              n_psi: int) -> np.ndarray:
    """psi Fourier coefficients of sum_ab A_ab p_a q_b e^{i(a-b)psi} per
    latitude: out[..., k] sums A_ab p_a q_b over a - b = k mod n_psi,
    for p, q shaped (..., rank, n_theta) and out (..., n_theta, n_psi)."""
    n = A.shape[0]
    out = np.zeros(p.shape[:-2] + p.shape[-1:] + (n_psi,))
    for d in range(1 - n, n):
        lo, hi = max(d, 0), min(n + d, n)       # rows a with 0 <= a - d < n
        out[..., d % n_psi] += np.diagonal(A, -d) @ (
            p[..., lo:hi, :] * q[..., lo - d:hi - d, :])
    return out


def _fs_density(jet: np.ndarray, H: np.ndarray, n_psi: int):
    """Bergman density Phi_H = |v|^2 and FS(H) curvature density
    rho = m + ddc log Phi_H = (|v|^2 |Dv|^2 - |<Dv, v>|^2) / |v|^4 on the
    grid, with v = c^{-1} w, Dv = c^{-1} Dw for H = c c^T; jet holds the
    moduli (mod, dmod) of (w, Dw).  With H^{-1} = c^{-T} c^{-1}, each of
    |v|^2, |Dv|^2 and <Dv, v> is a lag sum of H^{-1} against two moduli,
    taken to the grid by an inverse FFT along psi."""
    try:
        c = np.linalg.cholesky(np.asarray(H, float))
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefinite("gram is not positive definite") from exc
    try:
        cinv = np.linalg.inv(c)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefinite("gram is numerically singular") from exc
    mod, dmod = jet
    # overflow and NaN are caught by the positivity checks below: H^{-1}
    # itself overflows for a Gram entry of 1e-320
    with np.errstate(all="ignore"):
        coef = _lag_sums(cinv.T @ cinv, np.stack([mod, dmod, dmod]),
                         np.stack([mod, dmod, mod]), n_psi)
        # <Dv, v> is e^{-i psi} times the transform of its lag sums; the
        # factor drops out of |<Dv, v>|
        cross2 = np.abs(np.fft.ifft(coef[2], norm="forward")) ** 2
        # the lag sums of |v|^2 and |Dv|^2 are even in the lag, so their
        # transforms are real and need only the half spectrum
        phi, dv2 = np.fft.irfft(coef[:2, :, :n_psi // 2 + 1], n=n_psi,
                                norm="forward")
        rho = (phi * dv2 - cross2) / phi ** 2
    # phi is no longer a sum of squares
    if not _positive(phi):
        raise NonPositiveDefinite("Bergman density lost positivity")
    if not _positive(rho):
        raise NonPositiveDefinite("FS(H) curvature density lost positivity")
    return phi, rho


def bergman_density(geometry: SphereGeometry, m: int,
                    H: np.ndarray) -> np.ndarray:
    """Phi_H = sum_{ab} (H^{-1})_{ab} w_a bar(w_b) on the grid."""
    return _fs_density(_section_jet(geometry, m), H, geometry.n_psi)[0]


def fubini_study_of(geometry: SphereGeometry, m: int, H: np.ndarray):
    """FS(H) data: Bergman log-density u and the curvature density m + ddc u."""
    phi, rho = _fs_density(_section_jet(geometry, m), H, geometry.n_psi)
    return np.log(phi), rho


def _t_operator(g, jet, phi, rho, geometry) -> SectionGram:
    """balanced_step given (Phi_H, rho) of H = g.gram."""
    newg = _gram_of_density(jet[0], geometry.weights * rho / phi)
    newg *= np.trace(g.gram) / np.trace(newg)
    return SectionGram(g.m, g.basis, newg, g.volume_convention)


def balanced_step(g: SectionGram, geometry: SphereGeometry) -> SectionGram:
    """One T-operator step: L^2 Gram under FS(H), trace renormalized."""
    jet = _section_jet(geometry, g.m)
    return _t_operator(g, jet, *_fs_density(jet, g.gram, geometry.n_psi),
                       geometry)


def balanced_iterate(g0: SectionGram, geometry: SphereGeometry,
                     tol: float = 1e-10, max_iter: int = 200,
                     model=None):
    """Iterate balanced_step to the fixed point.

    Returns (g_star, iterations, converged, trace) where trace rows are
    (iteration, distance, h~_C) -- h~_C only if a model is supplied.
    """
    if not tol > 0 or max_iter < 1:
        raise ValidationError("tol must be > 0 and max_iter >= 1")
    jet = _section_jet(geometry, g0.m)
    g, fs, trace = g0, _fs_density(jet, g0.gram, geometry.n_psi), []
    for it in range(1, max_iter + 1):
        nxt = _t_operator(g, jet, *fs, geometry)
        # for h~_C(nxt) and the next step
        fs = _fs_density(jet, nxt.gram, geometry.n_psi)
        dist = float(np.max(np.abs(nxt.gram - g.gram)))
        h = (_htilde_c(model, nxt, geometry, *fs)
             if model is not None else float("nan"))
        trace.append((it, dist, h))
        g = nxt
        if dist < tol:
            return g, it, True, trace
    return g, max_iter, False, trace


def _htilde_c(model, g, geometry, phi, rho) -> float:
    # the Bott-Chern shift of (L_m^2) against FS^m over (n+1)(L_m^n)[K:Q]
    shift = 0.5 * geometry.quad(np.log(phi) * (g.m + rho))
    h = chow_height(model, g) + shift / (
        2.0 * g.m * float(model.deg_Ln) * model.degree_KQ)
    if not math.isfinite(h):
        raise NumericError("h~_C is outside the float range")
    return h


def htilde_c_of_gram(model, g: SectionGram,
                     geometry: SphereGeometry) -> float:
    """Extended Chow height of (X, L^m, FS(H)) with lattice metric H.

    With h = FS(H) the Bergman density of the H-orthonormal basis is
    identically 1, so the log term drops and only the Bott-Chern shift
    of (L_m^2) against the reference FS^m metric remains.
    """
    return _htilde_c(model, g, geometry,
                     *_fs_density(_section_jet(geometry, g.m), g.gram,
                                  geometry.n_psi))
