"""Quadrature geometries for n = 1 archimedean fibers.

Two backends: the round sphere (P^1 with the Fubini-Study reference
form, mass 1) and a flat torus C/(Z + tau*Z) carrying a degree-d
polarization (mass V = d).  All densities are stored relative to the
reference measure mu_ref of total mass V, in c1 units: the operator
ddc(u) returns the relative density of (i/2pi) del delbar u, so that
omega_phi = 1 + ddc(phi) and a metric change e^{-alpha} h shifts the
curvature by ddc(alpha).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ValidationError


class SphereGeometry:
    """Gauss-Legendre x trapezoid grid on the round sphere, mass 1."""

    kind = "sphere"

    def __init__(self, n_theta: int = 128, n_psi: int | None = None):
        if n_psi is None:
            n_psi = 2 * n_theta
        self.n_theta = int(n_theta)
        self.n_psi = int(n_psi)
        if self.n_theta < 1 or self.n_psi < 2:
            raise ValidationError("sphere grid needs n_theta >= 1 and "
                                  "n_psi >= 2")
        x, w = leggauss(self.n_theta)
        self.x = x                      # cos(theta), ascending
        self.theta = np.arccos(x)
        self.psi = 2.0 * np.pi * np.arange(self.n_psi) / self.n_psi
        # weights of mu_ref = dA/(4 pi); GL weights sum to 2
        self.weights = np.outer(w / 2.0, np.full(self.n_psi, 1.0 / self.n_psi))
        self.V = 1.0
        self.lmax = min(self.n_theta - 1, self.n_psi // 2 - 1)
        self._w_theta = w
        self.shape = (self.n_theta, self.n_psi)
        self.default_Sbar = 2.0
        self.ric = 2.0 * np.ones(self.shape)
        # caching every block costs O(lmax^2 n_theta) memory; only do it
        # on grids where that stays below ~100 MB
        self._block_cache = {} if self.n_theta <= 256 else None

    # -- quadrature ---------------------------------------------------

    def quad(self, f) -> float:
        return float(np.sum(self.weights * f))

    # -- spherical harmonic machinery ----------------------------------

    def _legendre_block(self, m: int) -> np.ndarray:
        """Orthonormal associated Legendre P_l^m(x) for l = m..lmax,
        normalized so that int_{-1}^{1} P^2 dx = 1."""
        if self._block_cache is not None and m in self._block_cache:
            return self._block_cache[m]
        x = self.x
        lmax = self.lmax
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
        if self._block_cache is not None:
            self._block_cache[m] = P
        return P

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Laplace-Beltrami of the unit sphere (eigenvalues -l(l+1)):
        rfft in psi, then Legendre analysis and synthesis per order."""
        fm = np.fft.rfft(np.asarray(f, float), axis=1)
        out = np.zeros_like(fm)
        lam = -np.arange(self.lmax + 1.0) * np.arange(1.0, self.lmax + 2.0)
        for m in range(self.lmax + 1):
            P = self._legendre_block(m)
            out[:, m] = P.T @ (lam[m:] * (P @ (self._w_theta * fm[:, m])))
        return np.fft.irfft(out, n=self.n_psi, axis=1)

    def ddc(self, u: np.ndarray) -> np.ndarray:
        # (i/2pi) del delbar u has density Delta_{S^2} u w.r.t. dA/(4pi)
        return self.laplacian(u)

    def synth_harmonics(self, coeffs: dict) -> np.ndarray:
        """Sum of real spherical harmonics; coeffs maps (l, m) -> float
        with 0 <= m <= l (cos branch for m >= 0 keyed (l, m), sin branch
        keyed (l, -m))."""
        a = np.zeros((self.lmax + 1, self.lmax + 1), complex)   # [m, l]
        for (l, m), c in coeffs.items():
            am = abs(m)
            if l > self.lmax or am > l:
                raise ValidationError("harmonic index beyond grid band limit")
            a[am, l] += c if m >= 0 else -1j * c
        out = np.zeros((self.n_theta, self.n_psi // 2 + 1), complex)
        for m in range(self.lmax + 1):
            if a[m].any():
                out[:, m] = self._legendre_block(m).T @ a[m, m:]
        # irfft counts every order m > 0 twice, once for +m and once for -m
        out[:, 1:] /= 2.0
        return np.fft.irfft(out * self.n_psi, n=self.n_psi, axis=1)

    def random_potential(self, rng) -> np.ndarray:
        """Unscaled random field of degrees 1..12 (see PotentialField.random)."""
        return self.synth_harmonics({(l, m): rng.normal() / (1.0 + l) ** 2
                                     for l in range(1, 13)
                                     for m in range(-l, l + 1)})

    # affine coordinate |z| = tan(theta/2) for section evaluation
    def log_t2(self) -> np.ndarray:
        half = self.theta / 2.0
        with np.errstate(divide="ignore"):
            return 2.0 * np.log(np.tan(half))


class TorusGeometry:
    """Uniform grid on C/(Z + tau Z) with a degree-d polarization."""

    kind = "torus"

    def __init__(self, tau: complex, n: int = 64, degree: int = 1):
        tau = complex(tau)
        if tau.imag <= 0:
            raise ValidationError("tau must lie in the upper half plane")
        self.tau = tau
        self.n = int(n)
        self.degree = int(degree)
        if self.n < 1 or self.degree < 1:
            raise ValidationError("torus grid needs n >= 1 and degree >= 1")
        self.V = float(degree)
        self.shape = (self.n, self.n)
        self.weights = np.full(self.shape, self.V / self.n ** 2)
        k = np.fft.fftfreq(self.n, d=1.0 / self.n)
        kk, ll = np.meshgrid(k, k, indexing="ij")
        # flat Laplacian multiplier for modes e^{2 pi i (k x + l y)},
        # z = x + tau y
        self._lap_mult = -4.0 * np.pi ** 2 * (
            kk ** 2 + ((ll - kk * tau.real) / tau.imag) ** 2)
        self.default_Sbar = 0.0
        self.ric = np.zeros(self.shape)

    def quad(self, f) -> float:
        return float(np.sum(self.weights * f))

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        F = np.fft.fft2(np.asarray(f, float))
        return np.fft.ifft2(F * self._lap_mult).real

    def ddc(self, u: np.ndarray) -> np.ndarray:
        # (i/2pi) del delbar u = (1/4pi) Delta_flat u dA; relative to
        # mu_ref of mass V over area Im(tau) this is (Im tau/(4 pi V)) Delta u
        return (self.tau.imag / (4.0 * np.pi * self.V)) * self.laplacian(u)

    def random_potential(self, rng) -> np.ndarray:
        """Unscaled random trigonometric field of bandwidth 6."""
        x = np.arange(self.n) / self.n
        xx, yy = np.meshgrid(x, x, indexing="ij")
        f = np.zeros(self.shape)
        for k in range(-6, 7):
            for l in range(-6, 7):
                if k == 0 and l == 0:
                    continue
                c = rng.normal() / (1.0 + k * k + l * l)
                s = rng.normal() / (1.0 + k * k + l * l)
                ang = 2.0 * np.pi * (k * xx + l * yy)
                f += c * np.cos(ang) + s * np.sin(ang)
        return f


def make_geometry(kind: str, **kw):
    if kind == "sphere":
        return SphereGeometry(**kw)
    if kind == "torus":
        return TorusGeometry(**kw)
    raise ValidationError(f"unknown geometry kind {kind!r}")
