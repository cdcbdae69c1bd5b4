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
import weakref

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ValidationError, _check_limit

# largest grid built: n_theta <= MAX_GRID, n_psi <= 2 * MAX_GRID and torus
# n <= MAX_GRID, checked before anything is allocated (leggauss(4096)
# alone takes ~4.6 s and ~290 MB; the weight grid is n_theta x n_psi)
MAX_GRID = 4096
# degrees k = l - m per block of the Legendre recurrence: its buffer holds
# min(cap + 1, _BLOCK) + 2 rows of _CHUNK orders by n_theta / 2 nodes for
# degree cap `cap` (8.5 MB for a whole transform at n_theta 512)
_BLOCK = 256
# orders m per chunk of the Legendre recurrence
_CHUNK = 16
# the Legendre memo of each grid with n_theta <= 256, keyed by
# (n_theta, lmax, _BLOCK) and held by the geometries that use it
_MEMOS = weakref.WeakValueDictionary()


def _positive(x, bound: float = 0.0) -> bool:
    """Whether every value of x is finite and above bound: the one
    positivity test of sampled densities and masses.  NaN fails it (np.min
    and np.max propagate NaN), and so do +inf and -inf."""
    return bool(np.min(x, initial=np.inf) > bound
                and np.max(x, initial=-np.inf) < np.inf)


class _Memo(list):
    """A grid's Legendre chunks [(m0, [(k0, even, odd), ...]), ...] at cap
    lmax, as _legendre_blocks yields them, each block a copy; key is its
    entry in _MEMOS."""

    __slots__ = ("key", "__weakref__")


def _parities(P, k0: int, nk: int):
    """The even-k and odd-k rows of the nk degrees k0.. held in rows 2..
    of a recurrence block P, each as [order, i, node]."""
    return (P[2 + k0 % 2:nk + 2:2].transpose(1, 0, 2),
            P[2 + (k0 + 1) % 2:nk + 2:2].transpose(1, 0, 2))


def _block_sums(blocks, coef) -> list:
    """A chunk's sums (even, odd) over its Legendre blocks (k0, even, odd):
    for each block and parity p (0 even, 1 odd) with rows P [order, i,
    node], coef(k0, p, P) @ P, where the first block writes and later
    blocks add.  No view of a block outlives the call, so a streamed
    recurrence buffer is freed before the caller's inverse FFT."""
    sums = [None, None]
    for k0, *parities in blocks:
        for p, P in enumerate(parities):
            part = coef(k0, p, P) @ P
            if sums[p] is None:
                sums[p] = part
            else:
                sums[p] += part
    return sums


def _harmonic_array(l, m, c) -> np.ndarray:
    """Coefficients c of the real harmonics (l, m), given as arrays with
    |m| <= l (not checked here), as an array [|m|, m < 0, l - |m|]; the
    sin branch (m < 0) enters as -c."""
    cap = l.max(initial=0)
    a = np.zeros((cap + 1, 2, cap + 1))
    am = np.abs(m)
    a[am, (m < 0).astype(int), l - am] += np.where(m >= 0, c, -c)
    return a


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
        _check_limit("grid n_theta", self.n_theta, MAX_GRID)
        _check_limit("grid n_psi", self.n_psi, 2 * MAX_GRID)
        x, w = leggauss(self.n_theta)
        self.x = x                      # cos(theta), ascending
        self.theta = np.arccos(x)
        self.psi = 2.0 * np.pi * np.arange(self.n_psi) / self.n_psi
        self.V = 1.0
        self.lmax = min(self.n_theta - 1, self.n_psi // 2 - 1)
        self.shape = (self.n_theta, self.n_psi)
        self.default_Sbar = 2.0
        # read-only stride-0 views, like TorusGeometry's: the weights of
        # mu_ref = dA/(4 pi) (GL weights sum to 2) are constant along psi
        self.weights = np.broadcast_to((w / 2.0)[:, None] * (1.0 / self.n_psi),
                                       self.shape)
        self.ric = np.broadcast_to(2.0, self.shape)
        # P_l^m(-x) = (-1)^(l+m) P_l^m(x) and the nodes and weights are
        # mirror-symmetric, so transforms run on the northern half; its
        # row j mirrors row j of _south, and an odd grid's equator node
        # mirrors itself, so its weight is halved
        half = (self.n_theta + 1) // 2
        self._north = slice(self.n_theta - half, None)
        self._south = slice(half - 1, None, -1)
        self._w_north = w[self._north].copy()
        self._w_north[0] /= 1 + self.n_theta % 2
        # the grid's Legendre blocks at cap lmax while n_theta <= 256
        # (O(lmax^2 n_theta / 2) memory, ~36 MB at 256): one memo per grid
        # in _MEMOS, attached at the first transform and freed with the
        # last geometry that holds it; larger grids stream their blocks
        # afresh per transform through the same loop
        self._memo = None

    # -- quadrature ---------------------------------------------------

    def quad(self, f) -> float:
        return float(np.sum(self.weights * f))

    # -- spherical harmonic machinery ----------------------------------

    def _legendre_blocks(self, cap: int):
        """Yield (m0, blocks) for each chunk of at most _CHUNK orders m = m0..
        (m <= cap).  blocks yields (k0, even, odd) for the degrees
        k = l - m of the chunk, at most _BLOCK of them from k0 on:
        even[m - m0, i] and odd[m - m0, i] hold the orthonormal P_{m+k}^m
        (int_{-1}^{1} P^2 dx = 1) at the northern nodes for the i-th even
        and the i-th odd k of the block, zero where m + k > cap.  The
        recurrence walks k for the whole chunk at once in one buffer of
        min(cap + 1, _BLOCK) + 2 rows, whose first two rows carry degrees
        k0 - 2 and k0 - 1 into each block, so even and odd are views that
        stay valid only until the next block is asked for."""
        x = self.x[self._north]
        logs = np.log(1.0 - x * x)
        buf = np.empty((min(cap + 1, _BLOCK) + 2) * _CHUNK * x.size)
        scratch = np.empty((_CHUNK, x.size))      # b * P[k - 2]

        def blocks(m, K):
            # row k - k0 + 2 holds degree k: a contiguous head of buf, so
            # a chunk of fewer than _BLOCK degrees has the layout of a
            # fresh (K + 2, orders, nodes) array
            rows = min(K, _BLOCK) + 2
            P = buf[:rows * m.size * x.size].reshape(rows, m.size, x.size)
            P[1] = 0.0
            # log of the k = 0 norm to dodge overflow
            logc = np.array([0.5 * (math.lgamma(2 * i + 2)
                                    - (2 * i + 1) * math.log(2.0))
                             - math.lgamma(i + 1) for i in m.tolist()])
            P[2] = np.exp(logc[:, None] + (0.5 * m)[:, None] * logs)
            # at k = 1, a = sqrt(2m + 3) exactly and b = 0
            l = m + np.arange(1, K)[:, None]
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((2.0 * l + 1.0) * (l - 1.0 + m) * (l - 1.0 - m))
                        / ((2.0 * l - 3.0) * (l * l - m * m)))
            k0 = 0
            for k in range(1, K):
                if k - k0 == _BLOCK:
                    yield k0, *_parities(P, k0, _BLOCK)
                    P[:2] = P[-2:]
                    k0 = k
                j = k - k0 + 2
                n = min(m.size, K - k)          # orders with m + k <= cap
                new = P[j, :n]
                np.multiply(a[k - 1, :n, None], x, out=new)
                new *= P[j - 1, :n]
                new -= np.multiply(b[k - 1, :n, None], P[j - 2, :n],
                                   out=scratch[:n])
                if n < m.size:
                    P[j, n:] = 0.0
            yield k0, *_parities(P, k0, K - k0)

        for m0 in range(0, cap + 1, _CHUNK):
            yield m0, blocks(np.arange(m0, min(m0 + _CHUNK, cap + 1)),
                             cap - m0 + 1)

    def _chunks(self):
        """The Legendre chunks at cap lmax: the grid's memo on grids with
        n_theta <= 256, built or found in _MEMOS at the first transform
        (and again if _BLOCK has changed), else streamed afresh."""
        if self.n_theta > 256:
            return self._legendre_blocks(self.lmax)
        key = (self.n_theta, self.lmax, _BLOCK)
        if self._memo is None or self._memo.key != key:
            self._memo = _MEMOS.get(key)
            if self._memo is None:
                # copy, not ascontiguousarray: a one-row block is already
                # contiguous, and would stay a view of the buffer
                self._memo = _MEMOS[key] = _Memo(
                    (m0, [(k0, e.copy(), o.copy()) for k0, e, o in blocks])
                    for m0, blocks in self._legendre_blocks(self.lmax))
                self._memo.key = key
        return self._memo

    def _put(self, grid, m0: int, even, odd) -> None:
        """Write a chunk's even and odd sums [..., order, re/im, node] into
        the rfft columns m0.. of grid [..., node, column, re/im] (complex
        values as real pairs)."""
        cols = slice(m0, m0 + even.shape[-3])
        grid[..., self._north, cols, :] = (
            even + odd).swapaxes(-1, -3).swapaxes(-1, -2)
        grid[..., self._south, cols, :] = (
            even - odd).swapaxes(-1, -3).swapaxes(-1, -2)

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Laplace-Beltrami of the unit sphere (eigenvalues -l(l+1)):
        rfft in psi, then Legendre analysis and synthesis per order on
        the even and odd halves f(x) +- f(-x)."""
        # each chunk's rfft columns are analysed and then overwritten with
        # its synthesis; the columns above lmax are dropped
        fm = np.fft.rfft(np.asarray(f, float), axis=1)
        fm[:, self.lmax + 1:] = 0.0
        grid = fm.view(float).reshape(self.n_theta, -1, 2)
        w = self._w_north[:, None]
        for m0, blocks in self._chunks():
            cols = slice(m0, min(m0 + _CHUNK, self.lmax + 1))
            north, south = fm[self._north, cols], fm[self._south, cols]
            # [order, node, re/im]
            halves = [np.ascontiguousarray((w * g).T).view(float).reshape(
                cols.stop - m0, -1, 2) for g in (north + south, north - south)]
            m = np.arange(m0, cols.stop)[:, None, None]

            def eigen(k0, p, P):
                # the analysis of the parity's half, times -l(l+1)
                l = m + k0 + (k0 + p) % 2 + 2.0 * np.arange(P.shape[1])
                return -l * (l + 1.0) * (P @ halves[p]).transpose(0, 2, 1)

            self._put(grid, m0, *_block_sums(blocks, eigen))
        return np.fft.irfft(fm, n=self.n_psi, axis=1)

    def ddc(self, u: np.ndarray) -> np.ndarray:
        # (i/2pi) del delbar u has density Delta_{S^2} u w.r.t. dA/(4pi)
        return self.laplacian(u)

    def synth_harmonics(self, coeffs: dict) -> np.ndarray:
        """Sum of real spherical harmonics; coeffs maps (l, m) -> float
        with 0 <= m <= l (cos branch for m >= 0 keyed (l, m), sin branch
        keyed (l, -m))."""
        ints = (int, np.integer)
        for key in coeffs:
            if not (isinstance(key, tuple) and len(key) == 2
                    and isinstance(key[0], ints) and isinstance(key[1], ints)):
                raise ValidationError(f"harmonic key {key!r} is not (l, m)")
            if not abs(key[1]) <= key[0] <= self.lmax:
                raise ValidationError("harmonic index beyond grid band limit")
        l, m = np.array(list(coeffs) or np.zeros((0, 2)), int).T
        c = np.fromiter(coeffs.values(), float, len(coeffs))
        return self._synth_fields(_harmonic_array(l, m, c)[None])[0]

    def _synth_fields(self, a: np.ndarray) -> np.ndarray:
        """Fields a[f] ([m, re/im, l - m], as in synth_harmonics) from one
        Legendre pass at their common degree cap and one batched irfft."""
        cap = a.shape[-1] - 1
        out = np.zeros((len(a), self.n_theta, self.n_psi // 2 + 1), complex)
        grids = out.view(float).reshape(len(a), self.n_theta, -1, 2)
        for m0, blocks in self._legendre_blocks(cap):
            def rows(k0, p, P):
                # the parity's coefficients [field, order, re/im, i]
                k = k0 + (k0 + p) % 2
                return a[:, m0:m0 + P.shape[0], :, k:k + 2 * P.shape[1]:2]

            self._put(grids, m0, *_block_sums(blocks, rows))
        # irfft counts every order m > 0 twice, once for +m and once for
        # -m; the columns above cap are zero
        out[..., 1:cap + 1] /= 2.0
        out[..., :cap + 1] *= self.n_psi
        return np.fft.irfft(out, n=self.n_psi, axis=-1)

    def random_potential(self, rng) -> tuple[np.ndarray, np.ndarray]:
        """Unscaled random field of degrees 1..12 and its ddc (see
        PotentialField.random).  Harmonics are eigenfunctions, so ddc is
        the synthesis of -l(l+1) c: no transform is taken."""
        if self.lmax < 12:
            raise ValidationError("harmonic index beyond grid band limit")
        # coefficient j = 1..168 is (l, m) with j = l^2 + l + m, in the
        # order of the draws
        j = np.arange(1, 169)
        deg = np.sqrt(j).astype(int)
        m = j - deg * deg - deg
        a = _harmonic_array(deg, m, rng.normal(size=j.size) / (1.0 + deg) ** 2)
        k = np.arange(len(a))
        l = k[:, None] + k                              # [m, l - m]
        samples, ddc = self._synth_fields(
            np.stack([a, -(l * (l + 1.0))[:, None, :] * a]))
        return samples, ddc

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
        if not (tau.imag > 0 and np.isfinite(tau)):
            raise ValidationError(
                "tau must be finite and lie in the upper half plane")
        self.tau = tau
        self.n = int(n)
        self.degree = int(degree)
        if self.n < 1 or self.degree < 1:
            raise ValidationError("torus grid needs n >= 1 and degree >= 1")
        _check_limit("grid n", self.n, MAX_GRID)
        self.V = float(degree)
        self.shape = (self.n, self.n)
        self.weights = np.broadcast_to(self.V / self.n ** 2, self.shape)
        k = np.fft.fftfreq(self.n, d=1.0 / self.n)
        kk, ll = np.meshgrid(k, k, indexing="ij")
        # flat Laplacian multiplier for modes e^{2 pi i (k x + l y)},
        # z = x + tau y
        self._lap_mult = -4.0 * np.pi ** 2 * (
            kk ** 2 + ((ll - kk * tau.real) / tau.imag) ** 2)
        # (i/2pi) del delbar u = (1/4pi) Delta_flat u dA; relative to
        # mu_ref of mass V over area Im(tau) this is (Im tau/(4 pi V)) Delta u
        self._ddc_factor = tau.imag / (4.0 * np.pi * self.V)
        self.default_Sbar = 0.0
        self.ric = np.broadcast_to(0.0, self.shape)

    def quad(self, f) -> float:
        return float(np.sum(self.weights * f))

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        F = np.fft.fft2(np.asarray(f, float))
        return np.fft.ifft2(F * self._lap_mult).real

    def ddc(self, u: np.ndarray) -> np.ndarray:
        return self._ddc_factor * self.laplacian(u)

    def random_potential(self, rng) -> tuple[np.ndarray, np.ndarray]:
        """Unscaled random trigonometric field of bandwidth 6 and its ddc,
        both from one batched ifft2 of the drawn spectrum."""
        # c cos(t) + s sin(t) = Re((c - i s) e^{i t}); a wave number k
        # lands on the grid's k mod n mode, as it aliases there anyway
        spec = np.zeros(self.shape, complex)
        for k in range(-6, 7):
            for l in range(-6, 7):
                if k == 0 and l == 0:
                    continue
                c = rng.normal() / (1.0 + k * k + l * l)
                s = rng.normal() / (1.0 + k * k + l * l)
                spec[k % self.n, l % self.n] += c - 1j * s
        # the real part keeps the even part of the multiplier, which
        # differs from it only on an even grid's Nyquist row and column
        mult = self._lap_mult
        mult = 0.5 * self._ddc_factor * (
            mult + np.roll(mult[::-1, ::-1], 1, axis=(0, 1)))
        fields = np.fft.ifft2(np.stack([spec, spec * mult]), norm="forward")
        return fields[0].real, fields[1].real


def make_geometry(kind: str, **kw):
    if kind == "sphere":
        return SphereGeometry(**kw)
    if kind == "torus":
        return TorusGeometry(**kw)
    raise ValidationError(f"unknown geometry kind {kind!r}")
