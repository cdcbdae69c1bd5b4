"""Discretized Kahler potentials on n = 1 fiber geometries."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import NonKahler, ValidationError
from .geometry import SphereGeometry, TorusGeometry, _positive, make_geometry

POSITIVITY_MARGIN = 1e-10


def ricci_of_log(geometry, log_omega) -> np.ndarray:
    """Ric(omega_h) relative density in c1 units from log(omega_h/omega)."""
    return geometry.ric - geometry.ddc(log_omega)


class PotentialField:
    """Samples of phi plus the derived omega_phi relative density.

    omega_phi = 1 + ddc(phi) must stay strictly positive; violations
    abort instead of clipping.  log_omega, ricci and the quadratures that
    the energies and the metric change read are computed on first use and
    kept, so samples must not be changed in place (use scale or +, which
    build a new field).
    """

    def __init__(self, geometry, samples, _ddc=None):
        samples = np.asarray(samples, float)
        if samples.shape != geometry.shape:
            raise ValidationError(
                f"sample shape {samples.shape} != grid {geometry.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValidationError("potential samples must be finite")
        if _ddc is None:
            # a transform past the float range (samples near 1e308) leaves
            # inf or NaN, which the positivity test below refuses
            with np.errstate(over="ignore", invalid="ignore"):
                _ddc = geometry.ddc(samples)
        self.geometry = geometry
        self.samples = samples
        self.ddc = _ddc
        self.omega_phi = 1.0 + self.ddc
        if not _positive(self.omega_phi, POSITIVITY_MARGIN):
            raise NonKahler(
                "omega_phi loses positivity (min density "
                f"{np.min(self.omega_phi):.3e})")

    @cached_property
    def log_omega(self) -> np.ndarray:
        """log(omega_phi^n / omega^n)."""
        return np.log(self.omega_phi)

    @cached_property
    def ricci(self) -> np.ndarray:
        """Ric(omega_phi) relative density in c1 units."""
        return ricci_of_log(self.geometry, self.log_omega)

    # -- quadratures against mu_ref (n = 1) ---------------------------

    @cached_property
    def int_phi(self) -> float:
        """int phi."""
        return self.geometry.quad(self.samples)

    @cached_property
    def int_phi_mixed(self) -> float:
        """int phi (omega + omega_phi)."""
        return self.geometry.quad(self.samples * (1.0 + self.omega_phi))

    @cached_property
    def int_phi_aubin(self) -> float:
        """int phi (omega - omega_phi)."""
        return self.geometry.quad(self.samples * (1.0 - self.omega_phi))

    @cached_property
    def int_phi_ric(self) -> float:
        """int phi Ric(omega)."""
        return self.geometry.quad(self.samples * self.geometry.ric)

    @cached_property
    def int_log(self) -> float:
        """int log(omega_phi / omega)."""
        return self.geometry.quad(self.log_omega)

    @cached_property
    def int_log_omega_phi(self) -> float:
        """int log(omega_phi / omega) omega_phi, the entropy."""
        return self.geometry.quad(self.log_omega * self.omega_phi)

    @cached_property
    def int_log_ric(self) -> float:
        """int log(omega_phi / omega) Ric(omega)."""
        return self.geometry.quad(self.log_omega * self.geometry.ric)

    @cached_property
    def int_log_ricci(self) -> float:
        """int log(omega_phi / omega) Ric(omega_phi)."""
        return self.geometry.quad(self.log_omega * self.ricci)

    @staticmethod
    def constant(geometry, c: float) -> "PotentialField":
        z = np.full(geometry.shape, float(c))
        return PotentialField(geometry, z, _ddc=np.zeros(geometry.shape))

    @staticmethod
    def from_harmonics(geometry, coeffs: dict) -> "PotentialField":
        if not isinstance(geometry, SphereGeometry):
            raise ValidationError("harmonic synthesis needs a sphere grid")
        return PotentialField(geometry, geometry.synth_harmonics(coeffs))

    @staticmethod
    def random(geometry, seed: int) -> "PotentialField":
        """Seeded random potential scaled to max|ddc phi| = 0.4, so that
        omega_phi >= 0.6.  The geometry draws the band-limited field and
        its ddc from the same coefficients, with no transform."""
        samples, ddc = geometry.random_potential(np.random.default_rng(seed))
        s = 0.4 / max(np.max(np.abs(ddc)), 1e-30)
        return PotentialField(geometry, s * samples, _ddc=s * ddc)

    def __add__(self, other: "PotentialField") -> "PotentialField":
        if other.geometry is not self.geometry:
            raise ValidationError("potentials live on different grids")
        return PotentialField(self.geometry, self.samples + other.samples,
                              _ddc=self.ddc + other.ddc)

    def scale(self, a: float) -> "PotentialField":
        return PotentialField(self.geometry, a * self.samples,
                              _ddc=a * self.ddc)


def save_potential_csv(field: PotentialField, path):
    g = field.geometry
    with open(path, "w") as fh:
        if isinstance(g, SphereGeometry):
            fh.write(f"# sphere,{g.n_theta},{g.n_psi}\n")
        elif isinstance(g, TorusGeometry):
            fh.write(f"# torus,{g.n},{g.degree},{g.tau.real},{g.tau.imag}\n")
        else:
            raise ValidationError("unknown geometry kind")
        np.savetxt(fh, field.samples, delimiter=",")


def load_potential_csv(path) -> PotentialField:
    with open(path) as fh:
        header = fh.readline().rstrip()
        if not header.startswith("#"):
            raise ValidationError("potential CSV must start with a header row")
        kind, *vals = [p.strip() for p in header[1:].split(",")]
        try:
            if kind == "sphere":
                n_theta, n_psi = map(int, vals)
                geom = make_geometry(kind, n_theta=n_theta, n_psi=n_psi)
            elif kind == "torus":
                n, degree, re, im = vals
                geom = make_geometry(kind, n=int(n), degree=int(degree),
                                     tau=complex(float(re), float(im)))
            else:
                raise ValidationError(f"unknown geometry {kind!r}")
        except ValueError:
            raise ValidationError(f"malformed CSV header {header!r}") from None
        rows = fh.readlines()
    # loadtxt skips blank lines and '#' comments; with no row left it
    # would warn and return an empty array
    if not any(row.partition("#")[0].strip() for row in rows):
        raise ValidationError("potential CSV has no data rows")
    try:
        data = np.loadtxt(rows, delimiter=",")
    except ValueError as exc:
        raise ValidationError(f"malformed CSV data: {exc}") from None
    return PotentialField(geom, data)
