"""Archimedean energy functionals and the Bott-Chern update rule.

Conventions (see docs/normalization.md): relative densities w.r.t. the
mass-V reference measure, omega = 1, omega_phi = 1 + ddc(phi),
Ric(omega_h) = ric_ref - ddc(log omega_h), scalar curvature S =
Ric-density / omega-density.  mu(const) = 0 pins the combination.
"""

from __future__ import annotations

import numpy as np

from .errors import ArityMismatch, GeometryMismatch, ValidationError
from .functionals import model_beta
from .geometry import _positive
from .intersection import FAMILY_GEOMETRY, ModelPair, SymmetricForm
from .potentials import PotentialField, ricci_of_log


def am_energy(phi: PotentialField) -> float:
    """(1/V) * sum_{i=0..n} int phi omega^i omega_phi^{n-i} (n = 1)."""
    return phi.int_phi_mixed / phi.geometry.V


def ricci_energy(phi: PotentialField) -> float:
    """(1/V) * sum_{i=0..n-1} int phi Ric(omega) omega^i omega_phi^{n-1-i}."""
    return phi.int_phi_ric / phi.geometry.V


def entropy(phi: PotentialField) -> float:
    """int log(omega_phi^n / omega^n) omega_phi^n."""
    return phi.int_log_omega_phi


def k_energy(phi: PotentialField) -> float:
    g = phi.geometry
    return (g.default_Sbar / 2) * am_energy(phi) - ricci_energy(phi) \
        + entropy(phi) / g.V


def aubin_i(phi: PotentialField) -> float:
    return phi.int_phi_aubin / phi.geometry.V


def aubin_j(phi: PotentialField) -> float:
    g = phi.geometry
    n = 1
    return phi.int_phi / g.V - phi.int_phi_mixed / ((n + 1) * g.V)


def bott_chern_delta(phi: PotentialField, curvature_forms) -> float:
    """Quadrature of phi against a wedge of n supplied densities (n = 1:
    the one density)."""
    n = 1
    if len(curvature_forms) != n:
        raise ArityMismatch(f"expected {n} curvature densities, "
                            f"got {len(curvature_forms)}")
    return phi.geometry.quad(phi.samples * curvature_forms[0])


def ricci_density(geometry, omega_density) -> np.ndarray:
    """Ric(omega_h) relative density in c1 units."""
    return ricci_of_log(geometry, np.log(omega_density))


def scalar_curvature_l2(geometry, omega_density) -> float:
    """(1/n^2) * int S(omega_h)^2 omega_h^n."""
    omega_density = np.asarray(omega_density, float)
    if not _positive(omega_density):
        raise ValidationError("metric density must be positive")
    S = ricci_density(geometry, omega_density) / omega_density
    return geometry.quad(S * S * omega_density)


def apply_metric_change(model, phi: PotentialField):
    """Model of (X, L, e^{-2 phi'} h) for the potential phi.

    Telescoping Bott-Chern updates, scaled by beta = 1/((n+1)(L^n)) so
    that h_K(new) - h_K(old) = (deg_Ln/[K:Q]) * mu(phi) exactly at the
    quadrature level.  The canonical class is re-metrized by Ric(omega_phi),
    whose curvature potential in c1 units is log(omega_phi^n/omega^n).
    """
    g = phi.geometry
    if model.n != 1:
        raise GeometryMismatch("quadrature backend covers n = 1 fibers only")
    if model.family is not None:
        want = FAMILY_GEOMETRY[model.family]
        if want != g.kind:
            raise GeometryMismatch(
                f"model expects a {want} fiber, got {g.kind}")
    if abs(g.V - float(model.deg_Ln)) > 1e-9:
        raise GeometryMismatch("grid mass must equal deg_Ln")
    beta = float(model_beta(model))
    Lk = model.L_class
    Kk = model.K_class
    dA = beta * phi.int_phi_mixed
    dB = beta * (-phi.int_phi_ric + phi.int_log_omega_phi)
    dC = beta * (-phi.int_log_ric - phi.int_log_ricci)
    f = model.form.value
    return model.replace_form({
        (Lk, Lk): f((Lk, Lk)).shift_real(dA),
        (Lk, Kk): f((Lk, Kk)).shift_real(dB),
        (Kk, Kk): f((Kk, Kk)).shift_real(dC),
    })


def metric_model_pair(model, phi: PotentialField):
    """ModelPair joining model and its metric change along phi.

    The joint form realizes p*L - q*L_ref as the metric-difference class:
    one slot of the difference contributes beta * int(potential * wedge).
    """
    changed = apply_metric_change(model, phi)
    beta = float(model_beta(model))
    Lk, Kk = model.L_class, model.K_class
    L0, K0 = Lk + "_ref", Kk + "_ref"
    f0, f1 = model.form.value, changed.form.value
    A0, B0, C0 = f0((Lk, Lk)), f0((Lk, Kk)), f0((Kk, Kk))
    entries = {
        (L0, L0): A0,
        (L0, K0): B0,
        (K0, K0): C0,
        (Lk, Lk): f1((Lk, Lk)),
        (Lk, L0): A0.shift_real(beta * phi.int_phi),
        (Lk, Kk): f1((Lk, Kk)),
        (Lk, K0): B0.shift_real(beta * -phi.int_phi_ric),
        (L0, Kk): B0.shift_real(beta * phi.int_log),
        (Kk, K0): C0.shift_real(beta * -phi.int_log_ric),
        (Kk, Kk): f1((Kk, Kk)),
    }
    joint = SymmetricForm(2, entries)
    return ModelPair(model=changed, ref=model, joint_form=joint,
                     ref_map={Lk: L0, Kk: K0})


def cubic_identity_check(torus):
    """Both sides of the flat-torus pairing identity for alpha = dz.

    lhs averages the pointwise ratio n! (i/2)^n alpha wedge bar(alpha) /
    omega^n against the probability measure omega^n/V and multiplies by
    d/n!; rhs = (i/2) int alpha wedge bar(alpha) = Im(tau).  Equality
    encodes the volume normalization V = d of the polarized torus.
    """
    if torus.kind != "torus":
        raise ValidationError("cubic identity check needs a torus fiber")
    d = torus.degree
    area = torus.tau.imag
    # omega = (i/2) g dz wedge dbar z with g = d/area; alpha = dz
    gdens = d / area
    ratio = np.full(torus.shape, 1.0 / gdens)   # (alpha, alpha)_{det g} density
    lhs = float(d) * (torus.quad(ratio) / torus.V)
    rhs = area
    return lhs, rhs
