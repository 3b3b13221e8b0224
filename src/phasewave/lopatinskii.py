"""Lopatinskii determinant of the interface problem, its root, and the
projection data (sigma, gamma) attached to that root.

The determinant is evaluated by two independent functions: `det_raw`, the
raw (d+2)x(d+2) determinant of the frequency column J(v)eta against the
boundary images of the incoming modes, and `det_closed`, the closed product
formula.  Both, and the root factor `root_factor(pb, eta)`, take a float
eta0 or a 1-D array of them and return one value per eta0, so a sweep over
frequencies is one call.  `det_raw` reads only `incoming_modes` and
`det_closed` only `elliptic_frequency`, the preamble whose refusals both
share.  The zero of the root factor, the surface wave, is the positive root
of a quadratic in eta0^2, computed in closed form by `find_root`.  The
cofactor functional sigma* at the root comes from the closed component
formulas; `sigma_methods_residual` recomputes it from the first-column
minors of the raw determinant and compares the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .equilibrium import PhaseBoundary
from .errors import DegeneracyError, InconsistencyError, NoRootError
from .modes import (
    BoundaryOperators,
    Frequency,
    ModeSet,
    binary_scale,
    boundary_operators,
    decay_radicals,
    elliptic_eta0_max,
    elliptic_frequency,
    incoming_modes,
    normal_modes,
)


def _boundary_columns(H: np.ndarray, R_minus: np.ndarray) -> np.ndarray:
    """The d+1 boundary columns H R_j^- in mode order, per frequency when
    R_minus is a stack."""
    return H @ np.swapaxes(R_minus, -1, -2)


def _per_frequency(value) -> Union[complex, np.ndarray]:
    """A complex scalar for a float eta0, a complex array for an array eta0."""
    value = np.asarray(value, dtype=complex)
    return complex(value) if value.ndim == 0 else value


def _root_factor(pb: PhaseBoundary, e0, a_l, a_r):
    """F = u_l u_r a_l a_r + c_l^2 c_r^2 eta0^2, elementwise; its only copy."""
    vl, vr = pb.left, pb.right
    return vl.u * vr.u * a_l * a_r + vl.c2 * vr.c2 * e0 * e0


def root_factor(pb: PhaseBoundary, eta: Frequency) -> Union[float, np.ndarray]:
    """F(eta0), the factor of the determinant whose zero is the surface wave,
    from the decay radicals alone; `decay_radicals` refuses any eta0 outside
    the elliptic interval."""
    value = _root_factor(pb, eta.eta0, *decay_radicals(pb, eta))
    return float(value) if np.ndim(value) == 0 else value


def det_closed(pb: PhaseBoundary, eta: Frequency) -> Union[complex, np.ndarray]:
    """The Lopatinskii determinant in factorized form, -[rho][u] Upsilon
    (eta0^2 + u_r^2 |eta_t|^2) F(eta0), at a float eta0 or at each eta0 of a
    1-D array.  It reads Upsilon and the radicals from `elliptic_frequency`,
    and shares its refusals, without building a mode."""
    e0, frame, a_l, a_r = elliptic_frequency(pb, eta)
    return _per_frequency(
        -pb.jump_rho
        * pb.jump_u
        * frame.upsilon
        * (e0 * e0 + pb.right.u**2 * eta.ht2)
        * _root_factor(pb, e0, a_l, a_r)
    )


def det_raw(pb: PhaseBoundary, eta: Frequency) -> Union[complex, np.ndarray]:
    """The Lopatinskii determinant det(J(v)eta, H R_1^-, ..., H R_{d+1}^-) by
    complex LU, at a float eta0 or at each eta0 of a 1-D array (one stacked
    LU call), with R_j^- from `incoming_modes`; no closed factor enters."""
    R_minus = incoming_modes(pb, eta)[-1]
    ops = boundary_operators(pb, eta)
    M = np.empty(ops.Jeta.shape + (pb.d + 2,), dtype=complex)
    M[..., 0] = ops.Jeta
    M[..., 1:] = _boundary_columns(ops.H, R_minus)
    return _per_frequency(np.linalg.det(M))


@dataclass(frozen=True, eq=False)
class SigmaData:
    """The cofactor functional sigma at a root, in row form.

    `sigma_star` is the linear functional X -> det(X, H R_1^-, ...), so that
    sigma itself is its complex conjugate.  The scalar components are stored
    alongside: sigma* = Upsilon (D1, Dt*eta_t^T, Dd1, Dd2).
    """

    sigma_star: np.ndarray
    D1: complex
    Dt: complex
    Dd1: complex
    Dd2: complex


@dataclass(frozen=True, eq=False)
class RootData:
    """A Lopatinskii root with the mode and projection data evaluated there."""

    pb: PhaseBoundary
    eta: Frequency
    modes: ModeSet
    ops: BoundaryOperators
    sigma: SigmaData
    gamma1: complex
    gamma2: complex


def _sigma_closed(pb: PhaseBoundary, eta: Frequency, modes: ModeSet) -> SigmaData:
    vl, vr = pb.left, pb.right
    e0 = eta.eta0
    ht2 = eta.ht2
    al, ar = modes.a_l, modes.a_r
    ju = pb.jump_u
    ups = modes.frame.upsilon
    w2 = e0 * e0 + vr.u**2 * ht2

    d1_plus_mu_dd2 = -w2 * (
        ju * vl.c2 * vr.c2 * e0 - 1j * vl.u * vr.u * (vr.c2 * al - vl.c2 * ar)
    )
    Dt = -ju * vr.u * (
        al * (vr.u * ar - 1j * vr.c2 * e0) + ar * (vl.u * al - 1j * vl.c2 * e0)
    )
    Dd1 = -1j * w2 * (vr.u * vr.c2 * al - vl.u * vl.c2 * ar)
    Dd2 = (
        ju * e0 * (al * ar + vl.c2 * vr.c2 * ht2)
        + 1j * e0 * e0 * (vr.c2 * al - vl.c2 * ar)
        - 1j
        * ht2
        * (vr.u * (vl.u - 2.0 * vr.u) * vr.c2 * al + vl.u * vr.u * vl.c2 * ar)
    )
    D1 = d1_plus_mu_dd2 - pb.mu * Dd2

    d = pb.d
    sigma_star = np.empty(d + 2, dtype=complex)
    sigma_star[0] = D1
    sigma_star[1:d] = Dt * eta.eta_t
    sigma_star[d] = Dd1
    sigma_star[d + 1] = Dd2
    sigma_star = ups * sigma_star
    return SigmaData(sigma_star=sigma_star, D1=D1, Dt=Dt, Dd1=Dd1, Dd2=Dd2)


def _sigma_minors(pb: PhaseBoundary, modes: ModeSet, ops: BoundaryOperators) -> np.ndarray:
    """sigma* from first-column cofactors of the raw determinant."""
    d = pb.d
    cols = _boundary_columns(ops.H, modes.R_minus)
    if np.linalg.matrix_rank(cols) < d + 1:
        raise InconsistencyError("boundary columns H R_j^- are rank deficient")
    M = np.empty((d + 2, d + 2), dtype=complex)
    M[:, 1:] = cols
    sigma_star = np.empty(d + 2, dtype=complex)
    for m in range(d + 2):
        M[:, 0] = 0.0
        M[m, 0] = 1.0
        sigma_star[m] = np.linalg.det(M)
    return sigma_star


def sigma_methods_residual(root: RootData) -> float:
    """Largest gap between sigma* from minors and from the closed form,
    relative to max |sigma*|."""
    s_min = _sigma_minors(root.pb, root.modes, root.ops)
    s_cls = root.sigma.sigma_star
    return float(np.max(np.abs(s_min - s_cls)) / np.max(np.abs(s_cls)))


def _gamma_pair(pb: PhaseBoundary, eta: Frequency, modes: ModeSet) -> Tuple[complex, complex]:
    vl, vr = pb.left, pb.right
    e0 = eta.eta0
    al, ar = modes.a_l, modes.a_r
    jr = pb.jump_rho
    den1 = vr.u * al - 1j * vl.c2 * e0
    den2 = vl.u * ar - 1j * vr.c2 * e0
    if den1 == 0 or den2 == 0 or al == 0 or ar == 0:
        raise DegeneracyError("vanishing denominator in the gamma coefficients")
    g1 = jr * vr.u * e0 / den1
    g2 = -jr * vl.u * e0 / den2
    return complex(g1), complex(g2)


def gamma_alternative_forms(root: RootData) -> Tuple[complex, complex]:
    """The second printed forms of gamma_1, gamma_2 (valid at the root only)."""
    pb, eta, modes = root.pb, root.eta, root.modes
    vl, vr = pb.left, pb.right
    e0 = eta.eta0
    al, ar = modes.a_l, modes.a_r
    jr = pb.jump_rho
    g1 = -1j * jr * vr.c2 * e0 * e0 / (al * (vl.u * ar - 1j * vr.c2 * e0))
    g2 = 1j * jr * vl.c2 * e0 * e0 / (ar * (vr.u * al - 1j * vl.c2 * e0))
    return complex(g1), complex(g2)


def gamma_forms_residual(root: RootData) -> float:
    """Largest relative gap between the two printed forms of gamma_1, gamma_2;
    a NaN in either gap gives NaN."""
    h1, h2 = gamma_alternative_forms(root)
    return float(
        np.maximum(
            abs(root.gamma1 - h1) / abs(root.gamma1), abs(root.gamma2 - h2) / abs(root.gamma2)
        )
    )


def find_root(pb: PhaseBoundary, eta_t: np.ndarray) -> RootData:
    """The positive Lopatinskii root in closed form, with all data at it.

    Squaring the root factor F(eta0) = u_l u_r a_l a_r + c_l^2 c_r^2 eta0^2
    (`root_factor`) gives, in x = eta0^2,

        (C - U) x^2 + U (A + B) x - U A B = 0,

    with U = u_l^2 u_r^2, C = c_l^2 c_r^2, A = (c_l^2 - u_l^2)|eta_t|^2 and
    B = (c_r^2 - u_r^2)|eta_t|^2.  Both states are subsonic, so C > U and the
    product of the two roots, -U A B / (C - U), is negative: exactly one root
    is positive.  The quadratic is -U A B < 0 at x = 0 and C A^2, C B^2 > 0
    at x = A, B, so that root lies below min(A, B), inside the elliptic
    interval.  There u_l u_r a_l a_r < 0 < C x, so it is a zero of F and not
    an artefact of the squaring, and F has no other.  With
    t = (u_l/c_l)(u_r/c_r) in (0, 1) the root is written in a form free of
    cancellation and overflow.

    Raises NoRootError when floating point cannot deliver the root: eta0 is
    not strictly inside (0, elliptic_eta0_max), the root-relation residual
    exceeds 1e-12, or a mode or sigma array at the root is not finite.  Only
    the positive root is returned; the negative one is its mirror image under
    conjugation.
    """
    eta_t = np.atleast_1d(np.asarray(eta_t, dtype=float))
    ht2 = float(eta_t @ eta_t)
    vl, vr = pb.left, pb.right
    A = (vl.c2 - vl.u**2) * ht2
    B = (vr.c2 - vr.u**2) * ht2
    t = (vl.u / vl.c) * (vr.u / vr.c)
    den = t * (A + B) + math.hypot(t * (A - B), 2.0 * math.sqrt(A * B))
    e0 = math.sqrt(2.0 * A * B * t / den) if den > 0.0 else 0.0

    eta = Frequency(eta0=e0, eta_t=eta_t)  # refuses eta_t = 0 (e0 = 0 then)
    scale = vl.c2 * vr.c2 * e0 * e0
    if not (
        0.0 < e0 < elliptic_eta0_max(pb, eta_t)
        and scale > 0.0
        and abs(root_factor(pb, eta)) / scale <= 1e-12
    ):
        raise NoRootError(f"floating point cannot represent the root (eta0 = {e0!r})")

    # The finiteness test below reports an overflow here as NoRootError.
    with np.errstate(over="ignore", invalid="ignore"):
        modes = normal_modes(pb, eta)
        sigma = _sigma_closed(pb, eta, modes)
    arrays = (
        modes.beta_minus, modes.beta_plus, modes.R_minus, modes.R_plus,
        modes.L_minus, modes.L_plus, sigma.sigma_star,
    )
    if not all(np.isfinite(a).all() for a in arrays):
        raise NoRootError(f"mode or sigma data at the root eta0 = {e0!r} is not finite")
    ops = boundary_operators(pb, eta)
    g1, g2 = _gamma_pair(pb, eta, modes)
    return RootData(pb=pb, eta=eta, modes=modes, ops=ops, sigma=sigma, gamma1=g1, gamma2=g2)


def root_relation_residual(root: RootData) -> float:
    """Residual of the root factor F at the root, relative to c_l^2 c_r^2 eta0^2."""
    pb, modes, e0 = root.pb, root.modes, root.eta.eta0
    scale = pb.left.c2 * pb.right.c2 * e0 * e0
    return abs(_root_factor(pb, e0, modes.a_l, modes.a_r)) / scale


def gamma_linear_residual(root: RootData) -> float:
    """Relative residual of J(v)eta + gamma1 H R_1^- + gamma2 H R_2^-.

    Both vectors are scaled by the power of two that brings max|J(v)eta|
    into [0.5, 1) before the norms; the scaling is exact, and it keeps the
    squares inside the norms from underflowing on tiny states.
    """
    ops, modes = root.ops, root.modes
    vec = (
        ops.Jeta
        + root.gamma1 * ops.H @ modes.R_minus[0]
        + root.gamma2 * ops.H @ modes.R_minus[1]
    )
    scale = binary_scale(ops.Jeta)
    return float(np.linalg.norm(scale * vec) / np.linalg.norm(scale * ops.Jeta))


def lemma4_residuals(root: RootData) -> np.ndarray:
    """Relative residuals of the six closed products gamma_i * D-component."""
    pb, eta, modes = root.pb, root.eta, root.modes
    vl, vr = pb.left, pb.right
    e0 = eta.eta0
    ht2 = eta.ht2
    al, ar = modes.a_l, modes.a_r
    jr, ju = pb.jump_rho, pb.jump_u
    g1, g2 = root.gamma1, root.gamma2
    sig = root.sigma
    w2 = e0 * e0 + vr.u**2 * ht2

    pairs = [
        (g1 * sig.Dt, -jr * ju * vr.u * e0 * (vr.u * ar - 1j * vr.c2 * e0)),
        (g2 * sig.Dt, jr * ju * vr.u * e0 * (vl.u * al - 1j * vl.c2 * e0)),
        (g1 * sig.Dd1, -jr * vr.u * w2 * (vl.u * ar + 1j * vr.c2 * e0)),
        (g2 * sig.Dd1, -jr * vl.u * w2 * (vr.u * al + 1j * vl.c2 * e0)),
        (
            g1 * sig.Dd2,
            jr * w2 * (vr.u * ar + 1j * vr.c2 * e0)
            - jr * ju * vr.u * ht2 * (vr.u * ar - 1j * vr.c2 * e0),
        ),
        (
            g2 * sig.Dd2,
            jr * w2 * (vl.u * al + 1j * vl.c2 * e0)
            + jr * ju * vr.u * ht2 * (vl.u * al - 1j * vl.c2 * e0),
        ),
    ]
    return np.array(
        [abs(lhs - rhs) / max(abs(lhs), abs(rhs)) for lhs, rhs in pairs]
    )


def dd1_factorization_residual(root: RootData) -> float:
    """Both factorizations of eta0 * D_{d+1} must agree at the root; a NaN in
    any of them gives NaN."""
    pb, eta, modes = root.pb, root.eta, root.modes
    vl, vr = pb.left, pb.right
    e0 = eta.eta0
    w2 = e0 * e0 + vr.u**2 * eta.ht2
    al, ar = modes.a_l, modes.a_r
    lhs = -w2 * (vr.u * al - 1j * vl.c2 * e0) * (vl.u * ar + 1j * vr.c2 * e0)
    rhs = w2 * (vr.u * al + 1j * vl.c2 * e0) * (vl.u * ar - 1j * vr.c2 * e0)
    target = e0 * root.sigma.Dd1
    scale = np.maximum(abs(lhs), abs(target))
    return float(np.maximum(abs(lhs - target), abs(rhs - target)) / scale)


def sigma_r3_residual(root: RootData) -> float:
    """Residual of D1 + eta0*Dt + 2 u_r Dd1 + (mu + u_r^2) Dd2 = 0."""
    sig = root.sigma
    pb, e0 = root.pb, root.eta.eta0
    val = (
        sig.D1
        + e0 * sig.Dt
        + 2.0 * pb.right.u * sig.Dd1
        + (pb.mu + pb.right.u**2) * sig.Dd2
    )
    scale = max(abs(sig.D1), abs(sig.Dd1), abs(sig.Dd2), abs(sig.Dt) * max(abs(e0), 1.0))
    return abs(val) / scale
