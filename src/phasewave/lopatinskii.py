"""Lopatinskii determinant of the interface problem, its root, and the
projection data (sigma, gamma) attached to that root.

The determinant is evaluated by two independent functions: `det_raw`, the
raw (d+2)x(d+2) determinant of the frequency column J(v)eta against the
boundary images of the incoming modes, and `det_closed`, the closed product
formula.  Both, and the root factor `root_factor(pb, eta)`, take a float
eta0 or a 1-D array of them and return one value per eta0, so a sweep over
frequencies is one call.  `det_raw` reads only `incoming_modes` and
`det_closed` only `elliptic_frequency`, the preamble whose refusals both
share; `det_methods_residual` judges one against the other.  The zero of
the root factor, the surface wave, is the positive root of a quadratic in
eta0^2, computed in closed form by `find_root`.  The cofactor functional
sigma* at the root comes from the closed component formulas;
`sigma_methods_residual` recomputes it from the first-column minors of the
raw determinant and compares the two.  Every closed form at the root, here
and in `kernel`, reads the root quantities from one `RootScalars`, built
once by `find_root`, whose docstring defines them; the oracles (`det_raw`,
the minors, `gamma_linear_residual`) do not read it.

Every row that compares two routes to one scalar value reads one rule,
`relative_gap(a, b)` = |a - b| / max(|a|, |b|), NaN where it cannot be
computed: `det_methods_residual`, `gamma_forms_residual`,
`lemma4_residuals`, `dd1_factorization_residual`, and in `kernel`
`alpha0_residuals` and `oracle_vs_closed`.  The relation rows, which test
that a sum of terms vanishes (`root_relation_residual`,
`sigma_r3_residual`), and the vector rows (`sigma_methods_residual`,
`gamma_linear_residual`) keep their own scales.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .equilibrium import FluidState, PhaseBoundary
from .errors import DegeneracyError, NoRootError
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


def relative_gap(a, b) -> Union[float, np.ndarray]:
    """|a - b| / max(|a|, |b|), elementwise over complex scalars or arrays:
    the rule that judges every scalar two-route row here and in `kernel`.
    The value is NaN where both vanish, where either is NaN or where either
    modulus overflows; no exception or RuntimeWarning is raised."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # np.hypot rounds as Python's complex abs does; np.abs does not.
        diff = a - b
        size = np.maximum(np.hypot(a.real, a.imag), np.hypot(b.real, b.imag))
        return np.where(size < np.inf, np.hypot(diff.real, diff.imag) / size, np.nan)[()]


def det_methods_residual(pb: PhaseBoundary, eta: Frequency) -> Union[float, np.ndarray]:
    """`relative_gap` of det_raw and det_closed, at a float eta0 or at each
    eta0 of a 1-D array: NaN where both determinants underflow to 0 or
    either overflows (a huge eta_t)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return relative_gap(det_raw(pb, eta), det_closed(pb, eta))


@dataclass(frozen=True, eq=False)
class SigmaData:
    """The cofactor functional sigma at a root, in row form.

    `sigma_star` is the linear functional X -> det(X, H R_1^-, ...), so that
    sigma itself is its complex conjugate.  The scalar components are stored
    alongside: sigma* = Upsilon (D1, Dt*eta_t^T, Dd1, Dd2).  `D1_mu_free` =
    D1 + mu*Dd2 is the part of D1 that does not depend on mu, as the closed
    form computes it before D1.
    """

    sigma_star: np.ndarray
    D1: complex
    Dt: complex
    Dd1: complex
    Dd2: complex
    D1_mu_free: complex


@dataclass(frozen=True, eq=False)
class RootScalars:
    """The root quantities every closed form at the root is written in.

    For the left (l) and right (r) states (rho, u, c^2) and the root
    (eta0, eta_t): the states `vl`, `vr`; `e0` = eta0 and `ht2` = |eta_t|^2;
    the decay radicals `a_l` < 0 < `a_r`; `upsilon` = Upsilon =
    (-u_r eta0)^(d-2) u_r det(e); `jump_rho` = [rho] and `jump_u` = [u],
    right minus left; `w2_l` = w_l^2 = eta0^2 + u_l^2 |eta_t|^2 and `w2_r` =
    w_r^2 likewise; and the eight acoustic factors, own side (z: each
    radical with its own state's velocity) and cross side (x: with the
    other state's):

        zl_p, zl_m = z_l± = u_l a_l ± i c_l^2 eta0
        zr_p, zr_m = z_r± = u_r a_r ± i c_r^2 eta0
        xl_p, xl_m = x_l± = u_r a_l ± i c_l^2 eta0
        xr_p, xr_m = x_r± = u_l a_r ± i c_r^2 eta0
    """

    vl: FluidState
    vr: FluidState
    e0: float
    ht2: float
    a_l: float
    a_r: float
    upsilon: float
    jump_rho: float
    jump_u: float
    w2_l: float
    w2_r: float
    zl_p: complex
    zl_m: complex
    zr_p: complex
    zr_m: complex
    xl_p: complex
    xl_m: complex
    xr_p: complex
    xr_m: complex

    @classmethod
    def at(cls, pb: PhaseBoundary, eta: Frequency, modes: ModeSet) -> "RootScalars":
        """The scalars at a float eta0, from the radicals and Upsilon of modes."""
        vl, vr, e0, ht2, al, ar = pb.left, pb.right, eta.eta0, eta.ht2, modes.a_l, modes.a_r
        return cls(
            vl=vl, vr=vr, e0=e0, ht2=ht2, a_l=al, a_r=ar, upsilon=modes.frame.upsilon,
            jump_rho=pb.jump_rho, jump_u=pb.jump_u,
            w2_l=e0 * e0 + vl.u**2 * ht2, w2_r=e0 * e0 + vr.u**2 * ht2,
            zl_p=vl.u * al + 1j * vl.c2 * e0, zl_m=vl.u * al - 1j * vl.c2 * e0,
            zr_p=vr.u * ar + 1j * vr.c2 * e0, zr_m=vr.u * ar - 1j * vr.c2 * e0,
            xl_p=vr.u * al + 1j * vl.c2 * e0, xl_m=vr.u * al - 1j * vl.c2 * e0,
            xr_p=vl.u * ar + 1j * vr.c2 * e0, xr_m=vl.u * ar - 1j * vr.c2 * e0,
        )


@dataclass(frozen=True, eq=False)
class RootData:
    """A Lopatinskii root with the mode and projection data evaluated there,
    and the root scalars every closed form reads."""

    pb: PhaseBoundary
    eta: Frequency
    modes: ModeSet
    ops: BoundaryOperators
    sigma: SigmaData
    gamma1: complex
    gamma2: complex
    scalars: RootScalars


def _sigma_closed(pb: PhaseBoundary, eta_t: np.ndarray, s: RootScalars) -> SigmaData:
    vl, vr, e0, al, ar, ju = s.vl, s.vr, s.e0, s.a_l, s.a_r, s.jump_u
    d1_plus_mu_dd2 = -s.w2_r * (
        ju * vl.c2 * vr.c2 * e0 - 1j * vl.u * vr.u * (vr.c2 * al - vl.c2 * ar)
    )
    Dt = -ju * vr.u * (al * s.zr_m + ar * s.zl_m)
    Dd1 = -1j * s.w2_r * (vr.u * vr.c2 * al - vl.u * vl.c2 * ar)
    Dd2 = (
        ju * e0 * (al * ar + vl.c2 * vr.c2 * s.ht2)
        + 1j * e0 * e0 * (vr.c2 * al - vl.c2 * ar)
        - 1j * s.ht2 * (vr.u * (vl.u - 2.0 * vr.u) * vr.c2 * al + vl.u * vr.u * vl.c2 * ar)
    )
    D1 = d1_plus_mu_dd2 - pb.mu * Dd2
    sigma_star = s.upsilon * np.concatenate(([D1], Dt * eta_t, [Dd1, Dd2]))
    return SigmaData(
        sigma_star=sigma_star, D1=D1, Dt=Dt, Dd1=Dd1, Dd2=Dd2, D1_mu_free=d1_plus_mu_dd2
    )


def _sigma_minors(pb: PhaseBoundary, modes: ModeSet, ops: BoundaryOperators) -> np.ndarray:
    """sigma* from first-column cofactors of the raw determinant: the d+2
    matrices with e_m in column 0, in one stacked determinant call."""
    n = pb.d + 2
    M = np.empty((n, n, n), dtype=complex)
    M[:, :, 0] = np.eye(n)
    M[:, :, 1:] = _boundary_columns(ops.H, modes.R_minus)
    return np.linalg.det(M)


def sigma_methods_residual(root: RootData) -> float:
    """Largest gap between sigma* from minors and from the closed form,
    relative to max |sigma*|."""
    s_min = _sigma_minors(root.pb, root.modes, root.ops)
    s_cls = root.sigma.sigma_star
    return float(np.max(np.abs(s_min - s_cls)) / np.max(np.abs(s_cls)))


def _gamma_pair(s: RootScalars) -> Tuple[complex, complex]:
    if s.xl_m == 0 or s.xr_m == 0 or s.a_l == 0 or s.a_r == 0:
        raise DegeneracyError("vanishing denominator in the gamma coefficients")
    g1 = s.jump_rho * s.vr.u * s.e0 / s.xl_m
    g2 = -s.jump_rho * s.vl.u * s.e0 / s.xr_m
    return complex(g1), complex(g2)


def gamma_alternative_forms(root: RootData) -> Tuple[complex, complex]:
    """The second printed forms of gamma_1, gamma_2 (valid at the root only)."""
    s = root.scalars
    g1 = -1j * s.jump_rho * s.vr.c2 * s.e0 * s.e0 / (s.a_l * s.xr_m)
    g2 = 1j * s.jump_rho * s.vl.c2 * s.e0 * s.e0 / (s.a_r * s.xl_m)
    return complex(g1), complex(g2)


def gamma_forms_residual(root: RootData) -> float:
    """Largest `relative_gap` between the two printed forms of gamma_1,
    gamma_2; a NaN in either gap gives NaN."""
    gammas = np.array([root.gamma1, root.gamma2])
    return float(np.max(relative_gap(gammas, np.array(gamma_alternative_forms(root)))))


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

    `Frequency` judges eta_t.  Raises NoRootError when floating point cannot
    deliver the root: eta0 is not strictly inside (0, elliptic_eta0_max), the
    root-relation residual exceeds 1e-12, a mode or sigma array at the root
    is not finite, or sigma* underflows, one of Upsilon D1, Upsilon Dt,
    Upsilon Dd1 and Upsilon Dd2 being 0 or subnormal (every closed form at
    the root is built on sigma*).  Only the positive root is returned; the
    negative one is its mirror image under conjugation.
    """
    eta = Frequency(0.0, eta_t)  # judges eta_t; the root's eta0 replaces 0.0
    vl, vr = pb.left, pb.right
    A = (vl.c2 - vl.u**2) * eta.ht2
    B = (vr.c2 - vr.u**2) * eta.ht2
    t = (vl.u / vl.c) * (vr.u / vr.c)
    den = t * (A + B) + math.hypot(t * (A - B), 2.0 * math.sqrt(A * B))
    e0 = math.sqrt(2.0 * A * B * t / den) if den > 0.0 else 0.0

    eta = Frequency(e0, eta.eta_t)
    scale = vl.c2 * vr.c2 * e0 * e0
    if not (
        0.0 < e0 < elliptic_eta0_max(pb, eta.eta_t)
        and scale > 0.0
        and abs(root_factor(pb, eta)) / scale <= 1e-12
    ):
        raise NoRootError(f"floating point cannot represent the root (eta0 = {e0!r})")

    # The finiteness test below reports an overflow here as NoRootError.
    with np.errstate(over="ignore", invalid="ignore"):
        modes = normal_modes(pb, eta)
        scalars = RootScalars.at(pb, eta, modes)
        sigma = _sigma_closed(pb, eta.eta_t, scalars)
    arrays = (
        modes.beta_minus, modes.beta_plus, modes.R_minus, modes.R_plus,
        modes.L_minus, modes.L_plus, sigma.sigma_star,
    )
    if not all(np.isfinite(a).all() for a in arrays):
        raise NoRootError(f"mode or sigma data at the root eta0 = {e0!r} is not finite")
    # The components, not the entries: Dt eta_t has a legitimate 0 wherever
    # a component of eta_t is 0.
    ups = scalars.upsilon
    if min(abs(ups * D) for D in (sigma.D1, sigma.Dt, sigma.Dd1, sigma.Dd2)) < sys.float_info.min:
        raise NoRootError(f"sigma* at the root eta0 = {e0!r} underflows")
    ops = boundary_operators(pb, eta)
    g1, g2 = _gamma_pair(scalars)
    return RootData(
        pb=pb, eta=eta, modes=modes, ops=ops, sigma=sigma, gamma1=g1, gamma2=g2, scalars=scalars
    )


def root_relation_residual(root: RootData) -> float:
    """Residual of the root factor F at the root, relative to c_l^2 c_r^2 eta0^2."""
    s = root.scalars
    scale = s.vl.c2 * s.vr.c2 * s.e0 * s.e0
    return abs(_root_factor(root.pb, s.e0, s.a_l, s.a_r)) / scale


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
    """`relative_gap` of each of the six products gamma_i * D-component and
    its closed form."""
    s, g1, g2, sig = root.scalars, root.gamma1, root.gamma2, root.sigma
    jr, ju, ur, e0, ht2, w2 = s.jump_rho, s.jump_u, s.vr.u, s.e0, s.ht2, s.w2_r
    pairs = [
        (g1 * sig.Dt, -jr * ju * ur * e0 * s.zr_m),
        (g2 * sig.Dt, jr * ju * ur * e0 * s.zl_m),
        (g1 * sig.Dd1, -jr * ur * w2 * s.xr_p),
        (g2 * sig.Dd1, -jr * s.vl.u * w2 * s.xl_p),
        (g1 * sig.Dd2, jr * w2 * s.zr_p - jr * ju * ur * ht2 * s.zr_m),
        (g2 * sig.Dd2, jr * w2 * s.zl_p + jr * ju * ur * ht2 * s.zl_m),
    ]
    return relative_gap(*np.array(pairs).T)


def dd1_factorization_residual(root: RootData) -> float:
    """Both factorizations of eta0 * D_{d+1} must agree with it at the root:
    the larger `relative_gap`; a NaN in any of them gives NaN."""
    s = root.scalars
    factored = np.array([-s.w2_r * s.xl_m * s.xr_p, s.w2_r * s.xl_p * s.xr_m])
    return float(np.max(relative_gap(factored, s.e0 * root.sigma.Dd1)))


def sigma_r3_residual(root: RootData) -> float:
    """Residual of D1 + eta0*Dt + 2 u_r Dd1 + (mu + u_r^2) Dd2 = 0, written
    as (D1 + mu*Dd2) + eta0*Dt + 2 u_r Dd1 + u_r^2 Dd2 and relative to the
    largest of those four terms.  At low Mach number the last three shrink
    with the velocities while D1 and mu*Dd2 stay large and cancel, so the
    row reads the mu-free part as `_sigma_closed` computed it: rebuilt from
    D1, it would carry D1's rounding into the sum."""
    sig, e0, ur = root.sigma, root.scalars.e0, root.scalars.vr.u
    terms = (sig.D1_mu_free, e0 * sig.Dt, 2.0 * ur * sig.Dd1, ur**2 * sig.Dd2)
    return abs(sum(terms)) / max(abs(t) for t in terms)
