"""Frequency-dependent linear algebra of the linearized interface problem.

Conventions.  States are written in the conservative variables
v = (rho, j_t, j_n): density, the d-1 tangential momentum components, and the
normal momentum.  A temporal frequency eta0 and a tangential wavevector eta_t
(length d-1, nonzero) select normal modes e^{beta z} on the half line z >= 0,
both sides of the interface having been folded onto the same half line.  On
the folded (left) side the normal flux enters with a reversed sign, so the
mode matrices differ between the sides:

    left:   i*(eta0*I + sum_k eta_t[k]*A^k) - beta*A^d
    right:  i*(eta0*I + sum_k eta_t[k]*A^k) + beta*A^d

Modes are indexed 1..d+1 per family (+/-).  Index 1 is the acoustic mode of
the left state, index 2 the acoustic mode of the right state; indices 3..d+1
are the advected modes (on the left for the + family, on the right for the -
family).  Every eigenvector is stored in one layout only: a full vector of
2(d+1) components, left block first, whose off-side block is exactly zero.

`elliptic_frequency` is every mode route's preamble: the tangent frame, the
decay radicals (`decay_radicals`, the one test of the elliptic region) and
the one refusal of eta0 = 0 at d >= 3.  `incoming_modes` adds the (-)
family's decay rates and right vectors, all the raw Lopatinskii determinant
reads, and `normal_modes` the + family and the left eigenvectors, at a float
eta0 or elementwise along a 1-D array, every array carrying eta0's shape in
front.  `mode_residuals` and `dispersion_residual` return one value per eta0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .equilibrium import FluidState, PhaseBoundary
from .errors import DegeneracyError, DomainError, ParameterError


@dataclass(frozen=True, eq=False)
class Frequency:
    """Temporal frequency and tangential wavevector (eta0, eta_t).

    eta0 is a float, or a 1-D array of temporal frequencies that share eta_t.
    """

    eta0: Union[float, np.ndarray]
    eta_t: np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.eta0) > 1:
            raise ParameterError("eta0 must be a float or a 1-D array")
        if np.ndim(self.eta0) == 1:
            object.__setattr__(self, "eta0", np.asarray(self.eta0, dtype=float))
        object.__setattr__(self, "eta_t", np.atleast_1d(np.asarray(self.eta_t, dtype=float)))
        if self.eta_t.ndim != 1:
            raise ParameterError("eta_t must be a vector")
        if not float(self.eta_t @ self.eta_t) > 0.0:
            raise DegeneracyError("tangential wavevector must be nonzero")

    @property
    def ht2(self) -> float:
        """Squared magnitude of the tangential wavevector."""
        return float(self.eta_t @ self.eta_t)


def elliptic_eta0_max(pb: PhaseBoundary, eta_t: np.ndarray) -> float:
    """Upper end of the interval of eta0 where both decay radicals are real."""
    eta_t = np.atleast_1d(np.asarray(eta_t, dtype=float))
    ht = math.sqrt(float(eta_t @ eta_t))
    return ht * math.sqrt(
        min(pb.left.c2 - pb.left.u**2, pb.right.c2 - pb.right.u**2)
    )


@dataclass(frozen=True, eq=False)
class TangentFrame:
    """Tangential basis attached to eta_t, with its determinant and Upsilon.

    Column i of `e` is the basis vector e_{i+1}; the first column is eta_t
    itself and the remaining columns are an orthonormal basis of its
    orthogonal complement.  Being orthonormal, those columns are their own
    duals inside the complement, so the advected left eigenvectors read them
    directly.  Upsilon = (-u_r*eta0)^(d-2) * u_r * det(e), one value per
    eta0 when eta0 is an array.
    """

    e: np.ndarray
    det_e: float
    upsilon: Union[float, np.ndarray]


def _complement_basis(eta_t: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to eta_t.

    A Householder reflection maps the largest-magnitude coordinate axis onto
    the unit tangential direction; the remaining reflected axes, taken in
    increasing index order and re-orthonormalized, span the complement.
    """
    m = eta_t.size
    if m == 1:
        return np.zeros((1, 0))
    n = eta_t / np.linalg.norm(eta_t)
    p = int(np.argmax(np.abs(n)))
    s = 1.0 if n[p] >= 0.0 else -1.0
    v = n.copy()
    v[p] += s
    H = np.eye(m) - 2.0 * np.outer(v, v) / float(v @ v)
    cols = [H[:, j] for j in range(m) if j != p]
    # Modified Gram-Schmidt pass; the reflected axes are already orthonormal
    # to rounding, this just tightens the duality identities.
    basis = []
    for w in cols:
        w = w - n * float(n @ w)
        for b in basis:
            w = w - b * float(b @ w)
        basis.append(w / np.linalg.norm(w))
    return np.column_stack(basis)


def tangent_frame(eta_t: np.ndarray, u_r: float, eta0, d: int) -> TangentFrame:
    """Build the tangential frame and Upsilon for a float or a 1-D array eta0."""
    eta_t = np.atleast_1d(np.asarray(eta_t, dtype=float))
    if eta_t.size != d - 1:
        raise ParameterError(f"eta_t must have length d-1={d - 1}, got {eta_t.size}")
    if not float(eta_t @ eta_t) > 0.0:
        raise DegeneracyError("tangential wavevector must be nonzero")
    comp = _complement_basis(eta_t)
    e = np.column_stack([eta_t.reshape(-1, 1), comp]) if comp.size else eta_t.reshape(-1, 1)
    det_e = float(np.linalg.det(e))
    # The power is a product of d-2 factors, so a float and an array eta0
    # round alike (C pow and numpy's power loops do not).
    power = np.ones(np.shape(eta0))
    for _ in range(d - 2):
        power = power * (-u_r * eta0)
    upsilon = power * u_r * det_e
    return TangentFrame(e=e, det_e=det_e, upsilon=float(upsilon) if upsilon.ndim == 0 else upsilon)


def flux_jacobians(state: FluidState, d: int) -> np.ndarray:
    """Jacobians A^1..A^d of the isothermal Euler fluxes at the reference state.

    Returned as an array of shape (d, d+1, d+1); the last entry is the normal
    flux Jacobian A^d.  Evaluated at v = (rho, 0, rho*u).
    """
    if d < 2:
        raise ParameterError(f"spatial dimension must be at least 2, got {d}")
    n = d + 1
    A = np.zeros((d, n, n))
    u, c2 = state.u, state.c2
    for k in range(d - 1):
        A[k, 0, 1 + k] = 1.0
        A[k, 1 + k, 0] = c2
        A[k, n - 1, 1 + k] = u
    A[d - 1, 0, n - 1] = 1.0
    for k in range(d - 1):
        A[d - 1, 1 + k, 1 + k] = u
    A[d - 1, n - 1, 0] = c2 - u * u
    A[d - 1, n - 1, n - 1] = 2.0 * u
    return A


def tangential_symbol(state: FluidState, eta: Frequency) -> np.ndarray:
    """The matrix eta0*I + sum_k eta_t[k] * A^k at the given state, one per
    eta0 when eta0 is an array."""
    d = eta.eta_t.size + 1
    A = flux_jacobians(state, d)
    S = np.multiply.outer(eta.eta0, np.eye(d + 1))
    for k in range(d - 1):
        S = S + eta.eta_t[k] * A[k]
    return S


def mode_matrix(state: FluidState, eta: Frequency, beta: complex, side: str) -> np.ndarray:
    """Symbol of the interior operator annihilating a mode e^{beta z}.

    side 'l' uses the folded sign (-beta*A^d), side 'r' the plain one.  beta
    may be an array whose shape broadcasts against eta0's; the matrices then
    carry the broadcast shape in front.
    """
    d = eta.eta_t.size + 1
    bA = np.multiply.outer(beta, flux_jacobians(state, d)[d - 1])
    S = tangential_symbol(state, eta)
    if side == "l":
        return 1j * S - bA
    if side == "r":
        return 1j * S + bA
    raise ParameterError(f"side must be 'l' or 'r', got {side!r}")


def dg0(state: FluidState, mu: float, d: int) -> np.ndarray:
    """Gradient of the entropy (energy) of isothermal Euler at the reference.

    In conservative variables it is (mu - u^2, 0, ..., 0, u); only the total
    enthalpy mu of the configuration enters.
    """
    out = np.zeros(d + 1)
    out[0] = mu - state.u**2
    out[-1] = state.u
    return out


def with_entropy_row(state: FluidState, mu: float, x: np.ndarray) -> np.ndarray:
    """The d+1 rows of x (a vector or a matrix) followed by the entropy row
    dg0 . x: the flux of the entropy-augmented system."""
    return np.concatenate((x, (dg0(state, mu, x.shape[0] - 1) @ x)[np.newaxis]))


@dataclass(frozen=True, eq=False)
class ModeSet:
    """All eigenmodes and eigenvectors of a configuration, elementwise in eta0.

    Every array carries eta0's shape in front, then the mode number j-1
    (j = 1..d+1); at a float eta0, `a_l` and `a_r` are floats.  Each
    eigenvector is stored once, as a full 2(d+1) vector: `R_minus[..., j, :]`
    and `L_minus[..., j, :]` carry the right and left vectors of the mode in
    the block `side_minus[j]` names ('l' first, 'r' second), and the other
    block is exactly +0.
    """

    pb: PhaseBoundary
    eta: Frequency
    frame: TangentFrame
    a_l: Union[float, np.ndarray]
    a_r: Union[float, np.ndarray]
    beta_minus: np.ndarray
    beta_plus: np.ndarray
    R_minus: np.ndarray
    R_plus: np.ndarray
    L_minus: np.ndarray
    L_plus: np.ndarray
    side_minus: Tuple[str, ...]
    side_plus: Tuple[str, ...]


def decay_radicals(pb: PhaseBoundary, eta: Frequency):
    """The decay radicals a_l < 0 < a_r, elementwise in eta0; the one test of
    the elliptic region, raising DomainError where either radicand is <= 0."""
    vl, vr = pb.left, pb.right
    e0 = np.asarray(eta.eta0, dtype=float)[()]
    ht2 = eta.ht2
    rad_l = (vl.c2 - vl.u**2) * ht2 - e0 * e0
    rad_r = (vr.c2 - vr.u**2) * ht2 - e0 * e0
    outside = (rad_l <= 0.0) | (rad_r <= 0.0)
    if outside.any():
        i = int(np.argmax(np.ravel(outside)))
        raise DomainError(
            f"frequency eta0={np.ravel(e0)[i]} outside the elliptic region "
            f"(radicals {np.ravel(rad_l)[i]}, {np.ravel(rad_r)[i]})"
        )
    return -vl.c * np.sqrt(rad_l), vr.c * np.sqrt(rad_r)


def elliptic_frequency(pb: PhaseBoundary, eta: Frequency):
    """Every mode route's preamble, (e0, frame, a_l, a_r): eta0 as a numpy
    scalar or array, the tangent frame and the decay radicals.  Also raises
    DomainError at any eta0 = 0 for d >= 3, where the advected left
    eigenvectors are singular."""
    # [()] leaves an array as it is and turns a float into a numpy scalar,
    # whose arithmetic costs a fraction of a 0-d array's.
    e0 = np.asarray(eta.eta0, dtype=float)[()]
    frame = tangent_frame(eta.eta_t, pb.right.u, e0, pb.d)
    a_l, a_r = decay_radicals(pb, eta)
    if pb.d > 2 and (e0 == 0.0).any():
        raise DomainError("advected left eigenvectors are singular at eta0=0 for d>=3")
    return e0, frame, a_l, a_r


def incoming_modes(pb: PhaseBoundary, eta: Frequency):
    """The incoming (-) family's decay rates and right eigenvectors on top of
    `elliptic_frequency`, as (e0, frame, a_l, a_r, beta_minus, R_minus), laid
    out as in `ModeSet`; the raw Lopatinskii determinant reads no more."""
    d = pb.d
    vl, vr = pb.left, pb.right
    et = eta.eta_t
    e0, frame, a_l, a_r = elliptic_frequency(pb, eta)
    ml = vl.c2 - vl.u**2
    mr = vr.c2 - vr.u**2
    n = d + 1
    # beta_1^- = (a_l - i u_l eta0)/ml, beta_2^- = (-a_r + i u_r eta0)/mr and
    # beta_j^- = -i eta0/u_r.
    beta_minus = np.zeros(e0.shape + (n,), dtype=complex)
    beta_minus.real[..., 0] = a_l / ml
    beta_minus.imag[..., 0] = (0.0 - vl.u * e0) / ml
    beta_minus.real[..., 1] = -a_r / mr
    beta_minus.imag[..., 1] = (0.0 + vr.u * e0) / mr
    beta_minus.imag[..., 2:] = (-e0 / vr.u)[..., None]
    b1, b2 = beta_minus[..., 0], beta_minus[..., 1]

    # Each vector is written into its side's block; the other block stays +0.
    R_minus = np.zeros(e0.shape + (n, 2 * n), dtype=complex)
    re, im = R_minus.real, R_minus.imag
    # -i eta0 + u_l beta_1^-, i c_l^2 eta_t, -a_l
    re[..., 0, 0] = vl.u * b1.real
    im[..., 0, 0] = -e0 + vl.u * b1.imag
    R_minus[..., 0, 1:d] = 1j * vl.c2 * et
    re[..., 0, d] = -a_l
    # -i eta0 - u_r beta_2^-, i c_r^2 eta_t, -a_r
    re[..., 1, n] = -(vr.u * b2.real)
    im[..., 1, n] = -e0 - vr.u * b2.imag
    R_minus[..., 1, n + 1 : n + d] = 1j * vr.c2 * et
    re[..., 1, 2 * n - 1] = -a_r
    # The advected modes of the - family live on the right.
    for j in range(2, n):
        evec = frame.e[:, j - 2]
        re[..., j, n + 1 : n + d] = e0[..., None] * evec
        re[..., j, 2 * n - 1] = vr.u * float(et @ evec)
    return e0, frame, a_l, a_r, beta_minus, R_minus


def normal_modes(pb: PhaseBoundary, eta: Frequency) -> ModeSet:
    """Decay rates, eigenmodes, and right/left eigenvectors, elementwise in eta0.

    Extends `incoming_modes` with the + family and the left vectors, so it
    refuses what `elliptic_frequency` refuses: any eta0 outside the elliptic
    region, and eta0 = 0 for d >= 3.  The decay rates and the right vectors
    are assembled from the real arithmetic that Python's complex operators
    perform on them, and every complex product of the left vectors is an
    array operation, so a float and an array eta0 give the same bits; numpy's
    complex scalar and array loops round differently.
    """
    d = pb.d
    vl, vr = pb.left, pb.right
    et = eta.eta_t
    ht2 = eta.ht2
    e0, frame, a_l, a_r, beta_minus, R_minus = incoming_modes(pb, eta)
    n = d + 1
    lb, rb = slice(0, n), slice(n, 2 * n)
    # The + family has -conj(beta_1,2^-) and i eta0/u_l.
    beta_plus = np.zeros_like(beta_minus)
    beta_plus[..., :2] = -np.conj(beta_minus[..., :2])
    beta_plus.imag[..., 2:] = (e0 / vl.u)[..., None]

    # Only the block is conjugated, so the zero block keeps its sign.
    R_plus = np.zeros_like(R_minus)
    R_plus[..., 0, lb] = np.conj(R_minus[..., 0, lb])
    R_plus[..., 1, rb] = np.conj(R_minus[..., 1, rb])

    L_minus = np.zeros_like(R_minus)
    L_plus = np.zeros_like(R_minus)
    # Acoustic: ml/(2 a_l (u_l a_l + i c_l^2 eta0)) (i eta0 - 2 u_l beta_1^+,
    # -i eta_t, beta_1^+) on the left, and its mirror image on the right.
    for row, blk, s, a, sgn in ((0, lb, vl, a_l, 1.0), (1, rb, vr, a_r, -1.0)):
        bp = beta_plus[..., row]
        vec = np.empty(e0.shape + (n,), dtype=complex)
        vec[..., 0] = sgn * 1j * e0 - 2.0 * s.u * bp
        vec[..., 1:d] = -sgn * 1j * et
        vec[..., d] = bp
        pref = (s.c2 - s.u**2) / (2.0 * a * (s.u * a + 1j * s.c2 * e0))
        L_minus[..., row, blk] = pref[..., None] * vec
        L_plus[..., row, blk] = np.conj(L_minus[..., row, blk])

    # The advected modes of the + family live on the left.
    for j in range(2, n):
        evec = frame.e[:, j - 2]
        R_plus.real[..., j, 1:d] = e0[..., None] * evec
        R_plus.real[..., j, d] = vl.u * float(et @ evec)
    # l_3 = s (-u, eta0/(u |eta_t|^2) eta_t, 1)/(eta0^2 + u^2 |eta_t|^2) and
    # l_j = s (0, e_{j-2}, 0)/(u eta0) for j > 3, with s = -1, u = u_l for the
    # + family and s = 1, u = u_r for the - family.
    for blk, u, sgn, L in ((lb, vl.u, -1.0, L_plus), (rb, vr.u, 1.0, L_minus)):
        l3 = L.real[..., 2, blk]
        den = e0 * e0 + u**2 * ht2
        l3[..., 0] = -sgn * u / den
        l3[..., 1:d] = (sgn * (e0 / (u * ht2)))[..., None] * et / den[..., None]
        l3[..., d] = sgn / den
        for j in range(3, n):
            dual = np.concatenate(([0.0], frame.e[:, j - 2], [0.0]))
            L.real[..., j, blk] = dual * (sgn / (u * e0))[..., None]

    scalar = e0.ndim == 0
    return ModeSet(
        pb=pb,
        eta=eta,
        frame=frame,
        a_l=float(a_l) if scalar else a_l,
        a_r=float(a_r) if scalar else a_r,
        beta_minus=beta_minus,
        beta_plus=beta_plus,
        R_minus=R_minus,
        R_plus=R_plus,
        L_minus=L_minus,
        L_plus=L_plus,
        side_minus=("l", "r") + ("r",) * (d - 1),
        side_plus=("l", "r") + ("l",) * (d - 1),
    )


def _split(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split d+1 components (axis 0) into (density, tangential, normal) parts."""
    return x[0], x[1:-1], x[-1]


def _columns(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """x and y as contiguous complex (m, T) stacks of T column vectors; a
    single vector becomes one column."""
    x = np.ascontiguousarray(x, dtype=complex)
    y = np.ascontiguousarray(y, dtype=complex)
    if x.shape != y.shape:
        raise ParameterError("perturbation vectors must have equal shapes")
    return x.reshape(x.shape[0], -1), y.reshape(y.shape[0], -1)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[i] b[i] over the component axis, one (T,) row at a time.

    Every product pairs a row with a row or with a scalar, so each column
    rounds the same alone as inside a stack of any width."""
    return sum((ai * bi for ai, bi in zip(a, b)), np.zeros(b.shape[1:], dtype=complex))


def d2_flux_tangential(
    state: FluidState, eta_t: np.ndarray, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Bilinear second differential of the eta_t-weighted tangential fluxes.

    Complex-bilinear in (x, y); equals the polarization of the quadratic form
    obtained by differentiating the tangential fluxes twice at the reference
    state.  Output has d+1 components.  x and y may also be (d+1, T) stacks
    of vectors; the output is then (d+1, T), column by column.
    """
    eta_t = np.asarray(eta_t, dtype=complex)
    xs, ys = _columns(x, y)
    if xs.shape[0] != eta_t.size + 2:
        raise ParameterError("perturbation vectors must have length d+1")
    px, jx, nx = _split(xs)
    py, jy, ny = _split(ys)
    rho, u, pp = state.rho, state.u, state.pp
    etjx = _row_dot(eta_t, jx)
    etjy = _row_dot(eta_t, jy)
    pxy = pp * px * py
    out = np.zeros(xs.shape, dtype=complex)
    for i, et in enumerate(eta_t):
        out[1 + i] = pxy * et + (etjx * jy[i] + etjy * jx[i]) / rho
    out[-1] = (etjx * (ny - u * py) + etjy * (nx - u * px)) / rho
    return out.reshape(np.shape(x))


def d2_flux_normal(state: FluidState, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear second differential of the entropy-augmented normal flux.

    Output has d+2 components: the d+1 conservative normal-flux rows followed
    by the entropy-flux row.  The first d+1 rows are the plain normal flux.
    x and y may also be (d+1, T) stacks of vectors; the output is then
    (d+2, T), column by column.
    """
    xs, ys = _columns(x, y)
    px, jx, nx = _split(xs)
    py, jy, ny = _split(ys)
    rho, u, c2, pp = state.rho, state.u, state.c2, state.pp
    wx = nx - u * px
    wy = ny - u * py
    pxy, wxy = px * py, wx * wy
    out = np.zeros((xs.shape[0] + 1, xs.shape[1]), dtype=complex)
    for i in range(len(jx)):
        out[1 + i] = (wx * jy[i] + wy * jx[i]) / rho
    out[-2] = pp * pxy + 2.0 * wxy / rho
    out[-1] = pp * u * pxy + (
        3.0 * u * wxy - u * c2 * pxy + c2 * (px * ny + py * nx) + u * _row_dot(jx, jy)
    ) / rho
    return out.reshape((out.shape[0],) + np.shape(x)[1:])


@dataclass(frozen=True, eq=False)
class BoundaryOperators:
    """Linearized jump operator H and the frequency vector J(v)eta."""

    H: np.ndarray
    Jeta: np.ndarray


def boundary_operators(pb: PhaseBoundary, eta: Frequency) -> BoundaryOperators:
    """Assemble H (frequency independent) and J(v)eta for a configuration;
    J(v)eta has one row of d+2 components per eta0 when eta0 is an array.
    Each side of H is that side's normal flux Jacobian over its entropy row,
    the right side negated."""
    d = pb.d
    left, right = (
        with_entropy_row(s, pb.mu, flux_jacobians(s, d)[d - 1]) for s in (pb.left, pb.right)
    )
    H = np.concatenate([left, -right], axis=1).astype(complex)
    Jeta = np.zeros(np.shape(eta.eta0) + (d + 2,), dtype=complex)
    Jeta[..., 0] = pb.jump_rho * eta.eta0
    Jeta[..., 1:d] = pb.jump_p * eta.eta_t
    Jeta[..., d + 1] = (pb.mu * pb.jump_rho - pb.jump_p) * eta.eta0
    return BoundaryOperators(H=H, Jeta=Jeta)


def dispersion_residual(modes: ModeSet) -> Union[float, np.ndarray]:
    """Largest relative residual of the acoustic decay rates in their dispersion
    relation, one value per eta0; a non-finite rate gives a non-finite value.

    beta_1^- (left, folded side) and beta_2^- (right) must be roots of
    (c^2 - u^2) beta^2 +- 2i u eta0 beta + eta0^2 - c^2 |eta_t|^2, with the
    + sign on the left; each residual is relative to c^2 |eta_t|^2.
    """
    pb, ht2 = modes.pb, modes.eta.ht2
    e0 = np.asarray(modes.eta.eta0, dtype=float)[..., None]
    c2 = np.array([pb.left.c2, pb.right.c2])
    u = np.array([pb.left.u, -pb.right.u])  # the sign of the middle term
    beta = modes.beta_minus[..., :2]
    val = (c2 - u * u) * beta**2 + 2j * u * e0 * beta + e0 * e0 - c2 * ht2
    return np.max(np.abs(val) / (c2 * ht2), axis=-1)


def binary_scale(a: np.ndarray, axes: int = 1) -> np.ndarray:
    """The power of two that brings max|a| over the trailing `axes` axes into
    [0.5, 1), with those axes kept at length 1.  Multiplying by it is exact,
    and it keeps the squares inside a norm of a from overflowing or
    underflowing on extreme states.  A non-finite maximum gives 1."""
    top = np.abs(a).max(axis=tuple(range(-axes, 0)), keepdims=True)
    return np.ldexp(1.0, -np.frexp(top)[1])


def _block_residual(M: np.ndarray, V: np.ndarray, blk: slice, off: slice, left: bool) -> np.ndarray:
    """Relative residual of each row of V against the matrix M of its mode,
    modes first: the block blk of a right (or, with left, conjugated left)
    vector must be annihilated by M, and the off-side block must vanish."""
    V = binary_scale(V) * V
    v = V[..., blk]
    image = (np.conj(v)[..., None, :] @ M)[..., 0, :] if left else (M @ v[..., None])[..., 0]
    size = np.linalg.norm(v, axis=-1)
    eig = np.linalg.norm(image, axis=-1) / (size * np.linalg.norm(M, axis=(-2, -1)))
    return np.maximum(eig, np.linalg.norm(V[..., off], axis=-1) / size)


def mode_residuals(modes: ModeSet) -> Tuple[Union[float, np.ndarray], Union[float, np.ndarray]]:
    """Largest relative residuals of the right and of the left eigenvectors,
    one value per eta0, over every mode of both families.

    The two families are concatenated along the mode axis, and the modes of
    one side share one call of `mode_matrix`, with the mode axis in front;
    each matrix is applied to both vectors, read from the block its side
    names: one pass per side and vector kind.  A nonzero off-side block
    counts as a residual relative to the vector.  The matrices and vectors
    are scaled by `binary_scale` before the norms; the scales cancel exactly
    in each residual.  A non-finite entry gives a non-finite value.
    """
    pb, eta, n = modes.pb, modes.eta, modes.pb.d + 1
    betas = np.concatenate((modes.beta_minus, modes.beta_plus), axis=-1)
    R = np.concatenate((modes.R_minus, modes.R_plus), axis=-2)
    L = np.concatenate((modes.L_minus, modes.L_plus), axis=-2)
    sides = modes.side_minus + modes.side_plus
    right, left = [], []
    for side, state, blk, off in (
        ("l", pb.left, slice(0, n), slice(n, 2 * n)),
        ("r", pb.right, slice(n, 2 * n), slice(0, n)),
    ):
        j = [k for k, s in enumerate(sides) if s == side]
        M = mode_matrix(state, eta, np.moveaxis(betas[..., j], -1, 0), side)
        M = binary_scale(M, 2) * M
        right.append(_block_residual(M, np.moveaxis(R[..., j, :], -2, 0), blk, off, False))
        left.append(_block_residual(M, np.moveaxis(L[..., j, :], -2, 0), blk, off, True))
    return np.max(np.concatenate(right), axis=0), np.max(np.concatenate(left), axis=0)


def biorthogonality_matrices(modes: ModeSet) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagnostic products (L_i^s)* Acheck^d R_j^s and the cross products.

    Acheck^d is the block diagonal of the two one-sided normal flux Jacobians.
    Returns (same-family minus, same-family plus, cross minus-plus).
    """
    d = modes.pb.d
    Adl = flux_jacobians(modes.pb.left, d)[d - 1]
    Adr = flux_jacobians(modes.pb.right, d)[d - 1]
    Acheck = np.zeros((2 * (d + 1), 2 * (d + 1)))
    Acheck[: d + 1, : d + 1] = Adl
    Acheck[d + 1 :, d + 1 :] = Adr
    Lm = np.conj(modes.L_minus)
    Lp = np.conj(modes.L_plus)
    same_minus = Lm @ Acheck @ modes.R_minus.T
    same_plus = Lp @ Acheck @ modes.R_plus.T
    cross = Lm @ Acheck @ modes.R_plus.T
    return same_minus, same_plus, cross
