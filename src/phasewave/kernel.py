"""The quadratic interaction kernel of the surface-wave amplitude equation.

Every object has independent routes, each its own function.  alpha0, the
coefficient of d/dtau, is `alpha0_closed` (factorized; `kernel_constants`
uses it), `alpha0_abstract` (the projected mode sum) and `alpha0_fd` (a
finite difference of `det_closed` in eta0).  The kernel is `q_oracle`, the
five pieces q_1..q_5 from boundary traces, second differentials of the
fluxes and exact half-line integrals of exponential profiles (see `expsum`),
and `kernel_constants`, the factorized constants Q, Q_l, Q_r, Q_sharp, Q_b,
Q_nat; `final_simplification_residual` ties Q_nat to Q and Q_b.  The
completed kernel `q_grid` is fixed by Q_nat alone and is piecewise
homogeneous of degree zero:

    q = Q_nat                     for k > 0, k' > 0
    q = conj(Q_nat) (1 + k'/k)    for k > 0 > k', k + k' > 0

extended to the rest of the plane by index symmetry q(k,k') = q(k',k) and
reality q(-k,-k') = conj(q(k,k')), with the value 0 on the anti-diagonal and
the real part of Q_nat on the coordinate axes (the principal-value choice).
On k1 + k2 + k3 = 0, q(k1, k2)/|k3| is invariant under cyclic shifts (Hunter's
Hamiltonian symmetry).  `oracle_vs_closed` judges the summed oracle against
`q_grid` and checks that symmetry on the oracle.  The closed forms read the
root quantities (w^2, the acoustic factors z and x) from `RootData.scalars`,
defined in `lopatinskii.RootScalars`; the oracle routes do not.

Two routes to one value are compared by `lopatinskii.relative_gap`, which
reads NaN where a route overflows: alpha0 against `alpha0_abstract` and
`alpha0_fd`, and the summed oracle against `q_grid` at every sample.  The
relation rows `final_simplification_residual` and `b_identity_residual`,
the imaginary part of `alpha0_abstract`, and the spreads (`_spread`) keep
their own scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, Tuple

import numpy as np

from .errors import DegeneracyError, DomainError, ParameterError
from .expsum import ExpProfile, pair_bilinear, pair_dot
from .lopatinskii import RootData, det_closed, relative_gap
from .modes import (
    Frequency,
    d2_flux_normal,
    d2_flux_tangential,
    tangential_symbol,
    with_entropy_row,
)


# ---------------------------------------------------------------------------
# alpha0, the coefficient of the linear part of the amplitude equation
# ---------------------------------------------------------------------------


def alpha0_closed(root: RootData) -> complex:
    """alpha0 from its factorized expression
    -[rho][u] Upsilon/eta0 (eta0^2 + u_r^2 |eta_t|^2)
    (u_l^2 u_r^2 (a_l^2/c_l^2 + a_r^2/c_r^2) + 2 c_l^2 c_r^2 eta0^2)."""
    s = root.scalars
    vl, vr, e0 = s.vl, s.vr, s.e0
    brace = vl.u**2 * vr.u**2 * (s.a_l * s.a_l / vl.c2 + s.a_r * s.a_r / vr.c2) + (
        2.0 * vl.c2 * vr.c2 * e0 * e0
    )
    return complex(-s.jump_rho * s.jump_u * s.upsilon / e0 * s.w2_r * brace)


def _plus_couplings(root: RootData) -> np.ndarray:
    """sigma* H R_p^+ for each + mode p, read by `alpha0_abstract` and
    `dual_profile`; 0 for p >= 4."""
    sig, H = root.sigma.sigma_star, root.ops.H
    return np.array([sig @ (H @ r) for r in root.modes.R_plus])


def alpha0_abstract(root: RootData) -> complex:
    """alpha0 as the projected mode sum: sigma* of the temporal flux jump plus
    each + mode's coupling to the incoming modes via 1/(beta_p^+ - beta_q^-)."""
    pb, eta, modes, ops = root.pb, root.eta, root.modes, root.ops

    # Jump of the temporal flux, written through J(v)eta minus its pressure part.
    press = np.zeros(pb.d + 2, dtype=complex)
    press[1 : pb.d] = pb.jump_p * eta.eta_t
    total = root.sigma.sigma_star @ ((ops.Jeta - press) / eta.eta0)

    gammas = (root.gamma1, root.gamma2)
    for p, shr in enumerate(_plus_couplings(root)):
        for q in range(2):
            num = np.conj(modes.L_plus[p]) @ (gammas[q] * modes.R_minus[q])
            total = total + 1j * shr * num / (modes.beta_plus[p] - modes.beta_minus[q])
    return complex(total)


def alpha0_fd(root: RootData) -> complex:
    """alpha0 as a centered finite difference of `det_closed` in eta0 at the
    root, with step h = 1e-6 eta0: the coefficient is the determinant's
    derivative there.  Both points share one `det_closed` call."""
    e0, eta_t = root.eta.eta0, root.eta.eta_t
    h = 1e-6 * e0
    dp, dm = det_closed(root.pb, Frequency(np.array([e0 + h, e0 - h]), eta_t))
    return complex((dp - dm) / (2.0 * h))


def alpha0_residuals(root: RootData, alpha0: float) -> Tuple[float, float, float]:
    """Relative residuals: the imaginary part of `alpha0_abstract` against its
    modulus, and the `relative_gap` of the closed value alpha0 and
    `alpha0_abstract` and of alpha0 and `alpha0_fd`."""
    a_abstract, a_fd = alpha0_abstract(root), alpha0_fd(root)
    imag = abs(a_abstract.imag) / abs(a_abstract)
    vs_abstract, vs_fd = relative_gap(alpha0, np.array([a_abstract, a_fd]))
    return imag, vs_abstract, vs_fd


# ---------------------------------------------------------------------------
# Exponential profiles of the resonant solution and its dual
# ---------------------------------------------------------------------------


def trace_profile(root: RootData, k: float) -> ExpProfile:
    """Full 2(d+1)-component first-order corrector profile at wavenumber k != 0.

    For k > 0 its terms are gamma1 e^{k beta_1^- z} R_1^- (left block) and
    gamma2 e^{k beta_2^- z} R_2^- (right block); for k < 0 the complex
    conjugate family enters instead, keeping every rate strictly decaying.
    Its value at z = 0 is the pair of boundary traces.
    """
    if k == 0.0:
        raise DegeneracyError("the trace profile is undefined at k = 0")
    m = root.modes
    if k > 0.0:
        g1, g2, R, beta = root.gamma1, root.gamma2, m.R_minus, m.beta_minus
    else:
        g1, g2, R, beta = np.conj(root.gamma1), np.conj(root.gamma2), m.R_plus, m.beta_plus
    return ExpProfile.from_terms([(g1 * R[0], k * beta[0]), (g2 * R[1], k * beta[1])])


def dual_profile(root: RootData, k: float) -> ExpProfile:
    """Row-valued dual profile L(k, .) for k > 0.

    The sum runs over the whole + family; the advected couplings
    sigma* H R_p^+ (`_plus_couplings`) vanish for p >= 4, leaving the three
    printed terms.
    """
    if k <= 0.0:
        raise DomainError(f"dual profile requires k > 0, got {k}")
    m = root.modes
    return ExpProfile(_plus_couplings(root) * np.conj(m.L_plus).T, -k * m.beta_plus)


# ---------------------------------------------------------------------------
# The five abstract kernels
# ---------------------------------------------------------------------------


def _blockwise(fl, fr, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A full-space bilinear map from two one-sided ones, bound to fl and fr
    with `functools.partial`.

    x and y are (2(d+1), T) stacks of coefficient columns, as `pair_bilinear`
    passes them; fl maps the left block rows and fr the right block rows, and
    their outputs are stacked, left first."""
    n = x.shape[0] // 2
    return np.concatenate((fl(x[:n], y[:n]), fr(x[n:], y[n:])))


def q_oracle(root: RootData, k, kp) -> Tuple:
    """The five kernel pieces at (k, k'), each from its abstract definition.

    k and k' are floats, giving five complex values, or equal-length 1-D
    arrays of points, giving five complex arrays.  Valid for k != 0, k' != 0,
    k + k' > 0, which covers the two regions the closed forms are stated on;
    one point outside refuses the call.  All z-integrals are exact: each
    integrand is an `ExpProfile`, and every product of profiles pairs all
    their terms in one array operation.

    The kernel is homogeneous of degree zero, so the profile coefficients
    depend only on the signs of k and k': the trace profiles of both sign
    families and the dual profile are built once, at unit scale, and so are
    their products.  A point then contributes only its rates, which scale
    with |k|, |k'| and k + k', and the terms of its sign families.  Each
    point's integrals are summed on their own (`ExpProfile.integral`), so a
    point gives the same bits alone as inside an array.
    """
    k = np.asarray(k, dtype=float)
    kp = np.asarray(kp, dtype=float)
    if k.ndim > 1 or k.shape != kp.shape:
        raise ParameterError("k and k' must be floats or equal-length 1-D arrays")
    if ((k == 0.0) | (kp == 0.0)).any():
        raise DegeneracyError("kernel pieces are undefined on the axes")
    total = k + kp
    if (total <= 0.0).any():
        raise DomainError("kernel pieces require k + k' > 0")

    pb, eta = root.pb, root.eta
    d = pb.d
    vl, vr = pb.left, pb.right
    sig = root.sigma.sigma_star
    n, m = d + 1, d + 2

    # Unit-scale trace profiles: terms 0, 1 serve k > 0 and terms 2, 3 k < 0.
    # A sign pair (k, k') is indexed 2 (k < 0) + (k' < 0).
    pos, neg = trace_profile(root, 1.0), trace_profile(root, -1.0)
    R = pos + neg
    L = dual_profile(root, 1.0)
    sign_pair = 2 * (k < 0.0) + (kp < 0.0)

    # q1: tangential first differentials applied to the boundary traces.
    Sl = tangential_symbol(vl, eta)
    Sr = tangential_symbol(vr, eta)
    t = np.stack((pos(0.0), neg(0.0)))
    tsum = (t[:, None] + t[None, :]).reshape(4, 2 * n).T
    q1 = sig @ (
        with_entropy_row(vr, pb.mu, Sr @ tsum[n:]) - with_entropy_row(vl, pb.mu, Sl @ tsum[:n])
    )

    # q2 and q4 read one profile of the entropy-augmented normal second
    # differential, the d+2 left block rows over the d+2 right block rows.
    # By bilinearity its value at z = 0 is the differential of the traces:
    # for each sign pair, the sum of that pair's four terms.
    vn = pair_bilinear(
        R, R, partial(_blockwise, partial(d2_flux_normal, vl), partial(d2_flux_normal, vr))
    )
    at0 = vn.coeffs.reshape(2 * m, 2, 2, 2, 2).sum(axis=(2, 4)).reshape(2 * m, 4)
    q2 = -(sig @ (at0[m:] - at0[:m]))

    # Per point: the trace terms of its sign families and their rates.
    family = np.array([False, False, True, True])
    keep_k = (k < 0.0)[..., None] == family
    keep_kp = (kp < 0.0)[..., None] == family
    rate_k = np.abs(k)[..., None] * R.rates
    rate_kp = np.abs(kp)[..., None] * R.rates
    dual = total[..., None, None] * L.rates[:, None]
    pair_rate = (rate_k[..., :, None] + rate_kp[..., None, :]).reshape(k.shape + (1, 16))
    pair_keep = (keep_k[..., :, None] & keep_kp[..., None, :]).reshape(k.shape + (1, 16))
    dual_pair_rate = dual + pair_rate

    def integral(coeffs, keep, rates):
        """One integral per point of the terms it keeps, all terms on one axis."""
        live = np.where(keep, coeffs, 0.0).reshape(k.shape + (1, -1))
        return ExpProfile(live, rates.reshape(k.shape + (-1,))).integral()[..., 0]

    # q3: tangential second differentials under the z-integral.
    bil3 = partial(
        _blockwise,
        partial(d2_flux_tangential, vl, eta.eta_t),
        partial(d2_flux_tangential, vr, eta.eta_t),
    )
    v3 = pair_dot(L, pair_bilinear(R, R, bil3))
    q3 = 1j * total * integral(v3.coeffs.reshape(n, 16), pair_keep, dual_pair_rate)

    # q4: z-derivative of the folded normal second differential: the flux
    # rows of each block, the left block negated.
    v4 = pair_dot(L, vn.map_coeffs(lambda c: np.concatenate((-c[:n], c[m : m + n]))))
    q4 = integral(v4.coeffs.reshape(n, 16) * pair_rate, pair_keep, dual_pair_rate)

    # q5: folded tangential symbol applied to the z-derivative of the traces
    # at k and at k'.
    Acheck = np.zeros((2 * n, 2 * n))
    Acheck[:n, :n] = -Sl
    Acheck[n:, n:] = Sr
    v5 = pair_dot(L, R.map_coeffs(lambda c: Acheck @ c)).coeffs.reshape(n, 4)
    q5 = -sum(
        integral(v5 * rate[..., None, :], keep[..., None, :], dual + rate[..., None, :])
        for rate, keep in ((rate_k, keep_k), (rate_kp, keep_kp))
    )

    pieces = (q1[sign_pair], q2[sign_pair], q3, q4, q5)
    if k.ndim == 0:
        return tuple(complex(q) for q in pieces)
    return pieces


# ---------------------------------------------------------------------------
# Closed-form constants and the completed kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KernelConstants:
    """All closed-form scalars entering the completed kernel."""

    alpha0: float
    Q: complex
    Q_l: complex
    Q_r: complex
    Q_sharp: complex
    Q_b: complex
    Q_nat: complex


def kernel_constants(root: RootData) -> KernelConstants:
    """Evaluate every closed-form kernel constant at the root.  Raises
    DegeneracyError when the modulus of alpha0 or Q_nat, the scales of their
    residuals, is 0 or not finite: Q_nat's parts can be finite while its
    modulus overflows."""
    s, m, g1, g2 = root.scalars, root.modes, root.gamma1, root.gamma2
    vl, vr, e0, ht2, al, ar = s.vl, s.vr, s.e0, s.ht2, s.a_l, s.a_r
    jr, ju, ups, w2l, w2r = s.jump_rho, s.jump_u, s.upsilon, s.w2_l, s.w2_r
    b1m, b2m = m.beta_minus[0], m.beta_minus[1]
    b1p, b2p = m.beta_plus[0], m.beta_plus[1]
    # The finiteness test below reports an overflow here as DegeneracyError.
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = s.xr_p / s.xr_m
        Q = 2.0 * jr * ju * ups * w2r * (b1m + b2m) * 1j * vl.u * vr.u * al * ar * ratio
        Q_l = jr * ju * ups * vl.u * vr.u * (ar / al) * w2r * w2l * g1 * (1j * e0 - vl.u * b1m)
        Q_r = jr * ju * ups * vl.u * vr.u * (al / ar) * w2r**2 * g2 * (1j * e0 + vr.u * b2m)
        Q_sharp = (
            2.0 * jr * ups * w2r * (e0 * e0 + vl.u * vr.u * ht2) * 1j * vl.c2 * vr.c2 * e0
            * (vr.c2 * g2 / (vr.rho * vr.u) - vl.c2 * g1 / (vl.rho * vl.u))
        )
        Q_b = (
            -2.0 * jr * ju * ups * w2r * vl.u * vr.u * ht2
            * (
                (vl.c2**2 * ar / (vl.rho * al)) * np.conj(g1) * (1j * e0 - vl.u * b1p)
                + (vr.c2**2 * al / (vr.rho * ar)) * np.conj(g2) * (1j * e0 + vr.u * b2p)
            )
        )
        Q_nat = (
            (vl.pp / 2.0 + vl.c2 / vl.rho) * Q_l
            + (vr.pp / 2.0 + vr.c2 / vr.rho) * Q_r
            + Q_sharp
        )
        a0 = alpha0_closed(root)
        sizes = {"alpha0": np.hypot(a0.real, a0.imag), "Q_nat": np.hypot(Q_nat.real, Q_nat.imag)}
    for fault, hit in (("vanished", lambda v: v == 0), ("not finite", lambda v: not np.isfinite(v))):
        named = [name for name, size in sizes.items() if hit(size)]
        if named:
            raise DegeneracyError(f"{' and '.join(named)} {fault} at the root eta0 = {e0!r}")
    return KernelConstants(
        alpha0=float(a0.real),
        Q=complex(Q),
        Q_l=complex(Q_l),
        Q_r=complex(Q_r),
        Q_sharp=complex(Q_sharp),
        Q_b=complex(Q_b),
        Q_nat=complex(Q_nat),
    )


def final_simplification_residual(kc: KernelConstants, root: RootData) -> float:
    """Residual of (c_l^2/rho_l) Q_l + (c_r^2/rho_r) Q_r + Q_sharp/2
    = (Q + conj(Q_b))/2, relative to |Q_nat|."""
    vl, vr = root.pb.left, root.pb.right
    lhs = vl.c2 / vl.rho * kc.Q_l + vr.c2 / vr.rho * kc.Q_r + 0.5 * kc.Q_sharp
    rhs = 0.5 * (kc.Q + np.conj(kc.Q_b))
    return abs(lhs - rhs) / abs(kc.Q_nat)


def b_identity_values(root: RootData) -> Tuple[complex, complex]:
    """The two one-sided combinations whose sum vanishes at the root.

    Each also satisfies a factorized identity:
        u_l (u_r a_l - i c_l^2 eta0) B_l = -i eta0 (u_l a_l + i c_l^2 eta0)
        u_r (u_l a_r - i c_r^2 eta0) B_r = -i eta0 (u_r a_r + i c_r^2 eta0)
    """
    s, m, g1, g2 = root.scalars, root.modes, root.gamma1, root.gamma2
    vl, vr, e0, b1m, b2m = s.vl, s.vr, s.e0, m.beta_minus[0], m.beta_minus[1]
    X = s.xr_p / s.xr_m
    mix = (e0 * e0 + vl.u * vr.u * s.ht2) / (root.pb.j * s.jump_u * e0)
    B_l = b1m * X - 1j * (g1 / vl.rho) * (1j * e0 - vl.u * b1m) - mix * vl.c2 * g1
    B_r = b2m * X - 1j * (g2 / vr.rho) * (1j * e0 + vr.u * b2m) + mix * vr.c2 * g2
    return complex(B_l), complex(B_r)


def b_identity_residual(root: RootData) -> float:
    """|B_l + B_r| relative to |B_l| + |B_r|; 0 at the root."""
    bl, br = b_identity_values(root)
    return abs(bl + br) / (abs(bl) + abs(br))


@dataclass(eq=False)
class Kernel:
    """Completed kernel with its constants."""

    constants: KernelConstants


def build_kernel(root: RootData) -> Kernel:
    return Kernel(constants=kernel_constants(root))


def q_grid(kernel: Kernel, K: np.ndarray, KP: np.ndarray) -> np.ndarray:
    """The completed kernel at arrays (or floats) of (k, k') pairs.  After
    the reality reflection onto k + k' >= 0 it reads each pair ordered, hi =
    max and lo = min: Q_nat where lo > 0, conj(Q_nat) (1 + lo/hi) where lo <
    0 < hi + lo, Re Q_nat where lo = 0 < hi, and 0 where hi + lo = 0."""
    Qn = kernel.constants.Q_nat
    K = np.asarray(K, dtype=float)
    KP = np.asarray(KP, dtype=float)
    K, KP = np.broadcast_arrays(K, KP)
    neg = K + KP < 0.0
    A = np.where(neg, -K, K)
    B = np.where(neg, -KP, KP)
    hi, lo = np.maximum(A, B), np.minimum(A, B)
    vals = np.zeros(A.shape, dtype=complex)
    vals[lo > 0.0] = Qn
    mixed = (lo < 0.0) & (hi + lo > 0.0)
    vals[mixed] = np.conj(Qn) * (1.0 + lo[mixed] / hi[mixed])
    vals[(lo == 0.0) & (hi > 0.0)] = Qn.real
    return np.where(neg, np.conj(vals), vals)


def _spread(vals) -> float:
    """Largest distance of vals from their first, relative to max |vals|."""
    if len(vals) < 2:
        return 0.0
    arr = np.array(vals)
    return float(np.max(np.abs(arr - arr[0])) / max(np.max(np.abs(arr)), 1e-300))


# Hunter's triad for the symmetry spread, and the points where it reads the
# oracle, folded by reality onto k + k' > 0: (1, 2), (-2, 3) and (3, -1).
_TRIADS = ((1.0, 2.0, -3.0), (2.0, -3.0, 1.0), (-3.0, 1.0, 2.0))
_TRIAD_POINTS = tuple((k, kp) if k + kp > 0.0 else (-k, -kp) for k, kp, _ in _TRIADS)


def oracle_vs_closed(root: RootData, kc: KernelConstants, samples: Iterable[Tuple[float, float]]) -> Dict:
    """Compare summed oracle kernels against the completed kernel `q_grid`
    over samples, and check the oracle's own Hamiltonian symmetry.

    The samples lie where the oracle is stated, k, k' != 0 with k + k' > 0.
    Returns the largest `relative_gap` of the oracle and `q_grid` over the
    samples (NaN if any gap is), the region-constancy and mixed-region
    proportionality spreads, the conjugation of Q that q5 follows at the
    first mixed-region sample, and the Hamiltonian-symmetry spread: that of
    Lambda(k1, k2, k3) = q(k1, k2)/|k3| over the cyclic shifts of the triad
    (1, 2, -3), relative to max |Lambda|, with q the summed oracle completed
    only by reality.  The shift (2, -3, 1) reads (-2, 3), in the index-swapped
    region.  The oracle is one `q_oracle` call over the samples and the
    triad points, and the closed values one `q_grid` call over the samples.
    """
    samples = list(samples)
    points = samples + [p for p in _TRIAD_POINTS if p not in samples]
    K, KP = np.array(points, dtype=float).T
    n = len(samples)
    k, kp = K[:n], KP[:n]
    region1 = (k > 0.0) & (kp > 0.0)
    mixed = np.flatnonzero(~region1)
    # An oracle or a closed value that overflows (a huge eta_t, a huge
    # Q_nat) gives NaN deviations and spreads.
    with np.errstate(over="ignore", invalid="ignore"):
        qs = q_oracle(root, K, KP)
        closed = q_grid(Kernel(constants=kc), k, kp)
        totals = qs[0] + qs[1] + qs[2] + qs[3] + qs[4]
        sums = {p: complex(total) for p, total in zip(points, totals)}

        def q(k: float, kp: float) -> complex:
            return sums[(k, kp)] if k + kp > 0.0 else np.conj(sums[(-k, -kp)])

        at = totals[:n]
        # Part by part, as Python divides a complex by a float: numpy's
        # complex division multiplies by a reciprocal, which rounds differently.
        stretch = 1.0 + kp / k
        ratios = (at.real / stretch + 1j * (at.imag / stretch))[mixed]
        pattern = None
        for i in mixed[:1]:
            # At the first mixed-region sample.  Reported, not fixed: the
            # integrals give conj(Q) k'/k.
            dev = qs[4][i] - np.array([kc.Q, np.conj(kc.Q)]) * (kp[i] / k[i])
            dev_plain, dev_conj = np.hypot(dev.real, dev.imag)
            pattern = "conjugate" if dev_conj <= dev_plain else "plain"
        return {
            "max_relative_deviation": float(np.max(relative_gap(at, closed))) if n else 0.0,
            "region1_constancy": _spread(at[region1]),
            "region2_proportionality": _spread(ratios),
            "hamiltonian_symmetry": _spread([q(k1, k2) / abs(k3) for k1, k2, k3 in _TRIADS]),
            "q5_conjugation_pattern": pattern,
        }
