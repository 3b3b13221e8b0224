import dataclasses
import math
from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasewave import (
    DegeneracyError,
    DomainError,
    Frequency,
    ParameterError,
    alpha0_abstract,
    alpha0_closed,
    alpha0_fd,
    build_kernel,
    det_raw,
    dual_profile,
    elliptic_eta0_max,
    find_root,
    kernel_constants,
    oracle_vs_closed,
    q_oracle,
    trace_profile,
)
from phasewave.config import build_boundary
from phasewave.expsum import ExpProfile, pair_dot
from phasewave.kernel import b_identity_values, final_simplification_residual, q_grid
from phasewave.lopatinskii import RootData
from phasewave.modes import flux_jacobians

from conftest import ETA_T, random_boundary, random_frequency, shipped_config

# Fixture-level constants frozen after triple cross-validation (closed form,
# abstract mode sum, and finite difference of the determinant).
FIXTURE_A_ALPHA0 = 537.6313768647351
FIXTURE_A_Q_NAT = 714.4246912296815 + 292.40997572001135j


# The packaged three-term dual profile, an oracle only these tests read:
# its weights omega1..omega3 and rows lt1..lt3 against the mode sum of
# `dual_profile` and the kernel constants.


def _omegas(root: RootData) -> Tuple[complex, complex, complex]:
    s = root.scalars
    jr, ju, ups, e0 = s.jump_rho, s.jump_u, s.upsilon, s.e0
    om1 = jr * ju * ups * (s.w2_r / s.w2_l) * 1j * s.vl.u * e0 * s.zr_m
    om2 = jr * ju * ups * 1j * s.vr.u * e0 * s.zl_m
    om3 = jr * ju**2 * ups * ((e0 * e0 - s.vl.u * s.vr.u * s.ht2) / s.w2_l) * s.zr_m
    return complex(om1), complex(om2), complex(om3)


def _ltilde_rows(root: RootData) -> np.ndarray:
    """The packaged rows lt1, lt2, lt3 as full 2(d+1) rows: lt1 and lt3 in
    the left block, lt2 in the right block."""
    s, et = root.scalars, root.eta.eta_t
    ul, e0 = s.vl.u, s.e0
    b1p, b2p = root.modes.beta_plus[0], root.modes.beta_plus[1]
    n = root.pb.d + 1
    rows = np.zeros((3, 2 * n), dtype=complex)
    rows[0, :n] = np.concatenate(([1j * e0 - 2.0 * ul * b1p], -1j * et, [b1p]))
    rows[1, n:] = np.concatenate(([-1j * e0 - 2.0 * s.vr.u * b2p], 1j * et, [b2p]))
    rows[2, :n] = np.concatenate(([-ul**2 * s.ht2], e0 * et, [ul * s.ht2]))
    return rows


def dual_profile_packaged(root: RootData, k: float) -> ExpProfile:
    """The packaged three-term form of the dual profile.

    Left rows lt1, lt3 carry weights omega1/gamma1 and omega3/gamma1, the
    right row lt2 carries +omega2/gamma2 (the sign the mode sum and every
    downstream integral actually require)."""
    if k <= 0.0:
        raise DomainError(f"dual profile requires k > 0, got {k}")
    m = root.modes
    om1, om2, om3 = _omegas(root)
    lt1, lt2, lt3 = _ltilde_rows(root)
    terms = [
        (om1 / root.gamma1 * lt1, -k * m.beta_plus[0]),
        (om3 / root.gamma1 * lt3, -k * m.beta_plus[2]),
        (om2 / root.gamma2 * lt2, -k * m.beta_plus[1]),
    ]
    return ExpProfile.from_terms(terms)


class TestAlpha0:
    def test_triple_agreement_fixture(self, root_a):
        a_c = alpha0_closed(root_a)
        a_a = alpha0_abstract(root_a)
        a_f = alpha0_fd(root_a)
        assert abs(a_a.imag) <= 1e-12 * abs(a_a)
        assert abs(a_c - a_a) <= 1e-10 * abs(a_c)
        assert abs(a_c - a_f) <= 1e-6 * abs(a_c)
        assert a_c.real == pytest.approx(FIXTURE_A_ALPHA0, rel=1e-12)

    def test_triple_agreement_d3(self, root_a3):
        a_c = alpha0_closed(root_a3)
        a_a = alpha0_abstract(root_a3)
        a_f = alpha0_fd(root_a3)
        assert abs(a_a.imag) <= 1e-12 * abs(a_a)
        assert abs(a_c - a_a) <= 1e-10 * abs(a_c)
        assert abs(a_c - a_f) <= 1e-6 * abs(a_c)

    def test_projection_pieces(self, root_a):
        # The three printed projection ratios entering the abstract sum.
        pb, eta, m = root_a.pb, root_a.eta, root_a.modes
        vl, vr = pb.left, pb.right
        e0, ht2 = eta.eta0, eta.ht2
        al, ar = m.a_l, m.a_r

        num = np.conj(m.L_plus[1]) @ m.R_minus[1] / (m.beta_plus[1] - m.beta_minus[1])
        ref = -vr.c2 * ht2 * (vr.u * ar - 1j * vr.c2 * e0) / (
            2.0 * ar**2 * (e0 * e0 + vr.u**2 * ht2)
        )
        assert abs(num - ref) <= 1e-12 * abs(ref)

        num = np.conj(m.L_plus[0]) @ m.R_minus[0] / (m.beta_plus[0] - m.beta_minus[0])
        ref = -vl.c2 * ht2 * (vl.u * al - 1j * vl.c2 * e0) / (
            2.0 * al**2 * (e0 * e0 + vl.u**2 * ht2)
        )
        assert abs(num - ref) <= 1e-12 * abs(ref)

        num = np.conj(m.L_plus[2]) @ m.R_minus[0] / (m.beta_plus[2] - m.beta_minus[0])
        ref = -vl.c2 / (e0 * e0 + vl.u**2 * ht2)
        assert abs(num - ref) <= 1e-12 * abs(ref)

    def test_temporal_flux_jump_projection(self, root_a):
        # sigma* applied to the temporal flux jump collapses onto the
        # tangential sigma component.
        pb, eta = root_a.pb, root_a.eta
        sig = root_a.sigma.sigma_star
        press = np.zeros(pb.d + 2, dtype=complex)
        press[1 : pb.d] = pb.jump_p * eta.eta_t
        f0_jump = (root_a.ops.Jeta - press) / eta.eta0
        lhs = sig @ f0_jump
        ref = (
            -pb.jump_rho
            * root_a.modes.frame.upsilon
            * pb.left.u
            * pb.right.u
            * eta.ht2
            / eta.eta0
            * root_a.sigma.Dt
        )
        assert abs(lhs - ref) <= 1e-10 * abs(ref)

    def test_intermediate_products(self, root_a):
        pb, eta, m = root_a.pb, root_a.eta, root_a.modes
        vl, vr = pb.left, pb.right
        e0, ht2 = eta.eta0, eta.ht2
        al, ar = m.a_l, m.a_r
        ju, ups = pb.jump_u, root_a.modes.frame.upsilon
        w2 = e0 * e0 + vr.u**2 * ht2
        sig = root_a.sigma.sigma_star
        H = root_a.ops.H

        lhs = 1j * (sig @ (H @ m.R_plus[1]))
        rhs = 2.0 * ju * ups * vr.c2 * ar * w2 * (vr.u * al - 1j * vl.c2 * e0)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

        lhs = 1j * (sig @ (H @ m.R_plus[0]))
        rhs = -2.0 * ju * ups * vl.c2 * al * w2 * (vl.u * ar - 1j * vr.c2 * e0)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

        lhs = sig @ (H @ m.R_plus[2])
        rhs = (
            -(ju**2)
            * ups
            * vl.u
            * ht2
            / e0
            * (e0 * e0 - vl.u * vr.u * ht2)
            * (ar * (vr.u * al - 1j * vl.c2 * e0) + al * (vl.u * ar - 1j * vr.c2 * e0))
        )
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_orthogonality_structure(self, root_a3):
        # Products that the abstract sum relies on vanishing.
        m = root_a3.modes
        d = root_a3.pb.d
        for p in range(3, d + 1):
            for q in (0, 1):
                assert abs(np.conj(m.L_plus[p]) @ m.R_minus[q]) <= 1e-12
        assert abs(np.conj(m.L_plus[0]) @ m.R_minus[1]) == 0.0
        assert abs(np.conj(m.L_plus[2]) @ m.R_minus[1]) == 0.0
        assert abs(np.conj(m.L_plus[1]) @ m.R_minus[0]) == 0.0


class TestProfiles:
    def test_trace_decay_and_values(self, root_a):
        m = root_a.modes
        n = root_a.pb.d + 1
        for k in (0.5, 2.0):
            tp = trace_profile(root_a, k)
            for rate in tp.rates:
                assert rate.real < 0.0
            trace = tp(0.0)
            assert np.allclose(trace[:n], root_a.gamma1 * m.R_minus[0, :n])
            assert np.allclose(trace[n:], root_a.gamma2 * m.R_minus[1, n:])

    def test_trace_conjugation(self, root_a):
        for z in (0.0, 0.7, 1.9):
            tp = trace_profile(root_a, 1.2)
            tn = trace_profile(root_a, -1.2)
            assert np.allclose(tn(z), np.conj(tp(z)), rtol=1e-14)

    def test_trace_derivative_at_zero(self, root_a):
        k = 1.4
        n = root_a.pb.d + 1
        tp = trace_profile(root_a, k)
        want = k * root_a.modes.beta_minus[0] * root_a.gamma1 * root_a.modes.R_minus[0, :n]
        assert np.allclose(tp.derivative()(0.0)[:n], want, rtol=1e-14)

    def test_trace_zero_wavenumber_rejected(self, root_a):
        with pytest.raises(DegeneracyError):
            trace_profile(root_a, 0.0)

    def test_dual_profile_requires_positive_k(self, root_a):
        with pytest.raises(DomainError):
            dual_profile(root_a, -1.0)

    @pytest.mark.parametrize("k", [0.0, -1.0])
    def test_packaged_dual_profile_requires_positive_k(self, root_a, k):
        with pytest.raises(DomainError, match="requires k > 0"):
            dual_profile_packaged(root_a, k)

    def test_advected_dual_coefficients_vanish(self, root_a3):
        # sigma* H R_p^+ = 0 for the advected modes p >= 4, so the dual
        # profile reduces to three terms.
        m = root_a3.modes
        sig = root_a3.sigma.sigma_star
        H = root_a3.ops.H
        scale = max(abs(sig @ (H @ m.R_plus[p])) for p in range(3))
        for p in range(3, root_a3.pb.d + 1):
            assert abs(sig @ (H @ m.R_plus[p])) <= 1e-12 * scale

    @pytest.mark.parametrize("which", ["root_a", "root_a3"])
    def test_packaged_vs_sum(self, which, request):
        root = request.getfixturevalue(which)
        for z in (0.0, 0.5, 2.0):
            Ls = dual_profile(root, 1.3)(z)
            Lp = dual_profile_packaged(root, 1.3)(z)
            assert np.max(np.abs(Ls - Lp)) <= 1e-10 * np.max(np.abs(Ls))

    def test_omega2_extraction(self, root_a):
        # omega2 recovered from sigma* H R_2^+ and the left prefactor.
        pb, eta, m = root_a.pb, root_a.eta, root_a.modes
        vr = pb.right
        e0 = eta.eta0
        om1, om2, om3 = _omegas(root_a)
        pref = (vr.c2 - vr.u**2) / (2.0 * m.a_r * (vr.u * m.a_r + 1j * vr.c2 * e0))
        extracted = (root_a.sigma.sigma_star @ (root_a.ops.H @ m.R_plus[1])) * pref * root_a.gamma2
        assert abs(extracted - om2) <= 1e-10 * abs(om2)
        ref = (
            pb.jump_rho
            * pb.jump_u
            * root_a.modes.frame.upsilon
            * 1j
            * vr.u
            * e0
            * (pb.left.u * m.a_l - 1j * pb.left.c2 * e0)
        )
        assert abs(om2 - ref) <= 1e-12 * abs(om2)


class TestOracle:
    def test_q1_vanishes_same_sign(self, root_a):
        kc = kernel_constants(root_a)
        q1 = q_oracle(root_a, 2.0, 1.0)[0]
        assert abs(q1) <= 1e-12 * abs(kc.Q)

    def test_q5_vanishes_same_sign(self, root_a):
        kc = kernel_constants(root_a)
        q5 = q_oracle(root_a, 2.0, 1.0)[4]
        assert abs(q5) <= 1e-12 * abs(kc.Q)

    def test_q5_mixed_region_conjugation(self, root_a):
        # The exact integral says the mixed-region value is conj(Q) * k'/k;
        # the plain-Q variant is reported as the discrepancy it is.
        kc = kernel_constants(root_a)
        q5 = q_oracle(root_a, 2.0, -1.0)[4]
        assert abs(q5 - np.conj(kc.Q) * (-0.5)) <= 1e-12 * abs(kc.Q)
        assert abs(q5 - kc.Q * (-0.5)) > 1e-3 * abs(kc.Q)
        report = oracle_vs_closed(root_a, kc, [(2.0, -1.0)])
        assert report["q5_conjugation_pattern"] == "conjugate"

    def test_q1_mixed_region_value(self, root_a):
        kc = kernel_constants(root_a)
        q1 = q_oracle(root_a, 2.0, -1.0)[0]
        assert abs(q1 - np.conj(kc.Q)) <= 1e-12 * abs(kc.Q)

    def test_corollary_combination(self, root_a):
        kc = kernel_constants(root_a)
        qs = q_oracle(root_a, 3.0, -1.0)
        assert abs(qs[0] + qs[4] - np.conj(kc.Q) * (2.0 / 3.0)) <= 1e-12 * abs(kc.Q)

    def test_region_preconditions(self, root_a):
        with pytest.raises(DegeneracyError):
            q_oracle(root_a, 0.0, 1.0)
        with pytest.raises(DomainError):
            q_oracle(root_a, 1.0, -2.0)

    @pytest.mark.parametrize("which", ["root_a", "root_a3"])
    def test_oracle_vs_closed_regions(self, which, request):
        root = request.getfixturevalue(which)
        kern = build_kernel(root)
        for k, kp in [(1.0, 2.0), (3.0, 5.0), (10.0, 0.1), (0.4, 0.9)]:
            total = sum(q_oracle(root, k, kp))
            closed = complex(q_grid(kern, k, kp))
            assert abs(total - closed) <= 1e-9 * abs(closed)
        for k, kp in [(2.0, -1.0), (3.0, -1.0), (5.0, -4.0), (1.0, -0.2)]:
            total = sum(q_oracle(root, k, kp))
            closed = complex(q_grid(kern, k, kp))
            assert abs(total - closed) <= 1e-9 * max(abs(closed), abs(kern.constants.Q_nat))

    @pytest.mark.parametrize("which", ["root_a", "vdw"])
    def test_mixed_region_sees_perturbed_q_nat(self, which, request):
        # The mixed-region samples alone are judged against conj(Q_nat)
        # (1 + k'/k), so a 1e-8 error in Q_nat moves the deviation to about
        # 1e-8, over the 1e-9 tolerance of the oracle-vs-closed row.
        root = _vdw_root() if which == "vdw" else request.getfixturevalue(which)
        kc = kernel_constants(root)
        kc = dataclasses.replace(kc, Q_nat=kc.Q_nat * (1.0 + 1e-8))
        rep = oracle_vs_closed(root, kc, [(2.0, -1.0), (3.0, -1.0), (5.0, -4.0)])
        assert rep["max_relative_deviation"] > 1e-9

    def test_region1_independence(self, root_a):
        vals = [sum(q_oracle(root_a, k, kp)) for k, kp in [(1.0, 2.0), (3.0, 5.0), (10.0, 0.1)]]
        spread = max(abs(v - vals[0]) for v in vals)
        assert spread <= 1e-10 * abs(vals[0])

    def test_region2_proportionality(self, root_a):
        ratios = [
            sum(q_oracle(root_a, k, kp)) / (1.0 + kp / k)
            for k, kp in [(2.0, -1.0), (3.0, -1.0), (5.0, -4.0)]
        ]
        spread = max(abs(r - ratios[0]) for r in ratios)
        assert spread <= 1e-10 * abs(ratios[0])

    def test_quadrature_crosscheck_of_integral_kernels(self, root_a):
        # Re-evaluate the z-integrals of the three integral kernels by
        # adaptive quadrature on the assembled scalar integrands.
        from scipy.integrate import quad

        for k, kp in ((1.0, 2.0), (2.0, -0.7)):
            total = k + kp
            L = dual_profile(root_a, total)
            rk = trace_profile(root_a, k)
            rkp = trace_profile(root_a, kp)
            d = root_a.pb.d
            from functools import partial

            from phasewave.expsum import pair_bilinear
            from phasewave.kernel import _blockwise
            from phasewave.modes import d2_flux_tangential

            vl, vr = root_a.pb.left, root_a.pb.right
            bil3 = partial(
                _blockwise,
                partial(d2_flux_tangential, vl, root_a.eta.eta_t),
                partial(d2_flux_tangential, vr, root_a.eta.eta_t),
            )
            integrand = pair_dot(L, pair_bilinear(rk, rkp, bil3))
            exact = integrand.integral()[0]
            live = np.any(integrand.coeffs != 0, axis=0)
            zmax = max(np.log(1e-16) / rate.real for rate in integrand.rates[live])
            re = quad(lambda z: integrand(z)[0].real, 0, zmax, epsabs=1e-10, epsrel=1e-10, limit=300)[0]
            im = quad(lambda z: integrand(z)[0].imag, 0, zmax, epsabs=1e-10, epsrel=1e-10, limit=300)[0]
            assert abs(exact - (re + 1j * im)) <= 1e-8 * max(1.0, abs(exact))

    def test_max_deviation_keeps_a_nan(self, root_a, monkeypatch):
        # A NaN closed value at the last sample gives a NaN deviation after a
        # finite one; a Python max over them returned about 1e-15.
        import phasewave.kernel as kernel_mod

        original = kernel_mod.q_grid

        def nan_last(kernel, K, KP):
            vals = original(kernel, K, KP)
            vals[-1] = complex(math.nan)
            return vals

        monkeypatch.setattr(kernel_mod, "q_grid", nan_last)
        rep = oracle_vs_closed(root_a, kernel_constants(root_a), [(1.0, 2.0), (2.0, -1.0)])
        assert math.isnan(rep["max_relative_deviation"])

    def test_report_on_random_state(self):
        rng = np.random.default_rng(77)
        pb = random_boundary(rng)
        root = find_root(pb, random_frequency(rng, pb).eta_t)
        samples = [(1.0, 2.0), (2.0, -1.0), (4.0, -3.0)]
        rep = oracle_vs_closed(root, kernel_constants(root), samples)
        assert rep["max_relative_deviation"] <= 1e-9
        assert rep["q5_conjugation_pattern"] == "conjugate"


def _vdw_root():
    cfg = shipped_config("vdw")
    return find_root(build_boundary(cfg), np.asarray(cfg["eta_t"], dtype=float))


def _shipped_root(name: str, d: int):
    """The root of a shipped config, or of its d = 3 or 4 copy in the copy table."""
    cfg = shipped_config(name if d == 2 else f"{name}_d{d}")
    return find_root(build_boundary(cfg), np.asarray(cfg["eta_t"], dtype=float))


class TestOracleArrays:
    # Both sign pairs of each region, the index-swapped point of the symmetry
    # row, and points near an axis.
    POINTS = [(1.0, 2.0), (10.0, 0.1), (2.0, -1.0), (5.0, -4.0), (-2.0, 3.0), (1.0, 1e-6), (1.0, -1e-6)]

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("name", ["fixture_a", "vdw"])
    def test_each_point_alone_gives_the_same_bits(self, name, d):
        root = _shipped_root(name, d)
        k, kp = (np.array(v) for v in zip(*self.POINTS))
        together = q_oracle(root, k, kp)
        assert all(piece.shape == k.shape for piece in together)
        for i, (ki, kpi) in enumerate(self.POINTS):
            alone = q_oracle(root, ki, kpi)
            assert all(type(q) is complex for q in alone)
            assert alone == tuple(complex(piece[i]) for piece in together)

    @pytest.mark.parametrize(
        "k, kp, error",
        [
            ([1.0, 0.0, 2.0], [2.0, 1.0, 3.0], DegeneracyError),
            ([1.0, 2.0, 3.0], [2.0, 0.0, 3.0], DegeneracyError),
            ([1.0, 2.0, 3.0], [2.0, -2.0, 3.0], DomainError),
            ([1.0, 2.0, 3.0], [2.0, -5.0, 3.0], DomainError),
            ([1.0, 2.0], [2.0, 1.0, 3.0], ParameterError),
        ],
    )
    def test_one_refused_point_refuses_the_array(self, root_a, k, kp, error):
        with pytest.raises(error):
            q_oracle(root_a, np.array(k), np.array(kp))


class TestHamiltonianSymmetry:
    @pytest.mark.parametrize("which", ["root_a", "root_a3", "vdw"])
    def test_cyclic_symmetry_of_oracle(self, which, request):
        root = _vdw_root() if which == "vdw" else request.getfixturevalue(which)
        rep = oracle_vs_closed(root, kernel_constants(root), [])
        assert rep["hamiltonian_symmetry"] <= 1e-10

    def test_detects_perturbed_index_swapped_point(self, root_a, monkeypatch):
        # The point (-2, 3) lies in the index-swapped region, outside the
        # samples; only the oracle's own symmetry sees it.
        import phasewave.kernel as kernel_mod

        original = kernel_mod.q_oracle

        def perturbed(root, k, kp):
            qs = original(root, k, kp)
            swapped = (k == -2.0) & (kp == 3.0)
            assert swapped.sum() == 1
            return tuple(np.where(swapped, (1.0 + 1e-6) * q, q) for q in qs)

        monkeypatch.setattr(kernel_mod, "q_oracle", perturbed)
        rep = oracle_vs_closed(root_a, kernel_constants(root_a), [(1.0, 2.0)])
        assert rep["hamiltonian_symmetry"] > 1e-10


class TestConstants:
    def test_assembly(self, root_a):
        kc = kernel_constants(root_a)
        vl, vr = root_a.pb.left, root_a.pb.right
        assembled = (
            (vl.pp / 2.0 + vl.c2 / vl.rho) * kc.Q_l
            + (vr.pp / 2.0 + vr.c2 / vr.rho) * kc.Q_r
            + kc.Q_sharp
        )
        assert kc.Q_nat == assembled
        assert kc.Q_nat == pytest.approx(FIXTURE_A_Q_NAT, rel=1e-12)
        assert kc.alpha0 == pytest.approx(FIXTURE_A_ALPHA0, rel=1e-12)

    @pytest.mark.parametrize("which", ["root_a", "root_a3"])
    def test_final_simplification(self, which, request):
        root = request.getfixturevalue(which)
        kc = kernel_constants(root)
        assert final_simplification_residual(kc, root) <= 1e-10

    @pytest.mark.parametrize("which", ["root_a", "vdw"])
    def test_final_simplification_sees_perturbed_q_b(self, which, request):
        # Q_b enters no completed-kernel value, only this identity; a 1e-6
        # error in it reads 7.5e-8 (fixture_a) and 4.6e-8 (vdW).
        root = _vdw_root() if which == "vdw" else request.getfixturevalue(which)
        kc = kernel_constants(root)
        kc = dataclasses.replace(kc, Q_b=kc.Q_b * (1.0 + 1e-6))
        assert final_simplification_residual(kc, root) > 1e-10

    @pytest.mark.parametrize("which", ["root_a", "root_a3"])
    def test_b_identity(self, which, request):
        root = request.getfixturevalue(which)
        bl, br = b_identity_values(root)
        assert abs(bl + br) <= 1e-12 * (abs(bl) + abs(br))
        pb, m, e0 = root.pb, root.modes, root.eta.eta0
        vl, vr = pb.left, pb.right
        lhs = vl.u * (vr.u * m.a_l - 1j * vl.c2 * e0) * bl
        rhs = -1j * e0 * (vl.u * m.a_l + 1j * vl.c2 * e0)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
        lhs = vr.u * (vl.u * m.a_r - 1j * vr.c2 * e0) * br
        rhs = -1j * e0 * (vr.u * m.a_r + 1j * vr.c2 * e0)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_gamma_conjugation_ratios(self, root_a):
        pb, m, e0 = root_a.pb, root_a.modes, root_a.eta.eta0
        g1, g2 = root_a.gamma1, root_a.gamma2
        ref = -(pb.left.u * m.a_r - 1j * pb.right.c2 * e0) / (
            pb.left.u * m.a_r + 1j * pb.right.c2 * e0
        )
        assert abs(np.conj(g1) / g1 - ref) <= 1e-12
        assert abs(np.conj(g2) / g2 + ref) <= 1e-12

    def test_omega_row_products(self, root_a):
        pb, m, eta = root_a.pb, root_a.modes, root_a.eta
        om1, om2, om3 = _omegas(root_a)
        lt1, lt2, lt3 = _ltilde_rows(root_a)
        d = pb.d
        Adl = flux_jacobians(pb.left, d)[d - 1]
        Adr = flux_jacobians(pb.right, d)[d - 1]
        E = (
            2.0
            * pb.jump_rho
            * pb.jump_u
            * root_a.modes.frame.upsilon
            * (eta.eta0**2 + pb.right.u**2 * eta.ht2)
            * pb.left.u
            * pb.right.u
            * m.a_l
            * m.a_r
        )
        n = d + 1
        t1 = om1 * (lt1[:n] @ (Adl @ m.R_plus[0, :n]))
        t2 = om2 * (lt2[n:] @ (Adr @ m.R_plus[1, n:]))
        assert abs(t1 - E) <= 1e-10 * abs(E)
        assert abs(t2 + E) <= 1e-10 * abs(E)


class TestWavevectorScaling:
    """Scaling eta_t by lambda = 2^k scales the root's eta0 by lambda, alpha0
    and sigma* by lambda^(d+2), and Q_nat by lambda^(d+4).  Measured on the
    six copy-table boundaries for |k| <= 30: worst relative deviation
    3.1e-15, with eta0 exact.  Far outside that range the law breaks in
    floating point: d = 3 reads 1.6e-10 near 2^-150, and at d = 4 Q_nat
    underflows there."""

    BOUND = 1e-14

    @pytest.mark.parametrize("name", ["fixture_a", "vdw"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_powers_of_two(self, name, d):
        cfg = shipped_config(name if d == 2 else f"{name}_d{d}")
        pb = build_boundary(cfg)
        eta_t = np.asarray(cfg["eta_t"], dtype=float)

        def values(lam):
            root = find_root(pb, lam * eta_t)
            kc = kernel_constants(root)
            sigma_star = root.sigma.sigma_star
            return {"eta0": root.eta.eta0, "alpha0": kc.alpha0, "sigma*": sigma_star, "Q_nat": kc.Q_nat}

        base = values(1.0)
        powers = {"eta0": 1, "alpha0": d + 2, "sigma*": d + 2, "Q_nat": d + 4}
        for k in range(-30, 31):
            got = values(2.0**k)
            for key, power in powers.items():
                want = 2.0 ** (k * power) * np.asarray(base[key])
                dev = np.max(np.abs(got[key] - want)) / np.max(np.abs(want))
                assert dev <= self.BOUND, (key, k, dev)


class TestCrossDimension:
    """The whole d-dependence of alpha0 and Q_nat comes through Upsilon
    (`modes.tangent_frame`).  A random boundary at d = 2 with eta_t = [1]
    and at d = 3 and 4 with the copy-table wavevectors (|eta_t| = 1) gives
    the same alpha0/Upsilon, Q_nat/Upsilon and q = Q_nat/alpha0 on the
    closed routes, and the same alpha0_abstract/Upsilon and summed
    q_oracle(2, -1)/Upsilon on the oracle routes.  Measured over 200
    boundaries (closed) and the first 20 of them (oracle), on four seeds:
    at most 5.0e-16, 7.4e-16 and 8.7e-16 (closed), 9.7e-15 and 2.2e-14
    (oracle).  The law is stated through Upsilon, not as a power of
    eta0 u_r, because Upsilon also carries the sign of det e."""

    CLOSED_BOUND = 2e-15
    ORACLE_BOUND = 1e-13

    @pytest.fixture(scope="class")
    def ratios(self):
        rng = np.random.default_rng(0)
        out = []
        for i in range(200):
            pb = random_boundary(rng, 2)
            per_d = {}
            for d, eta_t in ((2, [1.0]), (3, ETA_T[3]), (4, ETA_T[4])):
                root = find_root(dataclasses.replace(pb, d=d), eta_t)
                kc, ups = kernel_constants(root), root.modes.frame.upsilon
                per_d[d] = {"alpha0": kc.alpha0 / ups, "Q_nat": kc.Q_nat / ups, "q": kc.Q_nat / kc.alpha0}
                if i < 20:
                    per_d[d]["alpha0_abstract"] = alpha0_abstract(root) / ups
                    per_d[d]["q_oracle"] = sum(q_oracle(root, 2.0, -1.0)) / ups
            out.append(per_d)
        return out

    @staticmethod
    def _worst(ratios, key):
        return max(
            abs(per_d[d][key] - per_d[2][key]) / abs(per_d[2][key])
            for per_d in ratios
            if key in per_d[2]
            for d in (3, 4)
        )

    @pytest.mark.parametrize("key", ["alpha0", "Q_nat", "q"])
    def test_closed_routes(self, ratios, key):
        assert self._worst(ratios, key) <= self.CLOSED_BOUND

    @pytest.mark.parametrize("key", ["alpha0_abstract", "q_oracle"])
    def test_oracle_routes(self, ratios, key):
        assert self._worst(ratios, key) <= self.ORACLE_BOUND


class TestGibbsGauge:
    """mu, the common total enthalpy, is fixed only up to a constant c.
    mu -> mu + c adds c times the mass row of H to its entropy row, so
    alpha0, Q_nat and every sigma* entry but D1 keep their bits, D1 moves
    by -c Dd2, and the raw determinant and the oracle routes agree to
    rounding.  Measured on 60 random boundaries (d = 2-4, random eta_t,
    c in [-10, 10]) on ten seeds: D1 to 4.2e-16 of max(|D1|, |c Dd2|),
    det_raw on check's 20-point grid to 5.7e-14 of its largest value,
    alpha0_abstract to 1.1e-13 of alpha0 and the summed q_oracle(2, -1) to
    2.5e-13 of itself."""

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = np.random.default_rng(1)
        out = []
        for _ in range(60):
            d = int(rng.integers(2, 5))
            pb = random_boundary(rng, d)
            c = rng.uniform(-10.0, 10.0)
            eta_t = rng.normal(size=d - 1)
            shifted = dataclasses.replace(pb, mu=pb.mu + c)
            out.append((c, eta_t, find_root(pb, eta_t), find_root(shifted, eta_t)))
        return out

    def test_closed_constants_keep_their_bits(self, pairs):
        for _, _, root, moved in pairs:
            kc, kc_moved = kernel_constants(root), kernel_constants(moved)
            assert (kc.alpha0, kc.Q_nat) == (kc_moved.alpha0, kc_moved.Q_nat)

    def test_sigma_moves_only_d1(self, pairs):
        for c, _, root, moved in pairs:
            s, m = root.sigma, moved.sigma
            assert (s.Dt, s.Dd1, s.Dd2) == (m.Dt, m.Dd1, m.Dd2)
            assert np.array_equal(s.sigma_star[1:], m.sigma_star[1:])
            want = s.D1 - c * s.Dd2
            assert abs(m.D1 - want) <= 2e-15 * max(abs(s.D1), abs(c * s.Dd2))

    def test_raw_determinant(self, pairs):
        for _, eta_t, root, moved in pairs:
            pb = root.pb
            grid = Frequency(np.linspace(0.05, 0.95, 20) * elliptic_eta0_max(pb, eta_t), eta_t)
            a, b = det_raw(pb, grid), det_raw(moved.pb, grid)
            assert np.max(np.abs(a - b)) <= 3e-13 * np.max(np.abs(a))

    def test_oracle_routes(self, pairs):
        for _, _, root, moved in pairs:
            alpha0 = kernel_constants(root).alpha0
            assert abs(alpha0_abstract(moved) - alpha0_abstract(root)) <= 5e-13 * abs(alpha0)
            q, q_moved = sum(q_oracle(root, 2.0, -1.0)), sum(q_oracle(moved, 2.0, -1.0))
            assert abs(q_moved - q) <= 1e-12 * abs(q)


class TestCompletedKernel:
    def test_hunter_oracle_limit(self, root_a):
        kc = kernel_constants(root_a)
        eps = 1e-6
        q_pos = sum(q_oracle(root_a, 1.0, eps))
        q_neg = sum(q_oracle(root_a, 1.0, -eps))
        assert abs(q_pos - kc.Q_nat) <= 1e-4 * abs(kc.Q_nat)
        assert abs(q_neg - np.conj(kc.Q_nat)) <= 1e-4 * abs(kc.Q_nat)

    def test_region_values(self, root_a):
        kern = build_kernel(root_a)
        Qn = kern.constants.Q_nat
        assert complex(q_grid(kern, 2.0, 3.0)) == Qn
        assert complex(q_grid(kern, 2.0, -1.0)) == pytest.approx(np.conj(Qn) * 0.5, rel=1e-15)
        assert complex(q_grid(kern, -2.0, -3.0)) == np.conj(Qn)
        assert complex(q_grid(kern, 1.0, -1.0)) == 0.0
        assert complex(q_grid(kern, 1.0, 0.0)) == pytest.approx(Qn.real)
        assert complex(q_grid(kern, 0.0, 0.0)) == 0.0

    @given(
        k=st.floats(-5.0, 5.0, allow_nan=False),
        kp=st.floats(-5.0, 5.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_completion_symmetries(self, root_a, k, kp):
        kern = build_kernel(root_a)
        v = complex(q_grid(kern, k, kp))
        assert complex(q_grid(kern, kp, k)) == v
        assert complex(q_grid(kern, -k, -kp)) == np.conj(v)

    def test_antidiagonal_continuity(self, root_a):
        kern = build_kernel(root_a)
        vals = [abs(complex(q_grid(kern, 1.0, -1.0 + e))) for e in (1e-3, 1e-6, 1e-9)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] <= 1e-8 * abs(kern.constants.Q_nat)

    def test_grid_matches_scalar(self, root_a):
        kern = build_kernel(root_a)
        rng = np.random.default_rng(3)
        K = rng.uniform(-3, 3, size=40)
        KP = rng.uniform(-3, 3, size=40)
        grid = q_grid(kern, K, KP)
        for i in range(K.size):
            assert grid[i] == q_grid(kern, float(K[i]), float(KP[i]))
