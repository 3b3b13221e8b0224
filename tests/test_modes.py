import dataclasses
import math
from pathlib import Path
from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasewave import (
    DegeneracyError,
    DomainError,
    FluidState,
    Frequency,
    ParameterError,
    boundary_operators,
    d2_flux_normal,
    d2_flux_tangential,
    elliptic_eta0_max,
    find_root,
    flux_jacobians,
    normal_modes,
    tangent_frame,
)
from phasewave.config import build_boundary, load_config
from phasewave.modes import (
    ModeSet,
    dg0,
    dispersion_residual,
    mode_matrix,
    mode_residuals,
    tangential_symbol,
)

from conftest import ETA_T, fixture_a_boundary, random_boundary, random_frequency


# ---------------------------------------------------------------------------
# The biorthogonality products, a diagnostic only these tests read.
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Flux maps used as independent oracles (local polynomial pressure model).
# ---------------------------------------------------------------------------


def _local_model(state, mu):
    """Exact local expansions of p and g around the reference density.

    Second differentials of the fluxes only see Taylor-2 data of the pressure
    law, so a polynomial model reproduces them exactly.
    """
    rho0, c2, pp = state.rho, state.c2, state.pp
    p0 = state.p if state.p is not None else 0.0
    g0 = mu - 0.5 * state.u**2

    def p(rho):
        d = rho - rho0
        return p0 + c2 * d + 0.5 * pp * d * d

    def g(rho):
        d = rho - rho0
        return g0 + (c2 / rho0) * d + 0.5 * (pp / rho0 - c2 / rho0**2) * d * d

    return p, g


def _flux(state, mu, d, v, direction):
    """Flux of isothermal Euler in (rho, j_t, j_n); direction d is augmented
    with the entropy flux row."""
    p, g = _local_model(state, mu)
    rho, jt, jn = v[0], v[1:d], v[d]
    if direction < d - 1:
        f = np.concatenate(([jt[direction]], jt[direction] * jt / rho, [jt[direction] * jn / rho]))
        f[1 + direction] += p(rho)
        return f
    fn = np.concatenate(([jn], jn * jt / rho, [jn * jn / rho + p(rho)]))
    kinetic = 0.5 * (jt @ jt + jn * jn) / rho
    gd = (kinetic + rho * g(rho)) * jn / rho
    return np.concatenate((fn, [gd]))


def _reference_vector(state, d):
    v = np.zeros(d + 1)
    v[0] = state.rho
    v[d] = state.rho * state.u
    return v


# ---------------------------------------------------------------------------
# Tangent frame
# ---------------------------------------------------------------------------


class TestTangentFrame:
    def test_d2_trivial(self):
        fr = tangent_frame(Frequency(0.7, [1.0]), u_r=2.0, d=2)
        assert fr.det_e == 1.0
        assert fr.upsilon == pytest.approx(2.0)
        assert fr.e.shape == (1, 1)

    def test_d3_345(self):
        fr = tangent_frame(Frequency(1.0, [3.0, 4.0]), u_r=2.0, d=3)
        assert abs(fr.det_e) == pytest.approx(5.0, rel=1e-14)
        e2 = fr.e[:, 1]
        assert np.linalg.norm(e2) == pytest.approx(1.0, rel=1e-14)
        assert abs(e2 @ np.array([3.0, 4.0])) < 1e-14
        assert fr.upsilon == pytest.approx((-2.0 * 1.0) * 2.0 * fr.det_e, rel=1e-14)

    def test_dual_identities(self):
        rng = np.random.default_rng(5)
        for d in (3, 4, 5):
            et = rng.normal(size=d - 1)
            fr = tangent_frame(Frequency(0.8, et), 1.5, d)
            # The complement columns e[:, 1:] are their own duals.
            for i in range(1, d - 1):
                for j in range(1, d - 1):
                    want = 1.0 if i == j else 0.0
                    assert abs(fr.e[:, i] @ fr.e[:, j] - want) < 1e-14
                assert abs(fr.e[:, i] @ et) < 1e-13

    def test_zero_wavevector_rejected(self):
        with pytest.raises(DegeneracyError):
            tangent_frame(Frequency(1.0, [0.0]), 1.0, 2)

    def test_upsilon_nonzero_at_nonzero_eta0(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 4):
            et = rng.normal(size=d - 1)
            fr = tangent_frame(Frequency(0.8, et), 1.5, d)
            assert fr.upsilon != 0.0


# ---------------------------------------------------------------------------
# Normal modes
# ---------------------------------------------------------------------------

# fixture_a at d = 2, 3 and 4; d = 4 is the only case with two complement columns.
FIXTURE_A_FREQUENCIES = (
    (fixture_a_boundary(), [1.0]),
    (fixture_a_boundary(3), ETA_T[3]),
    (fixture_a_boundary(4), ETA_T[4]),
)


class TestNormalModes:
    def test_eta0_zero_acoustic(self):
        pb = fixture_a_boundary()
        m = normal_modes(pb, Frequency(0.0, [1.0]))
        cl2, ul = pb.left.c2, pb.left.u
        assert m.a_l == pytest.approx(-math.sqrt(cl2) * math.sqrt(cl2 - ul**2), rel=1e-14)
        b1m = m.beta_minus[0]
        assert b1m.imag == 0.0
        assert b1m.real == pytest.approx(m.a_l / (cl2 - ul**2), rel=1e-14)

    def test_beta_conjugation_fixture(self):
        pb = fixture_a_boundary()
        m = normal_modes(pb, Frequency(1.0, [1.0]))
        assert m.beta_plus[1] == -np.conj(m.beta_minus[1])
        assert m.beta_plus[0] == -np.conj(m.beta_minus[0])
        n = pb.d + 1
        assert np.all(m.R_plus[0, :n] == np.conj(m.R_minus[0, :n]))
        assert np.all(m.R_plus[1, n:] == np.conj(m.R_minus[1, n:]))

    def test_advected_modes_purely_imaginary(self):
        pb = fixture_a_boundary()
        m = normal_modes(pb, Frequency(0.8, [1.0]))
        assert m.beta_plus[2].real == 0.0
        assert m.beta_minus[2].real == 0.0
        assert m.beta_plus[2] == pytest.approx(1j * 0.8 / pb.left.u)
        assert m.beta_minus[2] == pytest.approx(-1j * 0.8 / pb.right.u)

    def test_decay_signs_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pb = random_boundary(rng)
            eta = random_frequency(rng, pb)
            m = normal_modes(pb, eta)
            assert m.a_l < 0.0 < m.a_r
            assert m.beta_minus[0].real < 0.0 and m.beta_minus[1].real < 0.0
            assert m.beta_plus[0].real > 0.0 and m.beta_plus[1].real > 0.0

    def test_nonelliptic_rejected(self):
        pb = fixture_a_boundary()
        e0_bad = elliptic_eta0_max(pb, [1.0]) * 1.01
        with pytest.raises(DomainError):
            normal_modes(pb, Frequency(e0_bad, [1.0]))

    def test_d3_eta0_zero_rejected(self):
        pb = fixture_a_boundary(d=3)
        with pytest.raises(DomainError):
            normal_modes(pb, Frequency(0.0, [1.0, 0.0]))

    def test_eta_t_length_refused_by_the_frame(self):
        with pytest.raises(ParameterError, match="eta_t must have length"):
            normal_modes(fixture_a_boundary(3), Frequency(0.5, [1.0]))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_incoming_family_rounds_as_python_complex(self, d):
        # The printed acoustic entries evaluated in Python complex arithmetic,
        # bit for bit, at every eta0 of an array: a float and an array eta0
        # then round alike, and alike to the scalar formulas.
        def bits(z):
            return np.complex128(z).tobytes()

        rng = np.random.default_rng(40 + d)
        for _ in range(10):
            pb = random_boundary(rng, d)
            vl, vr, n = pb.left, pb.right, d + 1
            et = random_frequency(rng, pb).eta_t
            ht2 = float(et @ et)
            grid = rng.uniform(-0.99, 0.99, 17) * elliptic_eta0_max(pb, et)
            if d == 2:
                grid[3] = 0.0
            m = normal_modes(pb, Frequency(grid, et))
            for k, e0 in enumerate(grid.tolist()):
                a_l = -vl.c * math.sqrt((vl.c2 - vl.u**2) * ht2 - e0 * e0)
                a_r = vr.c * math.sqrt((vr.c2 - vr.u**2) * ht2 - e0 * e0)
                b1 = (a_l - 1j * vl.u * e0) / (vl.c2 - vl.u**2)
                b2 = (-a_r + 1j * vr.u * e0) / (vr.c2 - vr.u**2)
                R = m.R_minus[k]
                assert (m.a_l[k], m.a_r[k]) == (a_l, a_r)
                assert m.beta_minus[k, :2].tobytes() == bits(b1) + bits(b2)
                assert bits(R[0, 0]) == bits(-1j * e0 + vl.u * b1)
                assert bits(R[1, n]) == bits(-1j * e0 - vr.u * b2)
                assert bits(R[0, d]) == bits(-a_l) and bits(R[1, 2 * n - 1]) == bits(-a_r)

    def test_dispersion_relation(self):
        pb = fixture_a_boundary()
        eta = Frequency(1.0, [1.0])
        m = normal_modes(pb, eta)
        ht2 = eta.ht2
        for beta, state, sgn in (
            (m.beta_minus[0], pb.left, +1.0),
            (m.beta_plus[0], pb.left, +1.0),
            (m.beta_minus[1], pb.right, -1.0),
            (m.beta_plus[1], pb.right, -1.0),
        ):
            val = (
                (state.c2 - state.u**2) * beta**2
                + sgn * 2j * state.u * eta.eta0 * beta
                + eta.eta0**2
                - state.c2 * ht2
            )
            assert abs(val) <= 1e-12 * abs(state.c2 * ht2)

    def test_eigen_residuals_fixture(self):
        for pb, eta_t in FIXTURE_A_FREQUENCIES:
            m = normal_modes(pb, Frequency(0.9, eta_t))
            right, left = mode_residuals(m)
            assert right <= 1e-12
            assert left <= 1e-12

    def test_off_side_block_is_plus_zero(self):
        # Each row of the four vector arrays lives in the block its side
        # names; the other block is +0 in both parts, never -0.
        vdw = build_boundary(load_config(Path(__file__).parent.parent / "configs" / "vdw.json"))
        for pb, eta_t in FIXTURE_A_FREQUENCIES + ((vdw, [1.0]),):
            n = pb.d + 1
            m = find_root(pb, np.array(eta_t)).modes
            for arrays, sides in (
                ((m.R_minus, m.L_minus), m.side_minus),
                ((m.R_plus, m.L_plus), m.side_plus),
            ):
                for arr in arrays:
                    assert arr.shape == (n, 2 * n)
                    for j, side in enumerate(sides):
                        off = arr[j, n:] if side == "l" else arr[j, :n]
                        assert np.all(off == 0.0)
                        assert not np.any(np.signbit(off.real) | np.signbit(off.imag))

    def test_mode_residuals_detect_perturbation(self):
        # One entry off by a relative 1e-6 must fail check's 1e-11 tolerance
        # for its own family and leave the other family's residual alone.
        m = normal_modes(fixture_a_boundary(), Frequency(0.9, [1.0]))
        R = m.R_minus.copy()
        R[0, 0] *= 1.0 + 1e-6
        right, left = mode_residuals(dataclasses.replace(m, R_minus=R))
        assert right > 1e-11
        assert left <= 1e-12
        L = m.L_plus.copy()
        L[2, 0] *= 1.0 + 1e-6
        right, left = mode_residuals(dataclasses.replace(m, L_plus=L))
        assert left > 1e-11
        assert right <= 1e-12

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field,entry", [("L_plus", (2, 0)), ("R_minus", (1, 2))])
    def test_nonfinite_vector_entry_gives_nonfinite_residual(self, field, entry, value):
        # L_plus[2, 0] lies in its mode's block, R_minus[1, 2] in the off-side
        # block, which must be exactly 0.  Only that eta0's residual is hit.
        m = normal_modes(fixture_a_boundary(), Frequency(np.array([0.5, 0.9, 1.1]), [1.0]))
        arr = getattr(m, field).copy()
        arr[(1,) + entry] = value
        right, left = mode_residuals(dataclasses.replace(m, **{field: arr}))
        hit, other = (right, left) if field == "R_minus" else (left, right)
        assert not np.isfinite(hit[1]) and np.isfinite(hit[[0, 2]]).all()
        assert np.isfinite(other).all()

    def test_nan_decay_rate_gives_nan_dispersion_residual(self):
        m = normal_modes(fixture_a_boundary(), Frequency(np.array([0.5, 0.9]), [1.0]))
        beta = m.beta_minus.copy()
        beta[1, 1] = np.nan
        res = dispersion_residual(dataclasses.replace(m, beta_minus=beta))
        assert res[0] <= 1e-12 and np.isnan(res[1])

    def test_conjugation_symmetry_under_full_frequency_flip(self):
        pb = fixture_a_boundary()
        m_pos = normal_modes(pb, Frequency(0.7, [1.0]))
        m_neg = normal_modes(pb, Frequency(-0.7, [-1.0]))
        assert m_neg.a_l == pytest.approx(m_pos.a_l)
        assert m_neg.a_r == pytest.approx(m_pos.a_r)
        assert np.allclose(m_neg.beta_minus, np.conj(m_pos.beta_minus), rtol=0, atol=1e-15)
        assert np.allclose(m_neg.beta_plus, np.conj(m_pos.beta_plus), rtol=0, atol=1e-15)
        assert np.allclose(m_neg.R_minus, np.conj(m_pos.R_minus), rtol=0, atol=1e-14)
        assert np.allclose(m_neg.L_minus, np.conj(m_pos.L_minus), rtol=0, atol=1e-14)

    def test_biorthogonality_diagnostic(self):
        # With the unfolded block normal Jacobian the products are diagonal
        # with entries of unit magnitude; flipping the sign of the left block
        # makes them exactly the identity.
        for pb, eta_t in FIXTURE_A_FREQUENCIES:
            m = normal_modes(pb, Frequency(0.9, eta_t))
            same_minus, same_plus, cross = biorthogonality_matrices(m)
            for mat, sides in ((same_minus, m.side_minus), (same_plus, m.side_plus)):
                off = mat - np.diag(np.diag(mat))
                assert np.max(np.abs(off)) <= 1e-10 * np.max(np.abs(np.diag(mat)))
                signs = np.array([-1.0 if s == "l" else 1.0 for s in sides])
                assert np.allclose(np.diag(mat), signs, rtol=0, atol=1e-10)
            assert np.max(np.abs(cross)) <= 1e-10


# ---------------------------------------------------------------------------
# Flux Jacobians
# ---------------------------------------------------------------------------


class TestFluxJacobians:
    def test_frozen_normal_jacobian_d2(self):
        state = FluidState(rho=1.0, u=0.9, c2=4.0, pp=0.5)
        A = flux_jacobians(state, 2)
        expected = np.array([[0.0, 0.0, 1.0], [0.0, 0.9, 0.0], [3.19, 0.0, 1.8]])
        assert np.allclose(A[1], expected, rtol=0, atol=1e-15)

    def test_dimension_validated(self):
        with pytest.raises(ParameterError, match="at least 2"):
            flux_jacobians(FluidState(rho=1.0, u=0.9, c2=4.0, pp=0.5), 1)

    @pytest.mark.parametrize("d", [2, 3])
    def test_fd_oracle(self, d):
        state = FluidState(rho=1.3, u=0.7, c2=3.0, pp=0.4, p=0.2)
        mu = 1.1
        A = flux_jacobians(state, d)
        v0 = _reference_vector(state, d)
        h = 1e-6
        for direction in range(d):
            for col in range(d + 1):
                e = np.zeros(d + 1)
                e[col] = 1.0
                fp = _flux(state, mu, d, v0 + h * e, direction)[: d + 1]
                fm = _flux(state, mu, d, v0 - h * e, direction)[: d + 1]
                fd = (fp - fm) / (2.0 * h)
                assert np.allclose(fd, A[direction][:, col], rtol=0, atol=5e-7)

    def test_eigen_relation_fixture(self):
        pb = fixture_a_boundary()
        eta = Frequency(1.0, [1.0])
        m = normal_modes(pb, eta)
        M = mode_matrix(pb.left, eta, m.beta_minus[0], -1.0)
        r = m.R_minus[0, : pb.d + 1]
        assert np.linalg.norm(M @ r) <= 1e-12 * np.linalg.norm(r) * np.linalg.norm(M)

    def test_unnormalized_left_row_annihilates_normal_flux_image(self):
        pb = fixture_a_boundary()
        eta = Frequency(1.0, [1.0])
        m = normal_modes(pb, eta)
        lt1 = np.concatenate(
            ([1j * eta.eta0 - 2.0 * pb.left.u * m.beta_plus[0]], -1j * eta.eta_t, [m.beta_plus[0]])
        )
        Ad = flux_jacobians(pb.left, 2)[1]
        r1m = m.R_minus[0, :3]
        val = lt1 @ (Ad @ r1m)
        assert abs(val) <= 1e-13 * np.linalg.norm(Ad @ r1m) * np.linalg.norm(lt1)


# ---------------------------------------------------------------------------
# Second differentials
# ---------------------------------------------------------------------------


def _fd_quadratic(fun, v0, x, h=1e-4):
    """Second difference of an analytic map along a complex direction."""
    return (fun(v0 + h * x) - 2.0 * fun(v0) + fun(v0 - h * x)) / (h * h)


class TestSecondDifferentials:
    def test_tangential_printed_acoustic_left(self):
        pb = fixture_a_boundary()
        left0 = FluidState(pb.left.rho, pb.left.u, pb.left.c2, 0.0)
        eta = Frequency(1.0, [1.0])
        m = normal_modes(pb, eta)
        r1m = m.R_minus[0, :3]
        got = d2_flux_tangential(left0, eta.eta_t, r1m, r1m)
        cl4 = pb.left.c2**2
        expected = (-2j * cl4 * eta.ht2 / pb.left.rho) * np.concatenate(
            ([0.0], -1j * eta.eta_t, [m.beta_minus[0]])
        )
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-13 * np.max(np.abs(expected)))

    def test_normal_printed_acoustic_left(self):
        pb = fixture_a_boundary()
        left0 = FluidState(pb.left.rho, pb.left.u, pb.left.c2, 0.0)
        eta = Frequency(1.0, [1.0])
        m = normal_modes(pb, eta)
        r1m, b1m = m.R_minus[0, :3], m.beta_minus[0]
        got = d2_flux_normal(left0, r1m, r1m)
        cl2, ul, rl = pb.left.c2, pb.left.u, pb.left.rho
        e0 = eta.eta0
        expected = (2.0 * cl2 / rl) * np.concatenate(
            (
                [0.0],
                -1j * cl2 * b1m * eta.eta_t,
                [cl2 * eta.ht2 + (1j * e0 - ul * b1m) ** 2],
                [1j * cl2 * e0 * b1m + ul * (1j * e0 - ul * b1m) ** 2],
            )
        )
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))

    def test_tangential_printed_acoustic_right(self):
        pb = fixture_a_boundary()
        right0 = FluidState(pb.right.rho, pb.right.u, pb.right.c2, 0.0)
        eta = Frequency(1.0, [1.0])
        m = normal_modes(pb, eta)
        r2m = m.R_minus[1, 3:]
        got = d2_flux_tangential(right0, eta.eta_t, r2m, r2m)
        cr4 = pb.right.c2**2
        expected = (2j * cr4 * eta.ht2 / pb.right.rho) * np.concatenate(
            ([0.0], 1j * eta.eta_t, [m.beta_minus[1]])
        )
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-13 * np.max(np.abs(expected)))

    def test_mixed_family_products(self):
        # Mixed products of the decaying and growing acoustic modes.
        pb = fixture_a_boundary()
        eta = Frequency(1.0, [1.0])
        m = normal_modes(pb, eta)
        left0 = FluidState(pb.left.rho, pb.left.u, pb.left.c2, 0.0)
        right0 = FluidState(pb.right.rho, pb.right.u, pb.right.c2, 0.0)
        cl4, cr4 = pb.left.c2**2, pb.right.c2**2
        b1m, b1p = m.beta_minus[0], m.beta_plus[0]
        b2m, b2p = m.beta_minus[1], m.beta_plus[1]
        r1m, r1p = m.R_minus[0, :3], m.R_plus[0, :3]
        r2m, r2p = m.R_minus[1, 3:], m.R_plus[1, 3:]

        got = d2_flux_tangential(left0, eta.eta_t, r1m, r1p)
        expected = (-1j * cl4 * eta.ht2 / pb.left.rho) * np.concatenate(
            ([0.0], 2j * eta.eta_t, [-(b1p + b1m)])
        )
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))

        got = d2_flux_normal(left0, r1m, r1p)
        expected = (cl4 / pb.left.rho) * np.concatenate(
            ([0.0], 1j * (b1p + b1m) * eta.eta_t, [-2.0 * b1p * b1m], [-2.0 * pb.left.u * b1p * b1m])
        )
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))

        got = d2_flux_tangential(right0, eta.eta_t, r2m, r2p)
        expected = (-1j * cr4 * eta.ht2 / pb.right.rho) * np.concatenate(
            ([0.0], 2j * eta.eta_t, [b2p + b2m])
        )
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))

        got = d2_flux_normal(right0, r2m, r2p)
        expected = (-cr4 / pb.right.rho) * np.concatenate(
            ([0.0], 1j * (b2p + b2m) * eta.eta_t, [2.0 * b2p * b2m], [2.0 * pb.right.u * b2p * b2m])
        )
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_fd_oracle_quadratic_forms(self, d):
        state = FluidState(rho=1.2, u=0.6, c2=2.5, pp=0.7, p=0.3)
        mu = 0.9
        rng = np.random.default_rng(17)
        eta_t = rng.normal(size=d - 1)
        v0 = _reference_vector(state, d).astype(complex)
        for _ in range(4):
            x = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)

            def tang_sum(v):
                return sum(
                    eta_t[kk] * _flux(state, mu, d, v, kk)[: d + 1] for kk in range(d - 1)
                )

            got = d2_flux_tangential(state, eta_t, x, x)
            ref = _fd_quadratic(tang_sum, v0, x)
            assert np.allclose(got, ref, rtol=0, atol=5e-7 * max(1.0, np.max(np.abs(got))))

            got_n = d2_flux_normal(state, x, x)
            ref_n = _fd_quadratic(lambda v: _flux(state, mu, d, v, d - 1), v0, x)
            assert np.allclose(got_n, ref_n, rtol=0, atol=5e-7 * max(1.0, np.max(np.abs(got_n))))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bilinearity(self, seed):
        rng = np.random.default_rng(seed)
        state = FluidState(rho=1.1, u=0.5, c2=2.0, pp=0.3)
        eta_t = np.array([0.8])
        x, y, z = (rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(3))
        for form in (
            lambda a, b: d2_flux_tangential(state, eta_t, a, b),
            lambda a, b: d2_flux_normal(state, a, b),
        ):
            lhs = form(x, y + z)
            rhs = form(x, y) + form(x, z)
            assert np.allclose(lhs, rhs, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(lhs))))
            assert np.allclose(form(x, y), form(y, x), rtol=0, atol=1e-14 * max(1.0, np.max(np.abs(lhs))))

    def test_polarization_identity(self):
        state = FluidState(rho=1.1, u=0.5, c2=2.0, pp=0.3)
        eta_t = np.array([0.8])
        rng = np.random.default_rng(3)
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        y = rng.normal(size=3) + 1j * rng.normal(size=3)
        for form in (
            lambda a, b: d2_flux_tangential(state, eta_t, a, b),
            lambda a, b: d2_flux_normal(state, a, b),
        ):
            polarized = 0.25 * (form(x + y, x + y) - form(x - y, x - y))
            assert np.allclose(form(x, y), polarized, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stacked_columns_match_single_calls(self, d):
        # The kernel oracle hands both forms (d+1, T) stacks of coefficient
        # columns; each output column must be bit for bit the single call.
        rng = np.random.default_rng(40 + d)
        state = FluidState(rho=1.1, u=0.5, c2=2.0, pp=0.3)
        for width in (1, 2, 7, 36):
            eta_t = rng.normal(size=d - 1)
            x, y = (rng.normal(size=(d + 1, width)) + 1j * rng.normal(size=(d + 1, width)) for _ in range(2))
            tang = d2_flux_tangential(state, eta_t, x, y)
            norm = d2_flux_normal(state, x, y)
            assert tang.shape == (d + 1, width) and norm.shape == (d + 2, width)
            for t in range(width):
                assert np.array_equal(tang[:, t], d2_flux_tangential(state, eta_t, x[:, t], y[:, t]))
                assert np.array_equal(norm[:, t], d2_flux_normal(state, x[:, t], y[:, t]))

    def test_shape_mismatch(self):
        state = FluidState(rho=1.1, u=0.5, c2=2.0, pp=0.3)
        with pytest.raises(Exception):
            d2_flux_tangential(state, np.array([1.0]), np.ones(4), np.ones(4))

    @pytest.mark.parametrize(
        "d2", [lambda s, x, y: d2_flux_tangential(s, np.array([1.0]), x, y), d2_flux_normal],
        ids=["tangential", "normal"],
    )
    def test_unequal_shapes_refused(self, d2):
        state = FluidState(rho=1.1, u=0.5, c2=2.0, pp=0.3)
        with pytest.raises(ParameterError, match="equal shapes"):
            d2(state, np.ones(3), np.ones((3, 2)))


# ---------------------------------------------------------------------------
# Boundary operators
# ---------------------------------------------------------------------------


class TestBoundaryOperators:
    def test_shape_and_entries_d2(self):
        pb = fixture_a_boundary()
        ops = boundary_operators(pb, Frequency(0.5, [1.0]))
        assert ops.H.shape == (4, 6)
        assert np.allclose(ops.H[0].real, [0, 0, 1, 0, 0, -1], atol=1e-15)
        assert ops.H[2, 2] == pytest.approx(2.0 * pb.left.u)
        assert ops.H[2, 0] == pytest.approx(pb.left.c2 - pb.left.u**2)
        assert ops.H[2, 5] == pytest.approx(-2.0 * pb.right.u)
        assert ops.H[1, 1] == pytest.approx(pb.left.u)
        assert ops.H[1, 4] == pytest.approx(-pb.right.u)
        assert ops.H[3, 2] == pytest.approx(pb.left.u**2 + pb.mu)

    def test_h_frequency_independent(self):
        pb = fixture_a_boundary()
        H1 = boundary_operators(pb, Frequency(0.2, [1.0])).H
        H2 = boundary_operators(pb, Frequency(1.4, [1.0])).H
        assert np.array_equal(H1, H2)

    def test_jeta_at_zero_eta0(self):
        pb = fixture_a_boundary()
        ops = boundary_operators(pb, Frequency(0.0, [1.0]))
        expected = np.array([0.0, pb.jump_p, 0.0, 0.0])
        assert np.allclose(ops.Jeta.real, expected, atol=1e-15)
        assert np.allclose(ops.Jeta.imag, 0.0, atol=1e-16)

    def test_jeta_linear_in_eta(self):
        pb = fixture_a_boundary()
        j1 = boundary_operators(pb, Frequency(0.3, [0.7])).Jeta
        j2 = boundary_operators(pb, Frequency(0.6, [1.4])).Jeta
        assert np.allclose(2.0 * j1, j2, rtol=1e-14)

    def test_first_differential_consistency(self):
        # Tangential flux differentials of an incoming mode reproduce the
        # boundary image of that mode, scaled by its spatial eigenvalue.
        pb = fixture_a_boundary()
        eta = Frequency(0.9, [1.0])
        m = normal_modes(pb, eta)
        d = pb.d
        ops = boundary_operators(pb, eta)
        S = tangential_symbol(pb.right, eta)
        vec = S @ m.R_minus[1, d + 1 :]
        lhs = np.concatenate((vec, [dg0(pb.right, pb.mu, d) @ vec]))
        rhs = -1j * m.beta_minus[1] * (ops.H @ m.R_minus[1])
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * np.max(np.abs(rhs)))
