import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasewave import (
    DegeneracyError,
    DomainError,
    FluidState,
    Frequency,
    NoRootError,
    ParameterError,
    elliptic_eta0_max,
    det_closed,
    det_raw,
    find_root,
    make_phase_boundary,
    normal_modes,
)
from phasewave.lopatinskii import (
    _sigma_minors,
    dd1_factorization_residual,
    gamma_alternative_forms,
    gamma_forms_residual,
    gamma_linear_residual,
    lemma4_residuals,
    root_factor,
    root_relation_residual,
    sigma_r3_residual,
)
from phasewave.modes import dispersion_residual, incoming_modes, mode_residuals
from phasewave.config import build_boundary
from phasewave.kernel import alpha0_closed

from conftest import ETA_T, FIXTURE_A, fixture_a_boundary, random_boundary, random_frequency, shipped_config

# Root of the canonical configuration, frozen after cross-validation against
# the raw determinant, the minors functional, and the abstract alpha0 sum.
FIXTURE_A_ETA0 = 0.9563775980592719


class TestDeterminant:
    def test_closed_sign_at_zero_eta0(self):
        pb = fixture_a_boundary()
        eta = Frequency(0.0, [1.0])
        m = normal_modes(pb, eta)
        delta = det_closed(pb, eta)
        ref = (
            pb.jump_rho
            * pb.jump_u
            * m.frame.upsilon
            * pb.right.u**2
            * abs(pb.left.u * pb.right.u * m.a_l * m.a_r)
        )
        assert delta.real != 0.0
        assert math.copysign(1.0, delta.real) == math.copysign(1.0, ref)

    @pytest.mark.parametrize("d,eta_t", [(2, [1.0]), (3, [0.6, 0.8])])
    def test_raw_vs_closed_fixture(self, d, eta_t):
        pb = fixture_a_boundary(d)
        for frac in (0.1, 0.5, 0.9):
            e0 = frac * elliptic_eta0_max(pb, eta_t)
            eta = Frequency(e0, eta_t)
            raw = det_raw(pb, eta)
            closed = det_closed(pb, eta)
            assert abs(raw - closed) <= 1e-10 * max(abs(raw), abs(closed))

    def test_raw_determinant_real(self):
        pb = fixture_a_boundary()
        for frac in (0.2, 0.6, 0.85):
            e0 = frac * elliptic_eta0_max(pb, [1.0])
            raw = det_raw(pb, Frequency(e0, [1.0]))
            assert abs(raw.imag) <= 1e-12 * abs(raw)

    def test_scan_raw_vs_closed_random(self):
        rng = np.random.default_rng(23)
        pb = random_boundary(rng)
        eta_t = random_frequency(rng, pb).eta_t
        e0_max = elliptic_eta0_max(pb, eta_t)
        for e0 in np.linspace(0.02, 0.98, 100) * e0_max:
            eta = Frequency(float(e0), eta_t)
            raw = det_raw(pb, eta)
            closed = det_closed(pb, eta)
            assert abs(raw - closed) <= 1e-10 * max(abs(raw), abs(closed))

    def test_nonelliptic_rejected(self):
        pb = fixture_a_boundary()
        with pytest.raises(DomainError):
            det_raw(pb, Frequency(10.0, [1.0]))

    @given(seed=st.integers(0, 2**31 - 1), d=st.sampled_from([2, 3, 4]))
    @settings(max_examples=100, deadline=None)
    def test_closed_determinant_changes_sign_with_the_root_factor(self, seed, d):
        # det_closed is the root factor times a factor of one sign, so the
        # sign bits of the two change between the same grid points; scan
        # reads its bracket from det_closed on that ground.  The grid starts
        # at eta0 = 0 where d = 2 admits it, and |eta_t| spans 1e-3 to 1e3.
        rng = np.random.default_rng(seed)
        pb = random_boundary(rng, d)
        v = rng.normal(size=d - 1)
        eta_t = v / np.linalg.norm(v) * 10.0 ** rng.uniform(-3.0, 3.0)
        e0_max = elliptic_eta0_max(pb, eta_t)
        lo = 0.0 if d == 2 else 1e-3 * e0_max
        eta = Frequency(np.linspace(lo, 0.999 * e0_max, 100), eta_t)

        def changes(values):
            negative = np.signbit(values)
            return np.flatnonzero(negative[1:] != negative[:-1])

        expected = changes(root_factor(pb, eta))
        assert expected.size == 1
        assert np.array_equal(changes(det_closed(pb, eta).real), expected)


def shipped_boundary(name: str, d: int):
    """A shipped config, or its d = 3 or 4 copy in the copy table: its
    boundary and eta_t."""
    cfg = shipped_config(name if d == 2 else f"{name}_d{d}")
    return build_boundary(cfg), np.array(cfg["eta_t"])


def edge_grid(e0_max: float) -> np.ndarray:
    """eta0 across the elliptic interval, with points near both of its ends
    and a few negative ones."""
    ends = [1e-12, 1e-6, 1e-3, 1 - 1e-6, 1 - 1e-12]
    fracs = np.concatenate((ends, np.linspace(0.01, 0.99, 41)))
    return np.concatenate((fracs, -fracs[::7])) * e0_max


class TestFrequencyArrays:
    """The modes, their residuals, the determinant routes and the root factor
    on a 1-D eta0 array."""

    @pytest.mark.parametrize("name", ["fixture_a", "vdw"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_array_bits_equal_per_float_bits(self, name, d):
        pb, eta_t = shipped_boundary(name, d)
        grid = edge_grid(elliptic_eta0_max(pb, eta_t))
        for route in (det_raw, det_closed):
            whole = route(pb, Frequency(grid, eta_t))
            each = np.array([route(pb, Frequency(float(e0), eta_t)) for e0 in grid])
            assert whole.dtype == complex and whole.shape == grid.shape
            assert whole.tobytes() == each.tobytes(), route.__name__
        whole = root_factor(pb, Frequency(grid, eta_t))
        each = np.array([root_factor(pb, Frequency(float(e0), eta_t)) for e0 in grid])
        assert whole.tobytes() == each.tobytes()
        whole = normal_modes(pb, Frequency(grid, eta_t))
        each = [normal_modes(pb, Frequency(float(e0), eta_t)) for e0 in grid]
        # det_raw's incoming family is normal_modes' bit for bit.
        for e0, modes in [(grid, whole)] + list(zip(grid.tolist(), each)):
            *_, beta_minus, R_minus = incoming_modes(pb, Frequency(e0, eta_t))
            assert beta_minus.tobytes() == modes.beta_minus.tobytes()
            assert R_minus.tobytes() == modes.R_minus.tobytes()
        assert whole.frame.upsilon.tobytes() == np.array([m.frame.upsilon for m in each]).tobytes()
        fields = ("a_l", "a_r", "beta_minus", "beta_plus", "R_minus", "R_plus", "L_minus", "L_plus")
        for field in fields:
            stacked = np.array([getattr(m, field) for m in each])
            assert getattr(whole, field).tobytes() == stacked.tobytes(), field
        assert np.array(mode_residuals(whole)).T.tobytes() == np.array(
            [mode_residuals(m) for m in each]
        ).tobytes()
        assert dispersion_residual(whole).tobytes() == np.array(
            [dispersion_residual(m) for m in each]
        ).tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_any_point_outside_the_elliptic_interval_refused(self, d):
        pb, eta_t = shipped_boundary("fixture_a", d)
        e0_max = elliptic_eta0_max(pb, eta_t)
        # (1 + 1e-13) e0_max is refused by every route alike: the elliptic
        # test is one function, with no slack past the edge.
        for bad in (1.01 * e0_max, -1.01 * e0_max, (1.0 + 1e-13) * e0_max):
            eta = Frequency(np.array([0.3 * e0_max, bad, 0.6 * e0_max]), eta_t)
            for route in (det_raw, det_closed, root_factor):
                with pytest.raises(DomainError):
                    route(pb, eta)
            with pytest.raises(DomainError):
                root_factor(pb, Frequency(bad, eta_t))

    @pytest.mark.parametrize("d", [3, 4])
    def test_eta0_zero_refused_at_d3_and_above(self, d):
        pb, eta_t = shipped_boundary("fixture_a", d)
        eta = Frequency(np.array([0.4, 0.0, 0.5]), eta_t)
        for route in (det_raw, det_closed):
            with pytest.raises(DomainError, match="eta0=0"):
                route(pb, eta)

    def test_eta0_zero_accepted_at_d2(self):
        pb, eta_t = shipped_boundary("fixture_a", 2)
        grid = np.array([0.0, 0.5])
        raw = det_raw(pb, Frequency(grid, eta_t))
        assert raw[0] == det_raw(pb, Frequency(0.0, eta_t))

    def test_two_dimensional_eta0_refused(self):
        with pytest.raises(ParameterError):
            Frequency(np.ones((2, 2)), [1.0])

    def test_two_dimensional_eta_t_refused(self):
        with pytest.raises(ParameterError, match="eta_t must be a vector"):
            Frequency(0.5, np.ones((2, 2)))

    @pytest.mark.parametrize("eta_t", [[1e200], [1e154, 1e154]])
    def test_overflowing_eta_t_square_refused(self, eta_t):
        # |eta_t|^2 is judged once, by Frequency, without a RuntimeWarning.
        with pytest.raises(DomainError, match=r"\|eta_t\|\^2 overflows at eta_t = \["):
            Frequency(0.5, eta_t)


class TestFindRoot:
    def test_root_function_negative_at_origin(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            pb = random_boundary(rng)
            ht2 = float(pb.d - 1)
            a_l = -pb.left.c * math.sqrt((pb.left.c2 - pb.left.u**2) * ht2)
            a_r = pb.right.c * math.sqrt((pb.right.c2 - pb.right.u**2) * ht2)
            F0 = pb.left.u * pb.right.u * a_l * a_r
            assert F0 < 0.0

    def test_fixture_root_value_and_residual(self, root_a):
        e0 = root_a.eta.eta0
        assert 0.0 < e0 < 1.787
        assert e0 == pytest.approx(FIXTURE_A_ETA0, rel=1e-12)
        delta = det_closed(root_a.pb, root_a.eta)
        slope = alpha0_closed(root_a).real
        assert abs(delta) <= 1e-12 * abs(slope) * e0

    def test_root_scaling_in_wavevector(self):
        pb = fixture_a_boundary()
        t = 2.7
        e0_base = find_root(pb, [1.0]).eta.eta0
        e0_scaled = find_root(pb, [t]).eta.eta0
        assert e0_scaled == pytest.approx(t * e0_base, rel=1e-12)

    def test_root_scaling_d3(self):
        pb = fixture_a_boundary(3)
        base = find_root(pb, [0.6, 0.8]).eta.eta0
        scaled = find_root(pb, [1.2, 1.6]).eta.eta0
        assert scaled == pytest.approx(2.0 * base, rel=1e-12)

    def test_zero_wavevector_rejected(self):
        pb = fixture_a_boundary()
        with pytest.raises(DegeneracyError):
            find_root(pb, [0.0])

    @given(seed=st.integers(0, 2**31 - 1), d=st.sampled_from([2, 3]))
    @settings(max_examples=50, deadline=None)
    def test_closed_form_is_the_zero_of_the_root_function(self, seed, d):
        # The closed-form root lies inside the elliptic interval, the root
        # function F changes sign across it, and F vanishes there to 1e-12.
        rng = np.random.default_rng(seed)
        pb = random_boundary(rng, d)
        eta_t = random_frequency(rng, pb).eta_t
        root = find_root(pb, eta_t)
        e0 = root.eta.eta0
        assert 0.0 < e0 < elliptic_eta0_max(pb, eta_t)
        below = root_factor(pb, Frequency(e0 * (1.0 - 1e-12), eta_t))
        above = root_factor(pb, Frequency(e0 * (1.0 + 1e-12), eta_t))
        assert below < 0.0 < above
        assert root_relation_residual(root) <= 1e-12

    @pytest.mark.parametrize("d,eta_t", [(2, [1.0]), (3, [0.6, 0.8])])
    def test_tiny_velocities(self, d, eta_t):
        # fixture_a with both velocities scaled down at fixed density ratio.
        # At u_l = 1e-70 (d = 2) and 1e-45 (d = 3) the root is representable.
        # At 1e-100 and 1e-150 eta0 is, but sigma* underflows.  At 1e-155 the
        # left eigenvectors l^+ and l^- overflow; at 1e-160 the products
        # u_l*u_r underflow.  Those roots are refused, not reported.
        def boundary(u_l):
            left = FluidState(**{**FIXTURE_A["left"], "u": u_l})
            right = FluidState(**{**FIXTURE_A["right"], "u": u_l / 0.45})
            return make_phase_boundary(left, right, d, FIXTURE_A["mu"])

        root = find_root(boundary({2: 1e-70, 3: 1e-45}[d]), eta_t)
        assert 0.0 < root.eta.eta0 < elliptic_eta0_max(root.pb, eta_t)
        assert root_relation_residual(root) <= 1e-12
        for u_l in (1e-100, 1e-150):
            with pytest.raises(NoRootError, match="underflows"):
                find_root(boundary(u_l), eta_t)
        with pytest.raises(NoRootError, match="not finite"):
            find_root(boundary(1e-155), eta_t)
        with pytest.raises(NoRootError):
            find_root(boundary(1e-160), eta_t)

    @pytest.mark.parametrize(
        "d,u_l,eta_t",
        [(3, 1e-60, ETA_T[3]), (4, 1e-45, ETA_T[4]), (2, 0.9, [1e-78])],
        ids=["d3-u_l-1e-60", "d4-u_l-1e-45", "d2-eta_t-1e-78"],
    )
    def test_underflowed_sigma_is_refused(self, d, u_l, eta_t):
        # fixture_a with both velocities scaled at fixed density ratio, or at
        # a tiny eta_t: eta0 is representable, but a component of sigma* is
        # 0 or subnormal (about 5e-310 at eta_t = [1e-78]).
        left = FluidState(**{**FIXTURE_A["left"], "u": u_l})
        right = FluidState(**{**FIXTURE_A["right"], "u": u_l / 0.45})
        pb = make_phase_boundary(left, right, d, FIXTURE_A["mu"])
        with pytest.raises(NoRootError, match="sigma\\* at the root eta0 = .* underflows"):
            find_root(pb, eta_t)

    @pytest.mark.parametrize("eta_t", [[1.0, 0.0], [0.0, 1.0]])
    def test_zero_component_of_eta_t_is_not_an_underflow(self, eta_t):
        # An entry Dt * eta_t[k] of sigma* is an exact 0 where eta_t[k] is;
        # the refusal reads the components Upsilon*D, so the root stands.
        root = find_root(fixture_a_boundary(d=3), eta_t)
        sig = np.abs(root.sigma.sigma_star)
        assert list(sig == 0.0) == [False] + [x == 0.0 for x in eta_t] + [False, False]
        assert np.min(sig[sig > 0.0]) > 400.0
        assert root_relation_residual(root) <= 1e-12

    def test_root_relation(self, root_a):
        assert root_relation_residual(root_a) <= 1e-12


class TestSigma:
    def test_annihilates_boundary_columns(self, root_a):
        sig = root_a.sigma.sigma_star
        scale = np.max(np.abs(sig)) * np.max(np.abs(root_a.ops.H))
        for j in range(root_a.pb.d + 1):
            col = root_a.ops.H @ root_a.modes.R_minus[j]
            assert abs(sig @ col) <= 1e-10 * scale

    def test_annihilates_frequency_vector(self, root_a):
        sig = root_a.sigma.sigma_star
        val = sig @ root_a.ops.Jeta
        assert abs(val) <= 1e-10 * np.max(np.abs(sig)) * np.max(np.abs(root_a.ops.Jeta))

    @pytest.mark.parametrize("which", ["root_a", "root_a3"])
    def test_minors_vs_closed(self, which, request):
        root = request.getfixturevalue(which)
        s_minors = _sigma_minors(root.pb, root.modes, root.ops)
        s_closed = root.sigma.sigma_star
        scale = np.max(np.abs(s_closed))
        assert np.max(np.abs(s_minors - s_closed)) <= 1e-10 * scale

    def test_dd1_nonzero(self, root_a):
        assert abs(root_a.sigma.Dd1) > 0.0
        assert np.max(np.abs(root_a.sigma.sigma_star)) > 0.0

    def test_lemma4_identities(self, root_a, root_a3):
        for root in (root_a, root_a3):
            assert np.max(lemma4_residuals(root)) <= 1e-10

    def test_dd1_factorizations(self, root_a):
        assert dd1_factorization_residual(root_a) <= 1e-10

    def test_dd1_factorizations_keep_nan(self, root_a):
        sigma = dataclasses.replace(root_a.sigma, Dd1=complex(math.nan))
        assert math.isnan(dd1_factorization_residual(dataclasses.replace(root_a, sigma=sigma)))

    def test_sigma_r3_relation(self, root_a, root_a3):
        for root in (root_a, root_a3):
            assert sigma_r3_residual(root) <= 1e-10


class TestGamma:
    def test_linear_relation(self, root_a):
        assert gamma_linear_residual(root_a) <= 1e-10

    def test_forms_residual_keeps_a_nan_in_the_second_gap(self, root_a):
        # A Python max over (gap1, nan) returned gap1, about 3e-16.
        assert gamma_forms_residual(root_a) <= 1e-12
        root = dataclasses.replace(root_a, gamma2=complex(math.nan))
        assert math.isnan(gamma_forms_residual(root))

    @pytest.mark.parametrize(
        "u_l,rho",
        [
            pytest.param(1e-50, 1.0, id="1e-50"),
            pytest.param(0.9, 1e-160, id="rho-1e-160"),
            pytest.param(0.9, 1e-200, id="rho-1e-200"),
            pytest.param(0.9, 1e-300, id="rho-1e-300"),
        ],
    )
    def test_linear_relation_tiny_states(self, u_l, rho):
        # fixture_a with both velocities scaled down at fixed density ratio,
        # or both densities scaled by rho at the shipped velocities.  With
        # rho = 1e-160 and below, |J(v)eta| is about 1e-160 to 1e-300 while
        # sigma* stays normal (min |sigma*| = 234), and the squares of the
        # residual's entries would underflow to an exact 0 inside an
        # unscaled norm.
        left = FluidState(**{**FIXTURE_A["left"], "u": u_l, "rho": rho})
        right = FluidState(**{**FIXTURE_A["right"], "u": u_l / 0.45, "rho": 0.45 * rho})
        root = find_root(make_phase_boundary(left, right, 2, FIXTURE_A["mu"]), [1.0])
        assert 0.0 < gamma_linear_residual(root) <= 1e-10

    def test_two_printed_forms_agree(self, root_a):
        g1, g2 = root_a.gamma1, root_a.gamma2
        h1, h2 = gamma_alternative_forms(root_a)
        assert abs(g1 - h1) <= 1e-12 * abs(g1)
        assert abs(g2 - h2) <= 1e-12 * abs(g2)

    def test_ratio_identity(self, root_a):
        # gamma2 * u_r * a_r = gamma1 * i * c_l^2 * eta0 at the root.
        m = root_a.modes
        lhs = root_a.gamma2 * root_a.pb.right.u * m.a_r
        rhs = root_a.gamma1 * 1j * root_a.pb.left.c2 * root_a.eta.eta0
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_random_states(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            pb = random_boundary(rng)
            eta_t = random_frequency(rng, pb).eta_t
            root = find_root(pb, eta_t)
            assert gamma_linear_residual(root) <= 1e-10
            assert root_relation_residual(root) <= 1e-12
            assert np.max(lemma4_residuals(root)) <= 1e-10
