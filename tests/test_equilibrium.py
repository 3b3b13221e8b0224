import dataclasses

import numpy as np
import pytest

from phasewave import (
    DegeneracyError,
    DomainError,
    EquationOfState,
    FluidState,
    InconsistencyError,
    NoSolutionError,
    ParameterError,
    make_phase_boundary,
    solve_reversible_boundary,
    vdw_eos,
)
from phasewave.equilibrium import boundary_from_eos, jump_residuals
from phasewave.modes import dg0, flux_jacobians

from conftest import FIXTURE_A, fixture_a_boundary


# Coexistence brackets for the subcritical van der Waals fluid a=3, b=1/3, RT=0.9.
VDW_ARGS = (3.0, 1.0 / 3.0, 0.9)
VAPOR_BRACKET = (5e-4, 0.01)
LIQUID_BRACKET = (2.3, 2.99)


class TestVdwEos:
    def test_ideal_limit_pressure(self):
        eos = vdw_eos(0.0, 1.0, 1.0)
        assert eos.pressure(0.1) == pytest.approx(0.1 / 0.9, rel=1e-15)

    def test_sound_speed_analytic(self):
        eos = vdw_eos(1.0, 1.0, 0.9)
        assert eos.sound_speed_sq(0.5) == pytest.approx(0.9 / 0.25 - 1.0, rel=1e-15)

    @pytest.mark.parametrize("args", [(0.0, 1.0, 1.0), (1.0, 1.0, 0.9), VDW_ARGS])
    def test_gibbs_antiderivative_fd(self, args):
        # Finite differences of g as the independent oracle for g' = c^2/rho:
        # the plain central stencil must converge at second order, and the
        # fourth-order stencil meets the strict bound at h = 1e-4.
        eos = vdw_eos(*args)
        rho = 0.3
        target = eos.sound_speed_sq(rho) / rho

        def central(h):
            return (eos.gibbs(rho + h) - eos.gibbs(rho - h)) / (2.0 * h)

        err_h = abs(central(1e-4) - target)
        err_h2 = abs(central(5e-5) - target)
        assert err_h < 1e-6
        if err_h > 1e-12:
            assert err_h / err_h2 == pytest.approx(4.0, rel=0.2)

        h = 1e-4
        fd4 = (
            -eos.gibbs(rho + 2 * h)
            + 8.0 * eos.gibbs(rho + h)
            - 8.0 * eos.gibbs(rho - h)
            + eos.gibbs(rho - 2 * h)
        ) / (12.0 * h)
        assert abs(fd4 - target) < 1e-8

    def test_pressure_dd_fd(self):
        eos = vdw_eos(*VDW_ARGS)
        rho, h = 0.4, 1e-4
        fd = (eos.sound_speed_sq(rho + h) - eos.sound_speed_sq(rho - h)) / (2.0 * h)
        assert fd == pytest.approx(eos.pressure_dd(rho), rel=1e-7)

    @pytest.mark.parametrize("bad", [(1.0, 0.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0), (-1.0, 1.0, 1.0)])
    def test_parameter_errors(self, bad):
        with pytest.raises(ParameterError):
            vdw_eos(*bad)

    def test_domain_error_beyond_covolume(self):
        eos = vdw_eos(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            eos.pressure(1.0)


class TestFluidState:
    def test_zero_velocity_rejected(self):
        with pytest.raises(ParameterError):
            FluidState(rho=1.0, u=0.0, c2=4.0, pp=0.5)

    def test_supersonic_rejected(self):
        with pytest.raises(ParameterError):
            FluidState(rho=1.0, u=3.0, c2=4.0, pp=0.5)

    def test_nonpositive_density_rejected(self):
        with pytest.raises(ParameterError):
            FluidState(rho=0.0, u=0.5, c2=4.0, pp=0.5)


class TestMakePhaseBoundary:
    def test_fixture_a_mass_flux(self):
        pb = fixture_a_boundary()
        assert pb.j == pytest.approx(0.9, abs=0.0)
        assert pb.jump_rho == pytest.approx(-0.55)
        assert pb.jump_u == pytest.approx(1.1)
        assert pb.jump_p == pytest.approx(pb.jump_rho * pb.left.u * pb.right.u, rel=1e-14)

    def test_mass_flux_mismatch_rejected(self):
        left = FluidState(**FIXTURE_A["left"])
        right = FluidState(rho=0.4, u=2.0, c2=9.0, pp=0.5)
        with pytest.raises(InconsistencyError):
            make_phase_boundary(left, right, 2, 1.0)

    def test_overflowing_mass_flux_rejected(self):
        # rho*u overflows to inf on both sides, so the residual is NaN; a
        # NaN residual is a mismatch, not a pass.
        left = FluidState(rho=1e300, u=1e10, c2=4e20, pp=0.5)
        right = FluidState(rho=0.45e300, u=2e10, c2=9e20, pp=0.5)
        with pytest.raises(InconsistencyError, match="mass-flux mismatch: rho_l\\*u_l=inf"):
            make_phase_boundary(left, right, 2, 1.0)

    def test_nan_momentum_residual_rejected(self):
        left = FluidState(rho=1.0, u=0.9, c2=4.0, pp=0.5, p=float("nan"))
        right = FluidState(rho=0.45, u=2.0, c2=9.0, pp=0.5, p=1.0)
        with pytest.raises(InconsistencyError, match="normal momentum jump violated"):
            make_phase_boundary(left, right, 2, 1.0)

    def test_zero_jump_degenerate(self):
        state = FluidState(rho=1.0, u=0.9, c2=4.0, pp=0.5)
        with pytest.raises(DegeneracyError):
            make_phase_boundary(state, state, 2, 1.0)

    def test_zero_velocity_jump_degenerate(self):
        # The densities differ by 1e-12 relative, inside the mass-flux
        # tolerance, while the velocities are equal.
        left = FluidState(rho=1.0, u=0.9, c2=4.0, pp=0.5)
        right = FluidState(rho=1.0 + 1e-12, u=0.9, c2=4.0, pp=0.5)
        with pytest.raises(DegeneracyError, match="velocity jump vanishes"):
            make_phase_boundary(left, right, 2, 1.0)

    def test_momentum_enforced_when_pressures_given(self):
        left = FluidState(rho=1.0, u=0.9, c2=4.0, pp=0.5, p=1.0)
        right = FluidState(rho=0.45, u=2.0, c2=9.0, pp=0.5, p=1.0)
        with pytest.raises(InconsistencyError):
            make_phase_boundary(left, right, 2, 1.0)
        right_ok = FluidState(rho=0.45, u=2.0, c2=9.0, pp=0.5, p=1.0 - 0.9 * 1.1)
        pb = make_phase_boundary(left, right_ok, 2, 1.0)
        assert pb.jump_p == pytest.approx(-0.99, rel=1e-14)

    def test_dimension_validated(self):
        left = FluidState(**FIXTURE_A["left"])
        right = FluidState(**FIXTURE_A["right"])
        with pytest.raises(ParameterError):
            make_phase_boundary(left, right, 1, 1.0)

    def test_infinite_mu_refused(self):
        left = FluidState(**FIXTURE_A["left"])
        right = FluidState(**FIXTURE_A["right"])
        with pytest.raises(ParameterError, match="mu must be finite"):
            make_phase_boundary(left, right, 2, float("inf"))

    def test_entropy_row_of_h_matches_gradient_construction(self):
        # The linearized surrogate of the energy jump identity: the last row
        # of H must be the entropy gradient applied to the normal Jacobian.
        pb = fixture_a_boundary()
        from phasewave.modes import Frequency, boundary_operators

        H = boundary_operators(pb, Frequency(0.3, [1.0])).H
        d = pb.d
        for state, sgn, cols in ((pb.left, 1.0, slice(0, d + 1)), (pb.right, -1.0, slice(d + 1, 2 * d + 2))):
            Ad = flux_jacobians(state, d)[d - 1]
            expected = sgn * dg0(state, pb.mu, d) @ Ad
            assert np.allclose(H[d + 1, cols].real, expected, rtol=0, atol=1e-14)


class TestSolveReversibleBoundary:
    def test_vdw_residuals_tiny(self):
        eos = vdw_eos(*VDW_ARGS)
        pb = solve_reversible_boundary(eos, VAPOR_BRACKET, LIQUID_BRACKET, 2)
        mom, rev = jump_residuals(eos, pb.left.rho, pb.right.rho, pb.j)
        scale = max(1.0, abs(pb.left.p))
        assert abs(mom) <= 1e-12 * scale
        assert abs(rev) <= 1e-12 * scale

    def test_round_trip_validates(self):
        eos = vdw_eos(*VDW_ARGS)
        pb = solve_reversible_boundary(eos, VAPOR_BRACKET, LIQUID_BRACKET, 2)
        pb2 = make_phase_boundary(pb.left, pb.right, 2, pb.mu)
        assert pb2.j == pytest.approx(pb.j, rel=1e-14)

    def test_mu_equality(self):
        eos = vdw_eos(*VDW_ARGS)
        pb = solve_reversible_boundary(eos, VAPOR_BRACKET, LIQUID_BRACKET, 2)
        mu_l = 0.5 * pb.left.u**2 + eos.gibbs(pb.left.rho)
        mu_r = 0.5 * pb.right.u**2 + eos.gibbs(pb.right.rho)
        assert abs(mu_l - mu_r) <= 1e-12 * max(1.0, abs(mu_l))
        assert pb.mu == pytest.approx(mu_l, rel=1e-12)

    def test_both_orientations_agree(self):
        eos = vdw_eos(*VDW_ARGS)
        cond = solve_reversible_boundary(eos, VAPOR_BRACKET, LIQUID_BRACKET, 2)
        evap = solve_reversible_boundary(eos, LIQUID_BRACKET, VAPOR_BRACKET, 2)
        assert cond.left.rho == pytest.approx(evap.right.rho, rel=1e-10)
        assert cond.j == pytest.approx(evap.j, rel=1e-10)

    @pytest.mark.parametrize("flux", [1e-5, 2e-4, 5e-4])
    @pytest.mark.parametrize("vapor", [VAPOR_BRACKET, (2e-4, 0.05)], ids=["narrow", "wide"])
    @pytest.mark.parametrize("orientation", ["condensing", "evaporating"])
    def test_explicit_mass_flux(self, flux, vapor, orientation):
        # One Newton solve from the static pair reaches each target flux in
        # either orientation, with no continuation in the flux.
        eos = vdw_eos(*VDW_ARGS)
        brackets = (vapor, LIQUID_BRACKET)
        if orientation == "evaporating":
            brackets = brackets[::-1]
        pb = solve_reversible_boundary(eos, *brackets, 2, mass_flux=flux)
        assert pb.j == pytest.approx(flux, rel=1e-14)
        mom, rev = jump_residuals(eos, pb.left.rho, pb.right.rho, pb.j)
        assert max(abs(mom), abs(rev)) <= 1e-12
        for state in (pb.left, pb.right):
            assert state.c2 > state.u**2

    @pytest.mark.parametrize("flux", [None, 1e-4], ids=["default", "1e-4"])
    @pytest.mark.parametrize("orientation", ["condensing", "evaporating"])
    def test_pair_near_bracket_end(self, flux, orientation):
        # At RT = 1.95 the static pair (about 0.1477 and 2.0817) sits close
        # to the ends of these brackets; the zero-flux Newton solve from the
        # bracket midpoints still finds it.
        eos = vdw_eos(3.0, 1.0 / 3.0, 1.95)
        brackets = ((0.1, 0.44), (2.08, 2.92))
        if orientation == "evaporating":
            brackets = brackets[::-1]
        pb = solve_reversible_boundary(eos, *brackets, 2, mass_flux=flux)
        mom, rev = jump_residuals(eos, pb.left.rho, pb.right.rho, pb.j)
        scale = max(1.0, abs(pb.left.p))
        assert max(abs(mom), abs(rev)) <= 1e-12 * scale
        for state in (pb.left, pb.right):
            assert state.c2 > state.u**2

    def test_shipped_solve_pressure_calls(self):
        # Two Newton solves, at zero flux and at the target flux, each take a
        # handful of steps, so the shipped solve needs a few dozen pressure
        # evaluations.
        eos = vdw_eos(*VDW_ARGS)
        calls = []

        def pressure(rho):
            calls.append(rho)
            return eos.pressure(rho)

        counted = EquationOfState(
            pressure, eos.sound_speed_sq, eos.pressure_dd, eos.gibbs, eos.rho_max
        )
        pb = solve_reversible_boundary(counted, VAPOR_BRACKET, LIQUID_BRACKET, 2)
        assert pb == solve_reversible_boundary(eos, VAPOR_BRACKET, LIQUID_BRACKET, 2)
        assert len(calls) < 100

    def test_degenerate_equal_densities_rejected(self):
        # A monotone pressure law forces rho_l = rho_r, which the jump
        # validation must refuse as a vanishing density jump.
        ideal = vdw_eos(0.0, 1.0, 1.0)
        with pytest.raises(DegeneracyError):
            solve_reversible_boundary(ideal, (0.3, 0.6), (0.3, 0.6), 2)

    def test_no_coexistence_in_brackets(self):
        eos = vdw_eos(*VDW_ARGS)
        with pytest.raises(NoSolutionError, match="no coexistence pair"):
            solve_reversible_boundary(eos, (0.05, 0.1), LIQUID_BRACKET, 2)

    def test_bad_bracket_rejected(self):
        eos = vdw_eos(*VDW_ARGS)
        with pytest.raises(ParameterError):
            solve_reversible_boundary(eos, (0.0, 0.01), LIQUID_BRACKET, 2)

    def test_boundary_from_eos_checks_enthalpy(self):
        eos = vdw_eos(*VDW_ARGS)
        with pytest.raises(InconsistencyError):
            boundary_from_eos(eos, 0.005, 2.5, 1e-3, 2)

    def test_boundary_from_eos_refuses_supersonic_state(self):
        # FluidState makes the one subsonic test: at j = 10 the vapour
        # velocity is 2000, far above its sound speed.
        eos = vdw_eos(*VDW_ARGS)
        with pytest.raises(ParameterError, match="strictly subsonic"):
            boundary_from_eos(eos, 0.005, 2.5, 10.0, 2)

    def test_boundary_from_eos_rejects_nan_enthalpy(self):
        # The solved pair meets every other jump condition, so the NaN
        # enthalpy residual is what refuses it, by name.
        eos = vdw_eos(*VDW_ARGS)
        pb = solve_reversible_boundary(eos, VAPOR_BRACKET, LIQUID_BRACKET, 2)
        nan_gibbs = dataclasses.replace(eos, gibbs=lambda rho: float("nan"))
        with pytest.raises(InconsistencyError, match="total enthalpy not continuous"):
            boundary_from_eos(nan_gibbs, pb.left.rho, pb.right.rho, pb.j, 2)
