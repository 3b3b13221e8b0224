"""Two-phase reference states and the jump conditions connecting them.

A planar phase boundary separates a "left" state (ahead, subscript l) from a
"right" state (behind, subscript r) of an isothermal compressible fluid.  The
interface carries a nonzero mass flux j = rho*u, balances normal momentum
p + rho*u**2, and is reversible: the total specific enthalpy
mu = u**2/2 + g(rho) is continuous, g being the Gibbs function of the
barotropic pressure law.

This module builds such configurations either from raw numbers (each state
given directly, mu supplied by the caller) or from an equation of state, in
which case the two densities are solved for at a given mass flux.  The
static coexistence pair (equal pressure, equal Gibbs function) is the same
jump system at j = 0, so one damped Newton solver serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .errors import (
    DegeneracyError,
    DomainError,
    InconsistencyError,
    NoSolutionError,
    ParameterError,
)


# Relative tolerance of the jump conditions a boundary is assembled under.
# Each test reads `not residual <= _JUMP_TOL`, so a NaN residual (rho*u
# overflowing to inf on both sides, say) fails it.
_JUMP_TOL = 1e-10


@dataclass(frozen=True)
class EquationOfState:
    """Barotropic pressure law with the derived coefficients the theory needs.

    Attributes
    ----------
    pressure : callable
        p(rho).
    sound_speed_sq : callable
        c^2(rho) = p'(rho), must be positive on the working intervals.
    pressure_dd : callable
        p''(rho).
    gibbs : callable
        g(rho) with g'(rho) = p'(rho)/rho.
    rho_max : float
        Upper end of the admissible density interval (1/b for van der Waals).
    """

    pressure: Callable[[float], float]
    sound_speed_sq: Callable[[float], float]
    pressure_dd: Callable[[float], float]
    gibbs: Callable[[float], float]
    rho_max: float = math.inf


def vdw_eos(a: float, b: float, RT: float) -> EquationOfState:
    """Van der Waals fluid p(rho) = RT*rho/(1 - b*rho) - a*rho^2.

    All derived coefficients are analytic:
        c^2 = RT/(1 - b*rho)^2 - 2*a*rho
        p'' = 2*RT*b/(1 - b*rho)^3 - 2*a
        g   = RT*(log(rho/(1 - b*rho)) + 1/(1 - b*rho)) - 2*a*rho
    where g is the antiderivative of p'(rho)/rho.  The domain is 0 < rho < 1/b.
    """
    if b <= 0.0:
        raise ParameterError(f"covolume b must be positive, got {b}")
    if RT <= 0.0:
        raise ParameterError(f"temperature parameter RT must be positive, got {RT}")
    if a < 0.0:
        raise ParameterError(f"attraction parameter a must be nonnegative, got {a}")
    rho_max = 1.0 / b

    def _check(rho: float) -> float:
        rho = float(rho)
        if not 0.0 < rho < rho_max:
            raise DomainError(f"density {rho} outside (0, {rho_max})")
        return rho

    def pressure(rho: float) -> float:
        rho = _check(rho)
        return RT * rho / (1.0 - b * rho) - a * rho * rho

    def sound_speed_sq(rho: float) -> float:
        rho = _check(rho)
        return RT / (1.0 - b * rho) ** 2 - 2.0 * a * rho

    def pressure_dd(rho: float) -> float:
        rho = _check(rho)
        return 2.0 * RT * b / (1.0 - b * rho) ** 3 - 2.0 * a

    def gibbs(rho: float) -> float:
        rho = _check(rho)
        x = 1.0 - b * rho
        return RT * (math.log(rho / x) + 1.0 / x) - 2.0 * a * rho

    return EquationOfState(pressure, sound_speed_sq, pressure_dd, gibbs, rho_max)


@dataclass(frozen=True)
class FluidState:
    """One-sided thermodynamic and kinematic state at the interface.

    rho  density (> 0)
    u    normal velocity (> 0, flow crosses the boundary left to right)
    c2   squared sound speed, strictly supersonic bound c2 > u^2
    pp   second derivative p''(rho) of the pressure law
    p    pressure; may be omitted for raw configurations, in which case
         only pressure jumps (fixed by momentum balance) are ever used
    """

    rho: float
    u: float
    c2: float
    pp: float
    p: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.rho > 0.0:
            raise ParameterError(f"density must be positive, got {self.rho}")
        if not self.u > 0.0:
            raise ParameterError(f"normal velocity must be positive, got {self.u}")
        if not self.c2 > self.u**2:
            raise ParameterError(
                f"state must be strictly subsonic: c2={self.c2} <= u^2={self.u ** 2}"
            )

    @property
    def c(self) -> float:
        return math.sqrt(self.c2)


@dataclass(frozen=True)
class PhaseBoundary:
    """Matched two-state interface configuration.

    Jumps are taken right minus left, j = rho_l*u_l = rho_r*u_r is the mass
    flux, and mu is the common total specific enthalpy of the two states.
    """

    left: FluidState
    right: FluidState
    d: int
    j: float
    mu: float
    jump_rho: float
    jump_u: float
    jump_p: float


def mass_flux_residual(left: FluidState, right: FluidState) -> float:
    """Relative mismatch |rho_l*u_l - rho_r*u_r| / |rho_l*u_l| of the two mass fluxes."""
    j_l = left.rho * left.u
    return abs(j_l - right.rho * right.u) / abs(j_l)


def make_phase_boundary(left: FluidState, right: FluidState, d: int, mu: float) -> PhaseBoundary:
    """Validate two states against the jump conditions and assemble the boundary.

    The mass fluxes of the two sides must agree to relative tolerance 1e-10
    (`mass_flux_residual`), and the density and velocity jumps must exceed
    1e-14 relative.  When both pressures are provided the normal momentum
    balance is enforced to the same 1e-10; when either is missing, pressures
    are normalized to p_l = 0 with the jump fixed by momentum balance,
    [p] = -j*[u].  A violation raises a PhasewaveError naming it.
    """
    if d < 2:
        raise ParameterError(f"spatial dimension must be at least 2, got {d}")
    if not math.isfinite(mu):
        raise ParameterError(f"mu must be finite, got {mu}")

    j = left.rho * left.u
    if not mass_flux_residual(left, right) <= _JUMP_TOL:
        raise InconsistencyError(
            f"mass-flux mismatch: rho_l*u_l={j} vs rho_r*u_r={right.rho * right.u}"
        )

    jump_rho = right.rho - left.rho
    jump_u = right.u - left.u
    scale = max(left.rho, right.rho)
    if abs(jump_rho) <= 1e-14 * scale:
        raise DegeneracyError("density jump vanishes; the two states coincide")
    if abs(jump_u) <= 1e-14 * max(left.u, right.u):
        raise DegeneracyError("velocity jump vanishes; the two states coincide")

    if left.p is not None and right.p is not None:
        mom = (right.p + right.rho * right.u**2) - (left.p + left.rho * left.u**2)
        if not abs(mom) <= _JUMP_TOL * max(1.0, abs(left.p)):
            raise InconsistencyError(f"normal momentum jump violated: residual {mom}")
        jump_p = right.p - left.p
    else:
        # Momentum balance fixes the only pressure combination the theory uses.
        jump_p = -j * jump_u
        left = FluidState(left.rho, left.u, left.c2, left.pp, 0.0)
        right = FluidState(right.rho, right.u, right.c2, right.pp, jump_p)

    return PhaseBoundary(left, right, d, j, mu, jump_rho, jump_u, jump_p)


def boundary_from_eos(
    eos: EquationOfState, rho_l: float, rho_r: float, j: float, d: int
) -> PhaseBoundary:
    """Assemble and validate a boundary from two densities and a mass flux;
    the total enthalpy must be continuous to relative tolerance 1e-10."""
    u_l, u_r = j / rho_l, j / rho_r
    left = FluidState(rho_l, u_l, eos.sound_speed_sq(rho_l), eos.pressure_dd(rho_l), eos.pressure(rho_l))
    right = FluidState(rho_r, u_r, eos.sound_speed_sq(rho_r), eos.pressure_dd(rho_r), eos.pressure(rho_r))
    mu_l = 0.5 * u_l**2 + eos.gibbs(rho_l)
    mu_r = 0.5 * u_r**2 + eos.gibbs(rho_r)
    if not abs(mu_l - mu_r) <= _JUMP_TOL * max(1.0, abs(mu_l)):
        raise InconsistencyError(f"total enthalpy not continuous: {mu_l} vs {mu_r}")
    return make_phase_boundary(left, right, d, 0.5 * (mu_l + mu_r))


def jump_residuals(eos: EquationOfState, rho_l: float, rho_r: float, j: float) -> Tuple[float, float]:
    """Residuals of the momentum and enthalpy jump conditions at mass flux j."""
    mom = (eos.pressure(rho_r) + j * j / rho_r) - (eos.pressure(rho_l) + j * j / rho_l)
    rev = (eos.gibbs(rho_r) + 0.5 * j * j / rho_r**2) - (
        eos.gibbs(rho_l) + 0.5 * j * j / rho_l**2
    )
    return mom, rev


def _newton2(
    eos: EquationOfState,
    rho_l: float,
    rho_r: float,
    j: float,
    bl: Tuple[float, float],
    br: Tuple[float, float],
) -> Tuple[float, float]:
    """Damped Newton for the 2x2 jump system at fixed mass flux j >= 0.

    At j = 0 its zero is the static coexistence pair.  At most 200 steps;
    each is halved (up to 40 times) until the residual norm decreases, and
    iterates are clamped to the brackets.  Convergence is declared when the
    residual norm drops below 1e-13 times the pressure scale; otherwise, or
    when the Jacobian is singular, NoSolutionError is raised.  The Jacobian
    divides by each density's cube, so a starting point where a cube
    underflows to 0 raises NoSolutionError too, and a trial point where one
    does fails as one that does not descend.  The iterate, the residual, its
    norm and the 2x2 step, solved by Cramer's rule, are Python floats.
    """
    scale = max(1.0, abs(eos.pressure(0.5 * (bl[0] + bl[1]))))
    x0, x1 = float(rho_l), float(rho_r)
    if min(x0, x1) ** 3 == 0.0:
        raise NoSolutionError(f"the cube of the density {min(x0, x1)!r} underflows")
    r0, r1 = jump_residuals(eos, x0, x1, j)
    norm = math.hypot(r0, r1)
    for _ in range(200):
        if norm < 1e-13 * scale:
            return x0, x1
        c2l, c2r = eos.sound_speed_sq(x0), eos.sound_speed_sq(x1)
        a, b = -(c2l - j * j / x0**2), c2r - j * j / x1**2
        c, e = -(c2l / x0 - j * j / x0**3), c2r / x1 - j * j / x1**3
        det = a * e - b * c
        if det == 0.0:
            raise NoSolutionError("singular Jacobian in jump-condition solve")
        s0, s1 = (b * r1 - e * r0) / det, (c * r0 - a * r1) / det
        lam = 1.0
        for _ in range(40):
            t0 = min(max(x0 + lam * s0, bl[0]), bl[1])
            t1 = min(max(x1 + lam * s1, br[0]), br[1])
            if min(t0, t1) ** 3 > 0.0:
                tr0, tr1 = jump_residuals(eos, t0, t1, j)
                trial_norm = math.hypot(tr0, tr1)
                if trial_norm < norm:
                    x0, x1, r0, r1, norm = t0, t1, tr0, tr1, trial_norm
                    break
            lam *= 0.5
        else:
            break
    if norm < 1e-13 * scale:
        return x0, x1
    raise NoSolutionError(f"jump-condition Newton stalled at residual {norm:.3e}")


def solve_reversible_boundary(
    eos: EquationOfState,
    rho_l_bracket: Tuple[float, float],
    rho_r_bracket: Tuple[float, float],
    d: int,
    mass_flux: Optional[float] = None,
) -> PhaseBoundary:
    """Solve the reversible jump conditions for a two-phase configuration.

    One damped Newton solver handles the 2x2 system
        [p + j^2/rho] = 0,   [g + j^2/(2 rho^2)] = 0
    inside the brackets.  It is run twice: at j = 0 from the bracket
    midpoints, which gives the static coexistence pair, and then from that
    pair at the target mass flux.  The dynamic solutions form a
    one-parameter family in the flux; `mass_flux` selects the member (a
    deterministic subsonic default is used when omitted).

    Raises NoSolutionError when the zero-flux solve finds no coexistence
    pair in the brackets or the target-flux solve stalls; `FluidState`
    refuses a converged state that is not strictly subsonic.
    """
    bl = (float(min(rho_l_bracket)), float(max(rho_l_bracket)))
    br = (float(min(rho_r_bracket)), float(max(rho_r_bracket)))
    for lo, hi in (bl, br):
        if not (0.0 < lo < hi < eos.rho_max):
            raise ParameterError(f"bracket [{lo}, {hi}] outside the EOS domain")
        if eos.sound_speed_sq(lo) <= 0.0 or eos.sound_speed_sq(hi) <= 0.0:
            raise ParameterError("bracket endpoints must lie where c^2 > 0")

    mid_l, mid_r = 0.5 * (bl[0] + bl[1]), 0.5 * (br[0] + br[1])
    try:
        rho_l, rho_r = _newton2(eos, mid_l, mid_r, 0.0, bl, br)
    except NoSolutionError as exc:
        raise NoSolutionError(f"no coexistence pair in {bl} x {br}: {exc}") from exc

    if mass_flux is None:
        # Stay well below the smaller acoustic impedance so the dynamic
        # solution remains subsonic on both sides.
        mass_flux = 0.35 * min(
            rho_l * math.sqrt(eos.sound_speed_sq(rho_l)),
            rho_r * math.sqrt(eos.sound_speed_sq(rho_r)),
        )
    j = float(mass_flux)
    if j <= 0.0:
        raise ParameterError(f"mass flux must be positive, got {j}")

    rho_l, rho_r = _newton2(eos, rho_l, rho_r, j, bl, br)
    return boundary_from_eos(eos, rho_l, rho_r, j, d)
