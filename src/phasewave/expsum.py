"""Exact arithmetic with finite sums of vector exponentials on z in [0, inf).

A profile is a finite sum of terms c_t * exp(lam_t * z) with complex vector
coefficients c_t and complex rates lam_t.  It is stored as two arrays:
`coeffs`, shape (m, T), whose column t is c_t (components first, terms
second), and `rates`, shape (T,).  The class is closed under addition,
differentiation, linear maps of the coefficients, and bilinear pairing of
two profiles (rates add).  The half-line integral is a finite sum -c/lam,
exact whenever every rate has negative real part, which removes all
discretization error from the kernel integrals built on top of it.

Every operation acts on all terms at once, so the maps and forms handed to
`map_coeffs` and `pair_bilinear` receive (m, T) arrays.  Indexing the
component axis (`x[0]`, `x[1:-1]`, `x[-1]`) works unchanged; a contraction
over components must be axis-aware (a matrix on the left, or a sum over
axis 0), never a plain `@` between two coefficient arrays.

`integral` also accepts a leading point axis, coefficients (P, m, T) over
rates (P, T): the same terms placed at P points, one integral per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError


@dataclass(frozen=True, eq=False)
class ExpProfile:
    """Vector-valued finite exponential sum over z >= 0."""

    coeffs: np.ndarray
    rates: np.ndarray

    @staticmethod
    def from_terms(pairs) -> "ExpProfile":
        coeffs, rates = zip(*pairs)
        return ExpProfile(np.array(coeffs, dtype=complex).T, np.array(rates, dtype=complex))

    def __call__(self, z: float) -> np.ndarray:
        return self.coeffs @ np.exp(self.rates * z)

    def __add__(self, other: "ExpProfile") -> "ExpProfile":
        return ExpProfile(
            np.concatenate((self.coeffs, other.coeffs), axis=1),
            np.concatenate((self.rates, other.rates)),
        )

    def map_coeffs(self, f: Callable[[np.ndarray], np.ndarray]) -> "ExpProfile":
        """Apply a linear map to every coefficient column (rates unchanged)."""
        return ExpProfile(np.asarray(f(self.coeffs)), self.rates)

    def derivative(self) -> "ExpProfile":
        return ExpProfile(self.coeffs * self.rates, self.rates)

    def integral(self) -> np.ndarray:
        """Exact value of the integral over [0, inf).

        A profile may carry a leading point axis, coefficients (P, m, T) over
        rates (P, T); the value is then (P, m), one integral per point.  Terms
        with an identically zero coefficient are dropped; any remaining term
        with Re(rate) >= 0 makes the integral divergent and raises.  Each
        point's terms are summed on their own over the whole term axis, a
        dropped term as an exact zero, so a point gives the same bits alone
        as inside a stack of points.
        """
        live = self.coeffs.any(axis=-2)
        growing = live & (self.rates.real >= 0.0)
        if growing.any():
            raise DomainError(
                f"non-decaying integrand: rate {complex(self.rates[growing][0])} has Re >= 0"
            )
        live = np.broadcast_to(live[..., None, :], self.coeffs.shape)
        terms = np.zeros(self.coeffs.shape, dtype=complex)
        np.divide(self.coeffs, self.rates[..., None, :], out=terms, where=live)
        return -terms.sum(axis=-1)


def _pair_rates(p: ExpProfile, q: ExpProfile) -> np.ndarray:
    """Rates of all term pairs, p's term outer and q's inner."""
    return (p.rates[:, None] + q.rates[None, :]).ravel()


def pair_bilinear(
    p: ExpProfile, q: ExpProfile, form: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> ExpProfile:
    """Profile of form(c_p, c_q) over all term pairs; rates add.

    form is called once, on the stacked (m, Tp*Tq) coefficient pairs."""
    x = np.repeat(p.coeffs, q.rates.size, axis=1)
    y = np.tile(q.coeffs, (1, p.rates.size))
    return ExpProfile(np.asarray(form(x, y)), _pair_rates(p, q))


def pair_dot(row: ExpProfile, col: ExpProfile) -> ExpProfile:
    """Scalar profile row(z) . col(z) (plain dot, no conjugation)."""
    return ExpProfile((row.coeffs.T @ col.coeffs).reshape(1, -1), _pair_rates(row, col))
