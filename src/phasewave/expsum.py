"""Exact arithmetic with finite sums of vector exponentials on z in [0, inf).

A profile is a finite sum of terms c * exp(lam * z) with complex vector
coefficient c and complex rate lam.  The class is closed under addition,
differentiation, linear maps of the coefficients, and bilinear pairing of
two profiles (rates add).  The half-line integral is a finite sum -c/lam,
exact whenever every rate has negative real part, which removes all
discretization error from the kernel integrals built on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class ExpTerm:
    coeff: np.ndarray
    rate: complex


@dataclass(frozen=True)
class ExpProfile:
    """Vector-valued finite exponential sum over z >= 0."""

    terms: Tuple[ExpTerm, ...]

    @staticmethod
    def from_terms(pairs) -> "ExpProfile":
        terms = tuple(
            ExpTerm(np.asarray(c, dtype=complex), complex(lam)) for c, lam in pairs
        )
        return ExpProfile(terms)

    def __call__(self, z: float) -> np.ndarray:
        if not self.terms:
            raise ValueError("empty profile")
        out = np.zeros_like(self.terms[0].coeff)
        for t in self.terms:
            out = out + t.coeff * np.exp(t.rate * z)
        return out

    def __add__(self, other: "ExpProfile") -> "ExpProfile":
        return ExpProfile(self.terms + other.terms)

    def map_coeffs(self, f: Callable[[np.ndarray], np.ndarray]) -> "ExpProfile":
        """Apply a linear map to every coefficient (rates unchanged)."""
        return ExpProfile(tuple(ExpTerm(np.asarray(f(t.coeff)), t.rate) for t in self.terms))

    def derivative(self) -> "ExpProfile":
        return ExpProfile(tuple(ExpTerm(t.rate * t.coeff, t.rate) for t in self.terms))

    def integral(self) -> np.ndarray:
        """Exact value of the integral over [0, inf).

        Terms with an identically zero coefficient are dropped; any remaining
        term with Re(rate) >= 0 makes the integral divergent and raises.
        """
        live = [t for t in self.terms if np.any(t.coeff != 0.0)]
        if not live:
            return np.zeros_like(self.terms[0].coeff)
        for t in live:
            if t.rate.real >= 0.0:
                raise DomainError(
                    f"non-decaying integrand: rate {t.rate} has Re >= 0"
                )
        out = np.zeros_like(live[0].coeff)
        for t in live:
            out = out - t.coeff / t.rate
        return out


def pair_bilinear(
    p: ExpProfile, q: ExpProfile, form: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> ExpProfile:
    """Profile of form(c_p, c_q) over all term pairs; rates add."""
    terms = []
    for tp in p.terms:
        for tq in q.terms:
            terms.append(ExpTerm(np.asarray(form(tp.coeff, tq.coeff)), tp.rate + tq.rate))
    return ExpProfile(tuple(terms))


def pair_dot(row: ExpProfile, col: ExpProfile) -> ExpProfile:
    """Scalar profile row(z) . col(z) (plain dot, no conjugation)."""
    terms = []
    for tr in row.terms:
        for tc in col.terms:
            terms.append(
                ExpTerm(np.atleast_1d(tr.coeff @ tc.coeff), tr.rate + tc.rate)
            )
    return ExpProfile(tuple(terms))
