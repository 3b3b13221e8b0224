"""Spectral evolution of the nonlocal Burgers amplitude equation.

The reduced equation for the Hermitian-symmetric spectrum what(tau, k) is

    d/dtau what(k) = -(i k / alpha0) * sum_m a1(k - k_m, k_m)
                                        what(k - k_m) what(k_m) dk,

with a1 = q/(4 pi) the quadratic kernel.  The spectrum lives on the uniform
symmetric grid k_n = n*dk, n = -N..N; the convolution is a plain truncated
rectangle rule (out-of-grid factors are zero) and time stepping is classical
RK4.  The kernel is homogeneous of degree zero, so the sum splits over three
regions of the (k - k_m, k_m) plane, each fixed by the one constant Q_nat:
both arguments positive (q = Q_nat, a self-convolution of the positive half),
the two mixed-sign regions (q = conj(Q_nat)(1 + k'/k), which coincide after
reindexing and carry the positive weight n/(n+j), so they give one
cross-correlation), and the two axes (q = Re Q_nat).  The right side is
therefore built from two 1-D products on the half spectrum n = 0..N, one
convolution and one correlation, in O(N) memory, and its negative half is
the exact conjugate mirror; no kernel matrix is formed.

Diagnostics: the mean mode, `l2` = dk sum |what|^2, the H2 proxy
`h2` = dk sum k^4 |what|^2, `max_abs`, and the Hdot^{-1/2} energy
`energy` = dk sum_{k != 0} |what|^2/|k|.  The truncated system conserves the
energy exactly (the kernel's cyclic triad identity), so under RK4 it drifts
only by the time-step error; `l2` and `h2` are not invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import DegeneracyError, ParameterError
from .kernel import Kernel, kernel_constants
from .lopatinskii import find_root


@dataclass(frozen=True, eq=False)
class InitSpec:
    """Named initial spectrum with its parameters."""

    name: str
    amplitude: float = 1.0
    k0: float = 1.0
    width: float = 1.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.width > 0.0:
            raise ParameterError(f"init width must be positive, got {self.width}")


@dataclass(frozen=True, eq=False)
class SimConfig:
    dk: float
    N: int
    dt: float
    T: float
    init: InitSpec
    output_every: int = 10
    blowup_factor: float = 1e6
    snapshots: bool = False
    physical: bool = False

    def __post_init__(self) -> None:
        if not self.dk > 0.0:
            raise ParameterError(f"dk must be positive, got {self.dk}")
        if self.N < 8:
            raise ParameterError(f"N must be at least 8, got {self.N}")
        if not self.dt > 0.0:
            raise ParameterError(f"dt must be positive, got {self.dt}")
        if not self.T > 0.0:
            raise ParameterError(f"T must be positive, got {self.T}")
        if self.output_every < 1:
            raise ParameterError("output_every must be at least 1")
        if not self.blowup_factor > 1.0:
            raise ParameterError(
                f"blowup_factor must exceed 1, got {self.blowup_factor}"
            )


@dataclass(eq=False)
class SpectralField:
    """Hermitian-symmetric truncated spectrum on k_n = n*dk, n = -N..N."""

    dk: float
    what: np.ndarray

    @property
    def N(self) -> int:
        return (self.what.size - 1) // 2

    def wavenumbers(self) -> np.ndarray:
        return self.dk * np.arange(-self.N, self.N + 1)

    def hermitian_deviation(self) -> float:
        return float(np.max(np.abs(self.what - np.conj(self.what[::-1]))))

    def mean(self) -> complex:
        return complex(self.what[self.N])

    def l2(self) -> float:
        return float(np.sum(np.abs(self.what) ** 2) * self.dk)

    def h2(self) -> float:
        k2 = self.wavenumbers() ** 2
        return float(np.sum(k2 * k2 * np.abs(self.what) ** 2) * self.dk)

    def energy(self) -> float:
        """Hdot^{-1/2} energy dk sum_{k != 0} |what_k|^2 / |k|."""
        k = np.abs(self.wavenumbers())
        k[self.N] = np.inf
        return float(np.sum(np.abs(self.what) ** 2 / k) * self.dk)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.what)))


def hermitian_symmetrize(w: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian-symmetric subspace what(-k) = conj(what(k))."""
    return 0.5 * (w + np.conj(w[::-1]))


def init_field(config: SimConfig, default_seed: int = 0) -> SpectralField:
    """Build the named initial spectrum, always Hermitian-symmetrized.

    Profiles: 'single_mode' places the amplitude at +-k0; 'gaussian_bump' is
    A exp(-(|k|-k0)^2/width^2); 'random_smooth' draws seeded complex
    amplitudes with an algebraic |k|^-4 envelope (zero mean mode).
    """
    N, dk = config.N, config.dk
    k = dk * np.arange(-N, N + 1)
    spec = config.init
    A = spec.amplitude
    if spec.name == "single_mode":
        w = np.zeros(2 * N + 1, dtype=complex)
        idx = int(round(spec.k0 / dk))
        if not 1 <= idx <= N:
            raise ParameterError(f"k0={spec.k0} does not fall on the grid interior")
        w[N + idx] = A
        w[N - idx] = np.conj(A)
    elif spec.name == "gaussian_bump":
        w = (A * np.exp(-((np.abs(k) - spec.k0) ** 2) / spec.width**2)).astype(complex)
    elif spec.name == "random_smooth":
        seed = spec.seed if spec.seed is not None else default_seed
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=2 * N + 1)
        mags = rng.uniform(0.5, 1.0, size=2 * N + 1)
        with np.errstate(divide="ignore"):
            envelope = np.where(k == 0.0, 0.0, np.abs(k) ** -4.0)
        envelope = np.minimum(envelope, 1.0)
        w = A * mags * envelope * np.exp(1j * phases)
        w[N] = 0.0
    else:
        raise ParameterError(f"unknown initial profile {spec.name!r}")
    return SpectralField(dk=dk, what=hermitian_symmetrize(w))


def convolution_rhs(field: SpectralField, kernel: Kernel, alpha0: float) -> SpectralField:
    """Right-hand side of the reduced amplitude equation on the grid.

    Only the half spectrum n = 0..N of the Hermitian field is read.  In index
    units, with p_m = what_m for m >= 1, p_0 = 0 and w0 = what_0, the kernel's
    three regions give for n >= 1

        conv_n = Q_nat (p*p)_n
                 + 2 conj(Q_nat) n sum_{j>=1} v_{n+j} conj(p_j)
                 + 2 Re(Q_nat) w0 p_n,

    with v_m = p_m/m: the mixed-region weight 1 - j/(n+j) is n/(n+j), which
    is positive, so that region is one correlation and needs no subtraction.
    The right side is therefore two 1-D products, `np.convolve(p, p)` (kept
    full length) and `np.correlate(v, p)`.  Out-of-grid spectral factors are
    zero.  The output is exactly zero at k = 0 and rhs(-k) = conj(rhs(k))
    holds exactly by construction.
    """
    a0 = complex(alpha0)
    if a0.imag != 0.0 or not np.isfinite(a0.real):
        raise ParameterError(f"alpha0 must be a finite real number, got {alpha0!r}")
    if a0.real == 0.0:
        raise DegeneracyError("alpha0 must be nonzero")
    N, dk = field.N, field.dk
    Qn = kernel.constants.Q_nat
    p = field.what[N:].copy()
    w0 = p[0]
    p[0] = 0.0
    idx = np.arange(N + 1)
    v = p / np.maximum(idx, 1)
    mixed = idx * np.correlate(v, p, "full")[N:]
    conv = Qn * np.convolve(p, p)[: N + 1] + 2.0 * np.conj(Qn) * mixed + 2.0 * Qn.real * w0 * p
    half = -1j * idx * dk / a0.real * conv * (dk / (4.0 * np.pi))
    half[0] = 0.0
    return SpectralField(dk=dk, what=np.concatenate((np.conj(half[:0:-1]), half)))


def rk4_step(field: SpectralField, kernel: Kernel, alpha0: float, dt: float) -> SpectralField:
    """One classical fourth-order step; every stage is exactly Hermitian."""
    w = field.what
    k1 = convolution_rhs(field, kernel, alpha0).what
    k2 = convolution_rhs(SpectralField(field.dk, w + 0.5 * dt * k1), kernel, alpha0).what
    k3 = convolution_rhs(SpectralField(field.dk, w + 0.5 * dt * k2), kernel, alpha0).what
    k4 = convolution_rhs(SpectralField(field.dk, w + dt * k3), kernel, alpha0).what
    new = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return SpectralField(dk=field.dk, what=new)


@dataclass(frozen=True)
class DiagRow:
    tau: float
    mean: complex
    l2: float
    h2: float
    max_abs: float
    energy: float


@dataclass(eq=False)
class SimResult:
    field: SpectralField
    diagnostics: List[DiagRow]
    snapshots: List[Tuple[float, np.ndarray]]
    breaking_tau: Optional[float]
    alpha0: float
    kernel: Kernel


def run_simulation(pb, eta_t, config: SimConfig, default_seed: int = 0) -> SimResult:
    """Pipeline: root -> kernel -> RK4 evolution with diagnostics.

    Evolution stops early when the H2 proxy exceeds `blowup_factor` times its
    initial value or any amplitude stops being finite; the first such time is
    reported as the breaking time.
    """
    root = find_root(pb, eta_t)
    kc = kernel_constants(root)
    kernel = Kernel(constants=kc)
    return evolve(kernel, kc.alpha0, config, default_seed=default_seed)


def evolve(kernel: Kernel, alpha0: float, config: SimConfig, default_seed: int = 0) -> SimResult:
    """Time-step an initial spectrum with a prebuilt kernel."""
    field = init_field(config, default_seed=default_seed)
    n_steps = max(1, int(round(config.T / config.dt)))
    h2_0 = field.h2()
    diag: List[DiagRow] = []
    snaps: List[Tuple[float, np.ndarray]] = []
    breaking: Optional[float] = None

    def record(tau: float, f: SpectralField, h2: float) -> None:
        diag.append(DiagRow(tau, f.mean(), f.l2(), h2, f.max_abs(), f.energy()))
        if config.snapshots:
            snaps.append((tau, f.what.copy()))

    record(0.0, field, h2_0)
    for n in range(1, n_steps + 1):
        field = rk4_step(field, kernel, alpha0, config.dt)
        tau = n * config.dt
        h2 = field.h2()
        if not np.all(np.isfinite(field.what)) or (
            h2_0 > 0.0 and h2 > config.blowup_factor * h2_0
        ):
            breaking = tau
            record(tau, field, h2)
            break
        if n % config.output_every == 0 or n == n_steps:
            record(tau, field, h2)
    return SimResult(
        field=field,
        diagnostics=diag,
        snapshots=snaps,
        breaking_tau=breaking,
        alpha0=alpha0,
        kernel=kernel,
    )


def physical_reconstruction(field: SpectralField) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse transform onto 2N+1 physical points, as one inverse DFT.

    Returns (x, w) with x_m = m * 2 pi / ((2N+1) dk), m = -N..N, and
    w(x_m) = dk sum_n what_n exp(i k_n x_m); w is real up to round-off for a
    Hermitian spectrum and the real part is returned.
    """
    N, dk = field.N, field.dk
    size = 2 * N + 1
    x = np.arange(-N, N + 1) * (2.0 * np.pi / (size * dk))
    w = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(field.what))) * (size * dk)
    return x, np.real(w)
