"""Spectral evolution of the nonlocal Burgers amplitude equation.

The reduced equation for the Hermitian-symmetric spectrum what(tau, k) is

    d/dtau what(k) = -(i k / alpha0) * sum_m a1(k - k_m, k_m)
                                        what(k - k_m) what(k_m) dk,

with a1 = q/(4 pi) the quadratic kernel.  The spectrum lives on the uniform
symmetric grid k_n = n*dk, n = -N..N; the convolution is a plain truncated
rectangle rule (out-of-grid factors are zero), and time stepping is classical
RK4 with its step chosen by an embedded error estimate.  The kernel is
homogeneous of degree zero, so the sum splits over three regions of the
(k - k_m, k_m) plane, each fixed by the one constant Q_nat: both arguments
positive (q = Q_nat, a self-convolution of the positive half),
the two mixed-sign regions (q = conj(Q_nat)(1 + k'/k), which coincide after
reindexing and carry the positive weight n/(n+j), so they give one
cross-correlation), and the two axes (q = Re Q_nat).  The right side is
therefore built from two 1-D products on the half spectrum n = 0..N, one
convolution and one correlation, in O(N) memory; no kernel matrix is formed.

The modes n <= 256 form a base block whose two products are evaluated
directly, term by term; up to N = 256 that is the whole computation.  Each
dyadic band of modes above it, (256, 512], (512, 1024], ..., is added by
zero-padded FFTs, so the cost above 256 modes is O(N log N).  A band's FFT
rounding is about eps ||p_band|| ||p_{<=band}||, set by that band's own
norm: the small high modes carry a small absolute error.  One FFT over the
whole spectrum would instead put an eps ||p||^2 error into every mode, which
the weight k_n amplifies where the true high modes are tiny.

The evolution state is that half spectrum.  `evolve` validates alpha0 and
folds the region factors and -i k/alpha0 * dk/(4 pi) into three O(N) weight
arrays once per run, steps the n = 0..N vector with RK4, and mirrors it as
its exact conjugate only where the full spectrum leaves the library: the
snapshots and the returned field.  The public `convolution_rhs` and
`rk4_step` take and return full spectra and wrap the same core; `rk4_step`
is the fixed-step reference for `evolve`.

Step control (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4): the
right side at the new point, k5 = f(what_{n+1}), is the next step's k1, so
RK4's third-order companion with weights (1, 2, 2, 0, 1)/6 is free, and
their difference (h/6)(k4 - k5) estimates the step's error.  `evolve`
accepts a step whose estimate, relative to max|what|, is below
`_STEP_TOL`, and sizes the next by the standard controller; only T limits
a step.  The propagated solution is always the RK4 update.  A row that
falls strictly inside an accepted step [t, t + h] is written from the
cubic Hermite interpolant of the step's two states and two slopes
(what_n, k1, what_{n+1}, k5) at theta = (tau - t)/h (ibid., sec. II.6),
which costs no RHS call; a row at a step's end is that step's state.

Diagnostics: the mean mode, `l2` = dk sum |what|^2, the H2 proxy
`h2` = dk sum k^4 |what|^2, `max_abs`, and the Hdot^{-1/2} energy
`energy` = dk sum_{k != 0} |what|^2/|k|, each summed on the half spectrum as
2 sum_{n>=1} + (n = 0).  The truncated system conserves the energy exactly
(the kernel's cyclic triad identity), so under RK4 it drifts only by the
time-step error; `l2` and `h2` are not invariants.  Each row also holds the
count of accepted steps that meet the interval (previous row, row], so a
step that covers several rows counts in each, and their largest error
estimate.  `evolve` stops at the first accepted step where `h2` exceeds 1e6
times its initial value, at the first trial step where an amplitude is not
finite, or at a rejected step whose successor h cannot move the end time
(T + h == T), and reports that time as breaking.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import DegeneracyError, ParameterError
from .kernel import Kernel

# Modes 0.._DIRECT_MODES form the base block of the RHS products, evaluated
# directly; each dyadic band above it is added by FFT.  At 256 modes both
# routes cost the same: 0.12 ms per RHS on one core of a 2-core x86-64 host.
_DIRECT_MODES = 256

# `evolve` reports breaking once the H2 proxy exceeds this multiple of its
# initial value.
_BLOWUP_FACTOR = 1e6

# `evolve` accepts a step whose error estimate is below this fraction of
# max|what|, the larger of the step's two ends.
_STEP_TOL = 1e-10

# `SimConfig` refuses a run that would write more diagnostics rows than
# this: a diag.csv of about 200 MB.
_MAX_ROWS = 10**6


@dataclass(frozen=True, eq=False)
class InitSpec:
    """Named initial spectrum with its parameters; 'random_smooth' draws
    from the run's seed, the `default_seed` of `init_field` and `evolve`."""

    name: str
    amplitude: float = 1.0
    k0: float = 1.0
    width: float = 1.0

    def __post_init__(self) -> None:
        if not self.width > 0.0:
            raise ParameterError(f"init width must be positive, got {self.width}")


@dataclass(frozen=True, eq=False)
class SimConfig:
    """One run: the grid k_n = n*dk, n = -N..N, the end time T, the initial
    spectrum, a diagnostics row at every `output_every` multiple of dt below
    T and the last row at T, and the optional snapshot and physical outputs.
    T need not be a whole number of dt.  dt also sets the first trial step,
    but no floor: the error estimate chooses the steps.  A run of more than
    10**6 rows, T / dt / output_every, is refused, as is a grid whose h2
    weight 2 dk (N dk)^4 or energy weight 2 dk (n dk)^-1 overflows.
    `evolve` stops the run early at breaking, by the test the module
    docstring states."""

    dk: float
    N: int
    dt: float
    T: float
    init: InitSpec
    output_every: int = 10
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
        rows = self.T / self.dt / self.output_every
        if not rows <= _MAX_ROWS:
            raise ParameterError(
                f"T={self.T}, dt={self.dt} and output_every={self.output_every} give"
                f" {rows:.3g} diagnostics rows, more than {_MAX_ROWS}"
            )
        for s, weight in ((4, "2 dk (N dk)^4"), (-1, "2 dk (n dk)^-1")):
            with np.errstate(over="ignore"):
                finite = np.isfinite(_diag_weights(self.N, self.dk, s)).all()
            if not finite:
                raise ParameterError(f"dk={self.dk} and N={self.N} overflow the weight {weight}")


@dataclass(eq=False)
class SpectralField:
    """Hermitian-symmetric truncated spectrum on k_n = n*dk, n = -N..N.

    The norms read only the half spectrum n = 0..N, the same way `evolve`
    computes its diagnostics.
    """

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
        return _weighted_square(np.abs(self.what[self.N :]), _diag_weights(self.N, self.dk, 0))

    def h2(self) -> float:
        return _weighted_square(np.abs(self.what[self.N :]), _diag_weights(self.N, self.dk, 4))

    def energy(self) -> float:
        """Hdot^{-1/2} energy dk sum_{k != 0} |what_k|^2 / |k|."""
        return _weighted_square(np.abs(self.what[self.N :]), _diag_weights(self.N, self.dk, -1))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.what[self.N :])))


def _diag_weights(N: int, dk: float, s: int) -> np.ndarray:
    """Weights c_n, n = 0..N, such that sum_n c_n |what_n|^2 is the sum
    dk sum_k |k|^s |what_k|^2 over the Hermitian spectrum, k = 0 included
    only for s = 0: the full sum is 2 sum_{n>=1} + (n = 0)."""
    c = np.empty(N + 1)
    c[0] = dk if s == 0 else 0.0
    c[1:] = 2.0 * dk * (dk * np.arange(1, N + 1)) ** s
    return c


def _weighted_square(mag: np.ndarray, weights: np.ndarray) -> float:
    """sum_n c_n mag_n^2, for mag = |half| already taken."""
    return float(np.sum(weights * mag**2))


def _mirror(half: np.ndarray) -> np.ndarray:
    """The full spectrum n = -N..N whose half n = 0..N is `half`."""
    return np.concatenate((np.conj(half[:0:-1]), half))


def init_field(config: SimConfig, default_seed: int = 0) -> SpectralField:
    """Build the named initial spectrum, projected onto Hermitian symmetry.

    Profiles: 'single_mode' places the amplitude at +-k0, which must be a
    grid wavenumber n*dk, 1 <= n <= N, to round-off; 'gaussian_bump' is
    A exp(-((|k|-k0)/width)^2); 'random_smooth' draws complex amplitudes
    from `default_seed`, the run's seed, with an algebraic |k|^-4 envelope
    (zero mean mode).
    """
    N, dk = config.N, config.dk
    k = dk * np.arange(-N, N + 1)
    spec = config.init
    A = spec.amplitude
    if spec.name == "single_mode":
        w = np.zeros(2 * N + 1, dtype=complex)
        ratio = spec.k0 / dk
        idx = int(round(ratio))
        # Rounding k0/dk moves an off-grid mode, so only round-off may go.
        if abs(ratio - idx) > 1e-12 * max(abs(ratio), 1.0):
            raise ParameterError(f"k0={spec.k0} is not a multiple of dk={dk}")
        if not 1 <= idx <= N:
            raise ParameterError(f"k0={spec.k0} does not fall on the grid interior")
        w[N + idx] = A
        w[N - idx] = np.conj(A)
    elif spec.name == "gaussian_bump":
        # Squared once scaled: 0 at |k| = k0 at any width, exp(-inf) = 0 far off.
        with np.errstate(over="ignore"):
            w = (A * np.exp(-(((np.abs(k) - spec.k0) / spec.width) ** 2))).astype(complex)
    elif spec.name == "random_smooth":
        rng = np.random.default_rng(default_seed)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=2 * N + 1)
        mags = rng.uniform(0.5, 1.0, size=2 * N + 1)
        # |k|^-4 overflows for |k| below about 1e-77, where the cap at 1
        # is exact anyway.
        with np.errstate(divide="ignore", over="ignore"):
            envelope = np.where(k == 0.0, 0.0, np.abs(k) ** -4.0)
        envelope = np.minimum(envelope, 1.0)
        w = A * mags * envelope * np.exp(1j * phases)
        w[N] = 0.0
    else:
        raise ParameterError(f"unknown initial profile {spec.name!r}")
    # Project onto what(-k) = conj(what(k)), keeping the half n = 0..N.
    half = 0.5 * (w[N:] + np.conj(w[N::-1]))
    return SpectralField(dk=dk, what=_mirror(half))


def _rhs_weights(N: int, dk: float, kernel: Kernel, alpha0: float) -> Tuple[np.ndarray, ...]:
    """Validate alpha0 and build the O(N) arrays of the half-spectrum RHS.

    Returns 1/max(n, 1) and the weights of the three regions' products, each
    the scale -i k_n/alpha0 * dk/(4 pi) times the region's factor: Q_nat,
    2 conj(Q_nat) n and 2 Re(Q_nat).  Every weight is zero at n = 0.
    """
    a0 = complex(alpha0)
    if a0.imag != 0.0 or not np.isfinite(a0.real):
        raise ParameterError(f"alpha0 must be a finite real number, got {alpha0!r}")
    if a0.real == 0.0:
        raise DegeneracyError("alpha0 must be nonzero")
    Qn = kernel.constants.Q_nat
    n = np.arange(N + 1)
    scale = -1j * n * dk / a0.real * (dk / (4.0 * np.pi))
    inv_m = 1.0 / np.maximum(n, 1)
    return inv_m, Qn * scale, (2.0 * np.conj(Qn)) * n * scale, (2.0 * Qn.real) * scale


def _fft_length(m: int) -> int:
    """The smallest 2^a or 3 * 2^a that is at least m (m >= 3)."""
    L = 1 << (m - 1).bit_length()
    return 3 * L // 4 if 3 * L // 4 >= m else L


def _half_rhs(half: np.ndarray, weights: Tuple[np.ndarray, ...]) -> np.ndarray:
    """The right side on n = 0..N from the half spectrum n = 0..N.

    The base block's products `conv` = p*p and `corr`_n = sum_j v_{n+j}
    conj(p_j) over modes 0..b are direct; above N = b they are padded to
    modes 0..N and each dyadic band (lo - 1, hi] = (b, 2b], (2b, 4b], ... is
    added by FFT.  Each self-convolution pair is grouped by the band of its
    larger index, which gives p_B * (2 p_{<B} + p_B), and each correlation
    term by the band of its v index.  The band sits at its own indices in a
    transform of length L > 2 hi - lo, so neither product aliases onto the
    modes read."""
    inv_m, w_conv, w_mixed, w_axis = weights
    N = half.size - 1
    p = half.copy()
    p[0] = 0.0
    v = p * inv_m
    b = min(N, _DIRECT_MODES)
    base = p[: b + 1]
    conv = np.convolve(base, base)
    corr = np.correlate(v[: b + 1], base, "full")[b:]
    if N > b:
        full_conv = np.zeros(max(N + 1, conv.size), dtype=complex)
        full_conv[: conv.size] = conv
        full_corr = np.zeros(N + 1, dtype=complex)
        full_corr[: corr.size] = corr
        conv, corr = full_conv, full_corr
    lo = b + 1
    while lo <= N:
        hi = min(2 * (lo - 1), N)
        L = _fft_length(2 * hi - lo + 1)
        x = np.zeros((3, L), dtype=complex)
        x[0, : hi + 1] = p[: hi + 1]
        x[1, lo : hi + 1] = p[lo : hi + 1]
        x[2, lo : hi + 1] = v[lo : hi + 1]
        P, X, V = np.fft.fft(x)
        c, r = np.fft.ifft(np.stack((X * (2.0 * P - X), V * np.conj(P))))
        top = min(2 * hi, N)
        conv[lo : top + 1] += c[np.arange(lo, top + 1) % L]
        corr[: hi + 1] += r[: hi + 1]
        lo = hi + 1
        # Freed before the next band's arrays and the weighted sum are
        # allocated, so that those can reuse the memory.
        del x, P, X, V, c, r
    rhs = w_conv * conv[: N + 1] + w_mixed * corr + (half[0] * w_axis) * p
    rhs[0] = 0.0  # also where a product overflowed: 0 * inf would be nan
    return rhs


def _rk4_stages(
    half: np.ndarray, k1: np.ndarray, weights: Tuple[np.ndarray, ...], dt: float
) -> Tuple[np.ndarray, np.ndarray]:
    """One classical RK4 step from `half`, whose right side `k1` is given:
    the new half spectrum and the last stage k4."""
    k2 = _half_rhs(half + 0.5 * dt * k1, weights)
    k3 = _half_rhs(half + 0.5 * dt * k2, weights)
    k4 = _half_rhs(half + dt * k3, weights)
    return half + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), k4


def _half_rk4(half: np.ndarray, weights: Tuple[np.ndarray, ...], dt: float) -> np.ndarray:
    return _rk4_stages(half, _half_rhs(half, weights), weights, dt)[0]


def _step_factor(err: float) -> float:
    """The standard step controller's factor 0.9 (tol/err)^(1/4) for the
    next trial step, kept in [0.2, 5]; a non-finite estimate gives 0.2."""
    if err == 0.0:
        return 5.0
    if not err < math.inf:
        return 0.2
    return min(5.0, max(0.2, 0.9 * (_STEP_TOL / err) ** 0.25))


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
    The right side is therefore two 1-D products, the convolution p*p and
    the correlation of v with p, each times a weight that folds the region's
    factor into -i k_n/alpha0 * dk/(4 pi).  Out-of-grid spectral factors are
    zero.

    Over the base block m <= 256 both products are `np.convolve` and
    `np.correlate`, exact term by term up to round-off.  Each dyadic band B
    of modes above it adds, by FFT, the convolution pairs whose larger index
    lies in B, p_B * (2 p_{<B} + p_B), and the correlation terms whose v
    index lies in B; the transform length covers each product's index span,
    so nothing aliases.  That costs O(N log N) above 256 modes, and each
    band's error is about eps times its own norm times that of the modes up
    to it, so every mode's error stays a small multiple of eps times its own
    terms (under 128 eps, as tested), as with the direct products.

    The output is exactly zero at k = 0, and its negative half is the exact
    conjugate mirror of the half computed, so rhs(-k) = conj(rhs(k)) holds
    by construction.  `evolve` uses the same half-spectrum core with weights
    built once per run.
    """
    N = field.N
    weights = _rhs_weights(N, field.dk, kernel, alpha0)
    return SpectralField(dk=field.dk, what=_mirror(_half_rhs(field.what[N:], weights)))


def rk4_step(field: SpectralField, kernel: Kernel, alpha0: float, dt: float) -> SpectralField:
    """One classical fourth-order step of the half spectrum n = 0..N; the
    result is its exact conjugate mirror, so it is exactly Hermitian."""
    N = field.N
    weights = _rhs_weights(N, field.dk, kernel, alpha0)
    return SpectralField(dk=field.dk, what=_mirror(_half_rk4(field.what[N:], weights, dt)))


@dataclass(frozen=True)
class DiagRow:
    tau: float
    mean: complex
    l2: float
    h2: float
    max_abs: float
    energy: float
    steps: int
    step_err: float


@dataclass(eq=False)
class SimResult:
    field: SpectralField
    diagnostics: List[DiagRow]
    snapshots: List[Tuple[float, np.ndarray]]
    breaking_tau: Optional[float]
    rhs_calls: int
    steps_accepted: int
    steps_rejected: int


def _hermite(
    w0: np.ndarray, k1: np.ndarray, w1: np.ndarray, k5: np.ndarray, h: float, theta: float
) -> np.ndarray:
    """Cubic Hermite dense output of a step of length h from (w0, k1) to
    (w1, k5), at t + theta h (Hairer, Norsett & Wanner, sec. II.6).  It is
    written as w0 plus terms in the increment w1 - w0 and the two slopes, so
    an entry whose increment and slopes are zero, the mean mode, keeps w0's
    bits."""
    d = w1 - w0
    bend = (1.0 - 2.0 * theta) * d + ((theta - 1.0) * h) * k1 + (theta * h) * k5
    return w0 + theta * d + (theta * (theta - 1.0)) * bend


def evolve(kernel: Kernel, alpha0: float, config: SimConfig, default_seed: int = 0) -> SimResult:
    """Time-step an initial spectrum with a prebuilt kernel: the library's
    one simulation entry point, after `find_root` and `build_kernel`.

    The initial spectrum is `init_field(config, default_seed)`, so
    'random_smooth' draws from the run's seed.  The state is the half
    spectrum n = 0..N, and the RHS weights are built once per run.  The full
    spectrum is mirrored only for snapshots and for the returned field.

    Each step is RK4, accepted or rejected by the error estimate of the
    module docstring; the first trial step is dt, and no step passes T,
    which the last step reaches exactly.  A diagnostics row is written at
    tau = 0, at each tau = j * output_every * dt below T, at T (which need
    not be a whole number of dt) and at the stop.  A row at a step's end is
    that step's state; a row inside an accepted step is its cubic Hermite
    interpolant (`_hermite`), so rows cost no RHS call.  Row marks are
    generated as the run reaches them.  The result counts the RHS calls and
    the accepted and rejected steps.  The run stops early at breaking by the
    module docstring's test, whose step floor does not scale with dt; an
    overflowing trial step stops it as a non-finite field, without a
    RuntimeWarning.
    """
    N, dk, dt, T = config.N, config.dk, config.dt, config.T
    half = init_field(config, default_seed=default_seed).what[N:]
    weights = _rhs_weights(N, dk, kernel, alpha0)
    l2_w, h2_w, energy_w = (_diag_weights(N, dk, s) for s in (0, 4, -1))
    every = config.output_every
    ahead = itertools.chain((m * dt for m in range(every, math.ceil(T / dt), every)), (T,))
    diag: List[DiagRow] = []
    snaps: List[Tuple[float, np.ndarray]] = []

    def write(tau: float, state: np.ndarray, steps: int, worst: float) -> None:
        mag = np.abs(state)
        diag.append(
            DiagRow(
                tau,
                complex(state[0]),
                _weighted_square(mag, l2_w),
                _weighted_square(mag, h2_w),
                float(np.max(mag)),
                _weighted_square(mag, energy_w),
                steps,
                worst,
            )
        )
        if config.snapshots:
            snaps.append((tau, _mirror(state)))

    breaking: Optional[float] = None
    accepted = rejected = 0
    with np.errstate(over="ignore", invalid="ignore"):
        mag = np.abs(half)
        size, h2_0 = float(np.max(mag)), _weighted_square(mag, h2_w)
        k1 = _half_rhs(half, weights)
        calls = 1
        write(0.0, half, 0, 0.0)
        # The accepted steps that meet (previous row, tau], and their largest
        # estimate: a step that covers several rows counts in each.
        tau, steps, worst = next(ahead), 0, 0.0
        t, h = 0.0, dt
        while t < T and breaking is None:
            step = min(h, T - t)
            new, k4 = _rk4_stages(half, k1, weights, step)
            calls += 3
            mag = np.abs(new)
            new_size = float(np.max(mag))
            t_new = T if step == T - t else t + step
            if not math.isfinite(new_size):
                half, t, breaking = new, t_new, t_new
                break
            k5 = _half_rhs(new, weights)
            calls += 1
            diff = (step / 6.0) * float(np.max(np.abs(k4 - k5)))
            err = diff / max(size, new_size) if diff else 0.0  # not 0/0 at a zero field
            h = step * _step_factor(err)
            if not err < _STEP_TOL:
                # A rejected step shrinks, even at a zero estimate that a
                # zero tolerance rejects.
                rejected += 1
                h = min(h, 0.9 * step)
                if T + h == T:
                    breaking = t
                continue
            accepted += 1
            steps, worst = steps + 1, max(worst, err)
            if h2_0 > 0.0 and _weighted_square(mag, h2_w) > _BLOWUP_FACTOR * h2_0:
                breaking = t_new
            while tau < t_new:
                write(tau, _hermite(half, k1, new, k5, step, (tau - t) / step), steps, worst)
                tau, steps, worst = next(ahead, math.inf), 1, err
            if tau == t_new:
                write(t_new, new, steps, worst)
                tau, steps, worst = next(ahead, math.inf), 0, 0.0
            half, size, k1, t = new, new_size, k5, t_new
        if breaking is not None and t > diag[-1].tau:
            write(t, half, steps, worst)
    return SimResult(
        field=SpectralField(dk=dk, what=_mirror(half)),
        diagnostics=diag,
        snapshots=snaps,
        breaking_tau=breaking,
        rhs_calls=calls,
        steps_accepted=accepted,
        steps_rejected=rejected,
    )


def physical_reconstruction(field: SpectralField) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse transform onto 2N+1 physical points, as one real inverse DFT.

    Returns (x, w) with x_m = m * 2 pi / ((2N+1) dk), m = -N..N, and
    w(x_m) = dk sum_n what_n exp(i k_n x_m).  The spectrum is taken to be
    Hermitian, so only its n = 0..N half is read and w is real.
    """
    N, dk = field.N, field.dk
    size = 2 * N + 1
    x = np.arange(-N, N + 1) * (2.0 * np.pi / (size * dk))
    w = np.fft.fftshift(np.fft.irfft(field.what[N:], n=size)) * (size * dk)
    return x, w
