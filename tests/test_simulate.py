import dataclasses
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from phasewave import (
    DegeneracyError,
    ParameterError,
    build_kernel,
    convolution_rhs,
    find_root,
    evolve,
    init_field,
    rk4_step,
)
from phasewave import simulate
from phasewave.config import build_boundary, load_config, sim_config
from phasewave.kernel import Kernel, kernel_constants, q_grid
from phasewave.simulate import (
    InitSpec,
    SimConfig,
    SpectralField,
    _BLOWUP_FACTOR,
    _STEP_TOL,
    _Rhs,
    _hermite,
    _rk4_stages,
    physical_reconstruction,
)

from conftest import SHIPPED, shipped_config


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def kernel_and_alpha(root_a):
    kc = kernel_constants(root_a)
    return build_kernel(root_a), kc.alpha0


@pytest.fixture(scope="module", params=["fixture_a", "vdw"])
def shipped_kernel_and_alpha(request):
    cfg = load_config(CONFIGS / f"{request.param}.json")
    kernel = build_kernel(find_root(build_boundary(cfg), np.asarray(cfg["eta_t"], dtype=float)))
    return kernel, kernel.constants.alpha0


def _cfg(**kw):
    base = dict(
        dk=0.1,
        N=32,
        dt=0.01,
        T=0.5,
        init=InitSpec("single_mode", amplitude=0.5, k0=1.0),
        output_every=10,
    )
    base.update(kw)
    return SimConfig(**base)


def _fixed_rk4_rows(kern, a0v, cfg, default_seed=0, refine=1):
    """The fixed-step reference for `evolve`'s rows: `rk4_step` iterated at
    dt/refine, and the field at each row time, j * output_every * dt and T."""
    n_steps = max(1, round(cfg.T / cfg.dt))
    marks = {*range(0, n_steps, cfg.output_every), n_steps}
    f = init_field(cfg, default_seed)
    rows = [f]
    for n in range(1, n_steps * refine + 1):
        f = rk4_step(f, kern, a0v, cfg.dt / refine)
        if n % refine == 0 and n // refine in marks:
            rows.append(f)
    return rows


def _brute_force_rhs(field, kern, a0v):
    """The RHS as a direct sum over all (2N+1)^2 grid pairs with `q_grid`
    values, out-of-grid factors zero.  Evaluated 128 output modes at a time,
    so memory is O(N); an oracle only."""
    rows = 128
    N, dk, w = field.N, field.dk, field.what
    k = field.wavenumbers()
    n = np.arange(-N, N + 1)
    conv = np.empty(2 * N + 1, dtype=complex)
    for lo in range(0, 2 * N + 1, rows):
        shift = n[lo : lo + rows, None] - n[None, :]
        factor = np.where(np.abs(shift) <= N, w[np.clip(shift, -N, N) + N], 0.0)
        q = q_grid(kern, k[lo : lo + rows, None] - k[None, :], k[None, :])
        conv[lo : lo + rows] = (q * factor) @ w
    rhs = (-1j * k / a0v) * conv * (dk / (4.0 * np.pi))
    rhs[N] = 0.0
    return rhs


class TestInitField:
    def test_single_mode_values(self):
        f = init_field(_cfg())
        idx = int(round(1.0 / f.dk))
        assert f.what[f.N + idx] == 0.5
        assert f.what[f.N - idx] == 0.5
        assert f.what[f.N] == 0.0

    def test_zero_amplitude(self):
        f = init_field(_cfg(init=InitSpec("single_mode", amplitude=0.0, k0=1.0)))
        assert np.all(f.what == 0.0)

    def test_random_smooth_hermitian_exact(self):
        f = init_field(_cfg(init=InitSpec("random_smooth", amplitude=1.0)), 7)
        assert f.hermitian_deviation() == 0.0
        assert f.what[f.N] == 0.0

    def test_gaussian_bump_hermitian(self):
        f = init_field(_cfg(init=InitSpec("gaussian_bump", amplitude=0.3, k0=1.0, width=0.4)))
        assert f.hermitian_deviation() == 0.0

    @pytest.mark.parametrize(
        "width, k0, nonzero", [(1e-300, 1.0, 2), (1e-160, 1.0, 2), (1.0, 1e300, 0)]
    )
    def test_extreme_bump_is_finite(self, width, k0, nonzero):
        # The scaled distance is squared: 0 at |k| = k0 however narrow the
        # bump (0/0 before), and too large to square elsewhere, where the
        # bump is exactly 0.  No RuntimeWarning is raised.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bump = InitSpec("gaussian_bump", amplitude=0.5, k0=k0, width=width)
            f = init_field(_cfg(init=bump))
        assert np.all(np.isfinite(f.what))
        assert np.count_nonzero(f.what) == nonzero
        assert nonzero == 0 or f.what[f.N + 10] == 0.5

    def test_random_smooth_at_tiny_dk_is_finite(self):
        # |k|^-4 overflows for |k| below about 1e-77, where the envelope's
        # cap at 1 is exact: the spectrum is the one at dk = 1e-50, whose
        # envelope is capped everywhere too.  No RuntimeWarning is raised.
        spec = InitSpec("random_smooth", amplitude=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            f = init_field(_cfg(dk=1e-100, init=spec), 7)
        assert np.all(np.isfinite(f.what))
        assert np.array_equal(f.what, init_field(_cfg(dk=1e-50, init=spec), 7).what)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ParameterError):
            init_field(_cfg(init=InitSpec("square_wave", amplitude=1.0)))

    def test_off_grid_mode_rejected(self):
        with pytest.raises(ParameterError):
            init_field(_cfg(init=InitSpec("single_mode", amplitude=1.0, k0=0.03)))

    def test_mode_between_grid_points_rejected(self):
        # 1.03 lies between k = 1.0 and 1.1 on dk = 0.1; rounding would move
        # the mode to 1.0 without a word.
        with pytest.raises(ParameterError, match="k0=1.03"):
            init_field(_cfg(init=InitSpec("single_mode", amplitude=1.0, k0=1.03)))

    def test_mode_on_grid_to_round_off_accepted(self):
        # 1.0/0.05 is 20.000000000000004: on the grid, to round-off.
        f = init_field(_cfg(dk=0.05, init=InitSpec("single_mode", amplitude=0.5, k0=1.0)))
        assert f.what[f.N + 20] == 0.5

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            _cfg(dt=0.0)
        with pytest.raises(ParameterError):
            _cfg(N=4)
        with pytest.raises(ParameterError):
            _cfg(T=-1.0)
        with pytest.raises(ParameterError):
            _cfg(output_every=0)

    @pytest.mark.parametrize("dk", [1e60, 1e80, 1e300, 1e-310])
    def test_overflowing_diagnostic_weight_refused(self, dk):
        # The largest weight 2 dk (N dk)^4 of h2 is not finite at the shipped
        # N = 128 (at dk = 1e60 and N = 32 it is 2.1e306, and accepted); at
        # dk = 1e-310 the energy weight 2 dk (n dk)^-1 is not.
        with pytest.raises(ParameterError, match=re.escape(f"dk={dk} and N=128 overflow")):
            _cfg(dk=dk, N=128)
        assert _cfg(dk=1e60).N == 32


class TestConvolutionRhs:
    def test_zero_mode_exactly_zero(self, kernel_and_alpha):
        kern, a0v = kernel_and_alpha
        f = init_field(_cfg(init=InitSpec("gaussian_bump", amplitude=0.4, k0=1.0, width=0.6)))
        rhs = convolution_rhs(f, kern, a0v)
        assert rhs.what[rhs.N] == 0.0

    def test_quadratic_homogeneity(self, kernel_and_alpha):
        kern, a0v = kernel_and_alpha
        f = init_field(_cfg(init=InitSpec("random_smooth", amplitude=1.0)), 11)
        r1 = convolution_rhs(f, kern, a0v).what
        r3 = convolution_rhs(SpectralField(f.dk, 3.0 * f.what), kern, a0v).what
        assert np.max(np.abs(r3 - 9.0 * r1)) <= 1e-13 * max(np.max(np.abs(r1)), 1e-30) * 9.0

    def test_single_mode_transfers_to_second_harmonic_only(self, kernel_and_alpha):
        kern, a0v = kernel_and_alpha
        f = init_field(_cfg(init=InitSpec("single_mode", amplitude=0.5, k0=1.0)))
        rhs = convolution_rhs(f, kern, a0v)
        k = rhs.wavenumbers()
        active = np.abs(rhs.what) > 1e-16
        assert set(np.round(k[active], 12)) == {-2.0, 2.0}

    def test_hermitian_output(self, kernel_and_alpha):
        kern, a0v = kernel_and_alpha
        f = init_field(_cfg(init=InitSpec("random_smooth", amplitude=2.0)), 3)
        rhs = convolution_rhs(f, kern, a0v)
        assert rhs.hermitian_deviation() == 0.0

    def test_zero_alpha_rejected(self, kernel_and_alpha):
        kern, _ = kernel_and_alpha
        f = init_field(_cfg())
        with pytest.raises(DegeneracyError):
            convolution_rhs(f, kern, 0.0)

    def test_matches_brute_force(self, kernel_and_alpha):
        kern, a0v = kernel_and_alpha
        f = init_field(_cfg(N=12, init=InitSpec("random_smooth", amplitude=1.5)), 5)
        fast = convolution_rhs(f, kern, a0v).what
        N, dk = f.N, f.dk
        ref = np.zeros_like(f.what)
        for n in range(-N, N + 1):
            acc = 0.0j
            for m in range(-N, N + 1):
                if abs(n - m) <= N and not (n == m == 0 and n == 0):
                    if n - m == 0 and m == 0:
                        continue
                    acc += (
                        q_grid(kern, (n - m) * dk, m * dk)
                        / (4.0 * np.pi)
                        * f.what[N + n - m]
                        * f.what[N + m]
                    )
            ref[N + n] = -1j * (n * dk) / a0v * acc * dk
        ref[N] = 0.0
        ref = 0.5 * (ref + np.conj(ref[::-1]))
        assert np.max(np.abs(fast - ref)) <= 1e-15 * max(np.max(np.abs(ref)), 1e-30)

    @pytest.mark.parametrize(
        "profile, N",
        [
            (p, n)
            for n in (64, 256, 257, 700, 1024, 2048)
            for p in ("random_smooth", "gaussian_bump", "evolved")
        ],
    )
    def test_matches_vectorized_brute_force_at_scale(self, kernel_and_alpha, profile, N):
        # N = 257 is the smallest grid with an FFT band (of one mode); 700
        # ends inside its second band, and 1024 and 2048 add two and three
        # full dyadic bands to the direct base block.
        kern, a0v = kernel_and_alpha
        bump = InitSpec("gaussian_bump", amplitude=0.5, k0=1.0, width=0.5)
        if profile == "random_smooth":
            f = init_field(_cfg(dk=0.05, N=N, init=InitSpec("random_smooth", amplitude=1.0)), 5)
        elif profile == "gaussian_bump":
            f = init_field(_cfg(dk=0.05, N=N, init=bump))
        else:
            f = evolve(kern, a0v, _cfg(dk=0.05, N=N, T=0.5, init=bump, output_every=10**9)).field
        ref = _brute_force_rhs(f, kern, a0v)
        got = convolution_rhs(f, kern, a0v).what
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "profile, N", [("random_smooth", 257), ("random_smooth", 2048), ("evolved", 1024)]
    )
    def test_per_mode_error_within_its_own_terms(self, kernel_and_alpha, profile, N):
        """Every mode n >= 1 is within 128 eps of T_n, the same three products
        taken on |p|, |v| and the |weights| (measured at most 36).  A single
        whole-spectrum FFT exceeds it by a factor of 1e5 or more: its error is
        about eps ||p||^2 in every mode, while the true high modes are tiny."""
        kern, a0v = kernel_and_alpha
        if profile == "random_smooth":
            f = init_field(_cfg(dk=0.05, N=N, init=InitSpec("random_smooth", amplitude=1.0)), 5)
        else:
            init = InitSpec("random_smooth", amplitude=0.01)
            cfg = _cfg(dk=0.05, N=N, T=0.5, init=init, output_every=10**9)
            f = evolve(kern, a0v, cfg, default_seed=5).field
        inv_m, w_conv, w_mixed, w_axis = _Rhs(N, f.dk, kern, a0v).weights
        half = f.what[N:]
        got = convolution_rhs(f, kern, a0v).what[N:]
        # Reference: the direct products in extended precision (80-bit long
        # double on x86-64), from the same float64 weights.
        p = half.astype(np.clongdouble)
        p[0] = 0.0
        v = p * inv_m.astype(np.longdouble)
        ref = (
            w_conv.astype(np.clongdouble) * np.convolve(p, p)[: N + 1]
            + w_mixed.astype(np.clongdouble) * np.correlate(v, p, "full")[N:]
            + p * (half[0] * w_axis).astype(np.clongdouble)
        )
        a = np.abs(half)
        a[0] = 0.0
        terms = (
            np.abs(w_conv) * np.convolve(a, a)[: N + 1]
            + np.abs(w_mixed) * np.correlate(a * inv_m, a, "full")[N:]
            + np.abs(half[0] * w_axis) * a
        )
        err = np.abs(got - ref).astype(float)
        assert np.all(terms[1:] > 0.0)
        assert np.all(err[1:] <= 128 * np.finfo(float).eps * terms[1:])

    @pytest.mark.parametrize("N", [64, 128, 256])
    def test_direct_products_bit_for_bit_up_to_256_modes(self, kernel_and_alpha, N):
        # Up to 256 modes there is no FFT band: the RHS is the two direct
        # products, so grids of this size give the same bits as before bands.
        kern, a0v = kernel_and_alpha
        f = init_field(_cfg(dk=0.05, N=N, init=InitSpec("random_smooth", amplitude=1.0)), 5)
        f.what[N] = 0.3
        inv_m, w_conv, w_mixed, w_axis = _Rhs(N, f.dk, kern, a0v).weights
        half = f.what[N:]
        p = half.copy()
        p[0] = 0.0
        rhs = (
            w_conv * np.convolve(p, p)[: N + 1]
            + w_mixed * np.correlate(p * inv_m, p, "full")[N:]
            + (half[0] * w_axis) * p
        )
        rhs[0] = 0.0
        expected = np.concatenate((np.conj(rhs[:0:-1]), rhs))
        assert np.array_equal(convolution_rhs(f, kern, a0v).what, expected)

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(537.6, np.nan), complex(537.6, -1.4e-14)]
    )
    def test_nonfinite_or_complex_alpha_rejected(self, kernel_and_alpha, bad):
        kern, _ = kernel_and_alpha
        with pytest.raises(ParameterError, match="alpha0"):
            convolution_rhs(init_field(_cfg()), kern, bad)

    def test_complex_alpha_with_zero_imaginary_part_accepted(self, kernel_and_alpha):
        kern, a0v = kernel_and_alpha
        f = init_field(_cfg(init=InitSpec("random_smooth", amplitude=1.0)), 2)
        got = convolution_rhs(f, kern, complex(a0v, 0.0)).what
        assert np.array_equal(got, convolution_rhs(f, kern, a0v).what)

    def test_large_grid_in_linear_memory(self, kernel_and_alpha):
        # A dense (2N+1)^2 kernel matrix at N=8192 would take about 4 GiB.
        kern, a0v = kernel_and_alpha
        f = init_field(_cfg(dk=0.01, N=8192, init=InitSpec("random_smooth", amplitude=1.0)), 2)
        tracemalloc.start()
        try:
            rhs = convolution_rhs(f, kern, a0v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(rhs.what))
        assert peak < 8 * 2**20


class TestOwnedArrays:
    """`_Rhs` owns its product and band arrays across calls, and `evolve`
    builds one per run: neither may carry a value from one call or run to
    the next."""

    @pytest.mark.parametrize("N", [64, 300, 1024])
    def test_one_rhs_on_two_fields_matches_fresh_calls(self, kernel_and_alpha, N):
        kern, a0v = kernel_and_alpha
        cfg = _cfg(dk=0.05, N=N, init=InitSpec("random_smooth", amplitude=1.0))
        fields = [init_field(cfg, seed) for seed in (1, 2)]
        fields[1].what[N] = 0.3
        fresh = [convolution_rhs(f, kern, a0v).what for f in fields]
        rhs = _Rhs(N, cfg.dk, kern, a0v)
        for f, want in zip(fields + fields, fresh + fresh):
            assert np.array_equal(rhs(f.what[N:]), want[N:])
        assert not np.array_equal(fresh[0], fresh[1])

    def test_reruns_and_other_grids_between_keep_the_bits(self, kernel_and_alpha):
        kern, a0v = kernel_and_alpha

        def run(N):
            init = InitSpec("random_smooth", amplitude=0.01)
            cfg = _cfg(dk=0.05, N=N, T=0.05, init=init, output_every=1, snapshots=True)
            return evolve(kern, a0v, cfg, default_seed=4)

        first, again, _, last = (run(N) for N in (1024, 1024, 300, 1024))
        assert first.steps_accepted > 1
        for res in (again, last):
            assert np.array_equal(res.field.what, first.field.what)
            assert res.diagnostics == first.diagnostics
            assert [t for t, _ in res.snapshots] == [t for t, _ in first.snapshots]
            for (_, got), (_, want) in zip(res.snapshots, first.snapshots, strict=True):
                assert np.array_equal(got, want)


class TestEnergy:
    """The Hdot^{-1/2} energy E = dk sum_{k != 0} |what_k|^2/|k| is an exact
    invariant of the truncated system: dE/dtau = 2 dk sum_{k != 0}
    Re(conj(what_k) rhs_k)/|k| vanishes to round-off for any field."""

    @pytest.mark.parametrize("mean", [0.0, 0.3])
    @pytest.mark.parametrize(
        "seed, N",
        [pytest.param(s, 200, id=str(s)) for s in range(6)]
        + [pytest.param(s, 1024, id=f"{s}-N1024") for s in range(6)],
    )
    def test_rhs_conserves_energy(self, shipped_kernel_and_alpha, seed, N, mean):
        kern, a0v = shipped_kernel_and_alpha
        f = init_field(_cfg(N=N, init=InitSpec("random_smooth", amplitude=1.0)), seed)
        f.what[f.N] = mean
        rhs = convolution_rhs(f, kern, a0v).what
        k = np.abs(f.wavenumbers())
        k[f.N] = np.inf
        rate = np.sum(np.real(np.conj(f.what) * rhs) / k)
        scale = np.sum(np.abs(f.what) * np.abs(rhs) / k)
        assert scale > 0.0
        assert abs(rate) <= 1e-14 * scale

    def test_energy_formula(self):
        f = init_field(_cfg(N=16, init=InitSpec("random_smooth", amplitude=1.0)), 8)
        f.what[f.N] = 5.0
        ref = math.fsum(
            abs(w) ** 2 / abs(kn) * f.dk for kn, w in zip(f.wavenumbers(), f.what) if kn != 0.0
        )
        assert f.energy() == pytest.approx(ref, rel=1e-14)

    def test_evolve_reports_energy(self, kernel_and_alpha):
        kern, a0v = kernel_and_alpha
        cfg = _cfg(N=64, T=0.5, init=InitSpec("gaussian_bump", amplitude=0.5, k0=1.0, width=0.5))
        res = evolve(kern, a0v, cfg)
        energies = [row.energy for row in res.diagnostics]
        l2s = [row.l2 for row in res.diagnostics]
        assert energies[-1] == res.field.energy()
        # Only the RK4 time-step error moves E (measured 4.9e-16); l2 is not
        # an invariant and moves by 3e-3 over the same run.
        assert max(abs(e - energies[0]) for e in energies) <= 1e-12 * energies[0]
        assert max(abs(v - l2s[0]) for v in l2s) > 1e-4 * l2s[0]

    @pytest.mark.parametrize("N", [64, 300])
    def test_last_row_reads_the_returned_field(self, kernel_and_alpha, N):
        # The rows and the field's own norms read the same half spectrum
        # with the same weights, so they agree bit for bit.
        kern, a0v = kernel_and_alpha
        cfg = _cfg(N=N, T=0.2, init=InitSpec("gaussian_bump", amplitude=0.5, k0=1.0, width=1.0))
        res = evolve(kern, a0v, cfg)
        f, last = res.field, res.diagnostics[-1]
        assert f.mean() != 0.0
        assert (last.mean, last.l2, last.h2, last.max_abs, last.energy) == (
            f.mean(), f.l2(), f.h2(), f.max_abs(), f.energy()
        )

    def test_energy_drift_fourth_order(self, kernel_and_alpha):
        # The truncated system conserves E, so under fixed-step RK4 only the
        # time-step error moves it: halving dt divides the drift by about 2^4
        # (measured 1.0e-11 -> 6.0e-13 to tau=4, ratio 16.7), even though this
        # bump is under-resolved by then and l2 grows by 70%.
        kern, a0v = kernel_and_alpha
        bump = InitSpec("gaussian_bump", amplitude=0.5, k0=1.0, width=1.0)
        drift = {}
        for dt in (0.01, 0.005):
            cfg = SimConfig(dk=0.1, N=128, dt=dt, T=4.0, init=bump, output_every=round(0.1 / dt))
            rows = _fixed_rk4_rows(kern, a0v, cfg)
            # No row meets `evolve`'s breaking test.
            assert all(f.h2() <= _BLOWUP_FACTOR * rows[0].h2() for f in rows)
            energies = [f.energy() for f in rows]
            drift[dt] = max(abs(e - energies[0]) for e in energies)
        assert 12.8 <= drift[0.01] / drift[0.005] <= 19.2


class TestRk4:
    def test_zero_dt_identity(self, kernel_and_alpha):
        kern, a0v = kernel_and_alpha
        f = init_field(_cfg())
        out = rk4_step(f, kern, a0v, 0.0)
        assert np.array_equal(out.what, f.what)

    def test_zero_field_fixed_point(self, kernel_and_alpha):
        kern, a0v = kernel_and_alpha
        f = SpectralField(0.1, np.zeros(65, dtype=complex))
        out = rk4_step(f, kern, a0v, 0.05)
        assert np.all(out.what == 0.0)

    def test_one_step_run_is_rk4_step(self, kernel_and_alpha):
        # T = dt: the first trial step, accepted, ends at T, and the field
        # and the last row are that step's state.
        kern, a0v = kernel_and_alpha
        cfg = _cfg(
            N=48, dt=0.02, T=0.02, init=InitSpec("random_smooth", amplitude=0.5), output_every=1
        )
        f = rk4_step(init_field(cfg, 6), kern, a0v, cfg.dt)
        res = evolve(kern, a0v, cfg, default_seed=6)
        assert (res.steps_accepted, res.steps_rejected) == (1, 0)
        assert np.array_equal(res.field.what, f.what)
        assert res.diagnostics[-1].h2 == f.h2()

    @pytest.mark.parametrize("N", [8, 1024])
    def test_h2_matches_exact_sum(self, N):
        f = init_field(_cfg(dk=0.05, N=N, init=InitSpec("gaussian_bump", amplitude=0.7, k0=1.0, width=0.5)))
        ref = math.fsum(kn**4 * abs(w) ** 2 * f.dk for kn, w in zip(f.wavenumbers(), f.what))
        assert abs(f.h2() - ref) <= 1e-14 * ref

    def test_self_convergence_fourth_order(self, kernel_and_alpha):
        kern, a0v = kernel_and_alpha
        sols = {}
        for dt in (0.02, 0.01, 0.005):
            cfg = SimConfig(
                dk=0.1,
                N=64,
                dt=dt,
                T=1.0,
                init=InitSpec("gaussian_bump", amplitude=0.5, k0=1.0, width=0.5),
                output_every=10**9,
            )
            sols[dt] = _fixed_rk4_rows(kern, a0v, cfg)[-1].what
        e_coarse = np.linalg.norm(sols[0.02] - sols[0.01])
        e_fine = np.linalg.norm(sols[0.01] - sols[0.005])
        ratio = e_coarse / e_fine
        assert 12.8 <= ratio <= 19.2


class TestStepControl:
    """`evolve` against its fixed-step reference, `rk4_step` iterated at
    dt/8: the final field and each row's spectrum (its snapshot) relative to
    max|what|, and every diagnostics row (the `diag.csv` rows) relative to
    each value.  The mean is conserved exactly by both, so its cells agree
    bit for bit.  A row inside a step is the step's Hermite interpolant, so
    its spectrum also carries the interpolant's error."""

    @staticmethod
    def _compare(kern, a0v, cfg, seed, field_bound, row_bounds, spectrum_bound):
        res = evolve(kern, a0v, dataclasses.replace(cfg, snapshots=True), default_seed=seed)
        rows = _fixed_rk4_rows(kern, a0v, cfg, seed, refine=8)
        assert res.breaking_tau is None
        n_steps = round(cfg.T / cfg.dt)
        marks = [*range(0, n_steps, cfg.output_every), n_steps]
        assert [r.tau for r in res.diagnostics] == [n * cfg.dt for n in marks]
        ref = rows[-1].what
        assert np.max(np.abs(res.field.what - ref)) <= field_bound * np.max(np.abs(ref))
        for row, (tau, what), f in zip(res.diagnostics, res.snapshots, rows, strict=True):
            assert np.max(np.abs(what - f.what)) <= spectrum_bound * np.max(np.abs(f.what))
            assert row.mean == f.mean()
            for key, bound in row_bounds.items():
                got, want = getattr(row, key), getattr(f, key)()
                assert abs(got - want) <= bound * abs(want)
        return res

    # Measured on the vdW copies: field 2.6e-15, rows 5.1e-14 (l2, h2 and
    # energy; fixed RK4 at dt itself reads 2.8e-15 and 5.2e-14), spectra
    # 2.5e-14.  The fixture_a copies take steps near 0.5 with estimates up
    # to 1.6e-11, and 9 of their 10 later rows lie inside a step: field
    # 2.0e-13, rows l2 1.2e-13, h2 4.2e-13, max_abs 1.9e-14 and energy
    # 8.4e-14, spectra 7.2e-12 (rows near tau = 1).
    @pytest.mark.parametrize("copy", list(SHIPPED))
    def test_copy_table_matches_fixed_rk4(self, copy):
        cfg = shipped_config(copy)
        kern = build_kernel(find_root(build_boundary(cfg), np.asarray(cfg["eta_t"], dtype=float)))
        if copy.startswith("vdw"):
            field_bound, bound, spectrum_bound = 1e-14, 1e-13, 1e-13
        else:
            field_bound, bound, spectrum_bound = _STEP_TOL / 100, _STEP_TOL / 100, _STEP_TOL / 4
        bounds = dict.fromkeys(("l2", "h2", "max_abs", "energy"), bound)
        sim = sim_config(cfg)
        self._compare(kern, kern.constants.alpha0, sim, cfg["seed"], field_bound, bounds, spectrum_bound)

    def test_steepening_bump_matches_fixed_rk4(self, kernel_and_alpha):
        # Measured: field 3.7e-10 (fixed RK4 at dt: 6.6e-10); rows l2 3.2e-11,
        # h2 4.3e-8, max_abs 1.3e-12, energy 1.6e-12 (fixed RK4 at dt: 2.7e-11,
        # 1.7e-8, 4.7e-13, 1.4e-12); spectra up to the field's, growing with
        # tau.  The tolerance is per step and relative to max|what|, so the
        # field and the high modes that h2 weights by k^4 pass it over 170
        # steps.
        kern, a0v = kernel_and_alpha
        bump = InitSpec("gaussian_bump", amplitude=0.5, k0=1.0, width=1.0)
        cfg = SimConfig(dk=0.1, N=512, dt=0.01, T=2.0, init=bump, output_every=10)
        tol = _STEP_TOL
        bounds = {"l2": tol, "h2": 1000 * tol, "max_abs": tol / 10, "energy": tol / 10}
        res = self._compare(kern, a0v, cfg, 0, 10 * tol, bounds, 10 * tol)
        # Fixed RK4 at dt takes 800 RHS calls.
        assert (res.rhs_calls, res.steps_accepted, res.steps_rejected) == (681, 170, 0)

    def test_rows_cost_no_steps(self, kernel_and_alpha):
        # The bump above: a row every dt, every 10 dt or every 20 dt leaves
        # the steps alone (937, 733 and 709 calls while rows clipped steps).
        kern, a0v = kernel_and_alpha
        bump = InitSpec("gaussian_bump", amplitude=0.5, k0=1.0, width=1.0)
        counts = set()
        for every in (1, 10, 20):
            cfg = SimConfig(dk=0.1, N=512, dt=0.01, T=2.0, init=bump, output_every=every)
            res = evolve(kern, a0v, cfg)
            assert len(res.diagnostics) == 200 // every + 1
            counts.add((res.rhs_calls, res.steps_accepted, res.steps_rejected))
        assert counts == {(681, 170, 0)}

    # Measured: 3.5e-11, 3.2e-10 and 1.7e-9 in 685, 801 and 2065 RHS calls
    # (673 at mean 0).  With max|what| over every mode as the error scale,
    # the mean loosened the steps: 3.5e-11, 2.5e-9 and 8.1e-8 in 685, 509
    # and 737 calls.
    @pytest.mark.parametrize("mean, bound", [(0.3, 1e-10), (3.0, 1e-9), (30.0, 5e-9)])
    def test_mean_mode_is_a_translation(self, kernel_and_alpha, monkeypatch, mean, bound):
        """No step moves the mean mode, so its axis term is linear with a
        constant coefficient: what_n(tau) = exp(-i n c tau) v_n(tau), with v
        the mean-0 solution and c = 2 Re(Q_nat) what_0 dk^2/(4 pi alpha0) in
        index units.  The bump above with its mean set, against the rotated
        mean-0 run at T, relative to max|v_n| over n >= 1."""
        kern, a0v = kernel_and_alpha
        bump = InitSpec("gaussian_bump", amplitude=0.5, k0=1.0, width=1.0)
        cfg = SimConfig(dk=0.1, N=512, dt=0.01, T=2.0, init=bump, output_every=10**9)
        N = cfg.N

        def at_mean(m):
            def init(config, default_seed=0):
                field = init_field(config, default_seed)
                field.what[N] = m
                return field

            monkeypatch.setattr(simulate, "init_field", init)
            return evolve(kern, a0v, cfg).field.what[N:]

        v, w = at_mean(0.0), at_mean(mean)
        c = 2.0 * kern.constants.Q_nat.real * mean * cfg.dk**2 / (4.0 * math.pi * a0v)
        rotated = np.exp(-1j * np.arange(N + 1) * c * cfg.T) * v
        assert w[0] == mean
        assert np.max(np.abs(w[1:] - rotated[1:])) <= bound * np.max(np.abs(v[1:]))

    # (RHS calls, accepted and rejected steps) and each row's steps.
    SHIPPED_WORK = {
        "fixture_a": ((21, 5, 0), [0, 3, 2, 1, 1, 1, 1, 1, 2, 1, 1]),
        "vdw": ((17, 4, 0), [0, 3, 1, 1, 2, 1, 1, 1, 1, 1, 1]),
    }

    @pytest.mark.parametrize("name, fixed_calls", [("fixture_a", 800), ("vdw", 400)])
    def test_shipped_runs_count_their_work(self, name, fixed_calls):
        # The steps grow from dt by the controller's factor of at most 5 and
        # pass the rows; only T ends one.  One RHS call starts the run, and
        # each step makes four: k2, k3, k4 and the next step's k1.  A row
        # counts every step that meets its interval, so a step across a row
        # counts in both rows.
        cfg = load_config(CONFIGS / f"{name}.json")
        kern = build_kernel(find_root(build_boundary(cfg), np.asarray(cfg["eta_t"], dtype=float)))
        res = evolve(kern, kern.constants.alpha0, sim_config(cfg), default_seed=cfg["seed"])
        work, steps = self.SHIPPED_WORK[name]
        assert (res.rhs_calls, res.steps_accepted, res.steps_rejected) == work
        assert res.rhs_calls <= fixed_calls / 8
        assert [r.steps for r in res.diagnostics] == steps
        assert res.diagnostics[0].step_err == 0.0
        assert 0.0 < max(r.step_err for r in res.diagnostics) <= simulate._STEP_TOL

    @pytest.mark.parametrize("seed", [0, 21])
    def test_a_row_every_step_costs_one_call_per_run(self, kernel_and_alpha, seed):
        # The library benchmark's runs on fixture_a: N = 1024 with a row at
        # every step of dt and dt/2 to tau = 0.02, against 8 and 16 calls at
        # fixed steps.  Both take two steps, the first of dt and the second
        # to T: the rows at dt/2 spacing cost nothing (the second run took 17
        # calls while rows clipped steps).
        kern, a0v = kernel_and_alpha
        calls = []
        for dt in (0.01, 0.005):
            init = InitSpec("random_smooth", amplitude=0.01)
            sim = SimConfig(dk=0.05, N=1024, dt=dt, T=0.02, init=init, output_every=1)
            res = evolve(kern, a0v, sim, default_seed=seed)
            assert res.steps_rejected == 0
            calls.append(res.rhs_calls)
        assert calls == [9, 9]

    @pytest.mark.parametrize(
        "T, dt, every, counts",
        [
            (1.005, 0.01, 20, [0, 20, 40, 60, 80, 100]),
            (0.004, 0.01, 1, [0]),
            (0.016, 0.01, 1, [0, 1]),
            (1.1, 0.1, 1, list(range(11))),
            # T/dt rounds an ulp above 3: the row at 3 dt, an ulp below T,
            # stays beside the row at T.
            (math.nextafter(3 * 0.1, 1.0), 0.1, 1, [0, 1, 2, 3]),
        ],
    )
    def test_last_row_is_at_T(self, kernel_and_alpha, T, dt, every, counts):
        # T need not be a whole number of dt: the rows below T sit at m * dt
        # and the last at T itself.  Ending at round(T/dt) * dt instead would
        # stop the first three runs at 1.0, 0.01 and 0.02.
        kern, a0v = kernel_and_alpha
        res = evolve(kern, a0v, _cfg(T=T, dt=dt, output_every=every))
        assert res.breaking_tau is None and res.steps_rejected == 0
        taus = [r.tau for r in res.diagnostics]
        assert taus == [m * dt for m in counts] + [T]
        assert max(taus) == T

    def test_short_last_interval_is_one_rk4_step(self, kernel_and_alpha):
        # T = 0.016 at dt = 0.01: a step of dt, then one of T - dt, which
        # ends at T exactly; the row at dt is the first step's state.
        kern, a0v = kernel_and_alpha
        cfg = _cfg(T=0.016, output_every=1)
        res = evolve(kern, a0v, cfg)
        assert [r.steps for r in res.diagnostics] == [0, 1, 1]
        first = rk4_step(init_field(cfg), kern, a0v, 0.01)
        ref = rk4_step(first, kern, a0v, 0.016 - 0.01)
        assert np.array_equal(res.field.what, ref.what)
        assert res.diagnostics[1].h2 == first.h2()

    def test_zero_tolerance_stops_as_breaking(self, kernel_and_alpha, monkeypatch):
        # Every step is rejected, so the step shrinks below its floor, where
        # T + h == T, and the run stops where it stands instead of looping.
        # (A floor of t + h == t never fires at t = 0.)
        kern, a0v = kernel_and_alpha
        monkeypatch.setattr(simulate, "_STEP_TOL", 0.0)
        res = evolve(kern, a0v, _cfg())
        assert res.breaking_tau == 0.0
        assert res.steps_accepted == 0 and res.steps_rejected > 0
        assert res.rhs_calls == 1 + 4 * res.steps_rejected
        assert [r.tau for r in res.diagnostics] == [0.0]

    def test_too_many_rows_refused(self):
        # dt = 1e-300 asks for 5e298 rows (one every 10 dt) to T = 0.5; at
        # most 10**6 are written, and output_every thins them.
        with pytest.raises(ParameterError, match=re.escape("T=0.5, dt=1e-300 and output_every=10")):
            _cfg(dt=1e-300)
        with pytest.raises(ParameterError, match="diagnostics rows"):
            _cfg(T=math.inf)
        assert _cfg(T=1e4, output_every=1).T == 1e4
        assert _cfg(T=1e4 + 0.01, output_every=2).T == 1e4 + 0.01
        with pytest.raises(ParameterError, match=re.escape("1e+06 diagnostics rows")):
            _cfg(T=1e4 + 0.01, output_every=1)

    @pytest.mark.parametrize("err", [math.inf, math.nan])
    def test_nonfinite_estimate_gives_the_smallest_factor(self, err):
        assert simulate._step_factor(err) == 0.2

    def test_zero_field_takes_no_rejected_step(self, kernel_and_alpha):
        kern, a0v = kernel_and_alpha
        res = evolve(kern, a0v, _cfg(init=InitSpec("single_mode", amplitude=0.0, k0=1.0)))
        assert res.breaking_tau is None and res.steps_rejected == 0
        assert np.all(res.field.what == 0.0)
        assert all(r.step_err == 0.0 for r in res.diagnostics)


class TestHermite:
    """`_hermite`, the cubic through a step's two states with its two
    slopes, written as w0 plus corrections."""

    @staticmethod
    def _cubic(seed=4, n=9):
        rng = np.random.default_rng(seed)
        a, b, c, d = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))

        def w(t):
            return a + t * (b + t * (c + t * d))

        def dw(t):
            return b + t * (2.0 * c + t * 3.0 * d)

        return w, dw

    @pytest.mark.parametrize("theta", [0.1, 0.25, 0.5, 0.8, 0.97])
    def test_reproduces_a_cubic(self, theta):
        w, dw = self._cubic()
        t, h = 0.3, 0.7
        got = _hermite(w(t), dw(t), w(t + h), dw(t + h), h, theta)
        want = w(t + theta * h)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_ends(self):
        # theta = 0 is w0 bit for bit; theta = 1 is w0 + (w1 - w0), which
        # need not round to w1, so a row at a step's end takes the state.
        w, dw = self._cubic()
        t, h = 0.3, 0.7
        w0, w1 = w(t), w(t + h)
        assert np.array_equal(_hermite(w0, dw(t), w1, dw(t + h), h, 0.0), w0)
        end = _hermite(w0, dw(t), w1, dw(t + h), h, 1.0)
        assert np.max(np.abs(end - w1)) <= 4 * np.finfo(float).eps * np.max(np.abs(w1))

    @pytest.mark.parametrize("theta", [0.1, 1 / 3, 0.5, 0.9])
    def test_still_entry_is_exact(self, theta):
        # The mean mode: its increment and both slopes are exactly zero.
        w, dw = self._cubic()
        w0, w1, k1, k5 = w(0.0), w(0.5), dw(0.0), dw(0.5)
        w0[0] = w1[0] = 0.1 + 0.3j
        k1[0] = k5[0] = 0.0
        assert _hermite(w0, k1, w1, k5, 0.5, theta)[0] == 0.1 + 0.3j


class TestRunSimulation:
    def test_pipeline_diagnostics(self, pb_a):
        kern = build_kernel(find_root(pb_a, np.array([1.0])))
        res = evolve(kern, kern.constants.alpha0, _cfg(T=0.2, output_every=5))
        assert res.breaking_tau is None
        assert res.diagnostics[0].tau == 0.0
        assert res.diagnostics[-1].tau == pytest.approx(0.2)
        d0, dend = res.diagnostics[0], res.diagnostics[-1]
        assert abs(dend.mean - d0.mean) <= 1e-12 * max(1.0, abs(d0.mean))
        assert res.field.hermitian_deviation() <= 1e-13

    def test_mean_conserved_many_steps(self, kernel_and_alpha):
        kern, a0v = kernel_and_alpha
        cfg = SimConfig(
            dk=0.1,
            N=32,
            dt=0.002,
            T=1.0,
            init=InitSpec("gaussian_bump", amplitude=0.1, k0=1.0, width=0.5),
            output_every=100,
        )
        res = evolve(kern, a0v, cfg)
        means = [row.mean for row in res.diagnostics]
        assert max(abs(m - means[0]) for m in means) <= 1e-12 * max(1.0, abs(means[0]))

    def test_small_amplitude_long_run_stays_bounded(self, kernel_and_alpha):
        kern, a0v = kernel_and_alpha
        cfg = SimConfig(
            dk=0.1,
            N=32,
            dt=0.05,
            T=10.0,
            init=InitSpec("gaussian_bump", amplitude=1e-3, k0=1.0, width=0.5),
            output_every=20,
        )
        res = evolve(kern, a0v, cfg)
        assert res.breaking_tau is None
        h2s = [row.h2 for row in res.diagnostics]
        assert max(h2s) <= 10.0 * h2s[0]

    def test_grid_refinement_consistency(self, kernel_and_alpha):
        kern, a0v = kernel_and_alpha
        init = InitSpec("gaussian_bump", amplitude=1e-3, k0=1.0, width=0.5)
        coarse = evolve(kern, a0v, SimConfig(dk=0.1, N=64, dt=0.01, T=1.0, init=init, output_every=10**9))
        fine = evolve(kern, a0v, SimConfig(dk=0.05, N=128, dt=0.01, T=1.0, init=init, output_every=10**9))
        l2c = coarse.diagnostics[-1].l2
        l2f = fine.diagnostics[-1].l2
        assert abs(l2c - l2f) / l2f < 0.01

    def test_blowup_detection_threshold(self, kernel_and_alpha):
        # A bump that steepens: at N = 512 the H2 proxy first exceeds 1e6
        # times its initial value within the row interval (3.38, 3.39], at
        # the accepted step that ends at tau = 3.3827772 (3.3825941 while
        # rows clipped steps; fixed dt = 0.01 steps stopped at 3.39), where
        # the run stops.  Checks the diagnostic, not the physics: the stop
        # time depends on N.
        kern, a0v = kernel_and_alpha
        cfg = SimConfig(
            dk=0.1,
            N=512,
            dt=0.01,
            T=8.0,
            init=InitSpec("gaussian_bump", amplitude=0.5, k0=1.0, width=1.0),
            output_every=1,
        )
        res = evolve(kern, a0v, cfg)
        assert 3.38 < res.breaking_tau <= 3.39
        assert res.breaking_tau == pytest.approx(3.3827772301, rel=0, abs=1e-9)
        h2 = [row.h2 for row in res.diagnostics]
        assert max(h2[:-1]) <= 1e6 * h2[0] < h2[-1]
        assert np.all(np.isfinite(res.field.what))

    def test_nonfinite_detected_as_breaking(self, kernel_and_alpha):
        # The first step overflows, so the stop is the finiteness test, not H2;
        # the overflow raises no RuntimeWarning.
        kern, a0v = kernel_and_alpha
        cfg = SimConfig(
            dk=0.1,
            N=32,
            dt=0.05,
            T=1.0,
            init=InitSpec("single_mode", amplitude=1e160, k0=1.0),
            output_every=1,
        )
        res = evolve(kern, a0v, cfg)
        assert res.breaking_tau == 0.05
        assert not np.all(np.isfinite(res.field.what))

    def test_evolve_keeps_exact_hermitian_symmetry(self, kernel_and_alpha):
        kern, a0v = kernel_and_alpha
        cfg = _cfg(N=64, T=1.0, init=InitSpec("random_smooth", amplitude=0.5))
        res = evolve(kern, a0v, cfg, default_seed=9)
        assert np.all(np.isfinite(res.field.what))
        assert res.field.hermitian_deviation() == 0.0

    def test_physical_reconstruction_matches_direct_sum(self):
        f = init_field(_cfg(N=32, init=InitSpec("random_smooth", amplitude=1.0)), 4)
        x, w = physical_reconstruction(f)
        direct = np.real(np.exp(1j * np.outer(x, f.wavenumbers())) @ f.what) * f.dk
        # Both routes carry round-off only; 1e-13 of the peak allows for the
        # direct sum's own error over 2N+1 terms.
        assert np.max(np.abs(w - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_physical_reconstruction_real(self, kernel_and_alpha):
        f = init_field(_cfg(init=InitSpec("gaussian_bump", amplitude=0.2, k0=1.0, width=0.4)))
        x, w = physical_reconstruction(f)
        assert x.size == w.size == f.what.size
        assert np.all(np.isfinite(w))
        # Direct transform at x=0 equals the full spectral sum.
        assert w[f.N] == pytest.approx(float(np.real(np.sum(f.what))) * f.dk, rel=1e-12)


class _MixedWeightMutant(_Rhs):
    """A test-only copy of `_Rhs` (direct products over every mode, on the
    same weights) with the mixed-region weight j/(n+j) in place of n/(n+j):
    it breaks the kernel's symmetry and nothing else."""

    def __call__(self, half):
        inv_m, w_conv, w_mixed, w_axis = self.weights
        p = half.copy()
        p[0] = 0.0
        v = p * inv_m
        conv = np.convolve(p, p)[: p.size]
        corr = np.correlate(v, np.arange(p.size) * p, "full")[p.size - 1 :]
        rhs = w_conv * conv + (w_mixed * inv_m) * corr + (half[0] * w_axis) * p
        rhs[0] = 0.0
        return rhs


def _perturbation_rate(right_side, kernel, K: int, tau: float = 0.5, steps: int = 100) -> float:
    """log(|delta(tau)|/|delta(0)|)/tau for a 1e-10 perturbation at mode K of
    the background p_1 = 0.5, on dk = 1 with N = 4K, both evolved by RK4
    with the right side that the class `right_side` builds for that grid."""
    N = 4 * K
    rhs = right_side(N, 1.0, kernel, kernel.constants.alpha0)
    base = np.zeros(N + 1, dtype=complex)
    base[1] = 0.5
    pert = base.copy()
    pert[K] += 1e-10
    dt = tau / steps

    def rk4(h):
        k1 = rhs(h)
        k2 = rhs(h + 0.5 * dt * k1)
        k3 = rhs(h + 0.5 * dt * k2)
        k4 = rhs(h + dt * k3)
        return h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    for _ in range(steps):
        base, pert = rk4(base), rk4(pert)
    return float(np.log(np.linalg.norm(pert - base) / 1e-10) / tau)


class TestHadamardContrast:
    """The paper's well-posedness rests on the kernel's symmetry: without it,
    high frequencies grow at a rate proportional to |k| (Benzoni-Gavage,
    Coulombel & Tzvetkov, Adv. Math. 227, 2011).  On the shipped right side a
    high-mode perturbation's rate stays flat as its mode K doubles; with the
    mixed weight mutated it grows with K."""

    # Measured with 100 RK4 steps to tau = 0.5, at K = 16, 32, 64: shipped
    # fixture_a 0.01891, 0.01931, 0.01952 and vdw 1.675e-6, 1.710e-6,
    # 1.728e-6 (3.2% growth over two doublings on both); mutated fixture_a
    # 0.747, 2.26, 5.77 (2.5-3.0x per doubling) and vdw 7.54e-5, 2.99e-4,
    # 1.19e-3 (4.0x).  At K = 128 the rates are 0.01962 and 13.2 on fixture_a.
    SHIPPED_BOUND = {"fixture_a": 0.02, "vdw": 1.8e-6}

    @pytest.mark.parametrize("name", ["fixture_a", "vdw"])
    def test_only_the_mutated_weight_grows_with_the_mode(self, name):
        cfg = load_config(CONFIGS / f"{name}.json")
        kernel = build_kernel(find_root(build_boundary(cfg), np.asarray(cfg["eta_t"], dtype=float)))
        modes = (16, 32, 64)
        shipped = [_perturbation_rate(_Rhs, kernel, K) for K in modes]
        mutated = [_perturbation_rate(_MixedWeightMutant, kernel, K) for K in modes]
        assert 0.0 < min(shipped) and max(shipped) <= self.SHIPPED_BOUND[name]
        assert shipped[-1] <= 1.05 * shipped[0]
        assert all(hi >= 2.0 * lo for lo, hi in zip(mutated, mutated[1:]))


def _with_q_nat(kernel, Q_nat) -> Kernel:
    return Kernel(constants=dataclasses.replace(kernel.constants, Q_nat=Q_nat))


class TestPhaseSymmetries:
    """Two exact symmetries of the evolved equation in the kernel constant
    Q_nat: negation, Q_nat -> -Q_nat with what -> -what, and the reflection
    x -> -x, Q_nat -> -conj(Q_nat) with what -> conj(what), which follows
    from q(-k, -k') = conj(q(k, k')).  Where the products are direct (N <=
    256) both hold bit for bit.  Negation commutes with the FFT bands too;
    conjugation does not, and there the reflection holds to round-off: 2.1e-22
    at N = 300 and 1024 and 4.2e-22 for the mirror law at N = 300, with
    max|what| near 0.4, so 1e-18 max|what| bounds it."""

    FFT_BOUND = 1e-18

    @staticmethod
    def _steps(half, rhs, steps=20, dt=0.01):
        for _ in range(steps):
            half = _rk4_stages(half, rhs(half), rhs, dt)[0]
        return half

    @pytest.mark.parametrize("N", [64, 300, 1024])
    def test_negation_is_exact(self, kernel_and_alpha, N):
        kern, a0v = kernel_and_alpha
        half = init_field(_cfg(N=N, init=InitSpec("random_smooth", amplitude=0.5)), 3).what[N:]
        flipped = _with_q_nat(kern, -kern.constants.Q_nat)
        base = self._steps(half, _Rhs(N, 0.1, kern, a0v))
        negated = self._steps(-half, _Rhs(N, 0.1, flipped, a0v))
        assert np.max(np.abs(base)) > 0.1
        assert np.array_equal(negated, -base)

    @pytest.mark.parametrize("N", [64, 300, 1024])
    def test_reflection(self, kernel_and_alpha, N):
        kern, a0v = kernel_and_alpha
        half = init_field(_cfg(N=N, init=InitSpec("random_smooth", amplitude=0.5)), 3).what[N:]
        mirrored = _with_q_nat(kern, -kern.constants.Q_nat.conjugate())
        base = self._steps(half, _Rhs(N, 0.1, kern, a0v))
        reflected = self._steps(np.conj(half), _Rhs(N, 0.1, mirrored, a0v))
        if N <= 256:
            assert np.array_equal(reflected, np.conj(base))
        else:
            gap = np.max(np.abs(reflected - np.conj(base)))
            assert gap <= self.FFT_BOUND * np.max(np.abs(base))

    @pytest.mark.parametrize("N", [256, 300])
    @pytest.mark.parametrize("theta", [math.pi / 4, None, -math.pi / 4, 1.2])
    def test_bump_mirrors_theta_to_pi_minus_theta(self, kernel_and_alpha, N, theta):
        # The bump is real and even, so the reflection leaves it fixed and
        # maps the phase theta of Q_nat to pi - theta; None is fixture_a's.
        # The second kernel is exactly -conj(Q_nat): built from pi - theta,
        # Q_nat rounds differently and misses by 3e-17.
        kern, a0v = kernel_and_alpha
        Q = kern.constants.Q_nat
        if theta is not None:
            Q = abs(Q) * complex(math.cos(theta), math.sin(theta))
        cfg = _cfg(
            N=N,
            T=1.0,
            init=InitSpec("gaussian_bump", amplitude=0.5, k0=1.0, width=1.0),
            output_every=100,
        )
        first = evolve(_with_q_nat(kern, Q), a0v, cfg).field.what
        second = evolve(_with_q_nat(kern, -Q.conjugate()), a0v, cfg).field.what
        if N <= 256:
            assert np.array_equal(second, np.conj(first))
        else:
            gap = np.max(np.abs(second - np.conj(first)))
            assert gap <= self.FFT_BOUND * np.max(np.abs(first))


class TestScalingLaws:
    """Two exact scalings of the evolved equation in Q_nat.  Time: Q_nat ->
    c Q_nat with dt -> dt/c and T -> T/c gives the same field and the same
    l2, h2, energy and mean in every row.  Amplitude: amplitude s A with
    Q_nat -> Q_nat/s gives s times the field.  Both are bitwise for powers
    of two, in the direct block and the FFT bands alike.  Otherwise they
    hold to round-off, measured after 20 RK4 steps at N = 64, 300 and 1024
    on both profiles: the time law to 1.3e-16 (c = 3, 10, 0.1), the
    amplitude law to 9.1e-16 (s = 3, 10), relative to max|what| for the
    field and to each value for the rows."""

    TIME_BOUND = 1e-15
    AMPLITUDE_BOUND = 4e-15

    @staticmethod
    def _run(kern, a0v, Q_nat, N, name, amplitude=0.5, dt=0.01, T=0.2):
        init = InitSpec(name, amplitude=amplitude, k0=1.0, width=1.0)
        cfg = SimConfig(dk=0.1, N=N, dt=dt, T=T, init=init, output_every=5)
        return evolve(_with_q_nat(kern, Q_nat), a0v, cfg, default_seed=3)

    @pytest.mark.parametrize("name", ["gaussian_bump", "random_smooth"])
    @pytest.mark.parametrize("N", [64, 300, 1024])
    def test_time_scaling(self, kernel_and_alpha, N, name):
        kern, a0v = kernel_and_alpha
        Q = kern.constants.Q_nat
        base = self._run(kern, a0v, Q, N, name)
        top = np.max(np.abs(base.field.what))
        for c, bound in ((2.0, 0.0), (4.0, 0.0), (0.5, 0.0), (3.0, self.TIME_BOUND)):
            scaled = self._run(kern, a0v, c * Q, N, name, dt=0.01 / c, T=0.2 / c)
            assert np.max(np.abs(scaled.field.what - base.field.what)) <= bound * top
            assert len(scaled.diagnostics) == len(base.diagnostics) == 5
            for row, ref in zip(scaled.diagnostics, base.diagnostics):
                for key in ("l2", "h2", "energy", "mean"):
                    got, want = getattr(row, key), getattr(ref, key)
                    assert abs(got - want) <= bound * abs(want)

    @pytest.mark.parametrize("name", ["gaussian_bump", "random_smooth"])
    @pytest.mark.parametrize("N", [64, 300, 1024])
    def test_amplitude_scaling(self, kernel_and_alpha, N, name):
        kern, a0v = kernel_and_alpha
        Q = kern.constants.Q_nat
        base = self._run(kern, a0v, Q, N, name).field.what
        top = np.max(np.abs(base))
        assert top > 0.1
        tol = self.AMPLITUDE_BOUND
        for s, bound in ((2.0, 0.0), (0.5, 0.0), (3.0, tol), (10.0, tol)):
            scaled = self._run(kern, a0v, Q / s, N, name, amplitude=0.5 * s).field.what
            assert np.max(np.abs(scaled - s * base)) <= bound * s * top
