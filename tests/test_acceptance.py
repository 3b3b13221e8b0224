"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is fixed here, not computed; the suite runs on one core in
well under a minute.  Run with `pytest tests/test_acceptance.py -v -s` to see
the per-criterion lines.
"""

import json
import time

import numpy as np

from phasewave import (
    Frequency,
    alpha0_abstract,
    alpha0_closed,
    alpha0_fd,
    build_kernel,
    det_closed,
    det_raw,
    elliptic_eta0_max,
    find_root,
    kernel_constants,
    normal_modes,
    q_oracle,
)
from phasewave.kernel import (
    b_identity_values,
    oracle_vs_closed,
    q_grid,
)
from phasewave.lopatinskii import (
    _sigma_minors,
    gamma_alternative_forms,
    gamma_linear_residual,
    lemma4_residuals,
    root_relation_residual,
)
from phasewave.modes import flux_jacobians, tangential_symbol
from phasewave.simulate import (
    InitSpec,
    SimConfig,
    SpectralField,
    convolution_rhs,
    evolve,
    init_field,
    rk4_step,
)

from conftest import fixture_a_boundary, random_boundary, random_frequency


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def _mode_matrices(pb, eta):
    d = pb.d
    mats = {}
    for side, state in (("l", pb.left), ("r", pb.right)):
        A = flux_jacobians(state, d)
        S = tangential_symbol(state, eta)
        mats[side] = (1j * S, A[d - 1])
    return mats


def test_criterion_1_mode_structure():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    max_eig = max_left = max_disp = max_conj = 0.0
    for i in range(1000):
        pb = random_boundary(rng, d=2 if i % 2 == 0 else 3)
        eta = random_frequency(rng, pb)
        m = normal_modes(pb, eta)
        assert m.a_l < 0.0 < m.a_r
        assert m.beta_minus[0].real < 0.0 and m.beta_minus[1].real < 0.0
        assert m.beta_plus[0].real > 0.0 and m.beta_plus[1].real > 0.0
        mats = _mode_matrices(pb, eta)
        n = pb.d + 1
        for fam, betas, Rs, Ls, sides in (
            ("-", m.beta_minus, m.R_minus, m.L_minus, m.side_minus),
            ("+", m.beta_plus, m.R_plus, m.L_plus, m.side_plus),
        ):
            for j in range(n):
                iS, Ad = mats[sides[j]]
                sgn = -1.0 if sides[j] == "l" else 1.0
                M = iS + sgn * betas[j] * Ad
                blk = slice(0, n) if sides[j] == "l" else slice(n, 2 * n)
                r, l = Rs[j, blk], Ls[j, blk]
                scale = np.linalg.norm(M)
                max_eig = max(max_eig, np.linalg.norm(M @ r) / (np.linalg.norm(r) * scale))
                max_left = max(
                    max_left, np.linalg.norm(np.conj(l) @ M) / (np.linalg.norm(l) * scale)
                )
        for j in (0, 1):
            max_conj = max(max_conj, abs(m.beta_plus[j] + np.conj(m.beta_minus[j])))
        ht2 = eta.ht2
        for beta, state, sgn in (
            (m.beta_minus[0], pb.left, +1.0),
            (m.beta_minus[1], pb.right, -1.0),
            (m.beta_plus[0], pb.left, +1.0),
            (m.beta_plus[1], pb.right, -1.0),
        ):
            val = (
                (state.c2 - state.u**2) * beta**2
                + sgn * 2j * state.u * eta.eta0 * beta
                + eta.eta0**2
                - state.c2 * ht2
            )
            max_disp = max(max_disp, abs(val) / abs(state.c2 * ht2))
    elapsed = time.perf_counter() - t0
    ok = max_eig <= 1e-11 and max_left <= 1e-11 and max_disp <= 1e-12 and max_conj <= 1e-14 and elapsed < 5.0
    _report(
        1,
        ok,
        f"eig {max_eig:.2e} left {max_left:.2e} disp {max_disp:.2e} "
        f"conj {max_conj:.2e} in {elapsed:.2f}s (1000 states)",
    )


def test_criterion_2_lopatinskii_equivalence():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    max_delta = 0.0
    max_sigma = 0.0
    for _ in range(20):
        pb = random_boundary(rng)
        eta_t = random_frequency(rng, pb).eta_t
        e0_max = elliptic_eta0_max(pb, eta_t)
        for e0 in np.linspace(0.02, 0.98, 100) * e0_max:
            eta = Frequency(float(e0), eta_t)
            raw = det_raw(pb, eta)
            closed = det_closed(pb, eta)
            max_delta = max(max_delta, abs(raw - closed) / max(abs(raw), abs(closed)))
        root = find_root(pb, eta_t)
        s_min = _sigma_minors(root.pb, root.modes, root.ops)
        s_cls = root.sigma.sigma_star
        max_sigma = max(max_sigma, float(np.max(np.abs(s_min - s_cls)) / np.max(np.abs(s_cls))))
    elapsed = time.perf_counter() - t0
    ok = max_delta <= 1e-10 and max_sigma <= 1e-10 and elapsed < 5.0
    _report(
        2,
        ok,
        f"raw-vs-closed {max_delta:.2e} sigma {max_sigma:.2e} in {elapsed:.2f}s "
        f"(20 states x 100 points)",
    )


def test_criterion_3_root_and_gamma():
    rng = np.random.default_rng(13)
    roots = [find_root(fixture_a_boundary(), [1.0])]
    for _ in range(20):
        pb = random_boundary(rng)
        roots.append(find_root(pb, random_frequency(rng, pb).eta_t))
    max_delta = max_gamma_lin = max_gamma_forms = max_rootrel = 0.0
    for root in roots:
        slope = alpha0_closed(root).real
        delta = det_closed(root.pb, root.eta)
        max_delta = max(max_delta, abs(delta) / (abs(slope) * root.eta.eta0))
        max_gamma_lin = max(max_gamma_lin, gamma_linear_residual(root))
        h1, h2 = gamma_alternative_forms(root)
        max_gamma_forms = max(
            max_gamma_forms,
            abs(root.gamma1 - h1) / abs(root.gamma1),
            abs(root.gamma2 - h2) / abs(root.gamma2),
        )
        max_rootrel = max(max_rootrel, root_relation_residual(root))
    ok = (
        max_delta <= 1e-12
        and max_gamma_lin <= 1e-10
        and max_gamma_forms <= 1e-12
        and max_rootrel <= 1e-12
    )
    _report(
        3,
        ok,
        f"|Delta| {max_delta:.2e} gamma-linear {max_gamma_lin:.2e} "
        f"gamma-forms {max_gamma_forms:.2e} root-relation {max_rootrel:.2e} (21 roots)",
    )


def test_criterion_4_alpha0_triple_agreement():
    rng = np.random.default_rng(5)
    roots = [find_root(fixture_a_boundary(), [1.0])]
    for _ in range(10):
        pb = random_boundary(rng)
        roots.append(find_root(pb, random_frequency(rng, pb).eta_t))
    max_abs_dev = max_fd_dev = max_imag = 0.0
    for root in roots:
        a_c = alpha0_closed(root)
        a_a = alpha0_abstract(root)
        a_f = alpha0_fd(root)
        max_abs_dev = max(max_abs_dev, abs(a_c - a_a) / abs(a_c))
        max_fd_dev = max(max_fd_dev, abs(a_c - a_f) / abs(a_c))
        max_imag = max(max_imag, abs(a_a.imag) / abs(a_a))
    ok = max_abs_dev <= 1e-10 and max_fd_dev <= 1e-6 and max_imag <= 1e-12
    _report(
        4,
        ok,
        f"closed-vs-abstract {max_abs_dev:.2e} closed-vs-fd {max_fd_dev:.2e} "
        f"imag {max_imag:.2e} (11 roots)",
    )


def test_criterion_5_kernel_oracle_equivalence():
    rng = np.random.default_rng(99)
    roots = [find_root(fixture_a_boundary(), [1.0])]
    for _ in range(10):
        pb = random_boundary(rng)
        roots.append(find_root(pb, random_frequency(rng, pb).eta_t))

    region1 = [(float(k), float(kp)) for k, kp in zip(rng.uniform(0.1, 8, 20), rng.uniform(0.1, 8, 20))]
    region2 = []
    while len(region2) < 20:
        k = float(rng.uniform(0.3, 8.0))
        kp = float(-rng.uniform(0.05, 0.95) * k)
        region2.append((k, kp))

    max_dev = max_const = max_prop = max_lemma4 = max_b = 0.0
    patterns = set()
    for root in roots:
        kern = build_kernel(root)
        kc = kern.constants
        vals1, vals2 = [], []
        for k, kp in region1:
            total = sum(q_oracle(root, k, kp))
            closed = complex(q_grid(kern, k, kp))
            max_dev = max(max_dev, abs(total - closed) / abs(kc.Q_nat))
            vals1.append(total)
        for k, kp in region2:
            total = sum(q_oracle(root, k, kp))
            closed = complex(q_grid(kern, k, kp))
            max_dev = max(max_dev, abs(total - closed) / abs(kc.Q_nat))
            vals2.append(total / (1.0 + kp / k))
        arr1, arr2 = np.array(vals1), np.array(vals2)
        max_const = max(max_const, float(np.max(np.abs(arr1 - arr1[0])) / np.max(np.abs(arr1))))
        max_prop = max(max_prop, float(np.max(np.abs(arr2 - arr2[0])) / np.max(np.abs(arr2))))
        max_lemma4 = max(max_lemma4, float(np.max(lemma4_residuals(root))))
        bl, br = b_identity_values(root)
        max_b = max(max_b, abs(bl + br) / (abs(bl) + abs(br)))
        patterns.add(oracle_vs_closed(root, kc, [(2.0, -1.0)])["q5_conjugation_pattern"])
    ok = (
        max_dev <= 1e-9
        and max_const <= 1e-10
        and max_prop <= 1e-10
        and max_lemma4 <= 1e-10
        and max_b <= 1e-10
    )
    _report(
        5,
        ok,
        f"oracle-vs-closed {max_dev:.2e} constancy {max_const:.2e} "
        f"proportionality {max_prop:.2e} lemma4 {max_lemma4:.2e} B-identity {max_b:.2e}; "
        f"mixed-region q5 follows the {sorted(patterns)} conjugation of Q "
        f"(the unconjugated variant printed for q5 alone does not match the integrals)",
    )


def test_criterion_6_hunter_condition():
    # The abstract kernel pieces, which no closed form enters: their limit
    # toward the axis, and the cyclic symmetry of q(k1, k2)/|k3| on a triad.
    root = find_root(fixture_a_boundary(), [1.0])
    kc = kernel_constants(root)
    eps = 1e-6
    q_pos = sum(q_oracle(root, 1.0, eps))
    q_neg = sum(q_oracle(root, 1.0, -eps))
    lim_dev = max(
        abs(q_pos - kc.Q_nat) / abs(kc.Q_nat),
        abs(q_neg - np.conj(kc.Q_nat)) / abs(kc.Q_nat),
    )
    cyclic = oracle_vs_closed(root, kc, [])["hamiltonian_symmetry"]
    ok = lim_dev <= 1e-4 and cyclic <= 1e-10
    _report(6, ok, f"oracle-limit deviation {lim_dev:.2e} cyclic-symmetry spread {cyclic:.2e}")


def test_criterion_7_simulation_properties():
    t0 = time.perf_counter()
    root = find_root(fixture_a_boundary(), [1.0])
    kc = kernel_constants(root)
    kern = build_kernel(root)
    a0v = kc.alpha0

    # Mean conservation and Hermitian symmetry over 1000 steps at N = 256.
    cfg = SimConfig(
        dk=0.05,
        N=256,
        dt=0.002,
        T=2.0,
        init=InitSpec("gaussian_bump", amplitude=1e-3, k0=1.0, width=0.5),
        output_every=100,
    )
    res = evolve(kern, a0v, cfg)
    means = [row.mean for row in res.diagnostics]
    mean_drift = max(abs(m - means[0]) for m in means)
    herm_dev = res.field.hermitian_deviation()

    # Quadratic homogeneity of the right side.
    f = res.field
    r1 = convolution_rhs(f, kern, a0v).what
    r2 = convolution_rhs(SpectralField(f.dk, 2.0 * f.what), kern, a0v).what
    hom_dev = float(np.max(np.abs(r2 - 4.0 * r1)) / max(np.max(np.abs(4.0 * r1)), 1e-300))

    # Fourth-order self-convergence of the fixed-step reference on a smooth run.
    sols = {}
    for dt in (0.02, 0.01, 0.005):
        c = SimConfig(
            dk=0.1,
            N=64,
            dt=dt,
            T=1.0,
            init=InitSpec("gaussian_bump", amplitude=0.5, k0=1.0, width=0.5),
            output_every=10**9,
        )
        f = init_field(c)
        for _ in range(round(c.T / dt)):
            f = rk4_step(f, kern, a0v, dt)
        sols[dt] = f.what
    ratio = float(
        np.linalg.norm(sols[0.02] - sols[0.01]) / np.linalg.norm(sols[0.01] - sols[0.005])
    )

    # Spectral truncation: double N at fixed span.
    init = InitSpec("gaussian_bump", amplitude=1e-3, k0=1.0, width=0.5)
    coarse = evolve(kern, a0v, SimConfig(dk=0.1, N=64, dt=0.01, T=1.0, init=init, output_every=10**9))
    fine = evolve(kern, a0v, SimConfig(dk=0.05, N=128, dt=0.01, T=1.0, init=init, output_every=10**9))
    refine_dev = abs(coarse.diagnostics[-1].l2 - fine.diagnostics[-1].l2) / fine.diagnostics[-1].l2

    elapsed = time.perf_counter() - t0
    ok = (
        mean_drift <= 1e-12
        and herm_dev <= 1e-13
        and hom_dev <= 1e-13
        and 12.8 <= ratio <= 19.2
        and refine_dev < 0.01
        and elapsed < 30.0
    )
    _report(
        7,
        ok,
        f"mean {mean_drift:.2e} hermitian {herm_dev:.2e} homogeneity {hom_dev:.2e} "
        f"rk4-ratio {ratio:.2f} refinement {refine_dev:.2e} in {elapsed:.1f}s",
    )


def test_criterion_8_determinism(tmp_path):
    from phasewave.cli import main

    cfg = {
        "d": 2,
        "left": {"rho": 1.0, "u": 0.9, "c2": 4.0, "pp": 0.5},
        "right": {"rho": 0.45, "u": 2.0, "c2": 9.0, "pp": 0.5},
        "mu": 1.0,
        "eta_t": [1.0],
        "sim": {
            "dk": 0.1,
            "N": 32,
            "dt": 0.01,
            "T": 0.5,
            "output_every": 10,
            "snapshots": True,
            "init": {"name": "random_smooth", "A": 0.5},
        },
        "seed": 7,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    pairs = []
    for cmd, files in (("coeffs", ["coeffs.json"]), ("simulate", ["diag.csv", "snapshots.csv"])):
        outs = []
        for run in ("x", "y"):
            out = tmp_path / f"{cmd}_{run}"
            assert main([cmd, "--config", str(path), "--out", str(out)]) == 0
            outs.append(out)
        for name in files:
            pairs.append((cmd, name, (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()))
    ok = all(same for _, _, same in pairs)
    detail = ", ".join(f"{cmd}/{name}:{'identical' if same else 'DIFFER'}" for cmd, name, same in pairs)
    _report(8, ok, detail)
