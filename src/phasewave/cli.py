"""Command-line interface: check | scan | root | coeffs | simulate.

A single JSON configuration file drives every subcommand.  Outputs are
written into the output directory with a fixed layout: numbers carry 17
significant digits, complex values are two-element [re, im] arrays, CSV
files are comma-separated with LF line endings.  Identical configuration and
seed produce byte-identical outputs.

The whole configuration is validated once, against the schema in
`phasewave.config`, before any physics runs; the schema requires `eta_t`
of every subcommand, `scan` of `scan` and `sim` of `simulate`.  Exit codes:
0 success; 2 an unreadable file, malformed JSON, a schema problem (an
unknown, missing or mistyped field at any level, `sim` and `sim.init`
included) or a negative --seed; 1 a
physics or value-range failure (a failed invariant, an inadmissible state or
parameter, no surface wave because floating point could not represent the
root, an empty scan interval, a scan determinant that is not finite).  The
seed, the config's `seed` or --seed, fixes only the 'random_smooth' initial
spectrum; `check` judges its mode and determinant rows on one fixed 20-point
grid across the elliptic interval.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .config import ConfigError, boundary_and_eos, build_boundary, load_config, sim_config
from .equilibrium import jump_residuals, mass_flux_residual
from .errors import NoRootError, PhasewaveError
from .kernel import (
    alpha0_residuals,
    b_identity_residual,
    build_kernel,
    final_simplification_residual,
    kernel_constants,
    oracle_vs_closed,
)
from .lopatinskii import (
    dd1_factorization_residual,
    det_closed,
    det_methods_residual,
    det_raw,
    find_root,
    gamma_forms_residual,
    gamma_linear_residual,
    lemma4_residuals,
    root_relation_residual,
    sigma_methods_residual,
    sigma_r3_residual,
)
from .modes import (
    Frequency,
    dispersion_residual,
    elliptic_eta0_max,
    mode_residuals,
    normal_modes,
)
from .simulate import evolve, physical_reconstruction


def _root(cfg: dict):
    """The surface-wave root of the configured boundary."""
    return find_root(build_boundary(cfg), cfg["eta_t"])


# ---------------------------------------------------------------------------
# Deterministic serialization helpers
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        return '"%s"' % repr(float(x))
    return format(x, ".17g")


def _to_json(obj, indent: int = 0) -> str:
    # The reports hold dicts, lists, arrays (written as nested lists), str,
    # bool, float and complex (numpy's float64 and complex128 are subclasses
    # of the last two).  Complex and float values are most of every report,
    # so they are tested first.
    if isinstance(obj, complex):
        return f"[{_fmt(obj.real)}, {_fmt(obj.imag)}]"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    pad = "  " * indent
    if isinstance(obj, dict):
        items = [
            f'{pad}  "{key}": {_to_json(val, indent + 1)}' for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, list):
        items = [f"{pad}  {_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, str)):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _write_json(path: Path, obj) -> None:
    path.write_text(_to_json(obj) + "\n", encoding="utf-8", newline="\n")


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(_fmt, row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# Judged rows: check and coeffs
# ---------------------------------------------------------------------------


def _judge(command: str, path: Path, rows: List[Tuple[str, float, float]], extra: Dict) -> int:
    """Write {pass, invariants, **extra} to path, one invariant per (name,
    residual, tol) row; print the verdict, naming the last failed row (the one
    an early exit appended); return the exit code."""
    invariants = [
        {"name": name, "residual": res, "tol": tol, "pass": bool(res <= tol)}
        for name, res, tol in rows
    ]
    failed = [inv["name"] for inv in invariants if not inv["pass"]]
    _write_json(path, {"pass": not failed, "invariants": invariants, **extra})
    print(f"{command}: FAIL ({failed[-1]})" if failed else f"{command}: PASS")
    return 1 if failed else 0


def cmd_check(cfg: dict, outdir: Path, seed: int) -> int:
    checks: List[Tuple[str, float, float]] = []
    # A step the library refuses (an inadmissible state or a jump condition
    # the states miss, an eta_t that is zero or too large to square, no root
    # or one whose sigma* underflows) ends check with one more, failed row
    # `<stage> (<reason>)`; check.json is still written.
    stage = "phase-boundary"
    try:
        pb, eos = boundary_and_eos(cfg)
        if eos is None:
            checks.append(("mass-flux", mass_flux_residual(pb.left, pb.right), 1e-10))
        else:
            mom, rev = jump_residuals(eos, pb.left.rho, pb.right.rho, pb.j)
            scale = max(1.0, abs(pb.left.p))
            checks.append(("momentum-jump", abs(mom) / scale, 1e-12))
            checks.append(("enthalpy-jump", abs(rev) / scale, 1e-12))

        stage = "eigenvector-residual"
        eta_t = cfg["eta_t"]
        grid = Frequency(np.linspace(0.05, 0.95, 20) * elliptic_eta0_max(pb, eta_t), eta_t)
        # As at the root: a mode that overflows (subnormal velocities) is
        # non-finite, and so is its residual.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            modes = normal_modes(pb, grid)
            right, left = mode_residuals(modes)
            disp = dispersion_residual(modes)
        # np.max keeps a NaN residual, so a non-finite mode fails its row.
        checks.append(("eigenvector-residual", np.max(right), 1e-11))
        checks.append(("left-eigenvector-residual", np.max(left), 1e-11))
        checks.append(("dispersion-residual", np.max(disp), 1e-12))

        stage = "delta-raw-vs-closed"
        checks.append(("delta-raw-vs-closed", np.max(det_methods_residual(pb, grid)), 1e-10))

        stage = "surface-wave-root"
        root = find_root(pb, eta_t)
        root_rows = [
            ("root-relation", root_relation_residual, 1e-12),
            ("gamma-linear-relation", gamma_linear_residual, 1e-10),
            ("gamma-forms", gamma_forms_residual, 1e-12),
            ("sigma-minors-vs-closed", sigma_methods_residual, 1e-10),
            ("lemma4-identities", lambda r: float(np.max(lemma4_residuals(r))), 1e-10),
            ("sigma-r3-relation", sigma_r3_residual, 1e-10),
            ("dd1-factorizations", dd1_factorization_residual, 1e-10),
        ]
        for stage, residual, tol in root_rows:
            checks.append((stage, residual(root), tol))
    except PhasewaveError as exc:
        checks.append((f"{stage} ({exc})", math.inf, 0.0))
        return _judge("check", outdir / "check.json", checks, {})

    debug = {
        "eta0_root": root.eta.eta0,
        "H": root.ops.H,
        "R_minus": root.modes.R_minus,
        "R_plus": root.modes.R_plus,
        "L_minus": root.modes.L_minus,
        "L_plus": root.modes.L_plus,
    }
    return _judge("check", outdir / "check.json", checks, {"debug": debug})


# ---------------------------------------------------------------------------
# scan / root / coeffs / simulate
# ---------------------------------------------------------------------------


def cmd_scan(cfg: dict, outdir: Path, seed: int) -> int:
    pb = build_boundary(cfg)
    eta_t = cfg["eta_t"]
    sc = cfg["scan"]
    e0_max = elliptic_eta0_max(pb, eta_t)
    lo, hi = float(sc["eta0_min"]), float(sc["eta0_max"])
    if not (0.0 <= lo < hi < e0_max):
        print(f"scan: range [{lo}, {hi}] not inside the elliptic interval [0, {e0_max})")
        return 1
    grid = np.linspace(lo, hi, sc["steps"])
    eta = Frequency(grid, eta_t)
    # A determinant that overflows (a huge eta_t) or divides by zero in its
    # LU (subnormal velocities) is written as it is, and then fails the scan.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        raw, closed = det_raw(pb, eta), det_closed(pb, eta)
    table = np.column_stack([grid, raw.real, raw.imag, closed.real, closed.imag])
    _write_csv(
        outdir / "scan.csv",
        ["eta0", "re_delta_raw", "im_delta_raw", "re_delta_closed", "im_delta_closed"],
        table.tolist(),
    )
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        print(f"scan: determinant not finite at eta0 = {_fmt(grid[bad[0]])}")
        return 1
    # det_closed is the root factor times -[rho][u] Upsilon (eta0^2 + u_r^2
    # |eta_t|^2), of one sign on the grid (both routes refuse eta0 = 0 at
    # d >= 3), and a product's sign bit is the XOR of its factors' even when
    # it underflows: det_closed changes sign where the root factor does.
    negative = np.signbit(closed.real)
    changes = np.flatnonzero(negative[1:] != negative[:-1])
    if changes.size:
        change = changes[0] + 1
        lo, hi = _fmt(grid[change - 1]), _fmt(grid[change])
        print(f"scan: root function changes sign in [{lo}, {hi}]")
    else:
        print("scan: no sign change of the root function in the scanned range")
    return 0


def cmd_root(cfg: dict, outdir: Path, seed: int) -> int:
    root = _root(cfg)
    report = {
        "eta0": root.eta.eta0,
        "upsilon": root.modes.frame.upsilon,
        "sigma_star": root.sigma.sigma_star,
        "gamma1": root.gamma1,
        "gamma2": root.gamma2,
    }
    _write_json(outdir / "root.json", report)
    print(f"root: eta0 = {_fmt(root.eta.eta0)}")
    return 0


def cmd_coeffs(cfg: dict, outdir: Path, seed: int) -> int:
    root = _root(cfg)
    samples = [(1.0, 2.0), (3.0, 5.0), (10.0, 0.1), (2.0, -1.0), (3.0, -1.0), (5.0, -4.0)]
    stage = "kernel-constants"
    try:
        kc = kernel_constants(root)
        stage = "alpha0-residuals"
        imag, vs_abstract, vs_fd = alpha0_residuals(root, kc.alpha0)
        stage = "oracle-vs-closed"
        rep = oracle_vs_closed(root, kc, samples)
    except PhasewaveError as exc:  # a failed row, as in check, not a traceback
        return _judge("coeffs", outdir / "coeffs.json", [(f"{stage} ({exc})", math.inf, 0.0)], {})
    rows = [
        ("alpha0-imag", imag, 1e-12),
        ("alpha0-closed-vs-abstract", vs_abstract, 1e-10),
        ("alpha0-closed-vs-fd", vs_fd, 1e-6),
        ("final-simplification", final_simplification_residual(kc, root), 1e-10),
        ("b-identity", b_identity_residual(root), 1e-10),
        ("oracle-vs-closed", rep["max_relative_deviation"], 1e-9),
        ("region1-constancy", rep["region1_constancy"], 1e-10),
        ("region2-proportionality", rep["region2_proportionality"], 1e-10),
        ("hamiltonian-symmetry", rep["hamiltonian_symmetry"], 1e-10),
    ]
    extra = {**asdict(kc), "q5_conjugation_pattern": rep["q5_conjugation_pattern"]}
    return _judge("coeffs", outdir / "coeffs.json", rows, extra)


def cmd_simulate(cfg: dict, outdir: Path, seed: int) -> int:
    sim_cfg = sim_config(cfg)
    root = _root(cfg)
    kernel = build_kernel(root)
    result = evolve(kernel, kernel.constants.alpha0, sim_cfg, default_seed=seed)
    _write_csv(
        outdir / "diag.csv",
        ["tau", "mean_re", "mean_im", "l2", "h2", "max_abs", "energy", "steps", "step_err"],
        [
            [r.tau, r.mean.real, r.mean.imag, r.l2, r.h2, r.max_abs, r.energy, r.steps, r.step_err]
            for r in result.diagnostics
        ],
    )
    if sim_cfg.snapshots:
        k = result.field.wavenumbers()
        rows = [
            [tau, float(kn), wn.real, wn.imag]
            for tau, what in result.snapshots
            for kn, wn in zip(k, what)
        ]
        _write_csv(outdir / "snapshots.csv", ["tau", "k", "re_what", "im_what"], rows)
    if sim_cfg.physical:
        x, w = physical_reconstruction(result.field)
        tau_end = result.diagnostics[-1].tau
        _write_csv(
            outdir / "physical.csv",
            ["tau", "x", "w"],
            [[tau_end, float(xi), float(wi)] for xi, wi in zip(x, w)],
        )
    if result.breaking_tau is not None:
        print(f"simulate: breaking detected at tau = {_fmt(result.breaking_tau)}")
    else:
        print(f"simulate: completed to tau = {_fmt(result.diagnostics[-1].tau)}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


# Each subcommand with the optional sections it needs.
_COMMANDS = {
    "check": (cmd_check, ()),
    "scan": (cmd_scan, ("scan",)),
    "root": (cmd_root, ()),
    "coeffs": (cmd_coeffs, ()),
    "simulate": (cmd_simulate, ("sim",)),
}


def _seed(text: str) -> int:
    """A --seed value: an integer >= 0, as the config's `seed` must be."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later `main` calls."""
    parser = argparse.ArgumentParser(
        prog="phasewave",
        description="Surface waves on subsonic reversible phase boundaries.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    command, needs = _COMMANDS[args.command]

    try:
        cfg = load_config(args.config, needs)
        outdir = Path(args.out if args.out is not None else cfg.get("output_dir", "."))
        outdir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)

    try:
        return command(cfg, outdir, seed)
    except NoRootError as exc:
        print(f"{args.command}: no surface wave ({exc})")
        return 1
    except PhasewaveError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
