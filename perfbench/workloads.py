"""The three workloads, the correctness gate and the layer probe.

Each workload is a closed loop: one caller, and the next operation starts
when the last one has ended.  A round is a fixed amount of work; its time
counts only the operations themselves, never the gate that checks them.

- closed-forms: `check`, `scan`, `root`, `coeffs` through the in-process CLI
  on both shipped configs.  Never touches `simulate`.
- simulate-shipped: `simulate` through the in-process CLI on both shipped
  configs as shipped (small N, a fresh kernel per call).
- evolve-large: library `evolve` with one prebuilt fixture_a kernel at
  N=1024, a dt / dt/2 refinement pair per round sharing the kernel cache.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np

# Library calls go through the module attributes, so that the spans the
# benchmark installs in traced runs also cover the benchmark's own calls.
from phasewave import cli, kernel as kern, lopatinskii, simulate as sim
from phasewave.simulate import InitSpec, SimConfig, SpectralField

CONFIGS = ("fixture_a", "vdw")
OUTPUT_FILE = {
    "check": "check.json",
    "scan": "scan.csv",
    "root": "root.json",
    "coeffs": "coeffs.json",
    "simulate": "diag.csv",
}
MEAN_DRIFT_TOL = 1e-12
HERMITIAN_TOL = 1e-13
# Relative to max|ref|: passes round-off from another summation order
# (an FFT route reaches ~6e-15) but not a wrong kernel value.
RHS_REL_TOL = 1e-12

# evolve-large: small-amplitude random_smooth spectrum, so it stays resolved.
LARGE_N = 1024
LARGE_DK = 0.05
LARGE_AMPLITUDE = 0.01
LARGE_DT = 0.01
LARGE_T = 0.02
LADDER = (64, 256, 1024, 2048)
PROBE_PASSES = 3


def config_path(root: Path, name: str) -> Path:
    return root / "configs" / f"{name}.json"


def digest(outdir: Path) -> str:
    """Digest of an op's output files.  `run.json` is left out: it is the
    place for non-deterministic data such as timings."""
    h = hashlib.sha256()
    for p in sorted(q for q in outdir.iterdir() if q.name != "run.json"):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Correctness gate (runs outside the timed section)
# ---------------------------------------------------------------------------


def diag_csv_problems(path: Path) -> list:
    """Non-finite values or a drifting mean in a `diag.csv`."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 2 or lines[0].split(",")[:3] != ["tau", "mean_re", "mean_im"]:
        return ["diag.csv: unexpected layout"]
    rows = []
    for line in lines[1:]:
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            return [f"diag.csv: unreadable row {line!r}"]
        if not all(math.isfinite(v) for v in row):
            return [f"diag.csv: non-finite row {line!r}"]
        rows.append(row)
    mean0 = complex(rows[0][1], rows[0][2])
    drift = max(abs(complex(r[1], r[2]) - mean0) for r in rows)
    if drift > MEAN_DRIFT_TOL:
        return [f"diag.csv: mean drift {drift:.3g} > {MEAN_DRIFT_TOL}"]
    return []


def cli_problems(cmd: str, rc: int, stdout: str, outdir: Path) -> list:
    if rc != 0:
        return [f"{cmd}: exit code {rc}"]
    out = outdir / OUTPUT_FILE[cmd]
    if not out.is_file():
        return [f"{cmd}: {out.name} missing"]
    if cmd == "check" and json.loads(out.read_text(encoding="utf-8")).get("pass") is not True:
        return ["check: check.json reports pass != true"]
    if cmd == "simulate":
        if "breaking detected" in stdout:
            return ["simulate: breaking time reported"]
        return diag_csv_problems(out)
    return []


def brute_force_rhs(field: SpectralField, kernel, alpha0) -> np.ndarray:
    """Independent RHS: direct sum over q_grid pairs, out-of-grid factors zero."""
    N, dk, w = field.N, field.dk, field.what
    k = dk * np.arange(-N, N + 1)
    idx = np.arange(-N, N + 1)
    conv = np.zeros(2 * N + 1, dtype=complex)
    for lo in range(0, 2 * N + 1, 128):
        n = idx[lo : lo + 128, None]
        shift = n - idx[None, :]
        inside = np.abs(shift) <= N
        factor = np.where(inside, w[np.clip(shift, -N, N) + N], 0.0)
        q = kern.q_grid(kernel, k[lo : lo + 128, None] - k[None, :], np.broadcast_to(k, shift.shape))
        conv[lo : lo + 128] = np.sum(q * factor * w[None, :], axis=1)
    rhs = (-1j * k / alpha0) * conv * (dk / (4.0 * np.pi))
    rhs[N] = 0.0
    return rhs


def field_problems(field: SpectralField, kernel, alpha0, reference_kernel=None) -> list:
    """Hermitian deviation and `convolution_rhs` against the brute-force sum."""
    problems = []
    dev = field.hermitian_deviation()
    if not dev <= HERMITIAN_TOL:
        problems.append(f"field: Hermitian deviation {dev:.3g} > {HERMITIAN_TOL}")
    got = sim.convolution_rhs(field, kernel, alpha0).what
    ref = brute_force_rhs(field, reference_kernel or kernel, alpha0)
    err = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    if not err <= RHS_REL_TOL:
        problems.append(f"field: convolution_rhs vs brute force {err:.3g} > {RHS_REL_TOL}")
    return problems


def evolve_problems(result) -> list:
    if result.breaking_tau is not None:
        return [f"evolve: breaking time {result.breaking_tau} reported"]
    rows = result.diagnostics
    values = [v for r in rows for v in (r.mean.real, r.mean.imag, r.l2, r.h2, r.max_abs)]
    if not all(math.isfinite(v) for v in values):
        return ["evolve: non-finite diagnostics"]
    drift = max(abs(r.mean - rows[0].mean) for r in rows)
    if drift > MEAN_DRIFT_TOL:
        return [f"evolve: mean drift {drift:.3g} > {MEAN_DRIFT_TOL}"]
    dev = result.field.hermitian_deviation()
    if not dev <= HERMITIAN_TOL:
        return [f"evolve: Hermitian deviation {dev:.3g} > {HERMITIAN_TOL}"]
    return []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Ledger:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.extend(problems)


def run_cli(tracer, cmd: str, config: Path, outdir: Path, seed: int):
    """One in-process CLI call; returns (seconds, exit code, stdout)."""
    for p in outdir.glob("*"):
        p.unlink()
    argv = [cmd, "--config", str(config), "--out", str(outdir), "--seed", str(seed)]
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        idx = tracer.open(f"cli.{cmd}", "cli") if tracer else None
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a harness error
            rc = f"exception {exc!r}"
        finally:
            if tracer:
                tracer.close(idx)
    return time.perf_counter() - t0, rc, buf.getvalue()


class CliWorkload:
    """Rounds of in-process CLI subcommands on both shipped configs."""

    def __init__(self, root: Path, work: Path, seed: int, cmds) -> None:
        self.seed = seed
        self.ops = [(cmd, cfg) for cmd in cmds for cfg in CONFIGS]
        self.configs = {cfg: config_path(root, cfg) for cfg in CONFIGS}
        self.outdirs = {op: work / f"{op[0]}-{op[1]}" for op in self.ops}
        self.reference: dict = {}

    def setup(self) -> None:
        for path in self.configs.values():
            cli.load_config(str(path))
        for d in self.outdirs.values():
            d.mkdir(parents=True, exist_ok=True)

    def round(self, ledger: Ledger, tracer=None) -> float:
        elapsed = 0.0
        for op in self.ops:
            cmd, cfg = op
            if tracer:
                tracer.tag = op
            dt, rc, stdout = run_cli(tracer, cmd, self.configs[cfg], self.outdirs[op], self.seed)
            elapsed += dt
            problems = cli_problems(cmd, rc, stdout, self.outdirs[op])
            if not problems:
                # Determinism: every round's files match the first round's bytes.
                got = digest(self.outdirs[op])
                if self.reference.setdefault(op, got) != got:
                    problems = [f"{cmd} {cfg}: output differs from the first round"]
            ledger.record(problems)
        return elapsed

    def finish(self, ledger: Ledger) -> None:
        pass


def large_config(dt: float, n: int = LARGE_N) -> SimConfig:
    return SimConfig(
        dk=LARGE_DK,
        N=n,
        dt=dt,
        T=LARGE_T,
        init=InitSpec("random_smooth", amplitude=LARGE_AMPLITUDE),
        output_every=1,
    )


def fixture_a_kernel(root: Path):
    cfg = cli.load_config(str(config_path(root, "fixture_a")))
    rd = lopatinskii.find_root(cli.build_boundary(cfg), np.asarray(cfg["eta_t"], dtype=float))
    kernel = kern.build_kernel(rd)
    return kernel, kernel.constants.alpha0


class EvolveWorkload:
    """Library `evolve` at N=1024 with one prebuilt kernel, dt and dt/2."""

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.configs = (large_config(LARGE_DT), large_config(LARGE_DT / 2))
        self.reference: dict = {}
        self.last = None

    def setup(self) -> None:
        self.kernel, self.alpha0 = fixture_a_kernel(self.root)
        # The first RHS fills the kernel's grid cache, which every round reuses.
        sim.convolution_rhs(sim.init_field(self.configs[0], self.seed), self.kernel, self.alpha0)

    def round(self, ledger: Ledger, tracer=None) -> float:
        elapsed = 0.0
        for i, cfg in enumerate(self.configs):
            if tracer:
                tracer.tag = ("evolve", i)
            t0 = time.perf_counter()
            result = sim.evolve(self.kernel, self.alpha0, cfg, default_seed=self.seed)
            elapsed += time.perf_counter() - t0
            problems = evolve_problems(result)
            got = result.field.what.tobytes()
            if not problems and self.reference.setdefault(i, got) != got:
                problems = ["evolve: final field differs from the first round"]
            ledger.record(problems)
            self.last = result.field
        return elapsed

    def finish(self, ledger: Ledger) -> None:
        ledger.record(field_problems(self.last, self.kernel, self.alpha0))


def make_workload(name: str, root: Path, work: Path, seed: int):
    if name == "closed-forms":
        return CliWorkload(root, work, seed, ("check", "scan", "root", "coeffs"))
    if name == "simulate-shipped":
        return CliWorkload(root, work, seed, ("simulate",))
    if name == "evolve-large":
        return EvolveWorkload(root, work, seed)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Layer probe: fixed calls into every named layer, traced
# ---------------------------------------------------------------------------


def shipped_field(root: Path, seed: int) -> SpectralField:
    """Initial spectrum of fixture_a's shipped `sim` section (N=128)."""
    sm = cli.load_config(str(config_path(root, "fixture_a")))["sim"]
    init = sm["init"]
    spec = InitSpec(init["name"], amplitude=init["A"], k0=init["k0"], width=init["s"])
    return sim.init_field(SimConfig(dk=sm["dk"], N=sm["N"], dt=sm["dt"], T=sm["T"], init=spec), seed)


def layer_probe(root: Path, work: Path, seed: int, tracer, ledger: Ledger) -> dict:
    """Call every named layer function on fixed inputs under the tracer.

    The same probe runs in every workload's traced run, so each traced run
    reports the same per-layer metrics.  Returns the tracemalloc peak (MiB)
    of the first RHS on a fresh kernel, per ladder rung.
    """
    cli_work = CliWorkload(root, work / "probe", seed, tuple(OUTPUT_FILE))
    cli_work.setup()
    for p in range(PROBE_PASSES):
        for op in cli_work.ops:
            cmd, cfg = op
            tracer.tag = ("probe", p, cmd, cfg)
            _, rc, stdout = run_cli(tracer, cmd, cli_work.configs[cfg], cli_work.outdirs[op], seed)
            ledger.record(cli_problems(cmd, rc, stdout, cli_work.outdirs[op]))

    field = shipped_field(root, seed)
    tracer.tag = ("probe", "diag")
    for _ in range(200):
        with tracer.span("simulate.diag", "simulate"):
            field.h2(), field.l2(), field.mean(), field.max_abs()

    peaks = {}
    for n in LADDER:
        kernel, alpha0 = fixture_a_kernel(root)
        f = sim.init_field(large_config(LARGE_DT, n), seed)
        tracer.tag = ("probe", "ladder-first", n)
        tracemalloc.start()
        sim.convolution_rhs(f, kernel, alpha0)
        peaks[n] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        tracer.tag = ("probe", "ladder", n)
        for _ in range(max(5, 5000 // n)):
            sim.convolution_rhs(f, kernel, alpha0)
        if n == LARGE_N:
            for _ in range(3):
                f = sim.rk4_step(f, kernel, alpha0, LARGE_DT)
        ledger.record([] if np.all(np.isfinite(f.what)) else [f"ladder N={n}: non-finite"])
        del kernel, f
        gc.collect()
    tracer.tag = None
    return peaks
