"""phasewave benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload closed-forms --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the directory holding `src/` and
`configs/`).  With `--trace 0` the last stdout line carries the end-to-end
metrics of BENCHMARK.json; with `--trace 1` it carries the per-layer
metrics, from a traced run of the same workload plus the layer probe.
Every metric is named and given its unit in BENCHMARK.json; see
perfbench/NOTES.md for what each one means.
"""

import os

# The BLAS thread count is fixed before numpy loads: with it unset, 200 RK4
# steps at N=128 ranged 267-933 ms over five processes on a 2-core machine;
# with one thread, 217-278 ms.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gzip
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
MIN_ROUNDS = 3


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Put the checkout's `src/` first on the path; refuse to run without it."""
    if not (ROOT / "src" / "phasewave" / "__init__.py").is_file():
        fail(f"no phasewave sources under {ROOT / 'src'}; run from a source checkout")
    for name in ("fixture_a", "vdw"):
        if not (ROOT / "configs" / f"{name}.json").is_file():
            fail(f"missing configs/{name}.json")
    sys.path.insert(0, str(ROOT / "src"))
    import phasewave  # noqa: F401


def setup_child(workload: str, seed: int) -> None:
    """What a workload process does before its first timed round."""
    import_package()
    import workloads

    work = ROOT / ".perfbench" / f"setup-{os.getpid()}"
    try:
        workloads.make_workload(workload, ROOT, work, seed).setup()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of one fresh process that imports the package and sets up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-child", "--workload", workload,
           "--seed", str(seed)]
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms, which
    # would quantize the measurement.
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "configs").glob("*.json")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": h.hexdigest(),
        "seed": seed,
    }


def timed_rounds(wl, ledger, seconds: float, setup):
    """Rounds of the workload for `seconds` of wall time.

    `setup` times one fresh set-up process.  SETUP_REPEATS set-up samples
    are taken between rounds, spread evenly over the run, so that they see
    the same machine conditions as the rounds.  Their time is not counted in
    the run's `seconds`.  Returns (round times, set-up times).
    """
    times, setups = [], []
    spent = 0.0
    while spent < seconds or len(times) < MIN_ROUNDS or len(setups) < SETUP_REPEATS:
        if len(setups) < SETUP_REPEATS and spent >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup())
            continue
        t0 = time.perf_counter()
        times.append(wl.round(ledger))
        spent += time.perf_counter() - t0
    return times, setups


def layer_metrics(spans: list, probe_start: int, n_rounds: int, peaks: dict) -> dict:
    """Per-layer metrics from the spans of the traced rounds (before
    `probe_start`) and of the layer probe (from `probe_start` on)."""
    import workloads
    from spans import LAYER, LAYERS, NAME, TAG, duration_ns, median_or_zero, self_times_ns

    selfs = self_times_ns(spans)
    out = {}

    # Traced workload rounds: self time per layer per round, counts, steps/s.
    rounds = range(probe_start)
    for layer in LAYERS:
        total = sum(selfs[i] for i in rounds if spans[i][LAYER] == layer)
        out[f"self_ms.{layer}"] = total / 1e6 / n_rounds
    names = [spans[i][NAME] for i in rounds]
    out["modes.normal_modes_calls"] = names.count("modes.normal_modes") / n_rounds
    out["simulate.rhs_calls"] = names.count("simulate.convolution_rhs") / n_rounds
    evolve_s = sum(duration_ns(spans[i]) / 1e9 for i in rounds
                   if spans[i][NAME] == "simulate.evolve")
    steps = names.count("simulate.rk4_step")
    out["simulate.steps_per_s"] = steps / evolve_s if evolve_s else 0.0

    # Layer probe: fixed calls, identical in every workload's traced run.
    probe = range(probe_start, len(spans))

    def durations(name, tag=None):
        return [duration_ns(spans[i]) for i in probe
                if spans[i][NAME] == name and tag in (None, spans[i][TAG])]

    def med_ms(name, tag=None):
        return median_or_zero(durations(name, tag)) / 1e6

    def med_us(name, tag=None):
        return median_or_zero(durations(name, tag)) / 1e3

    out["cli.load_config_ms"] = med_ms("cli.load_config")
    # Probe CLI ops are tagged (probe, pass, cmd, cfg).  Per pass, summed over
    # both configs: the subcommand's wall time, and its op span's self time,
    # which is the subcommand minus config loading and the library calls it
    # makes (serialization and writing).
    cli_total: dict = {}
    cli_self: dict = {}
    equilibrium: dict = {}
    for i in probe:
        name, layer, start, end, parent, tag = spans[i]
        if not (isinstance(tag, tuple) and len(tag) == 4):
            continue
        _, p, cmd, cfg = tag
        if name == f"cli.{cmd}" and parent == -1:
            cli_total[cmd, p] = cli_total.get((cmd, p), 0) + end - start
            cli_self[cmd, p] = cli_self.get((cmd, p), 0) + selfs[i]
        if layer == "equilibrium" and parent >= 0 and spans[parent][LAYER] != "equilibrium":
            key = (cfg, cmd, p)
            equilibrium[key] = equilibrium.get(key, 0) + end - start
    for cmd in workloads.OUTPUT_FILE:
        for label, per_pass in (("cmd_ms", cli_total), ("self_ms", cli_self)):
            out[f"cli.{label}.{cmd}"] = median_or_zero(
                v for (c, _), v in per_pass.items() if c == cmd) / 1e6
    for cfg in workloads.CONFIGS:
        out[f"equilibrium.boundary_ms.{cfg}"] = median_or_zero(
            v for (c, _, _), v in equilibrium.items() if c == cfg) / 1e6
    out["modes.normal_modes_us"] = med_us("modes.normal_modes")
    out["lopatinskii.det_raw_us"] = med_us("lopatinskii.det_raw")
    out["lopatinskii.det_closed_us"] = med_us("lopatinskii.det_closed")
    out["lopatinskii.find_root_ms"] = med_ms("lopatinskii.find_root")
    out["kernel.constants_ms"] = med_ms("kernel.kernel_constants")
    out["kernel.alpha0_abstract_ms"] = med_ms("kernel.alpha0_abstract")
    out["kernel.oracle_vs_closed_ms"] = med_ms("kernel.oracle_vs_closed")

    # RHS on the shipped fixture_a simulate (N=128): first call on the fresh
    # kernel (includes the grid build) and the warm calls after it.
    first, warm, seen = [], [], set()
    for i in probe:
        tag = spans[i][TAG]
        if spans[i][NAME] != "simulate.convolution_rhs" or not (
            isinstance(tag, tuple) and len(tag) == 4 and tag[2:] == ("simulate", "fixture_a")
        ):
            continue
        (warm if tag in seen else first).append(duration_ns(spans[i]))
        seen.add(tag)
    out["simulate.rhs_first_ms"] = median_or_zero(first) / 1e6
    out["simulate.rhs_ms"] = median_or_zero(warm) / 1e6
    out["simulate.diag_us"] = med_us("simulate.diag")
    n_large = workloads.LARGE_N
    out["simulate.rk4_step_ms"] = med_ms("simulate.rk4_step", ("probe", "ladder", n_large))
    out["simulate.rhs_peak_mib"] = peaks[n_large]
    for n in workloads.LADDER:
        out[f"simulate.rhs_ms.n{n}"] = med_ms("simulate.convolution_rhs", ("probe", "ladder", n))
    out["simulate.rhs_peak_mib.n2048"] = peaks[2048]
    return out


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0
    import_package()
    import workloads
    from spans import Tracer, instrument

    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    ledger = workloads.Ledger()
    try:
        metrics = {}
        wl = workloads.make_workload(args.workload, ROOT, work, args.seed)
        wl.setup()
        wl.round(ledger)  # warm-up: lazy imports and first-touch allocations
        if not args.trace:
            times, setups = timed_rounds(
                wl, ledger, args.seconds, lambda: setup_seconds(args.workload, args.seed))
            metrics["setup_s"] = statistics.median(setups)
            metrics["round_ms"] = statistics.median(times) * 1e3
            metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            # Untraced and traced rounds alternate, so that both see the same
            # machine conditions; the difference of their medians is the
            # tracing overhead.
            tracer = Tracer()
            plain, traced = [], []
            while sum(plain) + sum(traced) < args.seconds or len(traced) < MIN_ROUNDS:
                plain.append(wl.round(ledger))
                restore = instrument(tracer)
                try:
                    traced.append(wl.round(ledger, tracer))
                finally:
                    restore()
            probe_start = len(tracer.spans)
            restore = instrument(tracer)
            try:
                peaks = workloads.layer_probe(ROOT, work, args.seed, tracer, ledger)
            finally:
                restore()
            metrics = layer_metrics(tracer.spans, probe_start, len(traced), peaks)
            spans_file = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json.gz"
            with gzip.open(spans_file, "wt", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "layer", "start_ns", "end_ns", "parent", "tag"],
                           "probe_start": probe_start, "spans": tracer.spans}, fh)
            metrics["trace.overhead_ms"] = (
                statistics.median(traced) - statistics.median(plain)) * 1e3
        wl.finish(ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics["ops_ok_frac"] = (ledger.attempted - ledger.failed) / ledger.attempted

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"metrics not produced: {missing}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    if args.trace:
        print(f"spans written to {spans_file.relative_to(ROOT)}")
    for reason in ledger.reasons:
        print(f"failed: {reason}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
