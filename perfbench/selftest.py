"""Self-test of the benchmark: result shape, and the gate firing on bad input.

    python3 perfbench/selftest.py

Runs each workload briefly, traced and untraced, and checks that the result
names every BENCHMARK.json metric with its unit.  Then feeds the gate a
tampered `diag.csv`, a failed `check.json`, a perturbed field, a wrong
kernel and changed outputs, and checks that each counts as a failure.
Finally checks that the benchmark refuses to run without the package
sources.  Exits 1 if anything is wrong.  Takes about two minutes.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402

problems = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_results(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = run_bench(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if out.returncode != 0:
                expect(False, f"{label}: exit code {out.returncode}: {out.stderr[-300:]}")
                continue
            result = json.loads(out.stdout.splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['attempted']} attempted, {result['failed']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == {m["name"]: m["unit"] for m in wanted},
                   f"{label}: every metric named with its unit")
            expect(all(math.isfinite(v["value"]) for v in result["metrics"].values()),
                   f"{label}: every value finite")


def check_gate(work: Path) -> None:
    cfg = wl.config_path(ROOT, "vdw")
    work = work / "gate"
    work.mkdir()

    _, rc, stdout = wl.run_cli(None, "simulate", cfg, work, 3)
    expect(wl.cli_problems("simulate", rc, stdout, work) == [], "gate passes a good diag.csv")
    diag = work / "diag.csv"
    good = diag.read_text(encoding="utf-8")
    lines = good.splitlines()
    last = lines[-1].split(",")
    last[4] = "nan"
    diag.write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n", encoding="utf-8")
    expect(wl.cli_problems("simulate", 0, stdout, work) != [], "gate fails a non-finite diag.csv")
    last = lines[-1].split(",")
    last[1] = repr(float(last[1]) + 1e-9)
    diag.write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n", encoding="utf-8")
    expect(wl.cli_problems("simulate", 0, stdout, work) != [], "gate fails a drifting mean")
    diag.write_text(good, encoding="utf-8")
    expect(wl.cli_problems("simulate", 0, "simulate: breaking detected at tau = 1", work) != [],
           "gate fails a reported breaking time")
    expect(wl.cli_problems("simulate", 1, stdout, work) != [], "gate fails a nonzero exit code")

    _, rc, stdout = wl.run_cli(None, "check", cfg, work, 3)
    expect(wl.cli_problems("check", rc, stdout, work) == [], "gate passes a good check.json")
    check = work / "check.json"
    check.write_text(check.read_text(encoding="utf-8").replace('"pass": true', '"pass": false', 1),
                     encoding="utf-8")
    expect(wl.cli_problems("check", 0, stdout, work) != [], "gate fails check.json pass=false")

    kernel, alpha0 = wl.fixture_a_kernel(ROOT)
    cfg = wl.large_config(wl.LARGE_DT, 64)
    result = wl.sim.evolve(kernel, alpha0, cfg, default_seed=3)
    expect(wl.evolve_problems(result) == [], "gate passes a good evolution")
    expect(wl.field_problems(result.field, kernel, alpha0) == [],
           "RHS check passes convolution_rhs against the brute-force sum")
    perturbed = result.field.what.copy()
    perturbed[cfg.N + 3] += 1e-9
    field = wl.SpectralField(result.field.dk, perturbed)
    expect(wl.field_problems(field, kernel, alpha0) != [], "gate fails a non-Hermitian field")
    expect(wl.evolve_problems(dataclasses.replace(result, field=field)) != [],
           "evolve gate fails a non-Hermitian final field")
    expect(wl.evolve_problems(dataclasses.replace(result, breaking_tau=0.01)) != [],
           "evolve gate fails a reported breaking time")
    kc = kernel.constants
    wrong = wl.kern.Kernel(constants=dataclasses.replace(kc, Q_nat=kc.Q_nat * (1 + 1e-9)))
    expect(wl.field_problems(result.field, kernel, alpha0, reference_kernel=wrong) != [],
           "RHS check fails against a kernel value off by 1e-9")

    cli_work = wl.CliWorkload(ROOT, work / "det", 3, ("root",))
    cli_work.setup()
    ledger = wl.Ledger()
    cli_work.round(ledger)
    for op in cli_work.reference:
        cli_work.reference[op] = "0" * 64
    cli_work.round(ledger)
    expect(ledger.failed == len(cli_work.ops), "determinism check fails changed output bytes")


def check_bare(work: Path) -> None:
    """Without src/ and configs/ the benchmark exits nonzero with no result."""
    bare = work / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    out = run_bench(bare, "closed-forms", 0)
    lines = out.stdout.splitlines()
    expect(out.returncode != 0 and not (lines and lines[-1].startswith("{")),
           f"bare directory: exit code {out.returncode}, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        check_gate(work)
        check_bare(work)
        check_results(spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: {'FAIL' if problems else 'OK'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
