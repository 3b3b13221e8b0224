"""The CLI on the shipped configurations: work per subcommand, and the
end-to-end contract of every subcommand on the copy table of `conftest`."""

import json
import sys

import pytest

import phasewave.kernel
import phasewave.lopatinskii
import phasewave.modes
from phasewave.cli import main

from conftest import CONFIGS, SHIPPED, shipped_config


def count_calls(monkeypatch, owner, attr: str) -> list:
    """Count calls of owner.attr through every package module that uses it."""
    calls = []
    original = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("phasewave") and getattr(module, attr, None) is original:
            monkeypatch.setattr(module, attr, counting)
    return calls


def test_scan_makes_one_call_per_determinant_route(tmp_path, monkeypatch):
    # The whole eta0 grid goes through each route as one array; det_raw
    # builds only the incoming family, and det_closed builds no modes.
    raw = count_calls(monkeypatch, phasewave.lopatinskii, "det_raw")
    closed = count_calls(monkeypatch, phasewave.lopatinskii, "det_closed")
    modes = count_calls(monkeypatch, phasewave.modes, "normal_modes")
    config = CONFIGS / "fixture_a.json"
    assert main(["scan", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert (len(raw), len(closed), len(modes)) == (1, 1, 0)


def test_check_builds_all_sampled_mode_sets_in_one_call(tmp_path, monkeypatch):
    # One call for the 20-point grid of the mode rows and one for the root;
    # det_raw takes the same grid in one call and builds only the incoming
    # family, and det_closed builds no modes.
    raw = count_calls(monkeypatch, phasewave.lopatinskii, "det_raw")
    closed = count_calls(monkeypatch, phasewave.lopatinskii, "det_closed")
    modes = count_calls(monkeypatch, phasewave.modes, "normal_modes")
    config = CONFIGS / "fixture_a.json"
    assert main(["check", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert (len(modes), len(raw), len(closed)) == (2, 1, 1)


def test_coeffs_evaluates_each_value_once(tmp_path, monkeypatch):
    # One oracle array call covers the six samples and the index-swapped
    # point (-2, 3) of the symmetry row, and one q_grid call the six samples.
    oracle = count_calls(monkeypatch, phasewave.kernel, "q_oracle")
    grid = count_calls(monkeypatch, phasewave.kernel, "q_grid")
    constants = count_calls(monkeypatch, phasewave.kernel, "kernel_constants")
    alpha0 = count_calls(monkeypatch, phasewave.kernel, "alpha0_closed")
    config = CONFIGS / "fixture_a.json"
    assert main(["coeffs", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert (len(oracle), len(grid), len(constants), len(alpha0)) == (1, 1, 1, 1)


# The verdict line each subcommand prints, or begins with, on success.
VERDICT = {
    "check": "check: PASS\n",
    "scan": "scan: root function changes sign in [",
    "root": "root: eta0 = ",
    "coeffs": "coeffs: PASS\n",
    "simulate": "simulate: completed to tau = ",
}


@pytest.mark.parametrize("config", list(SHIPPED))
@pytest.mark.parametrize("command", ["check", "scan", "root", "coeffs", "simulate"])
def test_rerun_byte_identical(tmp_path, capsys, command, config):
    # The exit code, the verdict line, and on a second run the same exit
    # code and stdout and the same files with the same bytes.  Any
    # RuntimeWarning fails the run, as pytest is configured.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(shipped_config(config)))
    runs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        rc = main([command, "--config", str(path), "--out", str(out)])
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        runs.append((rc, capsys.readouterr(), files))
    assert runs[0] == runs[1]
    rc, (stdout, stderr), files = runs[0]
    assert files and stderr == ""
    if command == "coeffs" and config in ("vdw_d3", "vdw_d4"):
        # ROADMAP item 4: the alpha0 oracle loses digits at vdW's low right
        # Mach number; alpha0-imag reads 1.82e-12 (d = 3) and 1.17e-12
        # (d = 4) against 1e-12, and is the one failed row.
        rows = json.loads(files["coeffs.json"])["invariants"]
        assert [row["name"] for row in rows if not row["pass"]] == ["alpha0-imag"]
        assert (rc, stdout) == (1, "coeffs: FAIL (alpha0-imag)\n")
    else:
        assert rc == 0 and stdout.startswith(VERDICT[command])
    if command == "check":
        # Each debug row is one 2(d+1)-component vector.
        width = 2 * (SHIPPED[config][1] + 1)
        debug = json.loads(files["check.json"])["debug"]
        for key in ("H", "R_minus", "R_plus", "L_minus", "L_plus"):
            assert {len(row) for row in debug[key]} == {width}
