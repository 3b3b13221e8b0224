"""The CLI on the shipped configurations: work per subcommand and rerun
byte-identity of every output file."""

import sys
from pathlib import Path

import pytest

import phasewave.kernel
import phasewave.lopatinskii
import phasewave.modes
from phasewave.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    # One call for the 8 sampled frequencies and one for the root; det_raw
    # takes the 20-point raw-vs-closed sweep in one call and builds only the
    # incoming family, and det_closed builds no modes.
    raw = count_calls(monkeypatch, phasewave.lopatinskii, "det_raw")
    closed = count_calls(monkeypatch, phasewave.lopatinskii, "det_closed")
    modes = count_calls(monkeypatch, phasewave.modes, "normal_modes")
    config = CONFIGS / "fixture_a.json"
    assert main(["check", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert (len(modes), len(raw), len(closed)) == (2, 1, 1)


def test_coeffs_evaluates_each_value_once(tmp_path, monkeypatch):
    # One array call covers the six samples and the index-swapped point
    # (-2, 3) of the symmetry row.
    oracle = count_calls(monkeypatch, phasewave.kernel, "q_oracle")
    constants = count_calls(monkeypatch, phasewave.kernel, "kernel_constants")
    alpha0 = count_calls(monkeypatch, phasewave.kernel, "alpha0_closed")
    config = CONFIGS / "fixture_a.json"
    assert main(["coeffs", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert (len(oracle), len(constants), len(alpha0)) == (1, 1, 1)


@pytest.mark.parametrize("config", ["fixture_a", "vdw"])
@pytest.mark.parametrize("command", ["check", "scan", "root", "coeffs", "simulate"])
def test_rerun_byte_identical(tmp_path, command, config):
    path = CONFIGS / f"{config}.json"
    first, second = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", str(path), "--out", str(first)]) == 0
    assert main([command, "--config", str(path), "--out", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names and names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
