"""Shared fixtures: the canonical raw-number configuration and random states."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from phasewave import (
    FluidState,
    Frequency,
    elliptic_eta0_max,
    find_root,
    make_phase_boundary,
)

# Canonical raw-number configuration used throughout the suite.
FIXTURE_A = dict(
    left=dict(rho=1.0, u=0.9, c2=4.0, pp=0.5),
    right=dict(rho=0.45, u=2.0, c2=9.0, pp=0.5),
    d=2,
    mu=1.0,
    eta_t=[1.0],
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Tangential wavevectors of the d = 3 and d = 4 copies of a d = 2 config; d = 4
# is the only case with two advected complement columns.
ETA_T = {3: [0.6, 0.8], 4: [0.36, 0.48, 0.8]}

# The copy table: each id names a shipped config and the (d, sim.N) it is
# run at.  Both shipped configs are d = 2; the d = 3 and d = 4 copies also
# run the advected modes, and the N = 1024 copy the FFT bands of the
# spectral right side.
SHIPPED = {
    "fixture_a": ("fixture_a", 2, None),
    "vdw": ("vdw", 2, None),
    "fixture_a_d3": ("fixture_a", 3, None),
    "vdw_d3": ("vdw", 3, None),
    "fixture_a_d4": ("fixture_a", 4, None),
    "vdw_d4": ("vdw", 4, None),
    "fixture_a_n1024": ("fixture_a", 2, 1024),
}


def shipped_config(copy: str) -> dict:
    """The config of one id of the copy table, as a JSON object."""
    name, d, N = SHIPPED[copy]
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    if d != cfg["d"]:
        cfg.update(d=d, eta_t=ETA_T[d])
    if N is not None:
        cfg["sim"]["N"] = N
    return cfg


def fixture_a_boundary(d: int = 2):
    left = FluidState(**FIXTURE_A["left"])
    right = FluidState(**FIXTURE_A["right"])
    return make_phase_boundary(left, right, d, FIXTURE_A["mu"])


@pytest.fixture(scope="session")
def pb_a():
    return fixture_a_boundary()


@pytest.fixture(scope="session")
def root_a(pb_a):
    return find_root(pb_a, np.array([1.0]))


@pytest.fixture(scope="session")
def pb_a3():
    return fixture_a_boundary(d=3)


@pytest.fixture(scope="session")
def root_a3(pb_a3):
    return find_root(pb_a3, np.array(ETA_T[3]))


def random_boundary(rng: np.random.Generator, d: int | None = None):
    """A random strictly subsonic two-state configuration with matched flux."""
    if d is None:
        d = int(rng.integers(2, 4))
    rho_l = rng.uniform(0.5, 2.0)
    u_l = rng.uniform(0.3, 1.2)
    c2_l = u_l**2 * rng.uniform(1.5, 4.0) + rng.uniform(0.1, 1.0)
    ratio = rng.uniform(0.35, 0.9) if rng.uniform() < 0.5 else rng.uniform(1.15, 2.5)
    rho_r = rho_l * ratio
    u_r = rho_l * u_l / rho_r
    c2_r = u_r**2 * rng.uniform(1.5, 4.0) + rng.uniform(0.1, 1.0)
    left = FluidState(rho_l, u_l, c2_l, rng.uniform(0.0, 1.0))
    right = FluidState(rho_r, u_r, c2_r, rng.uniform(0.0, 1.0))
    return make_phase_boundary(left, right, d, rng.uniform(0.5, 2.0))


def random_frequency(rng: np.random.Generator, pb, lo: float = 0.05, hi: float = 0.95):
    """A random frequency strictly inside the elliptic region of pb."""
    v = rng.normal(size=pb.d - 1)
    v = v / np.linalg.norm(v) * rng.uniform(0.5, 2.0)
    e0 = rng.uniform(lo, hi) * elliptic_eta0_max(pb, v)
    return Frequency(float(e0), v)
