"""Exit-code table of the CLI: 0 success, 2 schema problems, 1 physics or
value-range failures.

Schema problems are unknown, missing or mistyped fields at any level of the
configuration (`sim` and `sim.init` included) and sections a subcommand
needs but the file lacks; every one is reported before any physics runs.
"""

import json
import math
import warnings
from pathlib import Path

import pytest

from phasewave.cli import main

from conftest import shipped_config

RAW = {
    "d": 2,
    "left": {"rho": 1.0, "u": 0.9, "c2": 4.0, "pp": 0.5},
    "right": {"rho": 0.45, "u": 2.0, "c2": 9.0, "pp": 0.5},
    "mu": 1.0,
    "eta_t": [1.0],
    "scan": {"eta0_min": 0.05, "eta0_max": 1.7, "steps": 5},
    "sim": {
        "dk": 0.1,
        "N": 16,
        "dt": 0.01,
        "T": 0.02,
        "init": {"name": "single_mode", "A": 0.001, "k0": 1.0},
    },
    "seed": 7,
}
EOS = {
    "d": 2,
    "eos": {"a": 3.0, "b": 1.0 / 3.0, "RT": 0.9},
    "brackets": [[5e-4, 0.01], [2.3, 2.99]],
    "eta_t": [1.0],
}
DELETE = object()


def run(tmp_path: Path, command: str, base: dict = RAW, **changes):
    """Run `command` on `base` with dotted-path changes; DELETE removes a key."""
    cfg = json.loads(json.dumps(base))
    for dotted, value in changes.items():
        *parents, last = dotted.split("__")
        node = cfg
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path), "--out", str(tmp_path / "out")])


def test_success_exits_zero(tmp_path):
    assert run(tmp_path, "scan") == 0


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"d": 2,')
    assert main(["root", "--config", str(path)]) == 2


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(None, "config error: cannot read config", id="directory"),
        pytest.param("[]", "config error: configuration must be an object", id="list"),
        pytest.param(
            json.dumps({**RAW, "left": 1}), "config error: left must be an object", id="left-number"
        ),
    ],
)
def test_unusable_config_exits_two_and_is_named(tmp_path, capsys, text, message):
    # A directory is no file to read, and a configuration or section that
    # is not a JSON object is refused before any of its keys.
    path = tmp_path
    if text is not None:
        path = tmp_path / "config.json"
        path.write_text(text)
    assert main(["root", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(message)


# Double underscores separate the levels of a dotted path.
SCHEMA_ROWS = [
    # unknown fields, one per level
    ("check", RAW, {"extra": 1}),
    ("check", RAW, {"left__viscosity": 0.1}),
    ("check", EOS, {"eos__c": 1.0}),
    ("check", RAW, {"scan__extra": 1}),
    ("check", RAW, {"sim__extra": 1}),
    ("check", RAW, {"sim__init__extra": 1}),
    # missing fields, one per level
    ("check", RAW, {"mu": DELETE}),
    ("check", RAW, {"right__pp": DELETE}),
    ("check", EOS, {"eos__RT": DELETE}),
    ("check", EOS, {"brackets": DELETE}),
    ("check", RAW, {"scan__steps": DELETE}),
    ("check", RAW, {"sim__T": DELETE}),
    ("check", RAW, {"sim__init__name": DELETE}),
    # mistyped fields, one per level
    ("check", RAW, {"d": 2.0}),
    ("check", RAW, {"left__rho": "1.0"}),
    ("check", EOS, {"eos__a": "3"}),
    ("check", EOS, {"brackets": [[5e-4, 0.01]]}),
    ("check", RAW, {"eta_t": [1.0, 2.0]}),
    ("check", RAW, {"scan__eta0_min": "low"}),
    ("check", RAW, {"sim__dt": True}),
    ("check", RAW, {"sim__init__name": "square_wave"}),
    ("check", RAW, {"seed": 1.5}),
    # type limits that are part of the schema
    ("simulate", RAW, {"sim__N": 4}),
    ("scan", RAW, {"scan__steps": 2.0}),
    # eta_t, which every subcommand needs, and a section one subcommand needs
    ("check", RAW, {"eta_t": DELETE}),
    ("scan", RAW, {"eta_t": DELETE}),
    ("root", RAW, {"eta_t": DELETE}),
    ("coeffs", RAW, {"eta_t": DELETE}),
    ("simulate", RAW, {"eta_t": DELETE}),
    ("scan", RAW, {"scan": DELETE}),
    ("simulate", RAW, {"sim": DELETE}),
]


@pytest.mark.parametrize("command, base, changes", SCHEMA_ROWS)
def test_schema_problem_exits_two(tmp_path, command, base, changes):
    assert run(tmp_path, command, base, **changes) == 2


# Inputs that crashed or were silently coerced before the `sim` schema
# covered every field.
SIM_ROWS = [
    ("sim.init.A", {"sim__init__A": "x"}),
    ("sim.output_every", {"sim__output_every": "x"}),
    ("sim.physical", {"sim__physical": 1}),
    ("sim.snapshots", {"sim__snapshots": "false"}),
    ("sim.output_every", {"sim__output_every": 2.7}),
    # The run's seed is the top-level `seed`; sim.init has none.
    pytest.param("unknown field(s) ['seed'] in sim.init", {"sim__init__seed": 7}, id="sim.init.seed"),
]


@pytest.mark.parametrize("field, changes", SIM_ROWS)
def test_sim_field_exits_two_and_is_named(tmp_path, capsys, field, changes):
    assert run(tmp_path, "simulate", **changes) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, field",
    [
        *(pytest.param(c, "eta_t", id=c) for c in ("check", "scan", "root", "coeffs", "simulate")),
        # A section one subcommand needs is required by the same schema.
        pytest.param("scan", "scan", id="scan-section"),
        pytest.param("simulate", "sim", id="simulate-section"),
    ],
)
def test_missing_eta_t_is_a_schema_error(tmp_path, capsys, command, field):
    assert run(tmp_path, command, **{field: DELETE}) == 2
    assert f"missing field(s) ['{field}'] in configuration" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value",
    [
        pytest.param(None, id="null"),
        pytest.param(-1, id="negative"),
        pytest.param(0.5, id="below-one"),
        pytest.param(1, id="one"),
        pytest.param(1e6, id="fixed-threshold"),
    ],
)
def test_blowup_factor_is_an_unknown_sim_field(tmp_path, capsys, value):
    # The H2 breaking threshold is fixed in `evolve`; a config that sets it
    # is refused like any other unknown field, before any step runs.
    assert run(tmp_path, "simulate", sim__blowup_factor=value) == 2
    assert "unknown field(s) ['blowup_factor'] in sim" in capsys.readouterr().err
    assert not (tmp_path / "out" / "diag.csv").exists()


@pytest.mark.parametrize("command", ["scan", "root"])
def test_inadmissible_state_exits_one(tmp_path, command):
    assert run(tmp_path, command, left__rho=-1) == 1


# fixture_a scaled so that rho*u overflows to inf on both sides.
OVERFLOW = {
    "left": {"rho": 1e300, "u": 1e10, "c2": 4e20, "pp": 0.5},
    "right": {"rho": 0.45e300, "u": 2e10, "c2": 9e20, "pp": 0.5},
}


@pytest.mark.parametrize("command", ["scan", "root", "coeffs", "simulate"])
def test_overflowing_mass_flux_exits_one(tmp_path, capsys, command):
    assert run(tmp_path, command, **OVERFLOW) == 1
    err = capsys.readouterr().err
    assert err == f"{command}: mass-flux mismatch: rho_l*u_l=inf vs rho_r*u_r=inf\n"
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_nonfinite_kernel_constant_is_refused(tmp_path, capsys, scale):
    # fixture_a with both densities scaled up: the root is representable,
    # but Q_nat overflows to a NaN.  simulate refuses it before any step,
    # and coeffs makes it its one, failed row.
    heavy = {"left__rho": scale, "right__rho": 0.45 * scale}
    assert run(tmp_path, "simulate", **heavy) == 1
    assert "Q_nat not finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "diag.csv").exists()
    assert run(tmp_path, "coeffs", **heavy) == 1
    [row] = json.loads((tmp_path / "out" / "coeffs.json").read_text())["invariants"]
    assert row["name"].startswith("kernel-constants (Q_nat not finite") and row["pass"] is False
    assert capsys.readouterr().out.strip() == f"coeffs: FAIL ({row['name']})"


@pytest.mark.parametrize(
    "changes",
    [
        pytest.param({"eta_t": [1e50]}, id="eta_t-1e50"),
        *(
            pytest.param({"left__rho": scale, "right__rho": 0.45 * scale}, id=f"rho-{scale:g}")
            for scale in (1e50, 1e100)
        ),
    ],
)
def test_overflowing_step_is_breaking(tmp_path, capsys, changes):
    # fixture_a as shipped, with a huge wavevector or huge densities: Q_nat
    # is finite, but the first step's right side overflows.  The run stops
    # there as breaking, with a non-finite second diag.csv row, and raises
    # no RuntimeWarning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(tmp_path, "simulate", shipped_config("fixture_a"), **changes) == 0
    captured = capsys.readouterr()
    assert captured.out == "simulate: breaking detected at tau = 0.01\n" and captured.err == ""
    rows = (tmp_path / "out" / "diag.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and rows[1].startswith("0.01,")
    assert not all(math.isfinite(float(cell.strip('"'))) for cell in rows[1].split(","))


@pytest.mark.parametrize(
    "command, eta_t, failed",
    [
        pytest.param(
            "check",
            1e100,
            [
                "delta-raw-vs-closed",
                "surface-wave-root (floating point cannot represent the root (eta0 = nan))",
            ],
            id="check-1e100",
        ),
        pytest.param(
            "coeffs",
            1e50,
            [
                "oracle-vs-closed",
                "region1-constancy",
                "region2-proportionality",
                "hamiltonian-symmetry",
            ],
            id="coeffs-1e50",
        ),
    ],
)
def test_huge_wavevector_overflow_is_a_failed_row(tmp_path, capsys, command, eta_t, failed):
    # fixture_a with a huge tangential wavevector: check's determinant sweep
    # overflows at 1e100, where no root is representable either, and coeffs'
    # oracle at 1e50.  Each overflow is a NaN residual, a failed row in the
    # written report, not a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(tmp_path, command, eta_t=[eta_t]) == 1
    report = json.loads((tmp_path / "out" / f"{command}.json").read_text())
    rows = [item for item in report["invariants"] if not item["pass"]]
    assert [item["name"] for item in rows] == failed
    assert rows[0]["residual"] == "nan"
    assert capsys.readouterr().out.strip() == f"{command}: FAIL ({failed[-1]})"


@pytest.mark.parametrize("command", ["check", "scan", "root", "coeffs", "simulate"])
def test_overflowing_wavevector_square_exits_one(tmp_path, capsys, command):
    # |eta_t|^2 overflows at 1e200; Frequency refuses it once, naming eta_t,
    # before any matrix is formed: one line and exit 1, no RuntimeWarning.
    # check makes the refusal its failed eigenvector-residual row.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(tmp_path, command, shipped_config("fixture_a"), eta_t=[1e200]) == 1
    reason = "|eta_t|^2 overflows at eta_t = [1e+200]"
    captured = capsys.readouterr()
    if command == "check":
        report = json.loads((tmp_path / "out" / "check.json").read_text())
        row = report["invariants"][-1]
        assert row["name"] == f"eigenvector-residual ({reason})" and row["pass"] is False
        assert captured == (f"check: FAIL ({row['name']})\n", "")
    else:
        assert captured == ("", f"{command}: {reason}\n")


@pytest.mark.parametrize(
    "command, eta_t, rc, verdict",
    [
        *(
            pytest.param("check", eta_t, 0, "check: PASS", id=f"check-{eta_t:g}")
            for eta_t in (1e-50, 1e-20, 1e20, 1e50)
        ),
        pytest.param(
            "scan", 1e100, 1, "scan: determinant not finite at eta0 = 0.050000000000000003",
            id="scan-1e100",
        ),
    ],
)
def test_wavevector_scale_is_judged(tmp_path, capsys, command, eta_t, rc, verdict):
    # fixture_a at tiny and huge tangential wavevectors.  The boundary
    # columns of the sigma minors grow at different powers of |eta_t|, yet
    # check passes, the minors' row included.  At 1e100
    # scan's determinants overflow: scan.csv is still written, and the scan
    # fails naming the first eta0 instead of reporting no sign change.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(tmp_path, command, eta_t=[eta_t]) == rc
    assert capsys.readouterr().out.strip() == verdict
    assert (tmp_path / "out" / f"{command}.{'csv' if command == 'scan' else 'json'}").exists()


@pytest.mark.parametrize(
    "base, changes",
    [
        pytest.param(RAW, {"left__rho": -1}, id="negative-density"),
        pytest.param(RAW, {"right__rho": 0.4}, id="mass-flux-mismatch"),
        pytest.param(RAW, OVERFLOW, id="mass-flux-overflow"),
        pytest.param(RAW, {"right": RAW["left"]}, id="equal-states"),
        pytest.param(EOS, {"eos__RT": -1}, id="eos-negative-RT"),
        pytest.param(EOS, {"brackets": [[1e-300, 1e-299], [2.3, 2.99]]}, id="eos-tiny-density"),
    ],
)
def test_boundary_failure_is_one_phase_boundary_row(tmp_path, capsys, base, changes):
    # check builds its boundary as the other subcommands do; whatever the
    # library refuses, from a state invariant to a missed jump condition or
    # an equation of state, is its one, failed row, and check.json is written.
    assert run(tmp_path, "check", base, **changes) == 1
    report = json.loads((tmp_path / "out" / "check.json").read_text())
    assert report["pass"] is False
    [row] = report["invariants"]
    assert row["name"].startswith("phase-boundary (") and row["pass"] is False
    assert capsys.readouterr().out.strip() == f"check: FAIL ({row['name']})"


BUMP = {"sim__init__name": "gaussian_bump"}


@pytest.mark.parametrize(
    "change",
    [
        pytest.param({"sim__dk": -0.1}, id="dk"),
        pytest.param({**BUMP, "sim__init__s": 0}, id="width-zero"),
        pytest.param({**BUMP, "sim__init__s": -0.5}, id="width-negative"),
    ],
)
def test_nonpositive_wavenumber_step_exits_one(tmp_path, change):
    # A zero bump width gives a NaN spectrum; it is refused, as a nonpositive
    # dk is, before any step runs.
    assert run(tmp_path, "simulate", **change) == 1
    assert not (tmp_path / "out" / "diag.csv").exists()


@pytest.mark.parametrize(
    "command, base, changes, rc, out, err",
    [
        pytest.param(
            "scan", RAW, {"scan__eta0_max": 0.5}, 0,
            "scan: no sign change of the root function in the scanned range\n", "",
            id="scan-below-root",
        ),
        pytest.param(
            "simulate", RAW, {"sim__init__k0": 1.7}, 1,
            "", "simulate: k0=1.7 does not fall on the grid interior\n",
            id="mode-beyond-grid",
        ),
        # fixture_a as shipped (T = 2): the first trial step of 1e10 shrinks
        # to what the error estimate allows, as the floor does not scale with
        # dt; a floor of a fixed multiple of dt reported breaking at tau = 0.
        pytest.param(
            "simulate", shipped_config("fixture_a"), {"sim__dt": 1e10}, 0,
            "simulate: completed to tau = 2\n", "",
            id="huge-dt",
        ),
        # fixture_a at dt = 1e-300 would write 1e299 rows; it is refused at
        # once instead of hanging.
        pytest.param(
            "simulate", shipped_config("fixture_a"), {"sim__dt": 1e-300}, 1,
            "", "simulate: T=2.0, dt=1e-300 and output_every=20 give 1e+299 diagnostics"
            " rows, more than 1000000\n",
            id="row-count",
        ),
        # The sim section is judged before the boundary and eta_t (here 0).
        pytest.param(
            "simulate", RAW, {"sim__dk": 1e300, "eta_t": [0.0]}, 1,
            "", "simulate: dk=1e+300 and N=16 overflow the weight 2 dk (N dk)^4\n",
            id="overflowing-grid",
        ),
        # The energy weight 2 dk (n dk)^-1 overflows at n = 1 for dk below
        # about 5.6e-309, where no energy cell could be finite.
        pytest.param(
            "simulate", RAW, {"sim__dk": 1e-310}, 1,
            "", "simulate: dk=1e-310 and N=16 overflow the weight 2 dk (n dk)^-1\n",
            id="tiny-dk",
        ),
        *(
            pytest.param(
                "root", EOS, {"mass_flux": flux}, 1,
                "", f"root: mass flux must be positive, got {float(flux)}\n",
                id=f"mass-flux-{flux}",
            )
            for flux in (0, -1)
        ),
        pytest.param(
            "root", EOS, {"brackets": [[5e-4, 0.5], [2.3, 2.99]]}, 1,
            "", "root: bracket endpoints must lie where c^2 > 0\n",
            id="bracket-past-spinodal",
        ),
        # right.pp = +-1e308: Q_nat's parts are finite but its modulus
        # overflows, so kernel_constants refuses it.
        pytest.param(
            "coeffs", RAW, {"right__pp": 1e308}, 1,
            "coeffs: FAIL (kernel-constants (Q_nat not finite at the root"
            " eta0 = 0.9563775980592719))\n", "",
            id="q-nat-modulus-coeffs",
        ),
        pytest.param(
            "simulate", RAW, {"right__pp": -1e308}, 1,
            "", "simulate: Q_nat not finite at the root eta0 = 0.9563775980592719\n",
            id="q-nat-modulus-simulate",
        ),
        # right.pp = 1e306: Q_nat is finite, but the mixed-region weight
        # 2 conj(Q_nat) n * (-i n dk^2/(4 pi alpha0)) overflows at N = 128.
        pytest.param(
            "simulate", shipped_config("fixture_a"), {"right__pp": 1e306}, 1,
            "", "simulate: Q_nat/alpha0, N=128 and dk=0.05 overflow the right side's weights\n",
            id="overflowing-rhs-weight",
        ),
        # A vapour bracket whose densities' cubes underflow, so the Newton
        # Jacobian would divide by zero.  The bracket's low end alone is no
        # refusal: [1e-150, 0.01] solves.
        pytest.param(
            "root", EOS, {"brackets": [[1e-110, 1e-109], [2.3, 2.99]]}, 1,
            "", "root: no coexistence pair in (1e-110, 1e-109) x (2.3, 2.99): the cube of"
            " the density 5.5e-110 underflows\n",
            id="vdw-density-cube-underflows",
        ),
        pytest.param(
            "root", EOS, {"brackets": [[1e-150, 0.01], [2.3, 2.99]]}, 0,
            "root: eta0 = 0.0070830962512489293\n", "",
            id="vdw-tiny-bracket-end",
        ),
    ],
)
def test_value_range_verdict(tmp_path, capsys, command, base, changes, rc, out, err):
    # Value ranges are judged by the library after the schema passes: a
    # scan range without the root is a verdict, and a refused value exits 1
    # naming it.
    assert run(tmp_path, command, base, **changes) == rc
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("command", ["check", "root"])
def test_nonpositive_temperature_exits_one(tmp_path, command):
    assert run(tmp_path, command, EOS, eos__RT=-1) == 1


@pytest.mark.parametrize(
    "right",
    [
        pytest.param(RAW["left"], id="equal-states"),
        pytest.param(
            {**RAW["left"], "rho": 1.0 + 1e-15, "u": 0.9 / (1.0 + 1e-15)},
            id="relative-jump-1e-15",
        ),
    ],
)
def test_vanishing_jump_named_by_check(tmp_path, capsys, right):
    # make_phase_boundary refuses a density jump below 1e-14 relative; check
    # reports that refusal as a failed row instead of crashing before any
    # check.json is written.
    assert run(tmp_path, "check", right=right) == 1
    report = json.loads((tmp_path / "out" / "check.json").read_text())
    assert report["pass"] is False
    failed = [item["name"] for item in report["invariants"] if not item["pass"]]
    assert len(failed) == 1 and "density jump vanishes" in failed[0]
    assert capsys.readouterr().out.strip() == f"check: FAIL ({failed[0]})"


def test_unrepresentable_root_named_by_check(tmp_path, capsys):
    # fixture_a with both velocities scaled down at fixed density ratio: at
    # u_l = 1e-160 find_root raises NoRootError, which check reports as its
    # last, failed row in check.json instead of exiting without writing one
    # (the determinant comparison fails there too).
    u_l = 1e-160
    assert run(tmp_path, "check", left__u=u_l, right__u=u_l / 0.45) == 1
    report = json.loads((tmp_path / "out" / "check.json").read_text())
    assert report["pass"] is False
    last = report["invariants"][-1]
    assert last["name"].startswith("surface-wave-root (") and last["pass"] is False
    assert capsys.readouterr().out.strip() == f"check: FAIL ({last['name']})"


def test_zero_tangential_wavevector_named_by_check(tmp_path, capsys):
    # With eta_t = 0 no frequency exists for the mode residuals; check
    # reports the refusal as a failed row and still writes check.json.
    assert run(tmp_path, "check", eta_t=[0.0]) == 1
    report = json.loads((tmp_path / "out" / "check.json").read_text())
    assert report["pass"] is False
    last = report["invariants"][-1]
    assert last["name"].startswith("eigenvector-residual (") and last["pass"] is False
    assert "tangential wavevector must be nonzero" in last["name"]
    assert capsys.readouterr().out.strip() == f"check: FAIL ({last['name']})"


# At u_l = 1e-155 (u_r = u_l/0.45) the root eta0 itself is representable,
# but normal_modes overflows in the left eigenvectors l^+ and l^-, so
# find_root refuses the root instead of returning inf in its mode data.
TINY_U = 1e-155


@pytest.mark.parametrize("command", ["root", "coeffs", "simulate"])
def test_nonfinite_mode_data_is_no_surface_wave(tmp_path, capsys, command):
    # find_root handles the overflow it refuses, so it prints no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run(tmp_path, command, left__u=TINY_U, right__u=TINY_U / 0.45)
    assert rc == 1
    out = capsys.readouterr().out.strip()
    assert out.startswith(f"{command}: no surface wave (") and "not finite" in out


def test_nonfinite_mode_data_named_by_check(tmp_path, capsys):
    assert run(tmp_path, "check", left__u=TINY_U, right__u=TINY_U / 0.45) == 1
    report = json.loads((tmp_path / "out" / "check.json").read_text())
    last = report["invariants"][-1]
    assert last["name"].startswith("surface-wave-root (") and last["pass"] is False
    assert "not finite" in last["name"]
    assert capsys.readouterr().out.strip() == f"check: FAIL ({last['name']})"


@pytest.mark.parametrize("u_l", [TINY_U, 1e-160, 1e-165, 1e-200, 1e-300])
def test_mode_residual_norms_do_not_overflow(tmp_path, capsys, u_l):
    # The mode matrices there have entries near 5e155 and up, whose squares
    # overflow unless mode_residuals scales them first; check then writes
    # check.json with its eigenvector rows instead of dying on a
    # RuntimeWarning.  From 1e-165 down both determinants of the sweep
    # underflow to 0, and their relative gap is a NaN, failed row.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run(tmp_path, "check", left__u=u_l, right__u=u_l / 0.45)
    assert rc == 1
    report = json.loads((tmp_path / "out" / "check.json").read_text())
    rows = {item["name"]: item for item in report["invariants"]}
    # Each row passes (about 2e-17, 2e-16 and 4e-16): a scaling lost would
    # no longer raise, the checked overflow being ignored, but would fail
    # these rows.
    for name in ("eigenvector-residual", "left-eigenvector-residual", "dispersion-residual"):
        assert rows[name]["pass"] is True, rows[name]
    captured = capsys.readouterr()
    assert captured.out.startswith("check: FAIL (surface-wave-root (") and captured.err == ""


@pytest.mark.parametrize("d", [2, 3, 4])
def test_subnormal_velocities_are_failed_rows_in_check(tmp_path, capsys, d):
    # At u_l = 9e-309 the grid's modes overflow (eta0/u); check writes them
    # as NaN rows and ends on the root floating point cannot represent,
    # instead of dying on a RuntimeWarning.
    eta_t = {2: [1.0], 3: [0.6, 0.8], 4: [0.36, 0.48, 0.8]}[d]
    u_l = 9e-309
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run(tmp_path, "check", d=d, eta_t=eta_t, left__u=u_l, right__u=u_l / 0.45)
    assert rc == 1
    report = json.loads((tmp_path / "out" / "check.json").read_text())
    rows = {item["name"]: item for item in report["invariants"]}
    for name in ("eigenvector-residual", "left-eigenvector-residual"):
        assert math.isnan(float(rows[name]["residual"])) and rows[name]["pass"] is False
    captured = capsys.readouterr()
    assert captured.out.strip() == (
        "check: FAIL (surface-wave-root (floating point cannot represent the root (eta0 = 0.0)))"
    )
    assert captured.err == ""


@pytest.mark.parametrize("u_l", [9e-307, 9e-308])
def test_subnormal_velocities_fail_the_scan(tmp_path, capsys, u_l):
    # At d = 3 the LU of the raw determinant divides by zero on fixture_a's
    # 100-point scan; the scan writes its table and refuses the non-finite
    # determinant.
    changes = dict(d=3, eta_t=[0.6, 0.8], left__u=u_l, right__u=u_l / 0.45, scan__steps=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run(tmp_path, "scan", **changes)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out.strip() == "scan: determinant not finite at eta0 = 0.083333333333333343"
    assert captured.err == ""
    assert (tmp_path / "out" / "scan.csv").is_file()


@pytest.mark.parametrize("u_l", [1e-20, 1e-75])
def test_sigma_minors_judged_at_tiny_velocities(tmp_path, capsys, u_l):
    # sigma* is normal there, so check judges the minors against the closed
    # form (about 9e-15 and 3e-14); the verdict names the determinant row,
    # whose relative gap reads 1.0 at this low Mach number.
    assert run(tmp_path, "check", left__u=u_l, right__u=u_l / 0.45) == 1
    report = json.loads((tmp_path / "out" / "check.json").read_text())
    rows = {item["name"]: item for item in report["invariants"]}
    minors = rows["sigma-minors-vs-closed"]
    assert minors["pass"] is True and minors["residual"] <= 1e-10
    assert rows["delta-raw-vs-closed"]["residual"] == pytest.approx(1.0, abs=1e-9)
    assert [name for name, row in rows.items() if not row["pass"]] == ["delta-raw-vs-closed"]
    assert capsys.readouterr().out.strip() == "check: FAIL (delta-raw-vs-closed)"


UNDERFLOW_U = 1e-100


@pytest.mark.parametrize("command", ["root", "coeffs", "simulate"])
def test_underflowed_sigma_is_no_surface_wave(tmp_path, capsys, command):
    # At u_l = 1e-100 eta0 is representable, but sigma* underflows.
    assert run(tmp_path, command, left__u=UNDERFLOW_U, right__u=UNDERFLOW_U / 0.45) == 1
    out = capsys.readouterr().out.strip()
    assert out.startswith(f"{command}: no surface wave (sigma* at the root eta0 = ")
    assert out.endswith(" underflows)")


def test_underflowed_sigma_named_by_check(tmp_path, capsys):
    assert run(tmp_path, "check", left__u=UNDERFLOW_U, right__u=UNDERFLOW_U / 0.45) == 1
    report = json.loads((tmp_path / "out" / "check.json").read_text())
    last = report["invariants"][-1]
    assert last["name"].startswith("surface-wave-root (sigma* at the root eta0 = ")
    assert last["name"].endswith(" underflows)") and last["pass"] is False
    assert capsys.readouterr().out.strip() == f"check: FAIL ({last['name']})"
