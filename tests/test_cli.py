import json
from pathlib import Path

import numpy as np
import pytest

from phasewave import __version__, build_kernel, find_root, init_field, rk4_step
from phasewave.cli import main
from phasewave.config import build_boundary, sim_config
from phasewave.errors import NoRootError

from conftest import CONFIGS

BASE_CONFIG = {
    "d": 2,
    "left": {"rho": 1.0, "u": 0.9, "c2": 4.0, "pp": 0.5},
    "right": {"rho": 0.45, "u": 2.0, "c2": 9.0, "pp": 0.5},
    "mu": 1.0,
    "eta_t": [1.0],
    "scan": {"eta0_min": 0.05, "eta0_max": 1.7, "steps": 100},
    "sim": {
        "dk": 0.1,
        "N": 32,
        "dt": 0.01,
        "T": 0.5,
        "output_every": 10,
        "init": {"name": "single_mode", "k0": 1.0, "A": 0.001},
    },
    "seed": 7,
}


def write_config(tmp_path: Path, overrides=None, **replacements) -> Path:
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg.update(replacements)
    if overrides:
        for dotted, value in overrides.items():
            node = cfg
            keys = dotted.split(".")
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return header, rows


class TestCheck:
    def test_fixture_passes(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "check.json").read_text())
        assert report["pass"] is True
        assert all(item["pass"] for item in report["invariants"])

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check", "--config", str(path)]) == 2

    def test_unknown_field_rejected(self, tmp_path):
        cfg = write_config(tmp_path, extra_field=1.0)
        assert main(["check", "--config", str(cfg)]) == 2

    def test_unknown_state_field_rejected(self, tmp_path):
        cfg = write_config(tmp_path, overrides={"left.viscosity": 0.1})
        assert main(["check", "--config", str(cfg)]) == 2

    def test_missing_required_field(self, tmp_path):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        del cfg["mu"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["check", "--config", str(path)]) == 2

    def test_eos_config_passes(self, tmp_path):
        cfg = {
            "d": 2,
            "eos": {"a": 3.0, "b": 1.0 / 3.0, "RT": 0.9},
            "brackets": [[5e-4, 0.01], [2.3, 2.99]],
            "eta_t": [1.0],
            "seed": 0,
        }
        path = tmp_path / "eos.json"
        path.write_text(json.dumps(cfg))
        assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "check.json").read_text())
        names = {item["name"] for item in report["invariants"]}
        assert {"momentum-jump", "enthalpy-jump"} <= names

    def test_late_failure_names_its_row(self, tmp_path, monkeypatch, capsys):
        import phasewave.cli as cli_mod

        monkeypatch.setattr(cli_mod, "sigma_r3_residual", lambda root: 1.0)
        cfg = write_config(tmp_path)
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "check.json").read_text())
        assert report["pass"] is False
        assert [item["name"] for item in report["invariants"] if not item["pass"]] == [
            "sigma-r3-relation"
        ]
        assert capsys.readouterr().out.strip() == "check: FAIL (sigma-r3-relation)"

    @pytest.mark.parametrize(
        "field,entry,row",
        [
            ("L_plus", (2, 0), "left-eigenvector-residual"),
            ("R_minus", (1, 2), "eigenvector-residual"),
            ("beta_minus", (1,), "dispersion-residual"),
        ],
    )
    def test_nonfinite_sampled_mode_fails_its_row(self, tmp_path, monkeypatch, field, entry, row):
        # A NaN at one of the 20 grid frequencies reaches the row's maximum.
        import dataclasses

        import phasewave.cli as cli_mod

        build = cli_mod.normal_modes

        def poisoned(pb, eta):
            modes = build(pb, eta)
            arr = getattr(modes, field).copy()
            arr[(3,) + entry] = np.nan
            return dataclasses.replace(modes, **{field: arr})

        monkeypatch.setattr(cli_mod, "normal_modes", poisoned)
        cfg = write_config(tmp_path)
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "check.json").read_text())
        rows = {item["name"]: item for item in report["invariants"]}
        assert rows[row]["residual"] == "nan" and rows[row]["pass"] is False
        assert report["pass"] is False


class TestScan:
    def test_hundred_rows_agree(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["scan", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "scan.csv")
        assert header == ["eta0", "re_delta_raw", "im_delta_raw", "re_delta_closed", "im_delta_closed"]
        assert len(rows) == 100
        for eta0, rr, ri, cr, ci in rows:
            raw = complex(rr, ri)
            closed = complex(cr, ci)
            assert abs(raw - closed) <= 1e-10 * max(abs(raw), abs(closed))

    def test_two_rows(self, tmp_path):
        cfg = write_config(tmp_path, overrides={"scan.steps": 2})
        assert main(["scan", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "scan.csv")
        assert len(rows) == 2

    def test_zero_wavevector_exits_one(self, tmp_path, capsys):
        # Frequency refuses eta_t = 0 before any scan range is judged, with
        # the message root gives.
        cfg = write_config(tmp_path, eta_t=[0.0])
        out = tmp_path / "out"
        assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "scan: tangential wavevector must be nonzero\n")
        assert not (out / "scan.csv").exists()

    def test_range_outside_elliptic_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, overrides={"scan.eta0_max": 5.0})
        assert main(["scan", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_eta0_zero_at_d3_exits_one(self, tmp_path, capsys):
        # The grid starts at eta0 = 0, where the advected left eigenvectors
        # are singular for d >= 3; the whole scan is refused, no file written.
        cfg = write_config(tmp_path, d=3, eta_t=[0.6, 0.8], overrides={"scan.eta0_min": 0.0})
        out = tmp_path / "out"
        assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 1
        assert "singular at eta0=0" in capsys.readouterr().err
        assert not (out / "scan.csv").exists()


class TestRoot:
    def test_report(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["root", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "root.json").read_text())
        assert report["eta0"] == pytest.approx(0.9563775980592719, rel=1e-12)
        assert len(report["sigma_star"]) == 4
        assert len(report["gamma1"]) == 2


COEFFS_ROWS = [
    ("alpha0-imag", 1e-12),
    ("alpha0-closed-vs-abstract", 1e-10),
    ("alpha0-closed-vs-fd", 1e-6),
    ("final-simplification", 1e-10),
    ("b-identity", 1e-10),
    ("oracle-vs-closed", 1e-9),
    ("region1-constancy", 1e-10),
    ("region2-proportionality", 1e-10),
    ("hamiltonian-symmetry", 1e-10),
]


class TestCoeffs:
    def test_report_contents(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["coeffs", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.strip() == "coeffs: PASS"
        report = json.loads((tmp_path / "coeffs.json").read_text())
        assert list(report) == [
            "pass", "invariants", "alpha0", "Q", "Q_l", "Q_r", "Q_sharp", "Q_b", "Q_nat",
            "q5_conjugation_pattern",
        ]
        assert report["pass"] is True
        rows = report["invariants"]
        assert [(row["name"], row["tol"]) for row in rows] == COEFFS_ROWS
        assert all(row["pass"] and row["residual"] <= row["tol"] for row in rows)
        # b-identity holds tighter here than its tolerance for random states.
        assert rows[4]["residual"] <= 1e-12
        assert report["q5_conjugation_pattern"] == "conjugate"

    def test_failed_row_exits_one(self, tmp_path, monkeypatch, capsys):
        import phasewave.cli as cli_mod

        monkeypatch.setattr(cli_mod, "final_simplification_residual", lambda kc, root: 1.0)
        cfg = write_config(tmp_path)
        assert main(["coeffs", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().out.strip() == "coeffs: FAIL (final-simplification)"
        report = json.loads((tmp_path / "coeffs.json").read_text())
        assert report["pass"] is False
        failed = [row["name"] for row in report["invariants"] if not row["pass"]]
        assert failed == ["final-simplification"]

    def test_no_root_exits_one(self, tmp_path, monkeypatch, capsys):
        import phasewave.cli as cli_mod

        def broken(pb, eta_t):
            raise NoRootError("forced for the test")

        monkeypatch.setattr(cli_mod, "find_root", broken)
        cfg = write_config(tmp_path)
        assert main(["coeffs", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "no surface wave" in capsys.readouterr().out

    def test_vanishing_constants_are_a_failed_row(self, tmp_path, capsys):
        # fixture_a scaled to u_l = 1e-75: the root and sigma* are
        # representable, but alpha0 and Q_nat underflow to 0 there.
        u_l = 1e-75
        cfg = write_config(
            tmp_path, overrides={"left.u": u_l, "right.u": u_l / 0.45}
        )
        assert main(["coeffs", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "coeffs.json").read_text())
        assert report["pass"] is False
        (row,) = report["invariants"]
        assert row["name"].startswith("kernel-constants (") and row["pass"] is False
        assert "alpha0 and Q_nat vanished" in row["name"]
        assert capsys.readouterr().out.strip() == f"coeffs: FAIL ({row['name']})"


class TestRootScalars:
    @pytest.mark.parametrize(
        "field, row",
        [
            ("w2_l", "oracle-vs-closed"),
            ("w2_r", "alpha0-closed-vs-abstract"),
            # The own-side factors z enter no other row read after the root:
            # sigma, built from them, is not recomputed here.
            ("zl_p", "lemma4-identities"),
            ("zl_m", "lemma4-identities"),
            ("zr_p", "lemma4-identities"),
            ("zr_m", "lemma4-identities"),
            ("xl_p", "dd1-factorizations"),
            ("xl_m", "gamma-forms"),
            ("xr_p", "b-identity"),
            ("xr_m", "b-identity"),
        ],
    )
    def test_perturbed_scalar_fails_a_root_row(self, tmp_path, monkeypatch, field, row):
        # Each shared root quantity is read by a closed form that some check
        # or coeffs row compares with an oracle: a 1e-6 relative error in it
        # alone, in the root both commands read, fails that row.  coeffs
        # computes its kernel constants from the perturbed root.
        import dataclasses

        import phasewave.cli as cli_mod

        find = cli_mod.find_root

        def perturbed(pb, eta_t):
            root = find(pb, eta_t)
            value = getattr(root.scalars, field) * (1 + 1e-6)
            return dataclasses.replace(
                root, scalars=dataclasses.replace(root.scalars, **{field: value})
            )

        monkeypatch.setattr(cli_mod, "find_root", perturbed)
        cfg = write_config(tmp_path)
        failed = []
        for command in ("check", "coeffs"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) in (0, 1)
            report = json.loads((tmp_path / f"{command}.json").read_text())
            failed += [item["name"] for item in report["invariants"] if not item["pass"]]
        assert row in failed


class TestSimulate:
    def test_zero_amplitude_zero_l2(self, tmp_path):
        cfg = write_config(tmp_path, overrides={"sim.init.A": 0.0})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "diag.csv")
        l2_col = header.index("l2")
        assert all(row[l2_col] == 0.0 for row in rows)

    def test_diag_columns_end_with_the_step_count_and_error(self, tmp_path):
        cfg = write_config(tmp_path, overrides={"sim.init.A": 0.5})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "diag.csv")
        assert header[-3:] == ["energy", "steps", "step_err"]
        assert rows[0][-2:] == [0.0, 0.0]
        assert all(row[-2] >= 1.0 and 0.0 < row[-1] < 1e-10 for row in rows[1:])
        assert np.isfinite(rows).all()

    def test_mode_between_grid_points_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, overrides={"sim.init.k0": 1.03})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "k0=1.03 is not a multiple of dk=0.1" in capsys.readouterr().err
        assert not (out / "diag.csv").exists()

    def test_mean_constant(self, tmp_path):
        cfg = write_config(tmp_path, overrides={"sim.T": 1.0, "sim.init.A": 0.05})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "diag.csv")
        re_col = header.index("mean_re")
        im_col = header.index("mean_im")
        for row in rows:
            assert abs(row[re_col] - rows[0][re_col]) <= 1e-12
            assert abs(row[im_col] - rows[0][im_col]) <= 1e-12

    def test_dt_halving_order_report(self, tmp_path):
        # At dt, dt/2 and dt/4, `dt` sets only the row grid and the first
        # trial step: each final snapshot spectrum agrees with fixed-step
        # RK4 at dt/8 to the step tolerance.  Measured 3.5e-12 to 3.6e-12 of
        # max|what| at every dt (fixed RK4 at dt itself: 1.4e-12, 8.5e-14 and
        # 5.4e-15).
        for i, dt in enumerate((0.04, 0.02, 0.01)):
            out = tmp_path / f"run{i}"
            path = write_config(
                tmp_path,
                overrides={
                    "sim.dt": dt,
                    "sim.T": 0.8,
                    "sim.init": {"name": "gaussian_bump", "A": 0.5, "k0": 1.0, "s": 0.5},
                    "sim.snapshots": True,
                    "sim.output_every": 10**6,
                },
            )
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            _, rows = read_csv(out / "snapshots.csv")
            tau_end = max(row[0] for row in rows)
            assert tau_end == 0.8
            spec = np.array([complex(row[2], row[3]) for row in rows if row[0] == tau_end])
            cfg = json.loads(path.read_text())
            kernel = build_kernel(find_root(build_boundary(cfg), np.asarray(cfg["eta_t"], dtype=float)))
            ref = init_field(sim_config(cfg), cfg["seed"])
            for _ in range(8 * round(0.8 / dt)):
                ref = rk4_step(ref, kernel, kernel.constants.alpha0, dt / 8)
            assert np.max(np.abs(spec - ref.what)) <= 1e-11 * np.max(np.abs(ref.what))

    def test_written_spectrum_hermitian(self, tmp_path):
        # The evolution state is the half spectrum k >= 0; the written rows
        # at -k must be its exact conjugate mirror at every snapshot.
        cfg = write_config(
            tmp_path,
            overrides={"sim.init": {"name": "random_smooth", "A": 0.5}, "sim.snapshots": True},
            seed=3,
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "snapshots.csv")
        assert header == ["tau", "k", "re_what", "im_what"]
        spectra = {}
        for tau, k, re, im in rows:
            spectra.setdefault(tau, {})[k] = complex(re, im)
        assert len(spectra) == 6
        for spectrum in spectra.values():
            assert len(spectrum) == 2 * 32 + 1
            for k, value in spectrum.items():
                assert spectrum[-k] == value.conjugate()

    def test_fixture_a_ends_at_a_T_between_steps(self, tmp_path, capsys):
        # T = 1.005 is not a whole number of dt = 0.01: the rows every 0.2
        # below T are followed by one at T, and the verdict names T.
        cfg = json.loads((CONFIGS / "fixture_a.json").read_text())
        cfg["sim"]["T"] = 1.005
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == "simulate: completed to tau = 1.0049999999999999\n"
        _, rows = read_csv(tmp_path / "diag.csv")
        assert [row[0] for row in rows] == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.005]

    def test_physical_output(self, tmp_path):
        cfg = write_config(tmp_path, overrides={"sim.physical": True, "sim.T": 0.1})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "physical.csv")
        assert header == ["tau", "x", "w"]
        assert len(rows) == 2 * 32 + 1


class TestDeterminism:
    def test_coeffs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["coeffs", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["coeffs", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "coeffs.json").read_bytes() == (out2 / "coeffs.json").read_bytes()

    def test_simulate_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            overrides={"sim.init": {"name": "random_smooth", "A": 0.5}, "sim.snapshots": True},
            seed=7,
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("diag.csv", "snapshots.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("name", ["fixture_a", "vdw"])
    def test_check_does_not_depend_on_the_seed(self, tmp_path, name):
        # check judges its frequency rows on one fixed grid; the seed only
        # draws a random_smooth spectrum, which check never builds.
        cfg = CONFIGS / f"{name}.json"
        reports = set()
        for seed in ("0", "7", "12345"):
            out = tmp_path / seed
            assert main(["check", "--config", str(cfg), "--out", str(out), "--seed", seed]) == 0
            reports.add((out / "check.json").read_bytes())
        assert len(reports) == 1

    def test_seed_override_changes_random_profile(self, tmp_path):
        cfg = write_config(
            tmp_path, overrides={"sim.init": {"name": "random_smooth", "A": 0.5}}
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1), "--seed", "1"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "2"]) == 0
        assert (out1 / "diag.csv").read_bytes() != (out2 / "diag.csv").read_bytes()


class TestArgv:
    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_negative_seed_override_exits_two(self, tmp_path, capsys, command):
        # The override obeys the config's own rule, seed >= 0, and is refused
        # before any physics runs.
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as refused:
            main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert refused.value.code == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_argv_between_two_commands(self, tmp_path, capsys):
        # main builds its parser once per process; a refused argv must leave
        # it usable for the next call, with no option carried over.
        cfg = write_config(tmp_path)
        assert main(["root", "--config", str(cfg), "--out", str(tmp_path / "a"), "--seed", "3"]) == 0
        with pytest.raises(SystemExit) as refused:
            main(["coeffs", "--seed", "three", "--config", str(cfg)])
        assert refused.value.code == 2
        assert "invalid int value: 'three'" in capsys.readouterr().err
        assert main(["coeffs", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "root.json").is_file()
        assert (tmp_path / "b" / "coeffs.json").is_file()

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["--version"])
        assert done.value.code == 0
        assert capsys.readouterr().out.strip() == __version__
