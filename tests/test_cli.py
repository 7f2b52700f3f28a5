"""Tests for the command line front end: verdict text, exit codes,
config precedence, and byte-identical reruns."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import affinesurf
from affinesurf import cli
from affinesurf.errors import ClassificationInconclusiveError
from affinesurf.geodesics import GeodesicTrajectory


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_half_plane_identity_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--type", "B", "--", "-1", "0", "0", "-1", "-1", "0"
        )
        assert code == 0
        assert out.splitlines()[0] == "L2, witness: identity"

    def test_flat_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--type", "B", "--", "0", "0", "0", "0", "0", "0"
        )
        assert code == 0
        assert out.splitlines()[0] == "Flat"

    def test_constant_chart_first_model(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--type", "A", "--", "-1", "0", "-1/2", "0", "0", "0"
        )
        assert code == 0
        assert out == "S1\nwitness: [[1.0, 0.0], [0.0, 1.0]]\nresidual: 0.000e+00\n"

    def test_parameter_family_verdict_carries_c(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--type", "B", "--", "-1", "0", "0", "3/2", "0", "0"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("S4:c=3/2")

    def test_not_symmetric_is_a_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--type", "A", "--", "1", "2", "3", "4", "5", "6"
        )
        assert code == 0
        assert out.splitlines()[0] == "NotLocallySymmetric"

    def test_malformed_rational_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "classify", "--type", "A", "--", "x", "0", "0", "0", "0", "0"
        )
        assert code == 2
        assert "cannot parse" in err

    def test_negative_rationals_need_no_separator(self, capsys):
        coeffs = ["-1", "0", "-1/2", "0", "0", "0"]
        bare = run_cli(capsys, "classify", "--type", "A", *coeffs)
        assert bare == run_cli(capsys, "classify", "--type", "A", "--", *coeffs)
        assert bare[:2] == (0, "S1\nwitness: [[1.0, 0.0], [0.0, 1.0]]\nresidual: 0.000e+00\n")
        # options may still follow the coefficients
        assert run_cli(capsys, "classify", "--type", "A", *coeffs, "--tol", "1e-9") == bare

    def test_unknown_flag_among_coefficients_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", "--type", "A", "-x", "0", "-1/2", "0", "0", "0"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_inconclusive_exits_3(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise ClassificationInconclusiveError("budget exhausted")

        monkeypatch.setattr(cli, "classify_type_a", boom)
        code, _, err = run_cli(
            capsys, "classify", "--type", "A", "--", "1", "0", "0", "0", "0", "0"
        )
        assert code == 3
        assert "inconclusive" in err


class TestShowConfig:
    def test_prints_all_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "--show-config")
        assert code == 0
        cfg = json.loads(out)
        assert set(cfg) == {"classify", "geodesic", "expmap", "spray", "curvature"}
        assert cfg["classify"]["seed"] == 1902

    def test_no_command_exits_2(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2
        assert "usage" in err


class TestGeodesic:
    def test_csv_and_fit_summary(self, capsys, tmp_path):
        out_file = tmp_path / "geo.csv"
        code, out, _ = run_cli(
            capsys,
            "geodesic", "--model", "L2", "--p0", "1,0", "--v0", "0,1",
            "--tspan", "0,3", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "t,x1,x2,v1,v2"
        assert lines[1].startswith("0,1,0,0,1")
        assert "fit: family=spacelike lambda=1 c=1 beta=0" in out
        assert "status forward: blowup" in out

    @pytest.mark.parametrize("v0, family", [("1,0", "vertical"), ("0,0", "point")])
    def test_l2_fit_line_without_beta(self, capsys, v0, family):
        # vertical and zero launches have no orbit hyperbola, hence no beta
        code, out, _ = run_cli(
            capsys,
            "geodesic", "--model", "L2", "--p0", "2,0", "--v0", v0,
            "--tspan=-1,1.2", "--format", "text",
        )
        assert code == 0
        lam = "-0.25" if family == "vertical" else "0"
        assert f"fit: family={family} lambda={lam} c=0\n" in out
        assert "beta" not in out

    def test_svg_output(self, capsys, tmp_path):
        out_file = tmp_path / "geo.svg"
        code, _, _ = run_cli(
            capsys,
            "geodesic", "--model", "S3", "--p0", "0,0", "--v0", "1,0",
            "--tspan=-2,2", "--format", "svg", "--out", str(out_file),
        )
        assert code == 0
        text = out_file.read_text()
        assert text.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in text
        assert "<polyline" in text

    def test_text_format_writes_no_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "geodesic", "--model", "H2", "--p0", "1,0", "--v0", "0,1",
            "--tspan=-1,1", "--format", "text",
        )
        assert code == 0
        assert "t,x1,x2" not in out
        assert "status forward: complete" in out

    def test_unknown_model_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "geodesic", "--model", "Q9", "--p0", "1,0", "--v0", "0,1",
            "--tspan", "0,1",
        )
        assert code == 2
        assert "error" in err

    def test_bad_span_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "geodesic", "--model", "L2", "--p0", "1,0", "--v0", "0,1",
            "--tspan", "1,3",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "tols", [("--rtol=0", "--atol=0"), ("--rtol=-1",), ("--atol=nan",)]
    )
    def test_bad_tolerances_exit_2(self, capsys, tols):
        code, out, err = run_cli(
            capsys,
            "geodesic", "--model", "H2", "--p0", "1,0", "--v0", "0,1",
            "--tspan=-1,1", *tols,
        )
        assert code == 2 and out == ""
        assert "tolerances" in err

    def test_zero_atol_runs_without_a_warning(self, capsys):
        # v0 = (0, 1) from (1, 0) has zero components, so atol = 0 gives a
        # zero error scale; the suite turns a NumPy RuntimeWarning into an error
        code, out, err = run_cli(
            capsys,
            "geodesic", "--model", "H2", "--p0", "1,0", "--v0", "0,1",
            "--tspan=-1,1", "--atol", "0",
        )
        assert code == 0 and err == ""
        assert out.startswith("t,x1,x2,v1,v2\n-1,")

    def test_stalled_run_exits_4(self, capsys, monkeypatch):
        stub = GeodesicTrajectory(
            t=np.array([0.0, 0.5]),
            x=np.array([[1.0, 0.0], [1.1, 0.1]]),
            v=np.array([[0.0, 1.0], [0.0, 1.0]]),
            status_forward="stalled",
            status_backward="not_requested",
        )
        monkeypatch.setattr(cli, "integrate_geodesic", lambda *a, **k: stub)
        code, _, _ = run_cli(
            capsys,
            "geodesic", "--model", "L2", "--p0", "1,0", "--v0", "0,1",
            "--tspan", "0,1", "--format", "text",
        )
        assert code == 4


class TestExpmap:
    def test_counts_and_csv(self, capsys, tmp_path):
        out_file = tmp_path / "cover.csv"
        code, out, _ = run_cli(
            capsys,
            "expmap", "--model", "L2", "--base", "1,0",
            "--window", "0,4,-4,4", "--cells", "24", "--out", str(out_file),
        )
        assert code == 0
        assert "cells: 24x24" in out
        assert "unreached:" in out
        lines = out_file.read_text().splitlines()
        assert len(lines) == 24
        assert all(len(line.split(",")) == 24 for line in lines)

    def test_svg_cells(self, capsys, tmp_path):
        out_file = tmp_path / "cover.svg"
        code, _, _ = run_cli(
            capsys,
            "expmap", "--model", "L2", "--base", "1,0",
            "--window", "0,4,-4,4", "--cells", "16",
            "--format", "svg", "--out", str(out_file),
        )
        assert code == 0
        text = out_file.read_text()
        assert text.startswith('<?xml version="1.0"')
        assert "<rect" in text

    @pytest.mark.parametrize("angles", ["0", "-3"])
    def test_sweep_without_angles_exits_2(self, capsys, angles):
        code, out, err = run_cli(
            capsys,
            "expmap", "--model", "H2", "--base", "1,0",
            "--window", "0,2,-1,1", "--cells", "4", f"--angles={angles}",
        )
        assert code == 2
        assert "angles" in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_bad_tol_exits_2(self, capsys, tol):
        code, out, err = run_cli(
            capsys,
            "expmap", "--model", "L2", "--base", "1,0",
            "--window", "0,2,-1,1", "--cells", "4", f"--tol={tol}",
        )
        assert code == 2 and out == ""
        assert "tol must be a positive finite number" in err

    def test_base_outside_chart_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "expmap", "--model", "L2", "--base=-1,0",
            "--window", "0,4,-4,4", "--cells", "8",
        )
        assert code == 2
        assert "error" in err

    def test_default_sweep_csv_is_pinned(self, capsys, tmp_path):
        # SHA-256 of a numeric map at the default 256 angles and t_max 40
        out_file = tmp_path / "cover.csv"
        code, _, _ = run_cli(
            capsys,
            "expmap", "--model", "H2", "--base", "1,0",
            "--window", "0.05,4,-3,3", "--cells", "40", "--out", str(out_file),
        )
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
            "3ef8c396787dd80dcac8c3471cdbead20d1c055aea82827fedbb132105149a63")

    @pytest.mark.parametrize("tmax", ["-1", "0", "nan"])
    def test_bad_time_bound_exits_2(self, capsys, tmax):
        code, out, err = run_cli(
            capsys,
            "expmap", "--model", "H2", "--base", "1,0",
            "--window", "0.5,2,-1,1", "--cells", "4", f"--tmax={tmax}",
        )
        assert code == 2 and out == ""
        assert "time bound must be positive and finite" in err


class TestSpray:
    def test_pseudosphere_chart_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "spray", "--verify", "TS2", "--grid", "11")
        assert code == 0
        assert "max defect" in out
        assert "< 1e-8" in out

    def test_half_plane_chart_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "spray", "--verify", "TL2", "--grid", "9")
        assert code == 0
        assert "< 1e-8" in out

    def test_composition_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "spray", "--verify", "composition", "--grid", "9"
        )
        assert code == 0
        assert "< 1e-7" in out

    def test_spine_verdict_and_csv(self, capsys, tmp_path):
        out_file = tmp_path / "defects.csv"
        code, out, _ = run_cli(
            capsys,
            "spray", "--verify", "spine-vertical", "--grid", "5",
            "--out", str(out_file),
        )
        assert code == 0
        assert "< 1e-6" in out
        lines = out_file.read_text().splitlines()
        assert lines[0] == "s,t,d_ss,d_st,d_tt"
        assert len(lines) == 1 + 25

    @pytest.mark.parametrize("target", ["spine-vertical", "spine-horizontal"])
    def test_closed_spines_verify_to_rounding(self, capsys, target):
        code, out, _ = run_cli(capsys, "spray", "--verify", target, "--grid", "41")
        assert code == 0
        defect = float(re.search(r"max defect (\S+)", out).group(1))
        assert defect < 1e-12

    # SHA-256 of (stdout, --out CSV) of `spray --verify <target> --grid 41`,
    # recorded before the pullback and the defect rows had one code path each
    GRID_41_DIGESTS = {
        "TS2": (
            "75311644c86e48c7e16fc564dda7339c9e03d57f45dd2a7def0865d372a511f3",
            "94c1cd23ffe0b3ad19cc36659a313e410b95516c0722c832e68e9a1a21f5903e",
        ),
        "TL2": (
            "a7edbfda898aecf2eafa027defbaad30a66845f39968261d0e55d317b77e0520",
            "0372f52c2559608e199eb9f2ecf56ab8749c523d18ebf9448ded1516029c3de5",
        ),
        "composition": (
            "ee381315873bcf07bb55831453c098f7cf27ffb6bc4270e6ea975af9b1f13dbd",
            "1690e64c4ac6566d47ad787c6cc6f290ef6096e945448cd52b9dab69943d46f2",
        ),
        # the spine entries were re-recorded when the spine charts became
        # closed maps on the complex-step pullback
        "spine-vertical": (
            "a5da16c51850bbd1b515dcd1dd345c031cc189895b77ea6084977dec1d46b9b0",
            "7e042054e024dd6c17f9769d44c60bc3080f4797825774569a4f437de02f65e4",
        ),
        "spine-horizontal": (
            "eb4260fb54faee68c46b4cddebd1562bf1170914cc81b04f729824c5506b911c",
            "134f109dbfda9579c817078d0a948e120153f57cda10e6370219009cc4a42545",
        ),
    }

    @pytest.mark.parametrize("target", sorted(GRID_41_DIGESTS))
    def test_grid_41_stdout_and_csv_bytes_are_pinned(self, capsys, tmp_path, target):
        out_file = tmp_path / "defects.csv"
        code, out, _ = run_cli(
            capsys, "spray", "--verify", target, "--grid", "41", "--out", str(out_file)
        )
        assert code == 0
        got = (
            hashlib.sha256(out.encode("ascii")).hexdigest(),
            hashlib.sha256(out_file.read_bytes()).hexdigest(),
        )
        assert got == self.GRID_41_DIGESTS[target]

    @pytest.mark.parametrize("grid", ["0", "-1"])
    def test_grid_below_one_exits_2(self, capsys, grid):
        code, out, err = run_cli(capsys, "spray", "--verify", "TS2", f"--grid={grid}")
        assert code == 2
        assert out == ""
        assert "--grid" in err


class TestCurvature:
    def test_named_model_report(self, capsys):
        code, out, _ = run_cli(capsys, "curvature", "--model", "L2")
        assert code == 0
        assert "ricci exact: [[-1, 0], [0, 1]] * x1^-2" in out
        assert "locally symmetric: true" in out
        assert "flat: false" in out

    def test_raw_constant_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "curvature", "--type", "A", "--point", "0,0",
            "--", "-1", "0", "-1/2", "0", "0", "0",
        )
        assert code == 0
        assert "ricci exact: [[0, 0], [0, -1/4]]" in out
        assert "x1^-" not in out

    def test_negative_rationals_need_no_separator(self, capsys):
        coeffs = ["-1", "0", "0", "-1", "-1/3", "0"]
        bare = run_cli(capsys, "curvature", "--type", "B", *coeffs)
        assert bare == run_cli(capsys, "curvature", "--type", "B", "--", *coeffs)
        assert bare[0] == 0 and "ricci exact: [[-1, 0], [0, 1/3]] * x1^-2" in bare[1]
        with pytest.raises(SystemExit) as exc:
            cli.main(["curvature", "--type", "B", *coeffs[:5], "-x"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_analytic_model_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "curvature", "--model", "pseudosphere", "--point", "0.7,1.3"
        )
        assert code == 0
        assert "kind: analytic" in out
        assert "ricci exact" not in out
        assert "locally symmetric: true" in out

    def test_requires_exactly_one_source(self, capsys):
        code, _, _ = run_cli(capsys, "curvature")
        assert code == 2
        code, _, _ = run_cli(
            capsys,
            "curvature", "--model", "L2", "--type", "A",
            "--", "0", "0", "0", "0", "0", "0",
        )
        assert code == 2

    def test_wrong_coefficient_count(self, capsys):
        code, _, _ = run_cli(
            capsys, "curvature", "--type", "A", "--", "1", "2", "3"
        )
        assert code == 2


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"expmap": {"cells": 12}}))
        code, out, _ = run_cli(
            capsys,
            "--config", str(cfg),
            "expmap", "--model", "L2", "--base", "1,0",
            "--window", "0,4,-4,4", "--format", "csv",
        )
        assert code == 0
        assert "cells: 12x12" in out

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"expmap": {"cells": 12}}))
        code, out, _ = run_cli(
            capsys,
            "--config", str(cfg),
            "expmap", "--model", "L2", "--base", "1,0",
            "--window", "0,4,-4,4", "--cells", "8",
        )
        assert code == 0
        assert "cells: 8x8" in out

    def test_unreadable_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(
            capsys, "--config", str(cfg), "spray", "--verify", "TS2"
        )
        assert code == 2
        assert "config" in err

    def test_non_object_section_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"spray": 5}))
        code, out, err = run_cli(
            capsys, "--config", str(cfg), "spray", "--verify", "TS2"
        )
        assert code == 2
        assert out == ""
        assert "'spray'" in err

    @pytest.mark.parametrize("value", [2.7, 2.0, True, "3", None])
    @pytest.mark.parametrize("command, key", [
        (("spray", "--verify", "TS2"), "grid"),
        (("expmap", "--model", "L2", "--base", "1,0", "--window", "0,4,-4,4"), "cells"),
        (("expmap", "--model", "L2", "--base", "1,0", "--window", "0,4,-4,4"), "angles"),
        (("geodesic", "--model", "H2", "--p0", "1,0", "--v0", "0,1", "--tspan", "0,1",
          "--format", "text"), "samples"),
    ])
    def test_non_integer_option_exits_2(self, capsys, tmp_path, command, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({command[0]: {key: value}}))
        code, out, err = run_cli(capsys, "--config", str(cfg), *command)
        assert code == 2
        assert out == ""
        assert f"'{key}'" in err


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, capsys, tmp_path):
        batches = [
            ["classify", "--type", "A", "--", "-1", "0", "-1/2", "0", "0", "0"],
            [
                "geodesic", "--model", "L2", "--p0", "1,0", "--v0", "0,1",
                "--tspan", "0,3",
            ],
            [
                "expmap", "--model", "L2", "--base", "1,0",
                "--window", "0,4,-4,4", "--cells", "16",
            ],
            ["spray", "--verify", "TL2", "--grid", "7"],
        ]
        for argv in batches:
            first = run_cli(capsys, *argv)
            second = run_cli(capsys, *argv)
            assert first == second

    def test_file_outputs_byte_identical(self, capsys, tmp_path):
        paths = []
        for name in ("a.svg", "b.svg"):
            out_file = tmp_path / name
            code, _, _ = run_cli(
                capsys,
                "expmap", "--model", "L2", "--base", "1,0",
                "--window", "0,4,-4,4", "--cells", "16",
                "--format", "svg", "--out", str(out_file),
            )
            assert code == 0
            paths.append(out_file)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "affinesurf", "--show-config"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["spray"]["grid"] == 41

    def test_import_loads_no_scipy(self):
        src = str(Path(affinesurf.__file__).resolve().parents[1])
        code = (
            "import sys, affinesurf; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("geodesic", "--model", "flat", "--p0", "0,0", "--v0", "1,0", "--tspan=0,inf"),
        ("expmap", "--model", "H2", "--base", "1,0", "--window", "0.5,2,-1,1",
         "--cells", "4", "--tmax", "nan"),
        ("expmap", "--model", "L2", "--base", "nan,0", "--window", "0.5,2,-1,1",
         "--cells", "4"),
        ("expmap", "--model", "L2", "--base", "1,0", "--window", "0,inf,0,1",
         "--cells", "2"),
        # finite bounds whose span overflows
        ("expmap", "--model", "L2", "--base", "1,0", "--window=-1,1,-1e308,1e308",
         "--cells", "2"),
        ("curvature", "--model", "L2", "--point", "inf,0"),
        ("curvature", "--model", "L2", "--point", "0,nan"),
    ],
)
def test_non_finite_bounds_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "finite" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("expmap", "--model", "S3", "--base", "0,0", "--window", "-1,1,-1,1",
         "--cells", "8", "--angles", "16"),
        ("geodesic", "--model", "S1", "--p0", "-0.5,0", "--v0", "1,0", "--tspan", "0,1"),
        ("geodesic", "--model", "S1", "--p0", "0,0", "--v0", "-1,0", "--tspan", "-1,1",
         "--format", "text"),
    ],
)
def test_option_values_may_start_with_a_minus_sign(capsys, argv):
    # argparse alone reads -1,1,-1,1 as an unknown flag and exits 2; the
    # spaced form must do what the --option=value form does
    got = run_cli(capsys, *argv)
    assert got[0] == 0, got[2]
    joined = re.sub(r" (-[.\d])", r"=\1", " ".join(argv)).split()
    assert joined != list(argv)
    assert got == run_cli(capsys, *joined)
