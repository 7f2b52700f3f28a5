"""Tests for the command line front end: verdict text, exit codes,
config precedence, and byte-identical reruns."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

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

    def test_base_outside_chart_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "expmap", "--model", "L2", "--base=-1,0",
            "--window", "0,4,-4,4", "--cells", "8",
        )
        assert code == 2
        assert "error" in err


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
