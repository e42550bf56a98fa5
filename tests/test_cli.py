import json
import shutil

import pytest

from scanskill.cli import main
from scanskill.ingest import PoseSample, write_session

from conftest import IDENTITY, constant_frame, make_session, run_python

SYNTH_ARGS = ["--frame-size", "48x36"]


@pytest.fixture(scope="module")
def session_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = root / "s1"
    code = main(["synth", "--profile", "expert", "--seed", "0", "--out", str(out), *SYNTH_ARGS])
    assert code == 0
    return out


class TestSynthAndValidate:
    def test_session_written(self, session_dir):
        assert (session_dir / "manifest.json").is_file()
        assert (session_dir / "pose.csv").is_file()
        assert (session_dir / "frames" / "index.csv").is_file()

    def test_validate_clean(self, session_dir, capsys):
        assert main(["validate", "--session", str(session_dir)]) == 0
        assert capsys.readouterr().out == ""

    def test_validate_findings_exit_1(self, tmp_path, capsys):
        poses = [PoseSample(t, IDENTITY.copy()) for t in (0, 10_000, 200_000)]
        frames = [constant_frame(t) for t in (0, 40_000, 80_000, 120_000, 160_000, 200_000)]
        broken = tmp_path / "broken"
        broken.mkdir()
        write_session(broken, make_session(poses, frames))
        assert main(["validate", "--session", str(broken)]) == 1
        out = capsys.readouterr().out
        assert "gap" in out

    def test_synth_bad_frame_size_is_usage_error(self, tmp_path):
        code = main(
            ["synth", "--profile", "expert", "--seed", "0", "--out", str(tmp_path / "x"),
             "--frame-size", "640by480"]
        )
        assert code == 2


class TestPipelineCommands:
    def test_fuse_writes_csv(self, session_dir):
        assert main(["fuse", "--session", str(session_dir)]) == 0
        lines = (session_dir / "fused.csv").read_text().splitlines()
        assert lines[0] == "t_us,w,x,y,z,frame_idx,staleness_us"
        assert len(lines) > 1600

    def test_features_writes_csv(self, session_dir):
        assert main(["features", "--session", str(session_dir)]) == 0
        lines = (session_dir / "features.csv").read_text().splitlines()
        assert lines[0].startswith("t_us,asm,energy,homogeneity,hist_mean")
        first = lines[1].split(",")
        assert first[7:] == ["", "", "", ""]  # no motion columns on the first row

    def test_report_written_and_deterministic(self, session_dir, tmp_path):
        assert main(["report", "--session", str(session_dir)]) == 0
        first = (session_dir / "report.json").read_bytes()
        out2 = tmp_path / "again"
        assert main(["report", "--session", str(session_dir), "--out", str(out2)]) == 0
        assert (out2 / "report.json").read_bytes() == first
        doc = json.loads(first)
        assert doc["session_id"] == "expert-0000"
        assert doc["config"]["glcm"]["levels"] == 32
        assert 1600 <= doc["n_samples"] <= 2500

    def test_flag_overrides_config_file(self, session_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta_t_us": 20_000, "levels": 16}))
        out = tmp_path / "cfgout"
        assert main(
            ["report", "--session", str(session_dir), "--out", str(out),
             "--config", str(cfg), "--delta-t-us", "40000"]
        ) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["delta_t_us"] == 40_000  # flag wins
        assert doc["config"]["glcm"]["levels"] == 16  # config wins over default

    def test_unknown_config_key(self, session_dir, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"delta_t": 1}))
        assert main(["report", "--session", str(session_dir), "--config", str(cfg)]) == 3

    def test_offsets_flag(self, session_dir, tmp_path):
        out = tmp_path / "offs"
        assert main(
            ["report", "--session", str(session_dir), "--out", str(out),
             "--offsets", "1,0;0,1"]
        ) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["glcm"]["offsets"] == [[1, 0], [0, 1]]

    def test_bad_offsets_is_usage_error(self, session_dir):
        assert main(["report", "--session", str(session_dir), "--offsets", "diag"]) == 2

    def test_bad_roi_is_usage_error(self, session_dir):
        assert main(["report", "--session", str(session_dir), "--roi", "1,2,3"]) == 2

    def test_export_plot(self, session_dir):
        assert main(["export-plot", "--session", str(session_dir)]) == 0
        lines = (session_dir / "plot.csv").read_text().splitlines()
        assert lines[0] == "t_us,series,value"
        series = {line.split(",")[1] for line in lines[1:]}
        assert series == {
            "asm", "energy", "homogeneity",
            "hist_mean", "hist_var", "hist_entropy",
            "qw", "qx", "qy", "qz",
        }

    def test_compare_stdout(self, session_dir, tmp_path, capsys):
        other = tmp_path / "s2"
        assert main(["synth", "--profile", "novice", "--seed", "0", "--out", str(other),
                     *SYNTH_ARGS]) == 0
        assert main(["report", "--session", str(other)]) == 0
        capsys.readouterr()
        code = main(["compare", str(session_dir / "report.json"), str(other / "report.json")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["a"] == "expert-0000" and doc["b"] == "novice-0000"
        assert doc["quicker"] == "expert-0000"
        assert doc["smoother"] == "expert-0000"
        assert list(doc["deltas"]) == [
            "n_samples", "duration_s", "path_length_rad", "ldlj", "sparc",
            "mean_asm", "mean_energy", "mean_homogeneity", "texture_stability",
        ]


class TestExitCodes:
    def test_missing_session_is_pipeline_error(self, tmp_path, capsys):
        assert main(["fuse", "--session", str(tmp_path / "missing")]) == 3
        err = capsys.readouterr().err
        assert "missing" in err

    def test_unknown_command_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_usage_error(self, session_dir):
        assert main(["fuse", "--session", str(session_dir), "--bogus"]) == 2

    def test_no_command_usage_error(self):
        assert main([]) == 2

    def test_non_finite_pose_is_pipeline_error(self, session_dir, tmp_path, capsys):
        bad = tmp_path / "nan"
        shutil.copytree(session_dir, bad)
        lines = (bad / "pose.csv").read_text().splitlines(keepends=True)
        t_us = lines[5].split(",")[0]
        lines[5] = f"{t_us},nan,0,0,1\n"
        (bad / "pose.csv").write_text("".join(lines))
        for command in ("validate", "report"):
            capsys.readouterr()
            assert main([command, "--session", str(bad)]) == 3
            err = capsys.readouterr().err.splitlines()
            assert err == ["error: malformed line 6: non-finite quaternion component"]


class TestEntryPoints:
    def test_python_dash_m(self, session_dir):
        proc = run_python("-m", "scanskill", "validate", "--session", str(session_dir))
        assert proc.returncode == 0, proc.stderr
        assert run_python("-m", "scanskill").returncode == 2

    def test_cli_import_leaves_out_scipy(self):
        proc = run_python("-c", "import sys, scanskill.cli; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
