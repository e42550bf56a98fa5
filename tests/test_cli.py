import ast
import contextlib
import csv
import dataclasses
import importlib
import importlib.util
import io
import json
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scanskill
from scanskill.cli import main
from scanskill.core import INT64_MAX
from scanskill.features import GlcmConfig, SmoothnessConfig, compute_feature_table
from scanskill.fusion import ResampleConfig, fuse_streams
from scanskill import ingest
from scanskill.ingest import Frame, PoseSample, load_session, write_session
from scanskill.skill import METRIC_ORDER
from scanskill.synth import ProfileConfig, build_session, gen_session, novice_profile

from conftest import IDENTITY, constant_frame, make_session, run_python, smooth_pose_walk

SYNTH_ARGS = ["--frame-size", "48x36"]

CONFIG_CLASSES = (ResampleConfig, GlcmConfig, SmoothnessConfig)
CONFIG_FIELDS = [f for cls in CONFIG_CLASSES for f in dataclasses.fields(cls)]


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

    @pytest.mark.parametrize(
        "doc",
        [
            {"delta_t_us": "abc"},
            ["levels"],
            [1],
            {"symmetric": "false"},
            {"offsets": [1]},
            {"sparc_amplitude_threshold": 2},
            {"delta_t_us": 10**30, "max_frame_staleness_us": 10**30},
            {"max_frame_staleness_us": 10**30},
            {"speed_smoothing_window": 10**30},
            {"sparc_cutoff_hz": 1e400},
        ],
    )
    def test_bad_config_value_is_one_line_error(self, session_dir, tmp_path, capsys, doc):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(
            ["report", "--session", str(session_dir), "--out", str(out), "--config", str(cfg)]
        ) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_huge_grid_step_flag_is_one_line_error(self, session_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(
            ["fuse", "--session", str(session_dir), "--out", str(out),
             "--delta-t-us", str(10**30)]
        ) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: delta_t_us must be <= {2**63 - 1}"]

    def test_offsets_flag(self, session_dir, tmp_path):
        out = tmp_path / "offs"
        assert main(
            ["report", "--session", str(session_dir), "--out", str(out),
             "--offsets", "1,0;0,1"]
        ) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["glcm"]["offsets"] == [[1, 0], [0, 1]]

    @pytest.mark.parametrize(
        "flags", [["--offsets", "-1,-2;3,1"], ["--offsets=-1,-2;3,1"]], ids=["spaced", "joined"]
    )
    def test_offsets_flag_negative_first_dx(self, session_dir, tmp_path, flags):
        out = tmp_path / "offs"
        assert main(["report", "--session", str(session_dir), "--out", str(out), *flags]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["glcm"]["offsets"] == [[-1, -2], [3, 1]]

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


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of ``path`` by the stdlib reader; every row has the header's width."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert all(len(row) == len(header) for row in rows)
    return header, rows


def _assert_fields(fields: list[str], values: list) -> None:
    """Empty exactly where a value is None or NaN; ints equal, floats bit-exact."""
    assert len(fields) == len(values)
    for field, value in zip(fields, values):
        if value is None or value != value:
            assert field == ""
        elif isinstance(value, float):
            assert struct.pack("<d", float(field)) == struct.pack("<d", value), (field, value)
        else:
            assert field == str(value) and int(field) == value


class TestWrittenCsvs:
    """Each CSV the CLI writes reads back, by the stdlib ``csv`` module, to the library values."""

    @pytest.fixture(scope="class")
    def written(self, session_dir, tmp_path_factory):
        # A grid step off the 10 ms pose period, so fused quaternions are interpolated.
        out = tmp_path_factory.mktemp("written")
        for command in ("fuse", "features", "export-plot"):
            argv = [command, "--session", str(session_dir), "--out", str(out)]
            assert main([*argv, "--delta-t-us", "7000"]) == 0
        session = load_session(session_dir)
        fused = fuse_streams(session, ResampleConfig(delta_t_us=7000))
        return out, fused, compute_feature_table(session, fused, GlcmConfig())

    def test_session_csvs(self, session_dir):
        # session_dir is `synth --profile expert --seed 0 --frame-size 48x36`.
        session = build_session(ProfileConfig("expert", 0, frame_width=48, frame_height=36))
        header, rows = _read_csv(session_dir / "pose.csv")
        assert header == ["t_us", "w", "x", "y", "z"] and len(rows) == len(session.poses)
        for row, pose in zip(rows, session.poses):
            _assert_fields(row, [pose.t_us, *pose.q.tolist()])
        header, rows = _read_csv(session_dir / "frames" / "index.csv")
        assert header == ["t_us", "file"]
        assert rows == [[str(f.t_us), f"frames/{i:06d}.pgm"] for i, f in enumerate(session.frames)]

    def test_fused_csv(self, written):
        out, fused, _ = written
        header, rows = _read_csv(out / "fused.csv")
        assert header == ["t_us", "w", "x", "y", "z", "frame_idx", "staleness_us"]
        assert len(rows) == len(fused)
        for row, s in zip(rows, fused):
            _assert_fields(row, [s.t_us, *s.q.tolist(), s.frame_idx, s.frame_staleness_us])

    def test_features_csv(self, written):
        out, _, table = written
        header, rows = _read_csv(out / "features.csv")
        columns = [
            table.omega[:, "xyz".index(name[-1])] if name.startswith("omega_")
            else getattr(table, name)
            for name in header
        ]
        assert header[-4:] == ["omega_x", "omega_y", "omega_z", "speed"]
        assert len(rows) == len(table)
        for k, row in enumerate(rows):
            _assert_fields(row, [column[k].item() for column in columns])
        assert rows[0][7:] == ["", "", "", ""]

    def test_plot_csv(self, written):
        out, fused, table = written
        header, rows = _read_csv(out / "plot.csv")
        assert header == ["t_us", "series", "value"]
        expected = []
        for series in ("asm", "energy", "homogeneity", "hist_mean", "hist_var", "hist_entropy"):
            values = getattr(table, series).tolist()
            # rows with no value (NaN) are left out
            expected += [(t, series, v) for t, v in zip(table.t_us.tolist(), values) if v == v]
        for component, series in enumerate(("qw", "qx", "qy", "qz")):
            expected += [(s.t_us, series, float(s.q[component])) for s in fused]
        assert [row[1] for row in rows] == [series for _, series, _ in expected]
        for row, (t, _, value) in zip(rows, expected):
            _assert_fields([row[0], row[2]], [t, value])


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

    @pytest.mark.parametrize("flag, value, field", [
        ("--pose-rate", "inf", "pose_rate_hz"),
        ("--pose-rate", "3e6", "pose_rate_hz"),
        ("--frame-rate", "inf", "frame_rate_hz"),
        ("--pose-rate", "1e-12", "pose_rate_hz"),
        ("--pose-rate", "1e-14", "pose_rate_hz"),
        ("--frame-rate", "1e-200", "frame_rate_hz"),
    ])
    def test_synth_rate_without_microsecond_period_is_pipeline_error(
        self, tmp_path, flag, value, field
    ):
        out = tmp_path / "s"
        code, err = _run(["synth", "--profile", "expert", "--seed", "0", "--out", str(out),
                          *SYNTH_ARGS, flag, value])
        assert code == 3
        assert len(err) == 1 and err[0].startswith(f"error: {field} ")
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "row", ["1e154,1e154,0,0", "1e308,0,0,0", "3e-162,1e-162,0,0", "1e-170,0,1e-170,0"]
    )
    def test_extreme_pose_components_load_quietly(self, session_dir, tmp_path, row):
        # Each row's sum of squares overflows or is not a normal float; it must
        # load without a numpy warning and keep its direction.
        extreme = tmp_path / "extreme"
        shutil.copytree(session_dir, extreme)
        lines = (extreme / "pose.csv").read_text().splitlines(keepends=True)
        lines[500] = f"{lines[500].split(',')[0]},{row}\n"
        (extreme / "pose.csv").write_text("".join(lines))
        assert _run(["validate", "--session", str(extreme)]) == (0, [])
        code, err = _run(["report", "--session", str(extreme)])
        assert (code, err) == (0, [f"wrote {extreme / 'report.json'}"])

    def test_huge_pgm_dimensions_is_pipeline_error(self, session_dir, tmp_path):
        huge = tmp_path / "huge"
        shutil.copytree(session_dir, huge)
        for pgm in (huge / "frames").glob("*.pgm"):
            pgm.write_bytes(b"P5\n1000000000000 1000000000000\n255\n")
        code, err = _run(["report", "--session", str(huge)])
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error: truncated raster in "), err

    @pytest.mark.parametrize("command", ["validate", "fuse", "features", "report"])
    @pytest.mark.parametrize("short", ["header-only", "huge-header-only", "one-byte-short"])
    def test_short_raster_is_reader_error_at_load(self, session_dir, tmp_path, command, short):
        bad = tmp_path / "short"
        shutil.copytree(session_dir, bad)
        pgm = bad / "frames" / "000007.pgm"
        data = pgm.read_bytes()
        pgm.write_bytes({
            "header-only": data[: data.index(b"255\n") + 4],
            "huge-header-only": b"P5\n1000000000000 1000000000000\n255\n",
            "one-byte-short": data[:-1],
        }[short])
        out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        code, err = _run([command, "--session", str(bad), *out])
        assert code == 3
        assert err == [f"error: truncated raster in {pgm}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "fuse", "report"])
    def test_t_us_beyond_int64_is_pipeline_error(self, session_dir, tmp_path, command):
        late = tmp_path / "late"
        shutil.copytree(session_dir, late)
        lines = (late / "pose.csv").read_text().splitlines(keepends=True)
        lines[2] = f"{10**19}," + lines[2].split(",", 1)[1]
        (late / "pose.csv").write_text("".join(lines))
        code, err = _run([command, "--session", str(late)])
        assert code == 3
        assert err == [f"error: malformed line 3: t_us {10**19} outside 0..{INT64_MAX}"]

    @pytest.mark.parametrize("x", ["8e-165", "2e-164", "5e-159"])
    def test_ldlj_out_of_float_range_is_null_with_flag(self, session_dir, tmp_path, x):
        # Every 7th pose is (1, x, 0, 0), a turn of about 2x rad, the rest
        # identity: v_peak**2 underflows (8e-165) or the jerk cost overflows.
        tiny = tmp_path / "tiny"
        shutil.copytree(session_dir, tiny)
        header, *rows = (tiny / "pose.csv").read_text().splitlines()
        rows = [f"{row.split(',')[0]},1.0,{x if i % 7 == 0 else 0.0},0.0,0.0"
                for i, row in enumerate(rows)]
        (tiny / "pose.csv").write_text("\n".join([header, *rows]) + "\n")
        code, err = _run(["report", "--session", str(tiny)])
        assert code == 0, err

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        doc = json.loads((tiny / "report.json").read_text(), parse_constant=reject)
        assert doc["ldlj"] is None
        assert [f for f in doc["flags"] if f.startswith("ldlj: ")]

    def test_frame_path_leaving_session_is_pipeline_error(self, session_dir, tmp_path, capsys):
        bad = tmp_path / "escape" / "s"
        shutil.copytree(session_dir, bad)
        shutil.copytree(session_dir, tmp_path / "escape" / "x")
        index = bad / "frames" / "index.csv"
        index.write_text(index.read_text().replace(",frames/", ",../x/frames/"))
        capsys.readouterr()
        assert main(["validate", "--session", str(bad)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "leaves the session" in err[0]

    def test_deep_config_is_pipeline_error(self, session_dir, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code, err = _run(["fuse", "--session", str(session_dir), "--out", str(tmp_path / "o"),
                          "--config", str(deep)])
        assert code == 3 and len(err) == 1 and err[0].startswith("error: ")

    def test_deep_manifest_is_pipeline_error(self, session_dir, tmp_path):
        bad = tmp_path / "deep"
        shutil.copytree(session_dir, bad)
        (bad / "manifest.json").write_text("[" * 100_000)
        code, err = _run(["validate", "--session", str(bad)])
        assert code == 3 and len(err) == 1 and err[0].startswith("error: ")

    def test_deep_report_is_pipeline_error(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code, err = _run(["compare", str(deep), str(deep)])
        assert code == 3 and len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("doc", [[1], {"pose_rate_hz": None}, {"trial": "1"},
                                     {"session_id": 7}, {"frame_rate_hz": 1e400}])
    def test_malformed_manifest_is_pipeline_error(self, session_dir, tmp_path, doc):
        bad = tmp_path / "manifest"
        shutil.copytree(session_dir, bad)
        if isinstance(doc, dict):
            doc = {**json.loads((bad / "manifest.json").read_text()), **doc}
        (bad / "manifest.json").write_text(json.dumps(doc))
        for command in ("validate", "report"):
            code, err = _run([command, "--session", str(bad)])
            assert code == 3 and len(err) == 1 and err[0].startswith("error: ")

    def test_overflowing_compare_delta_is_pipeline_error(self, tmp_path, capsys):
        paths = []
        for name, sparc in (("a", 1.7e308), ("b", -1.7e308)):
            doc = dict.fromkeys(METRIC_ORDER, 1.0)
            doc.update(session_id=name, n_samples=100, config={"delta_t_us": 10_000}, sparc=sparc)
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["compare", *map(str, paths)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 74.5 GiB", "error: Unable to allocate 74.5 GiB"),
        ("", "error: MemoryError"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_is_pipeline_error(self, tmp_path, monkeypatch, message, line):
        def fail(profile, out_dir):
            raise MemoryError(message)

        monkeypatch.setattr("scanskill.synth.gen_session", fail)
        code, err = _run(["synth", "--profile", "expert", "--seed", "0",
                          "--out", str(tmp_path / "s"), "--frame-size", "100000x100000"])
        assert code == 3 and err == [line]

    @pytest.mark.parametrize("argv, message", [
        (["report", "--session", "s", "--offsets", "1,0;0,1,2"],
         "argument --offsets: bad offsets '1,0;0,1,2'; expected 'dx,dy;dx,dy;...'"),
        (["features", "--session", "s", "--roi", "1,2,x,4"],
         "argument --roi: bad roi '1,2,x,4'; expected 'x,y,w,h'"),
        (["synth", "--profile", "expert", "--seed", "0", "--out", "s", "--frame-size", "32by3"],
         "argument --frame-size: bad frame size '32by3'; expected WxH"),
    ], ids=["offsets", "roi", "frame-size"])
    def test_bad_flag_value_shows_its_message(self, argv, message):
        code, err = _run(argv)
        assert code == 2
        assert err[-1].endswith(message)

    @pytest.mark.parametrize("edit", [
        [1], {"n_samples": "12"}, {"config": []}, {"sparc": True}, {"ldlj": [1.0]},
        {"flags": 5}, {"session_id": None}, {"config": {"delta_t_us": None}},
    ])
    def test_malformed_report_is_pipeline_error(self, tmp_path, edit):
        doc = dict.fromkeys(METRIC_ORDER, 1.0)
        doc.update(session_id="a", n_samples=100, config={"delta_t_us": 10_000})
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(doc))
        bad.write_text(json.dumps({**doc, **edit} if isinstance(edit, dict) else edit))
        code, err = _run(["compare", str(good), str(bad)])
        assert code == 3 and len(err) == 1 and err[0].startswith("error: ")


class TestFrameDecode:
    """``report`` on a 501-frame 64x48 session on disk, under the pool's threshold."""

    @pytest.fixture(scope="class")
    def long_session(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("decode") / "s"
        profile = novice_profile(1, frame_width=64, frame_height=48, n_samples_range=(2001, 2001))
        gen_session(profile, root)
        assert len(list((root / "frames").glob("*.pgm"))) == 501
        return root

    def test_each_pgm_header_parsed_once(self, long_session, tmp_path, monkeypatch):
        parsed = []
        real = ingest._read_pgm_header

        def counted(*args):
            parsed.append(args[-1])  # the path
            return real(*args)

        monkeypatch.setattr(ingest, "_read_pgm_header", counted)
        code, err = _run(["report", "--session", str(long_session), "--out", str(tmp_path)])
        assert (code, err) == (0, [f"wrote {tmp_path / 'report.json'}"])
        assert len(parsed) == len(set(parsed)) == 501

    def test_header_changed_after_load_is_pipeline_error(self, long_session, tmp_path,
                                                         monkeypatch):
        # Same size, dimensions swapped: only the header bytes seen at load tell.
        changed = tmp_path / "changed"
        shutil.copytree(long_session, changed)
        pgm = changed / "frames" / "000040.pgm"
        data = pgm.read_bytes()
        assert data.startswith(b"P5\n64 48\n")
        real = ingest.load_session

        def load_then_rewrite(path):
            session = real(path)
            pgm.write_bytes(b"P5\n48 64\n" + data[len(b"P5\n64 48\n"):])
            return session

        monkeypatch.setattr(ingest, "load_session", load_then_rewrite)
        code, err = _run(["report", "--session", str(changed), "--out", str(tmp_path / "out")])
        assert (code, err) == (3, [f"error: frame geometry changed: {pgm}"])


class TestEntryPoints:
    def test_python_dash_m(self, session_dir):
        proc = run_python("-m", "scanskill", "validate", "--session", str(session_dir))
        assert proc.returncode == 0, proc.stderr
        assert run_python("-m", "scanskill").returncode == 2

    def test_cli_import_leaves_out_scipy(self):
        proc = run_python("-c", "import sys, scanskill.cli; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_compare_loads_neither_numpy_nor_scipy(self, tmp_path):
        paths = []
        for name, n_samples in (("a", 100), ("b", 200)):
            doc = dict.fromkeys(METRIC_ORDER, 1.0)
            doc.update(session_id=name, n_samples=n_samples, config={"delta_t_us": 10_000})
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(doc))
        code = (
            "import sys\n"
            "from scanskill.cli import main\n"
            f"assert main(['compare', {str(paths[0])!r}, {str(paths[1])!r}]) == 0\n"
            "print(sorted({'numpy', 'scipy'} & set(sys.modules)))\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        assert json.loads("\n".join(proc.stdout.splitlines()[:-1]))["quicker"] == "a"

    def test_synth_loads_no_scipy(self, tmp_path):
        code = (
            "import sys\n"
            "from scanskill.cli import main\n"
            f"assert main(['synth', '--profile', 'expert', '--seed', '0', "
            f"'--out', {str(tmp_path / 's')!r}, '--frame-size', '16x12']) == 0\n"
            "print('scipy' in sys.modules)\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_experiment_script_parses_frame_size_like_the_cli(self):
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_expert_novice.py"
        proc = run_python(str(script), "--frame-size", "abc")
        assert proc.returncode == 2
        assert proc.stderr.splitlines()[-1].endswith(
            "argument --frame-size: bad frame size 'abc'; expected WxH"
        )
        spec = importlib.util.spec_from_file_location("run_expert_novice", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.parse_args(["--frame-size", "320x240"]).frame_size == (320, 240)
        assert module.parse_args([]).frame_size == (320, 240)

    def test_experiment_script_outdir_matches_the_cli(self, tmp_path):
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_expert_novice.py"
        argv = [str(script), "--seeds", "0", "--calibration-seeds", "100", "101",
                "--frame-size", "64x48"]
        plain = run_python(*argv)
        written = run_python(*argv, "--outdir", str(tmp_path / "runs"))
        assert plain.returncode == written.returncode == 0, plain.stderr + written.stderr
        assert written.stdout == plain.stdout
        sessions = sorted((tmp_path / "runs").iterdir())
        assert [s.name for s in sessions] == ["expert-0000", "novice-0000"]
        for session in sessions:
            out = tmp_path / "cli" / session.name
            for command in ("report", "export-plot"):
                assert _run([command, "--session", str(session), "--out", str(out)])[0] == 0
            for name in ("report.json", "plot.csv"):
                assert (session / name).read_bytes() == (out / name).read_bytes(), name

    def test_bare_import_loads_no_submodule(self):
        code = (
            "import sys, scanskill\n"
            "print(scanskill.__version__)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scanskill.')"
            " or m.split('.')[0] in ('numpy', 'scipy')))\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["0.1.0", "[]"]

    def test_benchmark_and_script_imports_resolve(self):
        # The benchmark and the scripts import from the modules that define
        # each name, private names included; a name dropped from a module
        # would fail their set-up, so it fails here.
        root = Path(__file__).resolve().parent.parent
        imported = set()
        for script in ("perfbench/inproc.py", "scripts/run_expert_novice.py",
                       "scripts/regen_golden.py"):
            for node in ast.walk(ast.parse((root / script).read_text(), script)):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.split(".")[0] == "scanskill":
                            importlib.import_module(alias.name)
                elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "scanskill":
                    module = importlib.import_module(node.module)
                    for alias in node.names:
                        assert hasattr(module, alias.name), f"{script}: {node.module}.{alias.name}"
                        imported.add((node.module, alias.name))
        assert ("scanskill.cli", "_parse_frame_size") in imported
        assert ("scanskill.synth", "build_session") in imported
        assert ("scanskill.cli", "main") in imported

    def test_benchmark_traced_selftest_passes(self):
        # The traced replay builds Session(...) from the readers' output and runs
        # validate_session, StreamingFuser and build_report, so a change to the
        # package that the benchmark's replay cannot run fails here.
        run = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
        proc = run_python(str(run), "--workload", "report-640", "--seed", "1", "--seconds", "1",
                          "--selftest", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0, result

    def test_benchmark_replay_runs_on_the_program(self, tmp_path):
        # The benchmark's set-up and traced replay call the program's public
        # API one frame and one sample at a time; an API change that breaks
        # them fails here, on a small frame size.
        inproc = Path(__file__).resolve().parent.parent / "perfbench" / "inproc.py"
        setup = run_python(str(inproc), "setup", "--workload", "report-640", "--seed", "1",
                           "--dir", str(tmp_path / "setup"), "--frame-size", "64x48")
        assert setup.returncode == 0, setup.stderr
        replay = run_python(str(inproc), "replay", "--plan", str(tmp_path / "setup" / "plan.json"),
                            "--out", str(tmp_path / "out"), "--seconds", "0")
        assert replay.returncode == 0, replay.stderr
        assert json.loads(replay.stdout)["failed"] == []


def _run(argv: list[str]) -> tuple[int, list[str]]:
    """``main(argv)`` in-process: its exit code and its stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def _write_random_session(
    path: Path, seed: int, n_poses: int, pose_step_us: int, frame_step_us: int
) -> Path:
    rng = np.random.default_rng(seed)
    poses = smooth_pose_walk(rng, [k * pose_step_us for k in range(n_poses)])
    frames = [
        Frame(t, rng.integers(0, 256, (12, 16), dtype=np.uint8))
        for t in range(0, poses[-1].t_us + 1, frame_step_us)
    ]
    path.mkdir(parents=True)
    write_session(path, make_session(poses, frames, session_id=f"random-{seed}"))
    return path


# Any JSON value, and per key some values the dataclass accepts, so that
# both exit 0 and exit 3 are reached.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)
SMALL_INTS = st.integers(-3, 3)
PLAUSIBLE = {
    "delta_t_us": st.integers(200, 4_000),
    "pose_policy": st.sampled_from(["slerp", "nearest"]),
    "frame_policy": st.sampled_from(["nearest", "latest_not_after"]),
    "max_frame_staleness_us": st.integers(200, 2**80),
    "levels": st.sampled_from([8, 16, 32, 64]),
    "offsets": st.lists(st.lists(SMALL_INTS, min_size=2, max_size=2), max_size=4),
    "symmetric": st.booleans(),
    "roi": st.none() | st.lists(st.integers(0, 16), min_size=4, max_size=4),
    "speed_smoothing_window": st.integers(1, 2**80),
    "sparc_cutoff_hz": st.floats(min_value=1e-3) | st.integers(1, 10**6),
    "sparc_amplitude_threshold": st.floats(1e-6, 1.0),
}
CONFIG_DOCS = st.fixed_dictionaries({}, optional=PLAUSIBLE) | st.fixed_dictionaries(
    {}, optional={f.name: JSON_VALUES | PLAUSIBLE[f.name] for f in CONFIG_FIELDS}
)


# Edits to an on-disk session: cut a file at a point, or overwrite a few
# bytes there; in the PGM only the 13-byte header ("P5\n16 12\n255\n") is
# touched.  The manifest also gets one key set to any JSON value, or is
# replaced whole.
CORRUPTED_FILES = ("pose.csv", "frames/index.csv", "frames/000003.pgm", "manifest.json")
BYTE_EDITS = st.tuples(
    st.sampled_from(CORRUPTED_FILES),
    st.floats(0.0, 1.0),
    st.none() | st.binary(max_size=6)
    | st.sampled_from([b",", b"\n", b"-", b" ", b"0", b"9999999", b"nan", b"1e999", b"\xff"]),
)
RATES = JSON_VALUES | st.floats(-1.0, 1e3) | st.integers(-1, 1_000)
MANIFEST_VALUES = {
    None: JSON_VALUES,  # the whole document
    "extra": JSON_VALUES,
    "session_id": JSON_VALUES | st.text(max_size=4),
    "participant_role": JSON_VALUES | st.sampled_from(["expert", "novice", "unknown"]),
    "trial": JSON_VALUES | st.integers(-1, 3),
    "pose_rate_hz": RATES,
    "frame_rate_hz": RATES,
}
MANIFEST_EDITS = st.sampled_from(list(MANIFEST_VALUES)).flatmap(
    lambda key: st.tuples(st.just(key), MANIFEST_VALUES[key])
)


def _corrupt(session: Path, manifest_edit, byte_edits) -> None:
    if manifest_edit is not None:
        key, value = manifest_edit
        path = session / "manifest.json"
        doc = value if key is None else {**json.loads(path.read_text()), key: value}
        path.write_text(json.dumps(doc))
    for name, where, data in byte_edits:
        path = session / name
        raw = path.read_bytes()
        at = int(where * (13 if name.endswith(".pgm") else len(raw)))
        path.write_bytes(raw[:at] if data is None else raw[:at] + data + raw[at + len(data):])


# Values at the edges of float and int64 range, each set into one field of an
# on-disk session or its config: all four components of one pose row, the last
# pose t_us, one manifest rate, the trial number, the width or maxval in the
# first frame's PGM header, or one --config key.
NUMERIC_EXTREMES = [
    *(pytest.param("pose_row", x, id=f"pose-row-{x}")
      for x in ("1e154", "1e-154", "1e308", "-1e308", "1.7976931348623157e308", "5e-324")),
    *(pytest.param("last_t_us", t, id=f"last-t_us-{t}") for t in (2**63 - 1, 2**63, 2**63 + 1, -1)),
    *(pytest.param(key, rate, id=f"{key}-{rate}") for key in ("pose_rate_hz", "frame_rate_hz")
      for rate in (5e-324, 1e-308, 1e308, 2**63, 10**25)),
    pytest.param("trial", 2**63, id="trial-2**63"),
    *(pytest.param("width", w, id=f"pgm-width-{w.decode()}")
      for w in (b"0", b"1e3", b"0x10")),
    pytest.param("width", b"9" * 5000, id="pgm-width-5000-digits"),
    *(pytest.param("maxval", m, id=f"pgm-maxval-{m.decode()}") for m in (b"0", b"65535", b"+255")),
    pytest.param("config", {"levels": 2**64}, id="levels-2**64"),
    pytest.param("config", {"speed_smoothing_window": 2**63 - 1},
                 id="speed_smoothing_window-2**63-1"),
    *(pytest.param("config", {key: x}, id=f"{key}-{x}") for key, x in (
        ("sparc_cutoff_hz", 5e-324), ("sparc_cutoff_hz", 1e308),
        ("sparc_amplitude_threshold", 5e-324))),
    *(pytest.param("config", doc, id=f"{next(iter(doc))}-{label}")
      for v, label in ((2**63, "2**63"), (-2**63, "-2**63"), (2**70, "2**70"))
      for doc in ({"roi": [v, 0, 1, 1]}, {"roi": [0, 0, v, v]}, {"offsets": [[v, 0]]},
                  {"offsets": [[1, v]]})),
]


class TestNumericExtremes:
    @pytest.fixture(scope="class")
    def small_session(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("extremes")
        return _write_random_session(root / "s", 2, 50, 10_000, 40_000)

    @pytest.mark.parametrize("field, value", NUMERIC_EXTREMES)
    def test_exits_cleanly(self, small_session, tmp_path, field, value):
        session = tmp_path / "s"
        shutil.copytree(small_session, session)
        pose_csv, manifest = session / "pose.csv", session / "manifest.json"
        frame = session / "frames" / "000000.pgm"
        lines = pose_csv.read_text().splitlines()
        config = []
        if field == "pose_row":
            lines[5] = ",".join([lines[5].split(",")[0], *[value] * 4])
        elif field == "last_t_us":
            lines[-1] = f"{value}," + lines[-1].split(",", 1)[1]
        elif field in ("width", "maxval"):
            header = {"width": b"16", "maxval": b"255", field: value}
            pixels = frame.read_bytes()[len(b"P5\n16 12\n255\n"):]
            frame.write_bytes(b"P5\n%s 12\n%s\n" % (header["width"], header["maxval"]) + pixels)
        elif field == "config":
            (tmp_path / "config.json").write_text(json.dumps(value))
            config = ["--config", str(tmp_path / "config.json")]
        else:
            manifest.write_text(json.dumps({**json.loads(manifest.read_text()), field: value}))
        pose_csv.write_text("\n".join(lines) + "\n")
        for command in ("validate", "fuse", "report"):
            out = [] if command == "validate" else ["--out", str(tmp_path / "out"), *config]
            with contextlib.redirect_stdout(io.StringIO()):
                code, err = _run([command, "--session", str(session), *out])
            assert code in (0, 1, 3), (command, code, err)
            assert not any("Traceback" in line for line in err)
            assert sum(line.startswith("error:") for line in err) == (code == 3), (command, err)
            if field in ("width", "maxval"):  # a bad header names its file
                assert code == 3 and err[0].endswith(f" in {frame}"), (command, err)
            if command != "validate" and field == "last_t_us" and value == 2**63 - 1:
                assert err == [f"error: cannot allocate a grid of {value // 10_000 + 1} instants:"
                               f" {value} us at delta_t_us 10000"], (command, err)
            if command == "report" and field == "config" and value.keys() & {"roi", "offsets"}:
                # A GLCM geometry that passes the config names itself and the frame size.
                (key, v), = value.items()
                if key == "offsets":
                    assert err == [f"error: empty co-occurrence: offset {tuple(v[0])}"
                                   " leaves no pixel pair in a 16x12 image"], err
                elif min(v) >= 0:
                    assert err == [f"error: roi out of bounds: {tuple(v)} in a 16x12 frame"], err

    def test_one_microsecond_grid(self, tmp_path):
        # delta_t_us 1 over a 0.25 s session: a grid of 250,001 instants.
        session = _write_random_session(tmp_path / "s", 2, 26, 10_000, 40_000)
        out = tmp_path / "out"
        expected = {"fuse": f"wrote {out / 'fused.csv'} (250001 samples)",
                    "report": f"wrote {out / 'report.json'}"}
        for command, wrote in expected.items():
            code, err = _run([command, "--session", str(session), "--out", str(out),
                              "--delta-t-us", "1"])
            assert (code, err) == (0, [wrote])
        assert len((out / "fused.csv").read_text().splitlines()) == 1 + 250_001
        assert json.loads((out / "report.json").read_text())["n_samples"] == 250_001


class TestProperties:
    @pytest.fixture(scope="class")
    def tiny_session(self, tmp_path_factory):
        # 12 ms of poses, so that even a 1 us grid step stays a small grid.
        return _write_random_session(tmp_path_factory.mktemp("fuzz") / "s", 0, 13, 1_000, 2_000)

    @settings(max_examples=60, deadline=None)
    @given(doc=CONFIG_DOCS)
    def test_any_config_exits_0_or_3_with_one_line(self, tiny_session, tmp_path_factory, doc):
        cfg = tmp_path_factory.getbasetemp() / "fuzz-config.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path_factory.getbasetemp() / "fuzz-out"
        code, err = _run(["report", "--session", str(tiny_session), "--out", str(out),
                          "--config", str(cfg)])
        assert code in (0, 3)
        assert len(err) == 1
        assert err[0].startswith("wrote " if code == 0 else "error: ")
        if code == 0:  # strict JSON: no NaN or Infinity
            json.loads((out / "report.json").read_text(), parse_constant=self._no_constant)

    @staticmethod
    def _no_constant(name):
        raise AssertionError(f"report.json holds {name}")

    @settings(max_examples=80, deadline=None)
    @given(manifest_edit=st.none() | MANIFEST_EDITS,
           byte_edits=st.lists(BYTE_EDITS, max_size=2))
    @example(manifest_edit=(None, [1]), byte_edits=[])
    @example(manifest_edit=("pose_rate_hz", None), byte_edits=[])
    def test_corrupt_session_exits_cleanly(
        self, tiny_session, tmp_path_factory, manifest_edit, byte_edits
    ):
        broken = tmp_path_factory.getbasetemp() / "corrupt"
        shutil.rmtree(broken, ignore_errors=True)
        shutil.copytree(tiny_session, broken)
        _corrupt(broken, manifest_edit, byte_edits)
        for command in ("validate", "report"):
            with contextlib.redirect_stdout(io.StringIO()):
                code, err = _run([command, "--session", str(broken)])
            assert not any("Traceback" in line for line in err)
            if code == 1:  # validation findings go to stdout
                assert command == "validate" and err == []
            elif code != 0:
                assert code in (2, 3) and len(err) == 1 and err[0].startswith("error: ")
            elif command == "report":
                json.loads((broken / "report.json").read_text(), parse_constant=self._no_constant)

    @pytest.fixture(scope="class")
    def moving_session(self, tmp_path_factory):
        session = _write_random_session(
            tmp_path_factory.mktemp("flips") / "s", 1, 200, 10_000, 40_000
        )
        code, _ = _run(["report", "--session", str(session)])
        assert code == 0
        return session

    @settings(max_examples=10, deadline=None)
    @given(flips=st.lists(st.booleans(), min_size=200, max_size=200))
    def test_pose_sign_flips_leave_report_unchanged(self, moving_session, tmp_path_factory, flips):
        # q and -q are the same rotation.
        flipped = tmp_path_factory.getbasetemp() / "flipped"
        shutil.rmtree(flipped, ignore_errors=True)
        shutil.copytree(moving_session, flipped)
        header, *rows = (moving_session / "pose.csv").read_text().splitlines()
        for i, flip in enumerate(flips):
            if flip:
                t_us, *q = rows[i].split(",")
                rows[i] = ",".join([t_us, *(v[1:] if v[0] == "-" else "-" + v for v in q)])
        (flipped / "pose.csv").write_text("\n".join([header, *rows]) + "\n")
        assert _run(["report", "--session", str(flipped)])[0] == 0
        assert (flipped / "report.json").read_bytes() == (
            moving_session / "report.json").read_bytes()


def test_readme_lists_config_keys_and_defaults():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| .* \| `(.*)` \|$", readme, flags=re.MULTILINE)
    documented = {key: json.loads(default) for key, default in rows}
    assert documented == {
        f.name: json.loads(json.dumps(f.default)) for f in CONFIG_FIELDS
    }


def test_readme_names_are_public():
    # A module's __all__ is the one list of its public names, so every name the
    # README shows that a module defines at top level must be in it.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    src = Path(scanskill.__file__).resolve().parent
    shown = set()
    for name in re.findall(r"`([A-Za-z_][\w.]*)`", readme):
        # `scanskill.synth.gen_trajectory` shows gen_trajectory; `Frame.pixels` shows Frame.
        parts = name.split(".")
        shown.add(parts[-1] if parts[0] == "scanskill" else parts[0])
    checked = set()
    for path in sorted(src.glob("[!_]*.py")):
        defined = set()
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        public = getattr(importlib.import_module(f"scanskill.{path.stem}"), "__all__", ())
        for name in sorted(n for n in shown & defined if not n.startswith("_")):
            assert name in public, f"README shows {name}, not in {path.stem}.__all__"
            checked.add(name)
    assert {"build_report", "StreamingFuser", "write_pose_csv", "gen_trajectory"} <= checked


def test_text_files_written_only_by_the_shared_writers():
    # The output formats live in these writers; a new open(..., "w") elsewhere
    # would be a second copy of one of them.
    src = Path(scanskill.__file__).resolve().parent
    writers = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}  # node -> innermost enclosing function (ast.walk visits outer ones first)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
            assert isinstance(mode, ast.Constant), f"{path.name}: open mode not a literal"
            if set(mode.value) & set("wax+"):
                writers.add((path.stem, owner.get(node, "<module>"), mode.value))
    assert writers == {
        ("ingest", "_write_csv", "w"),
        ("ingest", "write_manifest", "w"),
        ("ingest", "write_pgm", "wb"),
        ("skill", "write_report", "w"),
    }
