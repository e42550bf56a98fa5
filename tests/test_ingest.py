import dataclasses
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanskill.core import INT64_MAX, SessionMeta, q_normalize
from scanskill.fusion import ResampleConfig, fuse_streams
from scanskill.ingest import (
    FRAME_INDEX_HEADER,
    POSE_HEADER,
    Frame,
    Frames,
    PoseSample,
    Poses,
    Session,
    load_session,
    read_frame_index,
    read_manifest,
    read_pgm,
    read_pose_csv,
    validate_session,
    write_manifest,
    write_pgm,
    write_pose_csv,
    write_session,
)

from conftest import (
    IDENTITY,
    constant_frame,
    frame_columns,
    make_session,
    peak_rss_kib,
    pose_columns,
    random_stream_times,
    random_unit_quat,
    smooth_pose_walk,
)


def _pose_csv(directory, text):
    path = directory / "pose.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestPoseCsv:
    def test_two_identity_samples(self, tmp_path):
        samples = read_pose_csv(_pose_csv(tmp_path, "t_us,w,x,y,z\n0,1,0,0,0\n10000,1,0,0,0"))
        assert len(samples) == 2
        assert [s.t_us for s in samples] == [0, 10000]
        for s in samples:
            np.testing.assert_allclose(s.q, IDENTITY)

    def test_normalized_on_read(self, tmp_path):
        samples = read_pose_csv(_pose_csv(tmp_path, "t_us,w,x,y,z\n0,2,0,0,0"))
        assert len(samples) == 1
        np.testing.assert_allclose(samples.q[0], IDENTITY)

    def test_timestamp_regression(self, tmp_path):
        with pytest.raises(ValueError, match="timestamp regression at line 3"):
            read_pose_csv(_pose_csv(tmp_path, "t_us,w,x,y,z\n10,1,0,0,0\n5,1,0,0,0"))

    def test_malformed_line_number(self, tmp_path):
        with pytest.raises(ValueError, match="line 2"):
            read_pose_csv(_pose_csv(tmp_path, "t_us,w,x,y,z\n0,1,0,0"))
        with pytest.raises(ValueError, match="line 3"):
            read_pose_csv(_pose_csv(tmp_path, "t_us,w,x,y,z\n0,1,0,0,0\n1,nope,0,0,0"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="no samples"):
            read_pose_csv(_pose_csv(tmp_path, "t_us,w,x,y,z\n"))

    def test_bad_header(self, tmp_path):
        with pytest.raises(ValueError, match="expected 't_us,w,x,y,z'"):
            read_pose_csv(_pose_csv(tmp_path, "time,w,x,y,z\n0,1,0,0,0"))

    def test_zero_quaternion_line(self, tmp_path):
        with pytest.raises(ValueError, match="line 2: degenerate quaternion"):
            read_pose_csv(_pose_csv(tmp_path, "t_us,w,x,y,z\n0,0,0,0,0"))

    def test_errors_reported_in_file_order(self, tmp_path):
        with pytest.raises(ValueError, match="^line 3: degenerate quaternion"):
            read_pose_csv(_pose_csv(tmp_path, "t_us,w,x,y,z\n0,1,0,0,0\n1,0,0,0,0\n2,1,0,0\n"))
        with pytest.raises(ValueError, match="^malformed line 3"):
            read_pose_csv(_pose_csv(tmp_path, "t_us,w,x,y,z\n0,1,0,0,0\n1,1,0,0\n2,0,0,0,0\n"))

    @pytest.mark.parametrize(
        "row, direction",
        [
            ("1e154,1e154,0,0", (1, 1, 0, 0)),  # sum of squares overflows
            ("0,-1e308,0,1e308", (0, -1, 0, 1)),
            ("3e-162,1e-162,0,0", (3, 1, 0, 0)),  # sum of squares is subnormal
            ("0,0,1e-170,0", (0, 0, 1, 0)),  # sum of squares underflows to 0
        ],
    )
    def test_extreme_components_keep_direction(self, tmp_path, row, direction):
        samples = read_pose_csv(_pose_csv(tmp_path, f"t_us,w,x,y,z\n0,1,0,0,0\n1,{row}\n"))
        expected = np.array(direction) / np.linalg.norm(direction)
        np.testing.assert_allclose(samples.q[1], expected, rtol=0, atol=1e-15)
        assert abs(np.sum(samples.q[1] ** 2) - 1.0) <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
    def test_any_finite_row_loads_as_unit_in_its_direction(self, tmp_path_factory, comps):
        row = ",".join(map(repr, comps))
        path = _pose_csv(tmp_path_factory.mktemp("pose"), f"t_us,w,x,y,z\n0,{row}\n")
        if not any(comps):
            with pytest.raises(ValueError, match="^line 2: degenerate quaternion"):
                read_pose_csv(path)
            return
        q = read_pose_csv(path).q[0]
        scaled = np.array(comps) / max(map(abs, comps))
        # q_normalize leaves a row within 16 eps of unit squared norm as it is.
        np.testing.assert_allclose(q, scaled / np.linalg.norm(scaled), rtol=0, atol=4e-15)
        if np.finfo(np.float64).tiny <= sum(c * c for c in comps) < float("inf"):
            # A row with a normal, finite sum of squares is not rescaled.
            assert q.tobytes() == q_normalize(np.array(comps)).tobytes()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_component_line(self, tmp_path, bad):
        with pytest.raises(ValueError, match="malformed line 3: non-finite"):
            read_pose_csv(_pose_csv(tmp_path, f"t_us,w,x,y,z\n0,1,0,0,0\n1,1,{bad},0,0"))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 60))
    @settings(max_examples=30, deadline=None)
    def test_fuzz_count_matches_lines(self, tmp_path_factory, seed, n):
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.integers(1, 20_000, size=n))
        lines = ["t_us,w,x,y,z"]
        for ti in t:
            q = rng.standard_normal(4)
            while np.linalg.norm(q) < 1e-3:
                q = rng.standard_normal(4)
            w, x, y, z = (repr(float(v)) for v in q)
            lines.append(f"{ti},{w},{x},{y},{z}")
        samples = read_pose_csv(_pose_csv(tmp_path_factory.mktemp("fuzz"), "\n".join(lines)))
        assert len(samples) == n
        for s, line in zip(samples, lines[1:]):
            assert abs(np.linalg.norm(s.q) - 1.0) <= 1e-9
            # Row by row is the reference for the batched normalization.
            comps = np.array([float(v) for v in line.split(",")[1:]])
            assert np.array_equal(s.q, q_normalize(comps))


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, (7, 11), dtype=np.uint8)
        path = tmp_path / "f.pgm"
        write_pgm(path, pixels)
        w, h, back = read_pgm(path)
        assert (w, h) == (11, 7)
        assert np.array_equal(back, pixels)

    def test_comments_tolerated(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
        w, h, px = read_pgm(path)
        assert (w, h) == (2, 2)
        assert px.tolist() == [[0, 1], [2, 3]]

    def test_unsupported_magic(self, tmp_path):
        path = tmp_path / "p6.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError, match="unsupported PGM magic"):
            read_pgm(path)

    def test_unsupported_depth(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValueError, match="unsupported depth"):
            read_pgm(path)

    @pytest.mark.parametrize("header", [
        b"P5\n1e3 1\n255\n", b"P5\n0x10 1\n255\n", b"P5\n\xff\xfe 1\n255\n",
        b"P5\n" + b"9" * 5000 + b" 1\n255\n", b"P5\n1 1\n+255\n", b"P5\n1_0 1\n255\n",
        b"P5\n1 " + b"1" * 20 + b"\n255\n",
    ], ids=["exponent", "hex", "non-ascii", "5000-digits", "plus-sign", "underscore",
            "20-digits"])
    def test_bad_header_field_names_file(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header + b"\x00" * 16)
        message = rf"^bad PGM header field .* in {re.escape(str(path))}$"
        with pytest.raises(ValueError, match=message):
            read_pgm(path)

    @pytest.mark.parametrize("data", [
        b"P5\n2 2\n255\n\x00\x01\x02",
        # 10**24 pixels: more than read() can be asked for, so checked before reading
        b"P5\n1000000000000 1000000000000\n255\n",
    ], ids=["one-byte-short", "huge-dimensions"])
    def test_truncated_raster(self, tmp_path, data):
        path = tmp_path / "short.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="truncated raster in "):
            read_pgm(path)


def _write_index(tmp_path, entries):
    frames = tmp_path / "frames"
    frames.mkdir(exist_ok=True)
    lines = ["t_us,file"]
    for t, name, pixels in entries:
        if pixels is not None:
            write_pgm(frames / name, pixels)
        lines.append(f"{t},frames/{name}")
    (frames / "index.csv").write_text("\n".join(lines) + "\n")


class TestFrameIndex:
    def test_three_frames(self, tmp_path):
        px = np.zeros((4, 6), dtype=np.uint8)
        _write_index(
            tmp_path,
            [(0, "000000.pgm", px), (40000, "000001.pgm", px), (80000, "000002.pgm", px)],
        )
        frames = read_frame_index(tmp_path)
        assert [f.t_us for f in frames] == [0, 40000, 80000]
        assert frames[0].width == 6 and frames[0].height == 4
        assert np.array_equal(frames[1].pixels, px)

    def test_missing_file(self, tmp_path):
        px = np.zeros((4, 6), dtype=np.uint8)
        _write_index(tmp_path, [(0, "000000.pgm", px), (40000, "000002.pgm", None)])
        with pytest.raises(ValueError, match="missing frame file frames/000002.pgm"):
            read_frame_index(tmp_path)

    @pytest.mark.parametrize("kind", ["directory", "fifo", "symlink-loop"])
    def test_not_a_regular_file(self, tmp_path, kind):
        px = np.zeros((4, 6), dtype=np.uint8)
        _write_index(tmp_path, [(0, "000000.pgm", px), (40000, "000001.pgm", None)])
        path = tmp_path / "frames" / "000001.pgm"
        if kind == "directory":
            path.mkdir()
        elif kind == "symlink-loop":
            path.symlink_to(path.name)
        elif hasattr(os, "mkfifo"):
            os.mkfifo(path)  # opening it would wait for a writer
        else:
            pytest.skip("needs os.mkfifo")
        with pytest.raises(ValueError, match="^missing frame file frames/000001.pgm$"):
            read_frame_index(tmp_path)

    def test_geometry_change(self, tmp_path):
        _write_index(
            tmp_path,
            [
                (0, "000000.pgm", np.zeros((480, 640), dtype=np.uint8)),
                (40000, "000001.pgm", np.zeros((240, 320), dtype=np.uint8)),
            ],
        )
        with pytest.raises(ValueError, match="frame geometry changed"):
            read_frame_index(tmp_path)


    def test_long_header_comment(self, tmp_path):
        px = np.arange(24, dtype=np.uint8).reshape(4, 6)
        _write_index(tmp_path, [(0, "000000.pgm", None)])
        comment = b"# " + b"x" * 600 + b"\n"
        (tmp_path / "frames" / "000000.pgm").write_bytes(
            b"P5\n" + comment + b"6 4\n255\n" + px.tobytes()
        )
        (frame,) = read_frame_index(tmp_path)
        assert (frame.width, frame.height) == (6, 4)
        assert np.array_equal(frame.pixels, px)

    @pytest.mark.parametrize(
        "rel",
        ["../x/frames/000000.pgm", "frames/../../x/frames/000000.pgm", "{root}/x/frames/000000.pgm"],
    )
    def test_path_leaving_session_rejected(self, tmp_path, rel):
        px = np.zeros((4, 6), dtype=np.uint8)
        for name in ("s", "x"):
            (tmp_path / name).mkdir()
            _write_index(tmp_path / name, [(0, "000000.pgm", px)])
        rel = rel.format(root=tmp_path)
        assert (tmp_path / "s" / rel).is_file()  # the target exists
        (tmp_path / "s" / "frames" / "index.csv").write_text(f"t_us,file\n0,{rel}\n")
        with pytest.raises(ValueError, match="leaves the session"):
            read_frame_index(tmp_path / "s")


def _pose_reader(root, lines):
    """Write ``lines`` as ``pose.csv``; returns a call that reads it."""
    path = _pose_csv(root, "".join(f"{line}\n" for line in lines))
    return lambda: read_pose_csv(path)


def _index_reader(root, lines):
    """Write ``lines`` as ``frames/index.csv`` beside one PGM; returns a call that reads it."""
    _write_index(root, [(0, "000000.pgm", np.zeros((4, 6), dtype=np.uint8))])
    (root / "frames" / "index.csv").write_text("".join(f"{line}\n" for line in lines))
    return lambda: read_frame_index(root)


class TestSessionCsvGrammar:
    """``pose.csv`` and ``frames/index.csv`` reject the same broken rows alike."""

    # header, the rest of a valid data line, field count, writer
    FORMATS = {
        "pose": (POSE_HEADER, "1,0,0,0", 5, _pose_reader),
        "index": (FRAME_INDEX_HEADER, "frames/000000.pgm", 2, _index_reader),
    }

    # header line, data lines ({row}: the rest of a valid line), message
    CASES = {
        "header": ("t,{rest}", ["0,{row}"], "bad header line 1: expected '{header}'"),
        "field-count": ("{header}", ["0,{row}", "10"],
                        "malformed line 3: expected {n} fields, got 1"),
        "t-us": ("{header}", ["0,{row}", "1.5,{row}"],
                 "malformed line 3: invalid literal for int() with base 10: '1.5'"),
        "repeated-t-us": ("{header}", ["0,{row}", "0,{row}"], "timestamp regression at line 3"),
        "blank-lines": ("{header}", ["", "0,{row}", "  ", "", "5,{row}", "5,{row}"],
                        "timestamp regression at line 7"),
        "t-us-above-int64": ("{header}", ["0,{row}", f"{10**19},{{row}}"],
                             f"malformed line 3: t_us {10**19} outside 0..{INT64_MAX}"),
        "t-us-negative": ("{header}", ["-1,{row}"],
                          f"malformed line 2: t_us -1 outside 0..{INT64_MAX}"),
    }

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("case", CASES)
    def test_same_line_numbered_error(self, tmp_path, fmt, case):
        header, row, n, make_reader = self.FORMATS[fmt]
        header_line, lines, message = self.CASES[case]
        header_line = header_line.format(header=header, rest=header.split(",", 1)[1])
        read = make_reader(tmp_path, [header_line] + [line.format(row=row) for line in lines])
        with pytest.raises(ValueError) as exc:
            read()
        assert str(exc.value) == message.format(header=header, n=n)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_blank_lines_skipped(self, tmp_path, fmt):
        header, row, _, make_reader = self.FORMATS[fmt]
        read = make_reader(tmp_path, [header, "", f"0,{row}", " ", f"7,{row}", ""])
        assert [x.t_us for x in read()] == [0, 7]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_t_us_range_ends_accepted(self, tmp_path, fmt):
        header, row, _, make_reader = self.FORMATS[fmt]
        read = make_reader(tmp_path, [header, f"0,{row}", f"{INT64_MAX},{row}"])
        assert [x.t_us for x in read()] == [0, INT64_MAX]


class TestFrame:
    @pytest.mark.parametrize("pixels", [
        [[300, -1]], [[12.7, float("nan")]], [[12.0, 3.0]], [[True, False]], [["1", "2"]],
    ], ids=["out-of-range", "float-nan", "float", "bool", "str"])
    def test_lossy_pixels_rejected(self, pixels):
        with pytest.raises(ValueError, match="pixels must be uint8"):
            Frames([0], [0], (pixels,))

    def test_integer_pixels_in_range_accepted(self):
        for pixels in ([[0, 255]], np.array([[0, 255]], dtype=np.int16)):
            frame = Frames([0], [0], (pixels,))[0]
            assert frame.pixels.dtype == np.uint8 and frame.pixels.tolist() == [[0, 255]]
            assert (frame.width, frame.height) == (2, 1)

    def test_uint8_pixels_held_as_given(self):
        pixels = np.zeros((1, 2), dtype=np.uint8)
        assert Frames([0], [0], (pixels,))[0].pixels is pixels

    def test_source_equal_only_for_one_held_array_or_file(self, tmp_path):
        # Frames share a source only by index: one held array, or one file
        # however its index rows spell the path.
        pixels = np.zeros((1, 2), dtype=np.uint8)
        frames = Frames([0, 1, 2], [0, 0, 1], (pixels, pixels.copy()))
        assert frames[0].pixels is frames[1].pixels is pixels
        assert frames[2].pixels is frames.sources[1] is not pixels
        _write_index(tmp_path, [(0, "a.pgm", pixels), (1, "b.pgm", pixels)])
        (tmp_path / "frames" / "index.csv").write_text(
            "t_us,file\n0,frames/a.pgm\n1,frames/./a.pgm\n2,frames/b.pgm\n3,frames//a.pgm\n"
        )
        on_disk = read_frame_index(tmp_path)
        assert on_disk.source.tolist() == [0, 0, 1, 0]
        assert [s.path.name for s in on_disk.sources] == ["a.pgm", "b.pgm"]

    @pytest.mark.parametrize("t, source, sources", [
        pytest.param([0, 1], [0], (np.zeros((1, 2), np.uint8),), id="lengths"),
        pytest.param([[0, 1]], [[0, 0]], (np.zeros((1, 2), np.uint8),), id="two-dimensional-t"),
        pytest.param([0], [0], (np.zeros(2, np.uint8),), id="one-dimensional-pixels"),
    ])
    def test_bad_shapes_raise(self, t, source, sources):
        with pytest.raises(ValueError, match="^frames need t_us"):
            Frames(t, source, sources)

    @pytest.mark.parametrize("source", [[0, 2], [-1, 0]])
    def test_source_index_outside_sources_raises(self, source):
        with pytest.raises(ValueError, match=r"^frame source index outside 0\.\.1$"):
            Frames([0, 1], source, (np.zeros((1, 2), np.uint8),) * 2)

    def test_columns_and_views_are_read_only(self):
        frames = Frames([0, 40_000], [0, 0], (np.zeros((1, 2), np.uint8),))
        for column in (frames.t_us, frames.source):
            with pytest.raises(ValueError, match="read-only"):
                column[1] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            frames.t_us = np.array([0, 1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            frames[1].t_us = 90_000
        assert [f.t_us for f in frames] == [0, 40_000]


class TestManifest:
    def test_round_trip(self, tmp_path):
        meta = SessionMeta("s1", "expert", 1, 100.0, 25.0)
        write_manifest(tmp_path, meta)
        back, profile = read_manifest(tmp_path)
        assert back == meta
        assert profile is None

    def test_unknown_role(self, tmp_path):
        doc = {
            "session_id": "s",
            "participant_role": "sonographer",
            "trial": 1,
            "pose_rate_hz": 100,
            "frame_rate_hz": 25,
        }
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unknown role; expected expert|novice|unknown"):
            read_manifest(tmp_path)

    def test_zero_rate(self, tmp_path):
        doc = {
            "session_id": "s",
            "participant_role": "expert",
            "trial": 1,
            "pose_rate_hz": 0,
            "frame_rate_hz": 25,
        }
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="rates must be positive"):
            read_manifest(tmp_path)

    def test_unknown_key_rejected(self, tmp_path):
        doc = {
            "session_id": "s",
            "participant_role": "expert",
            "trial": 1,
            "pose_rate_hz": 100,
            "frame_rate_hz": 25,
            "operator": "x",
        }
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unknown manifest key"):
            read_manifest(tmp_path)

    def test_synthetic_profile_round_trip(self, tmp_path):
        meta = SessionMeta("s1", "novice", 2, 100.0, 25.0)
        write_manifest(tmp_path, meta, synthetic_profile={"kind": "novice", "seed": 3})
        back, profile = read_manifest(tmp_path)
        assert back == meta
        assert profile == {"kind": "novice", "seed": 3}


class TestValidation:
    def test_clean_generated_session(self, tiny_expert_session):
        assert validate_session(tiny_expert_session).findings == []

    def test_gap_finding(self):
        times = [0, 10_000, 20_000, 120_000, 130_000]  # 100 ms hole at 100 Hz
        poses = [PoseSample(t, IDENTITY.copy()) for t in times]
        frames = [constant_frame(t) for t in (0, 40_000, 80_000, 120_000)]
        report = validate_session(make_session(poses, frames))
        gaps = [f for f in report.findings if f.kind == "gap"]
        assert len(gaps) == 1
        assert "pose" in gaps[0].message and "100000" in gaps[0].message

    def test_empty_frames_finding(self):
        poses = [PoseSample(t, IDENTITY.copy()) for t in (0, 10_000)]
        report = validate_session(make_session(poses, []))
        assert any(f.message == "empty stream: frames" for f in report.findings)

    def test_span_mismatch_finding(self):
        poses = [PoseSample(t, IDENTITY.copy()) for t in range(0, 100_000, 10_000)]
        frames = [constant_frame(0), constant_frame(40_000)]
        report = validate_session(make_session(poses, frames))
        assert any(f.kind == "span_mismatch" for f in report.findings)


def _identity_poses(times):
    return [PoseSample(t, IDENTITY.copy()) for t in times]


# fuse_streams used to fuse the last three without an error, to 11, 4 and 5 samples.
_REGRESSIONS = [
    pytest.param((0, 10_000), (40_000, 20_000, 60_000),
                 "frame stream: t_us 20000 at index 1 does not advance past 40000",
                 id="frame-regression"),
    pytest.param((0, 10_000, 20_000, 15_000, *range(30_000, 110_000, 10_000)),
                 (0, 40_000, 80_000),
                 "pose stream: t_us 15000 at index 3 does not advance past 20000",
                 id="pose-regression"),
    pytest.param((0, 10_000, 10_000, 20_000, 30_000), (0, 40_000),
                 "pose stream: t_us 10000 at index 2 does not advance past 10000",
                 id="pose-duplicate"),
    pytest.param((0, 10_000, 20_000, 30_000, 40_000), (0, 40_000, 40_000),
                 "frame stream: t_us 40000 at index 2 does not advance past 40000",
                 id="frame-duplicate"),
]

# With pose_policy "nearest", fuse_streams used to copy the norm-2 pose into its grid.
_NON_UNIT = [
    pytest.param(1, [1.01, 0, 0, 0], r"pose 1 has norm 1\.010000 \(deviation > 0\.001\)",
                 id="norm-1.01"),
    pytest.param(4, [2.0, 0, 0, 0], r"pose 4 has norm 2\.000000 \(deviation > 0\.001\)",
                 id="norm-2"),
    pytest.param(2, [np.nan, 0, 0, 0], r"pose 2 has norm nan \(deviation > 0\.001\)",
                 id="norm-nan"),
    pytest.param(3, [1e200, 1e200, 0, 0],
                 r"pose 3 has norm 1414[0-9]{197}\.000000 \(deviation > 0\.001\)",
                 id="norm-1.4e200"),
]


class TestPoses:
    """``Poses(...)`` holds the pose stream's invariants, and its columns cannot change."""

    @staticmethod
    def _identity(times):
        return Poses(np.array(times, dtype=np.int64), np.tile(IDENTITY, (len(times), 1)))

    @pytest.mark.parametrize("pose_t, frame_t, message",
                             [p for p in _REGRESSIONS if p.id.startswith("pose")])
    def test_timestamp_regression_raises(self, pose_t, frame_t, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            self._identity(pose_t)

    @pytest.mark.parametrize("index, q, message", _NON_UNIT)
    def test_non_unit_quaternion_raises(self, index, q, message):
        quats = np.tile(IDENTITY, (5, 1))
        quats[index] = q
        with pytest.raises(ValueError, match=f"^{message}$"):
            Poses(np.arange(5, dtype=np.int64) * 10_000, quats)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1 + sign * d * 1e-3 for sign in (-1, 1)
                                  for d in (0.9995, 0.9999999, 1, 1.0000001, 1.0005)])
           | st.floats(1 - 1.002e-3, 1 + 1.002e-3) | st.floats(0.0, 1e300))
    def test_norm_check_is_the_hypot_rule(self, seed, scale):
        # The reference: hypot's norm of every row, within 1e-3 of 1.
        q = random_unit_quat(np.random.default_rng(seed)) * scale
        norm = np.hypot.reduce(q)
        quats = np.tile(IDENTITY, (3, 1))
        quats[1] = q
        if abs(norm - 1.0) <= 1e-3:
            assert Poses(np.arange(3), quats).q[1].tobytes() == q.tobytes()
        else:
            message = f"pose 1 has norm {norm:.6f} (deviation > 0.001)"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Poses(np.arange(3), quats)

    def test_columns_are_read_only_copies(self):
        t, q = np.array([0, 10_000, 20_000]), np.tile(IDENTITY, (3, 1))
        poses = Poses(t, q)
        assert poses.t_us.dtype == np.int64 and poses.q.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            poses.t_us[1] = 30_000
        with pytest.raises(ValueError, match="read-only"):
            poses.q[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            next(iter(poses)).q[0] = 2.0
        # The caller's arrays stay writable, and writing them changes no pose.
        t[1], q[0, 0] = 30_000, 2.0
        assert poses.t_us.tolist() == [0, 10_000, 20_000] and poses.q[0, 0] == 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            poses.t_us = t

    def test_has_no_append(self, tiny_expert_session):
        assert not hasattr(tiny_expert_session.poses, "append")
        with pytest.raises(AttributeError):
            tiny_expert_session.poses.append(PoseSample(10**9, IDENTITY))

    def test_per_sample_view(self, tiny_expert_session):
        poses = tiny_expert_session.poses
        samples = list(poses)
        assert len(samples) == len(poses) > 2
        for sample, t, q in zip(samples, poses.t_us, poses.q):
            assert type(sample) is PoseSample and type(sample.t_us) is int
            assert sample.t_us == t and np.array_equal(sample.q, q)

    @pytest.mark.parametrize("t, q", [
        pytest.param([0, 1], np.tile(IDENTITY, (3, 1)), id="lengths"),
        pytest.param([0, 1], np.ones((2, 3)), id="three-components"),
        pytest.param([[0, 1]], np.tile(IDENTITY, (2, 1)), id="two-dimensional-t"),
    ])
    def test_bad_shapes_raise(self, t, q):
        with pytest.raises(ValueError, match="^poses need t_us"):
            Poses(np.array(t), q)

    def test_session_takes_only_poses(self):
        with pytest.raises(TypeError, match="^poses must be a Poses, got list$"):
            Session(SessionMeta("s", "unknown", 1, 100.0, 25.0), [], [])

    def test_session_takes_only_frames(self):
        poses = Poses([0, 10_000], np.tile(IDENTITY, (2, 1)))
        with pytest.raises(TypeError, match="^frames must be a Frames, got list$"):
            Session(SessionMeta("s", "unknown", 1, 100.0, 25.0), poses, [constant_frame(0)])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
    def test_write_read_round_trip_is_bit_exact(self, tmp_path_factory, seed, n):
        rng = np.random.default_rng(seed)
        poses = pose_columns(smooth_pose_walk(rng, random_stream_times(rng, n, 0, 10_000)))
        path = tmp_path_factory.mktemp("poses") / "pose.csv"
        write_pose_csv(path, poses)
        back = read_pose_csv(path)
        assert back.t_us.tobytes() == poses.t_us.tobytes()
        assert back.q.tobytes() == poses.q.tobytes()
        assert not (back.t_us.flags.writeable or back.q.flags.writeable)


class TestSessionInvariants:
    """``Session(...)`` holds what fusion and every metric assume of its streams."""

    @pytest.mark.parametrize("pose_t, frame_t, message", _REGRESSIONS)
    def test_timestamp_regression_raises(self, pose_t, frame_t, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_session(_identity_poses(pose_t), [constant_frame(t) for t in frame_t])

    @pytest.mark.parametrize("index, q, message", _NON_UNIT)
    def test_non_unit_quaternion_raises(self, index, q, message):
        poses = _identity_poses(range(0, 50_000, 10_000))
        poses[index] = PoseSample(poses[index].t_us, np.array(q))
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_session(poses, [constant_frame(0), constant_frame(40_000)])

    @staticmethod
    def _streams(seed, n_poses, n_frames):
        rng = np.random.default_rng(seed)
        poses = [PoseSample(t, random_unit_quat(rng))
                 for t in random_stream_times(rng, n_poses, 0, 10_000)]
        return poses, [constant_frame(t) for t in random_stream_times(rng, n_frames, 0, 40_000)]

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_poses=st.integers(1, 30),
           n_frames=st.integers(1, 10), scale=st.floats(1 - 0.999e-3, 1 + 0.999e-3))
    def test_increasing_unit_streams_construct(self, seed, n_poses, n_frames, scale):
        poses, frames = self._streams(seed, n_poses, n_frames)
        poses[-1] = PoseSample(poses[-1].t_us, poses[-1].q * scale)
        poses, frames = pose_columns(poses), frame_columns(frames)
        session = make_session(poses, frames)
        assert session.poses is poses and session.frames is frames
        with pytest.raises(dataclasses.FrozenInstanceError):
            session.poses = []

    def test_frame_times_cannot_change_after_construction(self):
        # Frame times could once be rewritten in place, and fusion then
        # quietly returned one sample; they are read-only now, as pose times are.
        poses = [PoseSample(t, IDENTITY) for t in range(0, 100_000, 10_000)]
        session = make_session(poses, [constant_frame(t) for t in (0, 40_000, 80_000)])
        with pytest.raises(ValueError, match="read-only"):
            session.frames.t_us[1] = 90_000
        with pytest.raises(dataclasses.FrozenInstanceError):
            session.frames.t_us = np.array([0, 90_000, 80_000])
        with pytest.raises(dataclasses.FrozenInstanceError):
            session.frames[1].t_us = 90_000
        assert session.frames.t_us.tolist() == [0, 40_000, 80_000]
        assert len(fuse_streams(session, ResampleConfig())) == 10

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_poses=st.integers(2, 30),
           n_frames=st.integers(2, 10), stream=st.sampled_from(["pose", "frame"]),
           back=st.integers(0, 10**6), data=st.data())
    def test_non_increasing_step_raises(self, seed, n_poses, n_frames, stream, back, data):
        poses, frames = self._streams(seed, n_poses, n_frames)
        items = poses if stream == "pose" else frames
        i = data.draw(st.integers(1, len(items) - 1))
        prev, t = items[i - 1].t_us, items[i - 1].t_us - back
        items[i] = PoseSample(t, poses[i].q) if stream == "pose" else constant_frame(t)
        message = f"{stream} stream: t_us {t} at index {i} does not advance past {prev}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_session(poses, frames)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_poses=st.integers(1, 30), n_frames=st.integers(1, 10),
           scale=st.floats(0.0, 1 - 1.001e-3) | st.floats(1 + 1.001e-3, 1e300), data=st.data())
    def test_norm_off_by_more_than_tolerance_raises(self, seed, n_poses, n_frames, scale, data):
        poses, frames = self._streams(seed, n_poses, n_frames)
        j = data.draw(st.integers(0, n_poses - 1))
        poses[j] = PoseSample(poses[j].t_us, poses[j].q * scale)
        message = rf"^pose {j} has norm [0-9.]+ \(deviation > 0\.001\)$"
        with pytest.raises(ValueError, match=message):
            make_session(poses, frames)


class TestSessionRoundTrip:
    def test_lossless(self, tmp_path, tiny_expert_session):
        out = tmp_path / "sess"
        out.mkdir()
        write_session(out, tiny_expert_session)
        back = load_session(out)
        assert back.meta == tiny_expert_session.meta
        assert back.synthetic_profile == tiny_expert_session.synthetic_profile
        assert len(back.poses) == len(tiny_expert_session.poses)
        for a, b in zip(back.poses, tiny_expert_session.poses):
            assert a.t_us == b.t_us
            assert np.array_equal(a.q, b.q), "quaternions must round-trip bit-exactly"
        assert len(back.frames) == len(tiny_expert_session.frames)
        for fa, fb in zip(back.frames, tiny_expert_session.frames):
            assert fa.t_us == fb.t_us
            assert np.array_equal(fa.pixels, fb.pixels)

    def test_lazy_frames_identical_after_reload(self, tmp_path):
        rng = np.random.default_rng(1)
        poses = [PoseSample(0, IDENTITY.copy()), PoseSample(40_000, IDENTITY.copy())]
        frames = [
            Frame(0, rng.integers(0, 256, (4, 6), dtype=np.uint8)),
            Frame(40_000, rng.integers(0, 256, (4, 6), dtype=np.uint8)),
        ]
        session = make_session(poses, frames)
        out = tmp_path / "s"
        out.mkdir()
        write_session(out, session)
        back = load_session(out)
        first = back.frames[1].pixels
        again = back.frames[1].pixels
        assert np.array_equal(first, again)  # each access decodes the same file
        assert np.array_equal(first, frames[1].pixels)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_serial_report_memory_does_not_grow_with_frames(tmp_path):
    width, height = 640, 480
    peaks = []
    for n_frames in (10, 100):
        rng = np.random.default_rng(n_frames)
        poses = smooth_pose_walk(rng, [k * 10_000 for k in range(4 * n_frames)])
        frames = [
            Frame(k * 40_000, rng.integers(0, 256, (height, width), dtype=np.uint8))
            for k in range(n_frames)
        ]
        session = tmp_path / f"s{n_frames}"
        session.mkdir()
        write_session(session, make_session(poses, frames))
        del frames
        peaks.append(peak_rss_kib("-m", "scanskill", "report", "--session", str(session),
                                  "--out", str(tmp_path / "out")))
    # A frame cache would hold 90 more frames (about 26 MiB) in the long run.
    assert peaks[1] - peaks[0] <= 3 * width * height // 1024


def test_pipeline_builds_no_pose_samples(tmp_path, monkeypatch):
    # Poses stay columns from the generator and the reader through fusion;
    # PoseSample is only the per-sample view.  Guards the set-up speed of
    # columnar poses without a timing test.
    made = []
    init = PoseSample.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args[0] if args else kwargs["t_us"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(PoseSample, "__init__", counting_init)
    assert PoseSample(7, IDENTITY).t_us == 7 and made == [7]  # the counter sees one
    made.clear()

    from scanskill.fusion import ResampleConfig, fuse_streams
    from scanskill.synth import build_session, expert_profile

    session = build_session(
        expert_profile(3, frame_width=16, frame_height=12, n_samples_range=(1200, 1200))
    )
    write_session(tmp_path, session)
    poses = read_pose_csv(tmp_path / "pose.csv")
    fused = fuse_streams(load_session(tmp_path), ResampleConfig())
    assert len(session.poses) == len(poses) == len(fused) == 1201
    assert made == []
