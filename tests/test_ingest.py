import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanskill.core import INT64_MAX, SessionMeta, q_normalize
from scanskill.ingest import (
    FRAME_INDEX_HEADER,
    POSE_HEADER,
    Frame,
    PoseSample,
    load_session,
    read_frame_index,
    read_manifest,
    read_pgm,
    read_pose_csv,
    validate_session,
    write_manifest,
    write_pgm,
    write_session,
)

from conftest import IDENTITY, constant_frame, make_session, peak_rss_kib, smooth_pose_walk


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
        np.testing.assert_allclose(samples[0].q, IDENTITY)

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
        np.testing.assert_allclose(samples[1].q, expected, rtol=0, atol=1e-15)
        assert abs(np.sum(samples[1].q ** 2) - 1.0) <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
    def test_any_finite_row_loads_as_unit_in_its_direction(self, tmp_path_factory, comps):
        row = ",".join(map(repr, comps))
        path = _pose_csv(tmp_path_factory.mktemp("pose"), f"t_us,w,x,y,z\n0,{row}\n")
        if not any(comps):
            with pytest.raises(ValueError, match="^line 2: degenerate quaternion"):
                read_pose_csv(path)
            return
        q = read_pose_csv(path)[0].q
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
            Frame(0, 2, 1, pixels=pixels)

    def test_integer_pixels_in_range_accepted(self):
        for pixels in ([[0, 255]], np.array([[0, 255]], dtype=np.int16)):
            frame = Frame(0, 2, 1, pixels=pixels)
            assert frame.pixels.dtype == np.uint8 and frame.pixels.tolist() == [[0, 255]]

    def test_uint8_pixels_held_as_given(self):
        pixels = np.zeros((1, 2), dtype=np.uint8)
        assert Frame(0, 2, 1, pixels=pixels).pixels is pixels

    def test_source_equal_only_for_one_held_array_or_file(self, tmp_path):
        pixels = np.zeros((1, 2), dtype=np.uint8)
        a, b, c = (Frame(0, 2, 1, pixels=p) for p in (pixels, pixels, pixels.copy()))
        assert a.source == b.source != c.source
        path = tmp_path / "a.pgm"
        on_disk = [Frame(0, 2, 1, path=p) for p in (path, tmp_path / "." / "a.pgm",
                                                    tmp_path / "b.pgm")]
        assert on_disk[0].source == on_disk[1].source != on_disk[2].source
        assert len({a.source, c.source, on_disk[0].source, on_disk[2].source}) == 4


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

    def test_non_unit_quaternion_finding(self):
        poses = [
            PoseSample(0, IDENTITY.copy()),
            PoseSample(10_000, np.array([1.01, 0, 0, 0])),
        ]
        frames = [constant_frame(0), constant_frame(10_000)]
        report = validate_session(make_session(poses, frames))
        assert any(f.kind == "non_unit_quaternion" for f in report.findings)

    def test_span_mismatch_finding(self):
        poses = [PoseSample(t, IDENTITY.copy()) for t in range(0, 100_000, 10_000)]
        frames = [constant_frame(0), constant_frame(40_000)]
        report = validate_session(make_session(poses, frames))
        assert any(f.kind == "span_mismatch" for f in report.findings)

    def test_timestamp_regression_finding(self):
        poses = [PoseSample(0, IDENTITY.copy()), PoseSample(10_000, IDENTITY.copy())]
        frames = [constant_frame(40_000), constant_frame(20_000), constant_frame(60_000)]
        report = validate_session(make_session(poses, frames))
        assert any(f.kind == "timestamp_regression" for f in report.findings)


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
            Frame(0, 6, 4, pixels=rng.integers(0, 256, (4, 6), dtype=np.uint8)),
            Frame(40_000, 6, 4, pixels=rng.integers(0, 256, (4, 6), dtype=np.uint8)),
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
            Frame(k * 40_000, width, height,
                  pixels=rng.integers(0, 256, (height, width), dtype=np.uint8))
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
