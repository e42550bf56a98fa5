import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanskill.core import SessionMeta
from scanskill.ingest import (
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

from conftest import IDENTITY, constant_frame, make_session


class TestPoseCsv:
    def test_two_identity_samples(self):
        samples = read_pose_csv(io.StringIO("t_us,w,x,y,z\n0,1,0,0,0\n10000,1,0,0,0"))
        assert len(samples) == 2
        assert [s.t_us for s in samples] == [0, 10000]
        for s in samples:
            np.testing.assert_allclose(s.q, IDENTITY)

    def test_normalized_on_read(self):
        samples = read_pose_csv(io.StringIO("t_us,w,x,y,z\n0,2,0,0,0"))
        assert len(samples) == 1
        np.testing.assert_allclose(samples[0].q, IDENTITY)

    def test_timestamp_regression(self):
        with pytest.raises(ValueError, match="timestamp regression at line 3"):
            read_pose_csv(io.StringIO("t_us,w,x,y,z\n10,1,0,0,0\n5,1,0,0,0"))

    def test_malformed_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            read_pose_csv(io.StringIO("t_us,w,x,y,z\n0,1,0,0"))
        with pytest.raises(ValueError, match="line 3"):
            read_pose_csv(io.StringIO("t_us,w,x,y,z\n0,1,0,0,0\n1,nope,0,0,0"))

    def test_empty_file(self):
        with pytest.raises(ValueError, match="no samples"):
            read_pose_csv(io.StringIO("t_us,w,x,y,z\n"))

    def test_bad_header(self):
        with pytest.raises(ValueError, match="expected 't_us,w,x,y,z'"):
            read_pose_csv(io.StringIO("time,w,x,y,z\n0,1,0,0,0"))

    def test_zero_quaternion_line(self):
        with pytest.raises(ValueError, match="line 2: degenerate quaternion"):
            read_pose_csv(io.StringIO("t_us,w,x,y,z\n0,0,0,0,0"))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_component_line(self, bad):
        with pytest.raises(ValueError, match="malformed line 3: non-finite"):
            read_pose_csv(io.StringIO(f"t_us,w,x,y,z\n0,1,0,0,0\n1,1,{bad},0,0"))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 60))
    @settings(max_examples=30, deadline=None)
    def test_fuzz_count_matches_lines(self, seed, n):
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.integers(1, 20_000, size=n))
        lines = ["t_us,w,x,y,z"]
        for ti in t:
            q = rng.standard_normal(4)
            while np.linalg.norm(q) < 1e-3:
                q = rng.standard_normal(4)
            w, x, y, z = (repr(float(v)) for v in q)
            lines.append(f"{ti},{w},{x},{y},{z}")
        samples = read_pose_csv(io.StringIO("\n".join(lines)))
        assert len(samples) == n
        for s in samples:
            assert abs(np.linalg.norm(s.q) - 1.0) <= 1e-9


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
        assert first is again  # cached after first load
        assert np.array_equal(first, frames[1].pixels)
