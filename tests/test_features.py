import json
import math
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import uniform_filter

from scanskill import features
from scanskill.core import q_from_axis_angle, q_multiply, q_normalize
from scanskill.features import (
    GlcmConfig,
    SmoothnessConfig,
    TextureFeatures,
    angular_velocity,
    compute_feature_table,
    frame_features,
    glcm,
    glcm_counts,
    histogram_stats,
    log_dimensionless_jerk,
    path_length,
    quantize,
    smooth_speed,
    sparc,
    texture_features,
)
from scanskill.fusion import ResampleConfig, fuse_streams
from scanskill.ingest import Frame, Frames, PoseSample, Poses, load_session

from conftest import (
    IDENTITY,
    SHARED_SOURCE_SESSIONS,
    assert_same_table,
    make_session,
    private_copies,
    python_env,
    random_unit_quat,
    repeated_frames_session,
    run_python,
    shared_source_session,
    smooth_pose_walk,
)


# --- independent oracles -----------------------------------------------------

def naive_glcm_counts(img: np.ndarray, levels: int, offset: tuple[int, int]) -> np.ndarray:
    """Direct enumeration of co-occurring pixel pairs."""
    dx, dy = offset
    h, w = img.shape
    counts = np.zeros((levels, levels), dtype=np.int64)
    for y in range(h):
        for x in range(w):
            y2, x2 = y + dy, x + dx
            if 0 <= y2 < h and 0 <= x2 < w:
                counts[img[y, x], img[y2, x2]] += 1
    return counts


def naive_sparc(v, fs, fc=10.0, amp_th=0.05):
    """Direct-DFT spectral arc length (no FFT), mirroring the stated recipe."""
    v = np.asarray(v, dtype=np.float64)
    n = v.size
    nfft = 2 ** (math.ceil(math.log2(n)) + 4)
    n_bins = nfft // 2 + 1
    freq = np.arange(n_bins) * (fs / nfft)
    ks = np.nonzero(freq <= fc)[0]
    phases = np.exp(-2j * np.pi * np.outer(ks, np.arange(n)) / nfft)
    mag = np.abs(phases @ v)
    m = mag / mag[0]
    last = np.nonzero(m >= amp_th)[0][-1]
    f_sel = freq[ks][: last + 1]
    m_sel = m[: last + 1]
    if f_sel.size < 2:
        return 0.0
    span = f_sel[-1] - f_sel[0]
    return -float(np.sum(np.sqrt((np.diff(f_sel) / span) ** 2 + np.diff(m_sel) ** 2)))


def min_jerk_bell(n: int, dt: float, peak: float = 1.0) -> np.ndarray:
    tau = np.arange(n) / (n - 1)
    return peak * (30 * tau**2 * (1 - tau) ** 2) / 1.875


# --- quantize ----------------------------------------------------------------

class TestQuantize:
    def test_top_bin(self):
        img = np.full((3, 3), 255, dtype=np.uint8)
        assert np.all(quantize(img, 8) == 7)

    def test_bin_edges(self):
        img = np.array([[0, 32, 31]], dtype=np.uint8)
        assert quantize(img, 8).tolist() == [[0, 1, 0]]

    def test_matches_floor_formula_all_levels(self):
        p = np.arange(256, dtype=np.uint8).reshape(16, 16)
        for levels in (8, 16, 32, 64):
            expected = (p.astype(np.int64) * levels) // 256
            assert np.array_equal(quantize(p, levels), expected)

    def test_roi(self):
        img = np.arange(64, dtype=np.uint8).reshape(8, 8)
        out = quantize(img, 8, roi=(2, 1, 4, 3))
        assert out.shape == (3, 4)

    def test_roi_out_of_bounds(self):
        img = np.zeros((8, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match="roi out of bounds"):
            quantize(img, 8, roi=(4, 4, 8, 2))

    def test_bad_levels(self):
        with pytest.raises(ValueError, match="levels"):
            quantize(np.zeros((2, 2), dtype=np.uint8), 10)


# --- glcm --------------------------------------------------------------------

class TestGlcm:
    def test_two_column_image(self):
        img = np.array([[0, 1], [0, 1]])
        P = glcm(img, 2, (1, 0), symmetric=False)
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0
        np.testing.assert_array_equal(P, expected)

    def test_checkerboard_symmetric(self):
        img = np.array([[0, 1], [1, 0]])
        P = glcm(img, 2, (1, 0), symmetric=True)
        np.testing.assert_array_equal(P, [[0.0, 0.5], [0.5, 0.0]])

    def test_constant_image_point_mass(self):
        img = np.full((5, 5), 3)
        for offset in ((1, 0), (0, 1), (-1, 1)):
            P = glcm(img, 8, offset)
            assert P[3, 3] == 1.0
            assert P.sum() == 1.0

    def test_offset_larger_than_image(self):
        with pytest.raises(ValueError, match="empty co-occurrence"):
            glcm(np.zeros((2, 2), dtype=int), 8, (5, 0))

    def test_normalization_and_symmetry_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            img = rng.integers(0, 8, (9, 7))
            for offset in ((1, 0), (0, 1), (1, 1), (-1, 1)):
                P = glcm(img, 8, offset, symmetric=True)
                assert abs(P.sum() - 1.0) <= 1e-9
                assert np.array_equal(P, P.T)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            img = rng.integers(0, 8, (16, 16))
            for offset in ((1, 0), (0, 1), (1, 1), (-1, 1)):
                assert np.array_equal(
                    glcm_counts(img, 8, offset), naive_glcm_counts(img, 8, offset)
                )


class TestTextureFeatures:
    def test_point_mass(self):
        P = np.zeros((8, 8))
        P[2, 2] = 1.0
        f = texture_features(P)
        assert f.asm == 1.0 and f.energy == 1.0 and f.homogeneity == 1.0

    def test_checkerboard_values(self):
        P = np.array([[0.0, 0.5], [0.5, 0.0]])
        f = texture_features(P)
        assert abs(f.asm - 0.5) <= 1e-15
        assert abs(f.energy - math.sqrt(0.5)) <= 1e-15
        assert abs(f.homogeneity - 0.5) <= 1e-15

    @pytest.mark.parametrize("levels", [8, 16, 32, 64])
    def test_uniform_matrix(self, levels):
        P = np.full((levels, levels), 1.0 / levels**2)
        f = texture_features(P)
        assert abs(f.asm - 1.0 / levels**2) <= 1e-15
        assert abs(f.energy - 1.0 / levels) <= 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="unnormalized"):
            texture_features(np.full((4, 4), 1.0))

    def test_all_ones_iff_diagonal_point_mass(self):
        # Diagonal point mass -> all three exactly 1.
        for i in range(4):
            P = np.zeros((4, 4))
            P[i, i] = 1.0
            assert texture_features(P) == (1.0, 1.0, 1.0)
        # Off-diagonal point mass: asm/energy 1 but homogeneity < 1.
        P = np.zeros((4, 4))
        P[0, 3] = 1.0
        f = texture_features(P)
        assert f.asm == 1.0 and f.homogeneity < 1.0
        # Any spread-out P: not all three can be 1.
        rng = np.random.default_rng(2)
        for _ in range(20):
            raw = rng.random((4, 4)) + 1e-3
            f = texture_features(raw / raw.sum())
            assert not (f.asm == 1.0 and f.energy == 1.0 and f.homogeneity == 1.0)


class TestFrameFeatures:
    def test_constant_frame_degenerate(self):
        img = np.full((12, 10), 77, dtype=np.uint8)
        tex, hist = frame_features(img, GlcmConfig())
        assert tex.asm == 1.0 and tex.energy == 1.0 and tex.homogeneity == 1.0
        assert hist.entropy == 0.0
        assert hist.variance == 0.0
        assert hist.mean == 77.0

    def test_energy_asm_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            img = rng.integers(0, 256, (16, 16), dtype=np.uint8)
            tex, _ = frame_features(img, GlcmConfig(levels=8))
            assert abs(tex.energy**2 - tex.asm) <= 1e-12

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(4)
        cfg = GlcmConfig(levels=8)
        mirrored_cfg = GlcmConfig(
            levels=8, offsets=tuple((-dx, dy) for dx, dy in cfg.offsets)
        )
        for _ in range(10):
            img = rng.integers(0, 256, (16, 16), dtype=np.uint8)
            tex_a, hist_a = frame_features(img, cfg)
            tex_b, hist_b = frame_features(img[:, ::-1].copy(), mirrored_cfg)
            assert tex_a == tex_b
            assert hist_a.mean == hist_b.mean and hist_a.entropy == hist_b.entropy

    def test_smoothing_raises_homogeneity(self):
        rng = np.random.default_rng(5)
        noise = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        smoothed = uniform_filter(noise.astype(np.float64), size=3)
        smoothed = np.clip(np.rint(smoothed), 0, 255).astype(np.uint8)
        tex_noise, _ = frame_features(noise, GlcmConfig())
        tex_smooth, _ = frame_features(smoothed, GlcmConfig())
        assert tex_smooth.homogeneity > tex_noise.homogeneity

    def test_oracle_equivalence_through_features(self):
        rng = np.random.default_rng(6)
        cfg = GlcmConfig(levels=8)
        for _ in range(10):
            img = rng.integers(0, 256, (16, 16), dtype=np.uint8)
            tex, _ = frame_features(img, cfg)
            quantized = (img.astype(np.int64) * 8) // 256
            asms, homs = [], []
            for offset in cfg.offsets:
                counts = naive_glcm_counts(quantized, 8, offset)
                counts = counts + counts.T
                P = counts / counts.sum()
                asms.append(float(np.sum(P * P)))
                idx = np.arange(8)
                weights = 1.0 / (1.0 + (idx[:, None] - idx[None, :]) ** 2)
                homs.append(float(np.sum(P * weights)))
            assert abs(tex.asm - np.mean(asms)) <= 1e-12
            assert abs(tex.energy - math.sqrt(np.mean(asms))) <= 1e-12
            assert abs(tex.homogeneity - np.mean(homs)) <= 1e-12


class TestFrameFeaturesExact:
    """``frame_features`` equals the public reference composition bit for bit."""

    # The first offset decides which border strips the histogram counts
    # apart; between them these sets leave strips on all four sides.
    OFFSET_SETS = (
        ((1, 0), (0, 1), (1, 1), (-1, 1)),
        ((-1, -2), (3, 1)),
        ((0, -1),),
        ((1, 2), (-1, 0)),
    )
    SHAPES = ((2, 2), (1, 9), (9, 1), (48, 64))

    @staticmethod
    def composed(img, cfg):
        q = quantize(img, cfg.levels, roi=cfg.roi)
        texs = [texture_features(glcm(q, cfg.levels, o, cfg.symmetric)) for o in cfg.offsets]
        asm = sum(t.asm for t in texs) / len(texs)
        hom = sum(t.homogeneity for t in texs) / len(texs)
        return TextureFeatures(asm, math.sqrt(asm), hom), histogram_stats(img, roi=cfg.roi)

    @staticmethod
    def outcome(fn, img, cfg):
        try:
            return fn(img, cfg)
        except ValueError as exc:
            return str(exc)

    @staticmethod
    def images(shape):
        h, w = shape
        yy, xx = np.mgrid[:h, :w]
        smooth = 128 + 120 * np.sin(xx / 6.0) * np.cos(yy / 4.0)
        return {
            "zero": np.zeros(shape, dtype=np.uint8),
            "saturated": np.full(shape, 255, dtype=np.uint8),
            "random": np.random.default_rng(h * 100 + w).integers(0, 256, shape, dtype=np.uint8),
            "smooth": np.rint(smooth).astype(np.uint8),
            # Not C-contiguous: a row's pixels are h bytes apart.
            "transposed": np.random.default_rng(w).integers(0, 256, (w, h), dtype=np.uint8).T,
            # Rows run backwards through memory.
            "flipped": np.random.default_rng(h).integers(0, 256, shape, dtype=np.uint8)[::-1],
        }

    def assert_same(self, img, cfg):
        self.assert_same_outcome(
            self.outcome(frame_features, img, cfg), self.outcome(self.composed, img, cfg)
        )

    @staticmethod
    def assert_same_outcome(got, want):
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            return
        (tex, hist), (tex_ref, hist_ref) = got, want
        assert tex == tex_ref
        assert np.array_equal(hist.bins, hist_ref.bins)
        assert (hist.mean, hist.variance, hist.entropy) == (
            hist_ref.mean, hist_ref.variance, hist_ref.entropy
        )

    @pytest.mark.parametrize("levels", [8, 16, 32, 64])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_matches_composition(self, levels, symmetric):
        for h, w in self.SHAPES:
            for roi in (None, (w // 3, h // 3, w - w // 3, h - h // 3)):
                for offsets in self.OFFSET_SETS:
                    cfg = GlcmConfig(levels=levels, offsets=offsets, symmetric=symmetric, roi=roi)
                    for img in self.images((h, w)).values():
                        self.assert_same(img, cfg)

    @pytest.mark.parametrize(
        "shape, cfg, message",
        [
            ((2, 2), GlcmConfig(offsets=((-1, -2), (3, 1))), "empty co-occurrence"),
            ((1, 9), GlcmConfig(offsets=((1, 0), (0, 1))), "empty co-occurrence"),
            ((9, 1), GlcmConfig(), "empty co-occurrence"),
            ((48, 64), GlcmConfig(roi=(10, 0, 55, 48)), "roi out of bounds"),
            ((48, 64), GlcmConfig(roi=(0, 40, 64, 9)), "roi out of bounds"),
        ],
    )
    def test_same_errors(self, shape, cfg, message):
        img = self.images(shape)["random"]
        with pytest.raises(ValueError, match=message):
            frame_features(img, cfg)
        self.assert_same(img, cfg)


class TestFrameFeaturesNumpy(TestFrameFeaturesExact):
    """The same, with numpy counting the pairs as where no kernel can be built."""

    @pytest.fixture(autouse=True)
    def no_kernel(self, monkeypatch):
        monkeypatch.setattr(features, "_kernel", lambda: None)


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")


@needs_cc
class TestCompiledKernel:
    """The kernel built from ``_glcm.c`` counts exactly what numpy counts."""

    @pytest.fixture
    def kernel(self):
        kernel = features._kernel()
        assert kernel is not None
        return kernel

    @staticmethod
    def cases():
        exact = TestFrameFeaturesExact
        for h, w in exact.SHAPES:
            for roi in (None, (w // 3, h // 3, w - w // 3, h - h // 3)):
                for offsets in exact.OFFSET_SETS:
                    for img in exact.images((h, w)).values():
                        yield img, roi, offsets

    @pytest.mark.parametrize("levels", [8, 16, 32, 64])
    def test_counts_equal_numpy(self, kernel, levels):
        for img, roi, offsets in self.cases():
            px = features._pixels_of(img, roi)
            cfg = GlcmConfig(levels=levels, offsets=offsets)
            try:
                counts, hist = features._compiled_counts(kernel, px, cfg)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    features._numpy_counts(px, cfg)
                continue
            q = quantize(px, levels)
            assert np.array_equal(counts, [glcm_counts(q, levels, o) for o in offsets])
            assert np.array_equal(hist, np.bincount(px.ravel(), minlength=256))

    @pytest.mark.parametrize("levels", [8, 16, 32, 64])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_frame_features_equal_numpy(self, kernel, monkeypatch, levels, symmetric):
        cases = [(img, GlcmConfig(levels=levels, offsets=offsets, symmetric=symmetric, roi=roi))
                 for img, roi, offsets in self.cases()]
        outcome = TestFrameFeaturesExact.outcome
        compiled = [outcome(frame_features, img, cfg) for img, cfg in cases]
        monkeypatch.setattr(features, "_kernel", lambda: None)
        for (img, cfg), got in zip(cases, compiled):
            TestFrameFeaturesExact.assert_same_outcome(got, outcome(frame_features, img, cfg))

    def test_region_of_2_to_the_32_pixels_counts_in_numpy(self, monkeypatch):
        # Broadcast from one byte: 2^32 pixels, no memory.
        px = np.broadcast_to(np.uint8(7), (1 << 16, 1 << 16))

        def numpy_counts(px, cfg):
            raise LookupError("numpy counts")

        monkeypatch.setattr(features, "_numpy_counts", numpy_counts)
        with pytest.raises(LookupError):
            frame_features(px, GlcmConfig())

    # The default config, then offsets with a negative dx, an ROI and no
    # symmetry at the smallest and the largest level count.
    CLI_CONFIGS = (
        {},
        {"levels": 8, "offsets": [[-2, 1], [3, 0]], "symmetric": False, "roi": [5, 4, 50, 36]},
        {"levels": 64, "offsets": [[-1, -1], [0, 2]], "symmetric": False, "roi": [0, 7, 61, 41]},
    )

    def test_report_without_cc_equals_compiled(self, tiny_expert_session, tmp_path):
        from scanskill.ingest import write_session

        session = tmp_path / "s"
        session.mkdir()
        write_session(session, tiny_expert_session)
        (tmp_path / "empty").mkdir()
        for i, config in enumerate(self.CLI_CONFIGS):
            config_path = tmp_path / f"config-{i}.json"
            config_path.write_text(json.dumps(config))
            outs = {}
            for name, path in (("compiled", None), ("numpy", str(tmp_path / "empty"))):
                outs[name] = out = tmp_path / f"{name}-{i}"
                cache = out / "cache"
                env = {"XDG_CACHE_HOME": str(cache)} | ({"PATH": path} if path else {})
                for command in ("report", "features"):
                    proc = run_python("-m", "scanskill", command, "--session", str(session),
                                      "--config", str(config_path), "--out", str(out), **env)
                    assert proc.returncode == 0, proc.stderr
                assert len(list(cache.glob("scanskill/*.so"))) == (name == "compiled")
            for file in ("report.json", "features.csv"):
                numpy_bytes = (outs["numpy"] / file).read_bytes()
                assert numpy_bytes == (outs["compiled"] / file).read_bytes(), file

    def test_concurrent_first_builds_leave_one_library(self, tmp_path):
        code = "from scanskill import features; assert features._kernel() is not None"
        env = python_env(XDG_CACHE_HOME=str(tmp_path))
        procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stderr=subprocess.PIPE)
                 for _ in range(2)]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        assert [p.suffix for p in (tmp_path / "scanskill").iterdir()] == [".so"]


class TestHistogram:
    def test_bins_sum_to_one_and_entropy_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            img = rng.integers(0, 256, (20, 20), dtype=np.uint8)
            h = histogram_stats(img)
            assert abs(h.bins.sum() - 1.0) <= 1e-9
            assert 0.0 <= h.entropy <= 8.0
            assert abs(h.mean - img.mean()) <= 1e-9
            assert abs(h.variance - img.astype(np.float64).var()) <= 1e-9

    def test_roi_out_of_bounds(self):
        img = np.full((10, 10), 7, dtype=np.uint8)
        with pytest.raises(ValueError, match="roi out of bounds"):
            histogram_stats(img, roi=(5, 5, 10, 10))
        assert histogram_stats(img, roi=(5, 5, 5, 5)).bins[7] == 1.0



class TestArrayInput:
    FUNCTIONS = {
        "histogram_stats": histogram_stats,
        "quantize": lambda px: quantize(px, 32),
        "frame_features": lambda px: frame_features(px, GlcmConfig()),
    }

    @pytest.mark.parametrize("value", [300, -1, 2.7])
    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_lossy_pixels_rejected(self, name, value):
        with pytest.raises(ValueError, match=r"^pixels must be uint8 or integers in \[0, 255\]$"):
            self.FUNCTIONS[name](np.full((6, 8), value))

    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_integer_pixels_in_range_read_as_uint8(self, name):
        img = np.random.default_rng(3).integers(0, 256, (6, 8))
        got, want = (self.FUNCTIONS[name](px) for px in (img, img.astype(np.uint8)))
        assert repr(got) == repr(want)


# --- motion ------------------------------------------------------------------

def _grid_poses(quats, dt_us=10_000):
    return Poses(dt_us * np.arange(len(quats)), quats)


class TestAngularVelocity:
    def test_constant_pose(self):
        fused = _grid_poses([IDENTITY.copy() for _ in range(5)])
        motion = angular_velocity(fused, 10_000)
        assert np.all(motion.omega == 0.0)
        assert np.all(motion.speed == 0.0)
        assert motion.t_us.tolist() == [10_000, 20_000, 30_000, 40_000]

    def test_constant_rate_about_x(self):
        quats = [q_from_axis_angle([1, 0, 0], 0.01 * k) for k in range(10)]
        motion = angular_velocity(_grid_poses(quats), 10_000)
        np.testing.assert_allclose(motion.omega[:, 0], 1.0, atol=1e-9)
        np.testing.assert_allclose(motion.omega[:, 1:], 0.0, atol=1e-12)
        np.testing.assert_allclose(motion.speed, 1.0, atol=1e-9)

    def test_left_invariance(self):
        rng = np.random.default_rng(8)
        quats = [p.q for p in smooth_pose_walk(rng, list(range(0, 300_000, 10_000)))]
        g = random_unit_quat(rng)
        rotated = [q_normalize(q_multiply(g, q)) for q in quats]
        m1 = angular_velocity(_grid_poses(quats), 10_000)
        m2 = angular_velocity(_grid_poses(rotated), 10_000)
        assert np.max(np.abs(m1.omega - m2.omega)) <= 1e-9

    def test_time_reversal_negates(self):
        rng = np.random.default_rng(9)
        poses = smooth_pose_walk(rng, list(range(0, 300_000, 10_000)))
        quats = [p.q for p in poses]
        m_fwd = angular_velocity(_grid_poses(quats), 10_000)
        m_rev = angular_velocity(_grid_poses(quats[::-1]), 10_000)
        assert np.max(np.abs(m_rev.omega + m_fwd.omega[::-1])) <= 1e-9
        assert abs(path_length(_grid_poses(quats)) - path_length(_grid_poses(quats[::-1]))) <= 1e-9

    def test_non_uniform_grid_rejected(self):
        fused = Poses([0, 10_000, 25_000], [IDENTITY] * 3)
        with pytest.raises(ValueError, match="non-uniform grid"):
            angular_velocity(fused, 10_000)


class TestPathLength:
    def test_constant(self):
        assert path_length(_grid_poses([IDENTITY.copy()] * 4)) == 0.0

    def test_monotone_slew_sample_count_invariant(self):
        for n in (3, 10, 50):
            quats = [
                q_from_axis_angle([0, 0, 1], (math.pi / 2) * k / (n - 1)) for k in range(n)
            ]
            assert abs(path_length(_grid_poses(quats)) - math.pi / 2) <= 1e-9

    def test_there_and_back(self):
        up = [q_from_axis_angle([0, 0, 1], (math.pi / 2) * k / 10) for k in range(11)]
        quats = up + up[-2::-1]
        assert abs(path_length(_grid_poses(quats)) - math.pi) <= 1e-9


class TestSmoothSpeed:
    def test_window_one_is_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(smooth_speed(v, 1), v)

    def test_preserves_length_and_mean_of_constant(self):
        v = np.full(20, 3.5)
        out = smooth_speed(v, 5)
        assert out.shape == v.shape
        np.testing.assert_allclose(out, 3.5)

    def test_linear(self):
        rng = np.random.default_rng(10)
        v = rng.random(50)
        np.testing.assert_allclose(smooth_speed(2.5 * v, 5), 2.5 * smooth_speed(v, 5))

    def test_even_window_averages_window_samples(self):
        # One sample before k and two after: the window reaches ahead.
        v = np.random.default_rng(11).random(12)
        out = smooth_speed(v, 4)
        for k in range(1, 10):
            assert out[k] == pytest.approx(np.mean(v[k - 1 : k + 3]), rel=1e-12)
        assert not np.allclose(out, smooth_speed(v, 5))

    @settings(max_examples=200, deadline=None)
    @given(v=st.lists(st.floats(0.0, 1e300), min_size=1, max_size=300), window=st.integers(1, 40))
    def test_non_negative_speed_stays_non_negative(self, v, window):
        # Then |V(f)| <= V(0) for its spectrum, so SPARC's division by the
        # zero-frequency magnitude divides by the spectrum's maximum.
        out = smooth_speed(np.array(v), window)
        assert np.all(out >= 0.0)
        magnitude = np.abs(np.fft.rfft(out, 16 * out.size))
        assert np.all(magnitude <= magnitude[0] * (1 + 1e-12))


class TestLdlj:
    def test_amplitude_invariance(self):
        v = min_jerk_bell(200, 0.01)
        base = log_dimensionless_jerk(v, 0.01)
        for c in (0.5, 2.0, 10.0):
            assert abs(log_dimensionless_jerk(c * v, 0.01) - base) <= 1e-9

    def test_noise_lowers_ldlj(self):
        rng = np.random.default_rng(12)
        v = min_jerk_bell(200, 0.01)
        noisy = v + 0.05 * rng.standard_normal(v.size)
        assert log_dimensionless_jerk(noisy, 0.01) < log_dimensionless_jerk(v, 0.01)

    def test_zero_speed(self):
        with pytest.raises(ValueError, match="no motion"):
            log_dimensionless_jerk(np.zeros(10), 0.01)

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            log_dimensionless_jerk(np.array([0.0, 1.0]), 0.01)

    @pytest.mark.parametrize("scale, message", [
        (1e-165, "^peak speed .* squared underflows$"),
        (1e-160, "^jerk cost (inf|nan) is not a finite positive number$"),
    ], ids=["underflow", "overflow"])
    def test_out_of_float_range(self, scale, message):
        with pytest.raises(ValueError, match=message):
            log_dimensionless_jerk(scale * min_jerk_bell(200, 0.01), 0.01)

    def test_zero_jerk(self):
        with pytest.raises(ValueError, match="^jerk cost 0.0 is not a finite positive number$"):
            log_dimensionless_jerk(np.full(10, 0.5), 0.01)

    def test_matches_stated_formula(self):
        v = min_jerk_bell(64, 0.02)
        jerk = np.gradient(np.gradient(v, 0.02), 0.02)
        duration = 63 * 0.02
        expected = -math.log(duration**3 / v.max() ** 2 * np.sum(jerk * jerk) * 0.02)
        assert abs(log_dimensionless_jerk(v, 0.02) - expected) <= 1e-12

    def test_time_scaling_invariance(self):
        # One minimum-jerk shape over 1, 2, 4 and 8 s at 100 Hz.  The
        # discrete derivatives spread these by about 0.06 (-5.25 to -5.31).
        values = [log_dimensionless_jerk(min_jerk_bell(100 * T + 1, 0.01), 0.01)
                  for T in (1, 2, 4, 8)]
        assert max(values) - min(values) <= 0.1


class TestSparc:
    def test_oracle_agreement(self):
        rng = np.random.default_rng(13)
        profiles = [
            min_jerk_bell(100, 0.01),
            min_jerk_bell(150, 0.01) + 0.1 * np.abs(np.sin(np.arange(150) * 0.9)),
            np.abs(rng.standard_normal(120)) + 0.1,
        ]
        for v in profiles:
            got = sparc(v, 100.0)
            want = naive_sparc(v, 100.0)
            assert abs(got - want) <= 1e-9

    def test_amplitude_invariance(self):
        v = min_jerk_bell(200, 0.01)
        base = sparc(v, 100.0)
        for c in (0.5, 2.0, 10.0):
            assert abs(sparc(c * v, 100.0) - base) <= 1e-9

    def test_tremor_lowers_sparc(self):
        n = 400
        t = np.arange(n) / 100.0
        clean = min_jerk_bell(n, 0.01)
        trembling = clean * (1.0 + 0.25 * np.sin(2 * np.pi * 4.0 * t))
        assert sparc(clean, 100.0) > sparc(trembling, 100.0)

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            sparc(np.ones(4), 100.0)

    def test_zero_speed(self):
        with pytest.raises(ValueError, match="no motion"):
            sparc(np.zeros(16), 100.0)


class TestSmoothnessConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("speed_smoothing_window", 0),
            ("speed_smoothing_window", 2.5),
            ("sparc_cutoff_hz", 0.0),
            ("sparc_cutoff_hz", math.nan),
            ("sparc_amplitude_threshold", 0.0),
            ("sparc_amplitude_threshold", 2.0),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SmoothnessConfig(**{field: value})

    def test_range_edges_accepted(self):
        SmoothnessConfig(speed_smoothing_window=1, sparc_amplitude_threshold=1.0)
        SmoothnessConfig(speed_smoothing_window=2**63 - 1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("speed_smoothing_window", True),
            ("speed_smoothing_window", 10**30),
            ("sparc_cutoff_hz", math.inf),
            ("sparc_cutoff_hz", 10**400),
            ("sparc_cutoff_hz", "10"),
            ("sparc_amplitude_threshold", None),
        ],
        ids=["window-bool", "window-huge", "cutoff-inf", "cutoff-huge-int", "cutoff-str",
             "threshold-none"],
    )
    def test_mistyped_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SmoothnessConfig(**{field: value})

    def test_sparc_values_stored_as_float(self):
        cfg = SmoothnessConfig(sparc_cutoff_hz=10, sparc_amplitude_threshold=1)
        assert (cfg.sparc_cutoff_hz, cfg.sparc_amplitude_threshold) == (10.0, 1.0)
        assert type(cfg.sparc_cutoff_hz) is float and type(cfg.sparc_amplitude_threshold) is float


class TestGlcmConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("levels", 32.0),
            ("levels", True),
            ("offsets", [("1", "0")]),
            ("offsets", [(1, 0, 0)]),
            ("offsets", ((True, 0),)),
            ("offsets", "10"),
            ("symmetric", "false"),
            ("symmetric", 1),
            ("roi", (0.5, 0, 10, 10)),
            ("roi", (0, 0, 10)),
        ],
    )
    def test_mistyped_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            GlcmConfig(**{field: value})

    def test_lists_become_tuples(self):
        cfg = GlcmConfig(offsets=[[1, 0], [0, 1]], roi=[0, 0, 4, 4])
        assert cfg == GlcmConfig(offsets=((1, 0), (0, 1)), roi=(0, 0, 4, 4))
        assert hash(cfg) == hash(GlcmConfig(offsets=((1, 0), (0, 1)), roi=(0, 0, 4, 4)))


# --- per-session feature table -----------------------------------------------

class TestFeatureTable:
    @pytest.mark.parametrize("kind", SHARED_SOURCE_SESSIONS)
    def test_frame_features_once_per_pixel_source(self, kind, tmp_path, monkeypatch):
        session = shared_source_session(kind, tmp_path)
        fused = fuse_streams(session, ResampleConfig())
        used = sorted({s.frame_idx for s in fused if s.frame_idx is not None})
        sources = sorted({session.frames.source[i] for i in used})
        assert len(sources) < len(used)
        # Sources are visited in index order, and one whose pixels equal the
        # previous source's reuses its row.
        pixels = [Frame(0, session.frames.sources[k]).pixels for k in sources]
        heads = [px for k, px in enumerate(pixels)
                 if k == 0 or not np.array_equal(px, pixels[k - 1])]
        seen = []
        real = features.frame_features

        def counted(px, cfg):
            seen.append(px)
            return real(px, cfg)

        monkeypatch.setattr(features, "frame_features", counted)
        compute_feature_table(session, fused, GlcmConfig())
        assert len(seen) == len(heads)
        assert all(np.array_equal(a, b) for a, b in zip(seen, heads))

    @pytest.mark.parametrize("kind", SHARED_SOURCE_SESSIONS)
    def test_shared_sources_equal_private_copies(self, kind, tmp_path):
        session = shared_source_session(kind, tmp_path)
        fused = fuse_streams(session, ResampleConfig())
        shared = compute_feature_table(session, fused, GlcmConfig())
        private = compute_feature_table(private_copies(session), fused, GlcmConfig())
        assert_same_table(shared, private)
        assert np.count_nonzero(~np.isnan(shared.asm)) > 300

    def test_runs_of_equal_frames_featurised_once(self, tmp_path, monkeypatch):
        session = load_session(repeated_frames_session(tmp_path))
        fused = fuse_streams(session, ResampleConfig())
        cfg = GlcmConfig()
        used = sorted({s.frame_idx for s in fused if s.frame_idx is not None})
        pixels = [session.frames[i].pixels for i in used]
        runs = 1 + sum(not np.array_equal(a, b) for a, b in zip(pixels, pixels[1:]))
        assert runs < len(used) // 2
        calls = []
        real = features.frame_features

        def counted(px, cfg):
            calls.append(px)
            return real(px, cfg)

        monkeypatch.setattr(features, "frame_features", counted)
        table = compute_feature_table(session, fused, cfg)
        assert len(calls) == runs
        assert_same_table(table, compute_feature_table(private_copies(session), fused, cfg))
        oracle = {i: real(session.frames[i], cfg) for i in used}
        columns = ("asm", "energy", "homogeneity", "hist_mean", "hist_var", "hist_entropy")
        for k, sample in enumerate(fused):
            row = tuple(getattr(table, name)[k] for name in columns)
            if sample.frame_idx is None:
                assert all(map(math.isnan, row))
            else:
                tex, hist = oracle[sample.frame_idx]
                assert row == (*tex, hist.mean, hist.variance, hist.entropy)

    @settings(max_examples=40, deadline=None)
    @given(n_arrays=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
           picks=st.lists(st.integers(0, 3), min_size=2, max_size=24),
           odd_pixel=st.tuples(st.integers(0, 5), st.integers(0, 7)))
    def test_reuse_never_changes_a_row(self, n_arrays, seed, picks, odd_pixel):
        # Frames held in memory, each one of a few arrays: repeats are both
        # adjacent and apart, and two arrays may hold equal pixels or differ
        # in one.
        rng = np.random.default_rng(seed)
        pool = [rng.integers(0, 256, (6, 8), dtype=np.uint8) for _ in range(n_arrays)]
        if n_arrays > 2:
            pool[2] = pool[1].copy()
            pool[2][odd_pixel] ^= 1
        if n_arrays > 3:
            pool[3] = pool[0].copy()
        frames = Frames(40_000 * np.arange(len(picks)), np.array(picks) % n_arrays, pool)
        poses = [PoseSample(k * 10_000, IDENTITY) for k in range(4 * len(frames) - 3)]
        session = make_session(poses, frames)
        fused = fuse_streams(session, ResampleConfig())
        assert_same_table(compute_feature_table(session, fused, GlcmConfig()),
                          compute_feature_table(private_copies(session), fused, GlcmConfig()))
