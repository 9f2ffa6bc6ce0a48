"""Tests for clip sampling, crops, masks, and the video store."""

import numpy as np
import pytest
from scipy import ndimage

from vidcorr.numerics import Rng, bilinear_resize
from vidcorr.views import (
    CropSet,
    MaskPattern,
    VideoClip,
    VideoSource,
    ViewConfig,
    _render_crops,
    load_store,
    make_crops,
    make_frame_pairs,
    read_pgm,
    read_ppm,
    sample_clip,
    sample_clip_masks,
    sample_mask,
    write_index,
    write_pgm,
    write_ppm,
    write_video_dir,
)


def toy_video(n_frames=100, h=40, w=48, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(size=(h, w, 3)).astype(np.float32) for _ in range(n_frames)]


class TestViewConfig:
    """Field validation."""

    def test_defaults(self):
        cfg = ViewConfig()
        assert cfg.clip_len == 4 and cfg.locals_per_frame == 8
        assert cfg.local_scale == (0.05, 0.8)
        assert cfg.global_scale == (0.8, 0.95)
        assert cfg.flip_jitter_target == "locals"
        assert cfg.frameskip == 8

    def test_rejections(self):
        with pytest.raises(ValueError):
            ViewConfig(clip_len=3)
        with pytest.raises(ValueError):
            ViewConfig(clip_len=0)
        with pytest.raises(ValueError):
            ViewConfig(locals_per_frame=0)
        with pytest.raises(ValueError):
            ViewConfig(local_scale=(0.0, 0.5))
        with pytest.raises(ValueError):
            ViewConfig(global_scale=(0.9, 0.8))
        with pytest.raises(ValueError):
            ViewConfig(flip_jitter_target="loclas")

    def test_degenerate_scale_allowed(self):
        assert ViewConfig(local_scale=(1.0, 1.0)).local_scale == (1.0, 1.0)


class TestFramePairs:
    """Half-zipping of clip indices."""

    def test_l6_pairing(self):
        """1-based {(1,4),(2,5),(3,6)} is [(0,3),(1,4),(2,5)] 0-based."""
        assert make_frame_pairs(6) == [(0, 3), (1, 4), (2, 5)]

    def test_minimal_and_default(self):
        assert make_frame_pairs(2) == [(0, 1)]
        assert make_frame_pairs(4) == [(0, 2), (1, 3)]

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            make_frame_pairs(5)

    def test_perfect_matching(self):
        for clip_len in (2, 4, 6, 8, 10):
            pairs = make_frame_pairs(clip_len)
            assert len(pairs) == clip_len // 2
            flat = [i for pair in pairs for i in pair]
            assert sorted(flat) == list(range(clip_len))
            assert all(b - a == clip_len // 2 for a, b in pairs)


class TestSampleClip:
    """Strided clip extraction."""

    def test_spacing_and_start_bound(self):
        video = toy_video(100)
        cfg = ViewConfig(clip_len=4, frameskip=8)
        for seed in range(30):
            clip = sample_clip(video, Rng(seed), cfg)
            assert len(clip.frames) == 4
            diffs = np.diff(clip.frame_indices)
            assert (diffs == 8).all()
            assert 0 <= clip.frame_indices[0] <= 75

    def test_exact_length_forces_start_zero(self):
        video = toy_video(25)
        clip = sample_clip(video, Rng(3), ViewConfig(clip_len=4, frameskip=8))
        assert clip.frame_indices == [0, 8, 16, 24]

    def test_deterministic_under_seed(self):
        video = toy_video(60)
        cfg = ViewConfig(clip_len=4, frameskip=8)
        a = sample_clip(video, Rng(11), cfg)
        b = sample_clip(video, Rng(11), cfg)
        assert a.frame_indices == b.frame_indices
        assert all(np.array_equal(x, y) for x, y in zip(a.frames, b.frames))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            sample_clip(toy_video(24), Rng(0), ViewConfig(clip_len=4, frameskip=8))

    def test_odd_clip_rejected(self):
        with pytest.raises(ValueError):
            VideoClip(toy_video(3), "x", [0, 1, 2])


class TestMakeCrops:
    """Random resized crops with recorded geometry."""

    def test_counts_and_sizes(self):
        clip = sample_clip(toy_video(40, seed=1), Rng(0), ViewConfig())
        crops = make_crops(clip, Rng(1), ViewConfig())
        assert len(crops.globals_) == 4
        assert sum(len(row) for row in crops.locals_) == 32
        assert all(g.image.shape == (64, 64, 3) for g in crops.globals_)
        assert all(c.image.shape == (32, 32, 3) for row in crops.locals_ for c in row)

    def test_rects_inside_frame(self):
        cfg = ViewConfig(locals_per_frame=4)
        clip = sample_clip(toy_video(40, h=36, w=52, seed=2), Rng(0), cfg)
        for seed in range(10):
            crops = make_crops(clip, Rng(seed), cfg)
            for rec in crops.globals_ + [c for row in crops.locals_ for c in row]:
                y, x, h, w = rec.rect
                assert y >= 0 and x >= 0 and h >= 1 and w >= 1
                assert y + h <= 36 and x + w <= 52

    def test_degenerate_config_gives_full_frame_resizes(self):
        """Scales pinned at 1 and no augmentation -> pure resizes."""
        cfg = ViewConfig(local_scale=(1.0, 1.0), global_scale=(1.0, 1.0),
                         flip_jitter_target="none", locals_per_frame=2)
        clip = sample_clip(toy_video(40, h=32, w=32, seed=3), Rng(5), cfg)
        crops = make_crops(clip, Rng(6), cfg)
        for i, rec in enumerate(crops.globals_):
            assert rec.rect == (0, 0, 32, 32)
            assert not rec.flipped and rec.jitter is None
            assert np.array_equal(rec.image, np.clip(
                bilinear_resize(clip.frames[i], (64, 64)), 0.0, 1.0))

    def test_globals_independent_of_jitter_stream(self):
        """Default locals-only F&C: globals bitwise match a no-jitter run."""
        clip = sample_clip(toy_video(40, seed=4), Rng(7), ViewConfig())
        with_fc = make_crops(clip, Rng(8), ViewConfig())
        without = make_crops(clip, Rng(8), ViewConfig(flip_jitter_target="none"))
        for a, b in zip(with_fc.globals_, without.globals_):
            assert np.array_equal(a.image, b.image)
            assert a.rect == b.rect
        # and local geometry matches too, only rendering differs
        for row_a, row_b in zip(with_fc.locals_, without.locals_):
            for a, b in zip(row_a, row_b):
                assert a.rect == b.rect

    def test_default_globals_carry_no_augmentation(self):
        clip = sample_clip(toy_video(40, seed=5), Rng(9), ViewConfig())
        crops = make_crops(clip, Rng(10), ViewConfig())
        assert all(not g.flipped and g.jitter is None for g in crops.globals_)
        flips = [c.flipped for row in crops.locals_ for c in row]
        assert any(flips) and not all(flips)
        assert all(c.jitter is not None for row in crops.locals_ for c in row)

    def test_replay_is_bitwise(self):
        cfg = ViewConfig(locals_per_frame=3)
        clip = sample_clip(toy_video(40, seed=6), Rng(11), cfg)
        crops = make_crops(clip, Rng(12), cfg)
        for i, frame in enumerate(clip.frames):
            records = [(crops.globals_[i], cfg.global_size)]
            records += [(rec, cfg.local_size) for rec in crops.locals_[i]]
            for rec, size in records:
                again = _render_crops([frame], [(0, rec.rect, rec.flipped, rec.jitter)],
                                      size)[0]
                assert np.array_equal(again, rec.image)

    def test_jitter_formula(self):
        """Recorded factors reproduce the crop through the documented
        brightness -> contrast -> saturation pipeline."""
        luma = np.array([0.299, 0.587, 0.114])
        cfg = ViewConfig(locals_per_frame=2)
        clip = sample_clip(toy_video(40, seed=7), Rng(13), cfg)
        crops = make_crops(clip, Rng(14), cfg)
        rec = crops.locals_[0][0]
        y, x, h, w = rec.rect
        base = bilinear_resize(clip.frames[0][y:y + h, x:x + w, :],
                               (cfg.local_size, cfg.local_size))
        if rec.flipped:
            base = base[:, ::-1, :].copy()
        b, c, s = rec.jitter
        out = base * b
        mean = out.mean()
        out = mean + (out - mean) * c
        gray = out @ luma
        out = gray[:, :, None] + (out - gray[:, :, None]) * s
        out = np.clip(out, 0.0, 1.0)
        assert np.array_equal(np.clip(out, 0.0, 1.0), rec.image)


def reference_crop(frame, rect, size, flipped, jitter):
    """One crop by the per-crop formula: resize, mirror copy, jitter
    with a whole-array mean, clip."""
    y, x, h, w = rect
    out = bilinear_resize(frame[y:y + h, x:x + w, :], (size, size))
    if flipped:
        out = out[:, ::-1, :].copy()
    if jitter is not None:
        b, c, s = jitter
        out = out * b
        mean = out.mean()
        out = mean + (out - mean) * c
        gray = out @ np.array([0.299, 0.587, 0.114])
        out = gray[:, :, None] + (out - gray[:, :, None]) * s
        out = np.clip(out, 0.0, 1.0)
    return np.clip(out, 0.0, 1.0)


class TestRenderCrops:
    """The one-pass renderer against the per-crop formula, bitwise."""

    @pytest.mark.parametrize("size", [16, 32])
    def test_matches_per_crop_formula(self, size):
        g = np.random.default_rng(size)
        frames = toy_video(3, h=36, w=44, seed=size)
        picks = []
        for _ in range(120):
            h = int(g.integers(1, 37))
            w = int(g.integers(1, 45))
            rect = (int(g.integers(0, 37 - h)), int(g.integers(0, 45 - w)), h, w)
            jitter = None
            if g.uniform() < 0.75:
                jitter = tuple(float(v) for v in g.uniform(0.6, 1.4, size=3))
            picks.append((int(g.integers(0, 3)), rect, bool(g.uniform() < 0.5), jitter))
        # both flips, both jitter states, up- and down-scaled rectangles
        assert {(p[2], p[3] is None) for p in picks} == {(a, b) for a in (0, 1) for b in (0, 1)}
        assert min(p[1][2] for p in picks) < size < max(p[1][2] for p in picks)
        images = _render_crops(frames, picks, size)
        for (i, rect, flipped, jitter), image in zip(picks, images):
            want = reference_crop(frames[i], rect, size, flipped, jitter)
            assert image.dtype == want.dtype
            assert np.array_equal(image, want), (rect, flipped, jitter)


class TestSampleMask:
    """Gated blockwise masking."""

    def test_gate_off_returns_none(self):
        outcomes = {True: 0, False: 0}
        for seed in range(60):
            got = sample_mask(16, Rng(seed))
            outcomes[got is None] += 1
        assert outcomes[True] > 10 and outcomes[False] > 10

    def test_gate_probability_one_always_masks(self):
        for seed in range(20):
            assert sample_mask(16, Rng(seed), gate_probability=1.0) is not None

    def test_exact_count_every_draw(self):
        for seed in range(50):
            pattern = sample_mask(64, Rng(seed), gate_probability=1.0)
            assert pattern.m.sum() == pattern.count
            assert pattern.count == int(round(64 * pattern.ratio))
            assert pattern.m.shape == (64,)

    def test_ratio_mean_near_channel_center(self):
        """Mean of r over many draws sits near 0.3."""
        total = 0.0
        for seed in range(10_000):
            total += sample_mask(16, Rng(seed), gate_probability=1.0).ratio
        assert abs(total / 10_000 - 0.3) < 0.01

    def test_half_ratio_is_blockwise(self):
        """K=8 on a 4x4 grid: cells arrive as rectangles, not salt."""
        pattern = None
        for seed in range(100):
            cand = sample_mask(16, Rng(seed), gate_probability=1.0, r_range=(0.5, 0.5))
            if cand is not None and cand.count == 8:
                pattern = cand
                break
        assert pattern is not None
        grid = pattern.m.reshape(4, 4)
        components, n = ndimage.label(grid)
        assert n < 8  # big blocks, not 8 scattered cells

    def test_rectangle_decomposition(self):
        """Greedy maximal-rectangle peeling covers the mask in far fewer
        rectangles than cells."""
        pattern = sample_mask(64, Rng(3), gate_probability=1.0, r_range=(0.4, 0.5))
        grid = pattern.m.reshape(8, 8).copy()
        rects = 0
        while grid.any():
            ys, xs = np.nonzero(grid)
            y0, x0 = ys[0], xs[0]
            w = 1
            while x0 + w < 8 and grid[y0, x0 + w]:
                w += 1
            h = 1
            while y0 + h < 8 and grid[y0 + h, x0:x0 + w].all():
                h += 1
            grid[y0:y0 + h, x0:x0 + w] = False
            rects += 1
        assert rects < pattern.count // 2

    def test_non_square_grid_rejected(self):
        with pytest.raises(ValueError):
            sample_mask(15, Rng(0))

    def test_deterministic(self):
        a = sample_mask(64, Rng(21), gate_probability=1.0)
        b = sample_mask(64, Rng(21), gate_probability=1.0)
        assert np.array_equal(a.m, b.m) and a.ratio == b.ratio

    def test_is_the_one_frame_clip_draw(self):
        """Criterion 4 checks the draw training makes: a frame's mask is
        the first pattern of a one-frame clip draw, bit for bit."""
        for seed in range(200):
            a = sample_mask(64, Rng(seed), 1.0)
            b = sample_clip_masks(64, 1, Rng(seed), 1.0)[0]
            assert a.m.tobytes() == b.m.tobytes()
            assert (a.ratio, a.count) == (b.ratio, b.count)

    def test_zero_count_returns_none(self):
        """K = round(P * r) = 0 skips the masked losses, as for a clip."""
        assert sample_mask(16, Rng(0), 1.0, r_range=(0.01, 0.02)) is None
        assert sample_clip_masks(16, 2, Rng(0), 1.0, r_range=(0.01, 0.02)) is None


class TestClipMasks:
    """Shared gate and ratio across a clip."""

    def test_shared_count_independent_patterns(self):
        masks = None
        for seed in range(50):
            masks = sample_clip_masks(64, 4, Rng(seed), gate_probability=1.0)
            if masks is not None:
                break
        assert masks is not None and len(masks) == 4
        counts = {p.count for p in masks}
        ratios = {p.ratio for p in masks}
        assert len(counts) == 1 and len(ratios) == 1
        patterns = {p.m.tobytes() for p in masks}
        assert len(patterns) > 1  # independent layouts

    def test_gate_off_skips_whole_clip(self):
        seen_none = False
        for seed in range(40):
            if sample_clip_masks(16, 4, Rng(seed)) is None:
                seen_none = True
                break
        assert seen_none


class TestPnmStore:
    """PPM/PGM round trips and the directory index."""

    def test_ppm_round_trip(self, tmp_path):
        image = np.random.default_rng(0).uniform(size=(6, 5, 3)).astype(np.float32)
        path = tmp_path / "f.ppm"
        write_ppm(path, image)
        back = read_ppm(path)
        quantized = np.clip(np.rint(image * 255), 0, 255) / 255.0
        assert back.shape == (6, 5, 3)
        assert np.allclose(back, quantized, atol=1e-7)
        write_ppm(path, back)
        assert np.array_equal(read_ppm(path), back)

    def test_pgm_round_trip(self, tmp_path):
        mask = np.array([[0, 1, 2], [3, 0, 1]], dtype=np.int32)
        path = tmp_path / "m.pgm"
        write_pgm(path, mask)
        back = read_pgm(path)
        assert np.array_equal(back, mask)
        assert back.dtype == np.uint8 and back.flags.writeable

    def test_header_comments_tolerated(self, tmp_path):
        path = tmp_path / "c.pgm"
        payload = bytes(range(6))
        path.write_bytes(b"P5\n# such comment\n3 2\n255\n" + payload)
        assert read_pgm(path).shape == (2, 3)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0")
        with pytest.raises(ValueError):
            read_ppm(path)

    def test_store_round_trip(self, tmp_path):
        frames = toy_video(6, h=8, w=8, seed=9)
        masks = [np.full((8, 8), i % 3, dtype=np.int32) for i in range(6)]
        write_video_dir(tmp_path, "vid_a", frames, masks)
        write_video_dir(tmp_path, "vid_b", frames)
        write_index(tmp_path, ["vid_a", "vid_b"])
        store = load_store(tmp_path)
        assert [v.source_id for v in store] == ["vid_a", "vid_b"]
        assert len(store[0]) == 6
        assert store[0].has_masks and not store[1].has_masks
        assert np.array_equal(store[0].mask(2), masks[2])
        clip = sample_clip(store[0], Rng(0), ViewConfig(clip_len=2, frameskip=1))
        assert clip.source_id == "vid_a"

    def test_missing_index_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_store(tmp_path)

    def test_empty_video_dir_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError):
            VideoSource(tmp_path / "empty")
