"""Tests for clip sampling, crops, masks, and the video store."""

import re

import numpy as np
import pytest
from scipy import ndimage

from vidcorr.harness import RunConfig
from vidcorr.numerics import Rng, bilinear_resize
from vidcorr.views import (
    VideoSource,
    ViewConfig,
    _crop_picks,
    _render_crops,
    load_store,
    make_crops,
    make_frame_pairs,
    read_pgm,
    read_ppm,
    sample_clip,
    sample_clip_masks,
    write_index,
    write_pgm,
    write_ppm,
    write_video_dir,
)

# the run knobs' one declaration: what a run passes when nothing is set
RUN = RunConfig()


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

    def test_perfect_matching(self):
        for clip_len in (2, 4, 6, 8, 10):
            pairs = make_frame_pairs(clip_len)
            assert len(pairs) == clip_len // 2
            flat = [i for pair in pairs for i in pair]
            assert sorted(flat) == list(range(clip_len))
            assert all(b - a == clip_len // 2 for a, b in pairs)


def indexed_video(n_frames):
    """Tiny frames, each filled with its own index."""
    return [np.full((2, 2, 3), i, dtype=np.float32) for i in range(n_frames)]


def frame_indices(frames):
    """Source indices of frames taken from an indexed_video."""
    return [int(frame[0, 0, 0]) for frame in frames]


class TestSampleClip:
    """Strided clip extraction."""

    def test_spacing_and_start_bound(self):
        video = indexed_video(100)
        cfg = ViewConfig(clip_len=4, frameskip=8)
        for seed in range(30):
            frames = sample_clip(video, Rng(seed), cfg)
            assert len(frames) == 4
            indices = frame_indices(frames)
            assert (np.diff(indices) == 8).all()
            assert 0 <= indices[0] <= 75

    def test_exact_length_forces_start_zero(self):
        frames = sample_clip(indexed_video(25), Rng(3), ViewConfig(clip_len=4, frameskip=8))
        assert frame_indices(frames) == [0, 8, 16, 24]

    def test_deterministic_under_seed(self):
        video = toy_video(60)
        cfg = ViewConfig(clip_len=4, frameskip=8)
        a = sample_clip(video, Rng(11), cfg)
        b = sample_clip(video, Rng(11), cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestMakeCrops:
    """Random resized crops: the draws of _crop_picks, rendered by
    make_crops into one stack per family."""

    def test_counts_and_sizes(self):
        frames = sample_clip(toy_video(40, seed=1), Rng(0), ViewConfig())
        globals_, locals_ = make_crops(frames, Rng(1), ViewConfig())
        assert globals_.shape == (4, 64, 64, 3)
        assert locals_.shape == (32, 32, 32, 3)
        global_picks, local_picks = _crop_picks(frames, Rng(1), ViewConfig())
        assert [p[0] for p in global_picks] == [0, 1, 2, 3]
        assert [p[0] for p in local_picks] == [i for i in range(4) for _ in range(8)]

    def test_rects_inside_frame(self):
        cfg = ViewConfig(locals_per_frame=4)
        frames = sample_clip(toy_video(40, h=36, w=52, seed=2), Rng(0), cfg)
        for seed in range(10):
            global_picks, local_picks = _crop_picks(frames, Rng(seed), cfg)
            for _, (y, x, h, w), _, _ in global_picks + local_picks:
                assert y >= 0 and x >= 0 and h >= 1 and w >= 1
                assert y + h <= 36 and x + w <= 52

    def test_degenerate_config_gives_full_frame_resizes(self):
        """Scales pinned at 1 and no augmentation -> pure resizes."""
        cfg = ViewConfig(local_scale=(1.0, 1.0), global_scale=(1.0, 1.0),
                         flip_jitter_target="none", locals_per_frame=2)
        frames = sample_clip(toy_video(40, h=32, w=32, seed=3), Rng(5), cfg)
        global_picks, _ = _crop_picks(frames, Rng(6), cfg)
        globals_, _ = make_crops(frames, Rng(6), cfg)
        for i, (_, rect, flipped, jitter) in enumerate(global_picks):
            assert rect == (0, 0, 32, 32)
            assert not flipped and jitter is None
            assert np.array_equal(globals_[i], np.clip(
                bilinear_resize(frames[i], (64, 64)), 0.0, 1.0))

    def test_globals_independent_of_jitter_stream(self):
        """Default locals-only F&C: globals bitwise match a no-jitter run."""
        frames = sample_clip(toy_video(40, seed=4), Rng(7), ViewConfig())
        plain = ViewConfig(flip_jitter_target="none")
        assert np.array_equal(make_crops(frames, Rng(8), ViewConfig())[0],
                              make_crops(frames, Rng(8), plain)[0])
        # the whole geometry matches too, only the locals' augmentation differs
        with_fc = _crop_picks(frames, Rng(8), ViewConfig())
        without = _crop_picks(frames, Rng(8), plain)
        for picks_a, picks_b in zip(with_fc, without):
            assert [p[:2] for p in picks_a] == [p[:2] for p in picks_b]

    def test_default_globals_carry_no_augmentation(self):
        frames = sample_clip(toy_video(40, seed=5), Rng(9), ViewConfig())
        global_picks, local_picks = _crop_picks(frames, Rng(10), ViewConfig())
        assert all(not flipped and jitter is None for _, _, flipped, jitter in global_picks)
        flips = [flipped for _, _, flipped, _ in local_picks]
        assert any(flips) and not all(flips)
        assert all(jitter is not None for _, _, _, jitter in local_picks)

    def test_replay_is_bitwise(self):
        """Each crop of the stacks is its own draw rendered alone."""
        cfg = ViewConfig(locals_per_frame=3)
        frames = sample_clip(toy_video(40, seed=6), Rng(11), cfg)
        stacks = make_crops(frames, Rng(12), cfg)
        picks = _crop_picks(frames, Rng(12), cfg)
        for stack, family, size in zip(stacks, picks, (cfg.global_size, cfg.local_size)):
            assert len(stack) == len(family)
            for image, (i, rect, flipped, jitter) in zip(stack, family):
                again = _render_crops([frames[i]], [(0, rect, flipped, jitter)], size)[0]
                assert np.array_equal(again, image)

    def test_jitter_formula(self):
        """Drawn factors reproduce the crop through the documented
        brightness -> contrast -> saturation pipeline."""
        luma = np.array([0.299, 0.587, 0.114])
        cfg = ViewConfig(locals_per_frame=2)
        frames = sample_clip(toy_video(40, seed=7), Rng(13), cfg)
        _, (y, x, h, w), flipped, (b, c, s) = _crop_picks(frames, Rng(14), cfg)[1][0]
        image = make_crops(frames, Rng(14), cfg)[1][0]
        base = bilinear_resize(frames[0][y:y + h, x:x + w, :],
                               (cfg.local_size, cfg.local_size))
        if flipped:
            base = base[:, ::-1, :].copy()
        out = base * b
        mean = out.mean()
        out = mean + (out - mean) * c
        gray = out @ luma
        out = gray[:, :, None] + (out - gray[:, :, None]) * s
        out = np.clip(out, 0.0, 1.0)
        assert np.array_equal(np.clip(out, 0.0, 1.0), image)


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
        assert images.dtype == np.float64  # some crops are jittered
        for (i, rect, flipped, jitter), image in zip(picks, images):
            want = reference_crop(frames[i], rect, size, flipped, jitter)
            assert np.array_equal(image, want), (rect, flipped, jitter)
        # without jitter the crops keep the frames' dtype
        plain = [p for p in picks if p[3] is None]
        images = _render_crops(frames, plain, size)
        assert images.dtype == np.float32
        for (i, rect, flipped, _), image in zip(plain, images):
            assert np.array_equal(image, reference_crop(frames[i], rect, size, flipped, None))


def drawn_ratio(rng, r_range=(0.1, 0.5)):
    """The mask ratio r that sample_clip_masks draws from ``rng``: its
    "ratio" substream, as the function draws it."""
    return float(rng.substream("ratio").uniform(r_range[0], r_range[1]))


class TestSampleMask:
    """Gated blockwise masking."""

    def test_gate_off_returns_none(self):
        outcomes = {True: 0, False: 0}
        for seed in range(60):
            got = sample_clip_masks(16, 1, Rng(seed), RUN.gate_probability, RUN.mask_ratio)
            outcomes[got is None] += 1
        assert outcomes[True] > 10 and outcomes[False] > 10

    def test_gate_probability_one_always_masks(self):
        for seed in range(20):
            assert sample_clip_masks(16, 1, Rng(seed), 1.0, RUN.mask_ratio) is not None

    def test_exact_count_every_draw(self):
        for seed in range(50):
            masks = sample_clip_masks(64, 1, Rng(seed), 1.0, RUN.mask_ratio)
            assert masks.shape == (1, 64) and masks.dtype == bool
            assert masks.sum() == int(round(64 * drawn_ratio(Rng(seed))))

    def test_ratio_mean_near_channel_center(self):
        """The masked fraction K / P over many draws sits near the mean
        r of 0.3."""
        total = 0.0
        for seed in range(10_000):
            total += sample_clip_masks(16, 1, Rng(seed), 1.0, RUN.mask_ratio).mean()
        assert abs(total / 10_000 - 0.3) < 0.01

    def test_half_ratio_is_blockwise(self):
        """K=8 on a 4x4 grid: cells arrive as rectangles, not salt."""
        pattern = None
        for seed in range(100):
            cand = sample_clip_masks(16, 1, Rng(seed), 1.0, (0.5, 0.5))
            if cand is not None and cand.sum() == 8:
                pattern = cand[0]
                break
        assert pattern is not None
        grid = pattern.reshape(4, 4)
        components, n = ndimage.label(grid)
        assert n < 8  # big blocks, not 8 scattered cells

    def test_rectangle_decomposition(self):
        """Greedy maximal-rectangle peeling covers the mask in far fewer
        rectangles than cells."""
        pattern = sample_clip_masks(64, 1, Rng(3), 1.0, (0.4, 0.5))[0]
        grid = pattern.reshape(8, 8).copy()
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
        assert rects < pattern.sum() // 2

    def test_non_square_grid_rejected(self):
        with pytest.raises(ValueError):
            sample_clip_masks(15, 1, Rng(0), RUN.gate_probability, RUN.mask_ratio)

    def test_deterministic(self):
        a = sample_clip_masks(64, 4, Rng(21), 1.0, RUN.mask_ratio)
        b = sample_clip_masks(64, 4, Rng(21), 1.0, RUN.mask_ratio)
        assert np.array_equal(a, b)

    def test_zero_count_returns_none(self):
        """K = round(P * r) = 0 skips the masked losses, as for a clip."""
        assert sample_clip_masks(16, 1, Rng(0), 1.0, (0.01, 0.02)) is None
        assert sample_clip_masks(16, 2, Rng(0), 1.0, (0.01, 0.02)) is None


class TestClipMasks:
    """Shared gate and ratio across a clip."""

    def test_shared_count_independent_patterns(self):
        masks = None
        for seed in range(50):
            masks = sample_clip_masks(64, 4, Rng(seed), 1.0, RUN.mask_ratio)
            if masks is not None:
                break
        assert masks is not None and masks.shape == (4, 64)
        assert len(set(masks.sum(axis=1))) == 1
        patterns = {row.tobytes() for row in masks}
        assert len(patterns) > 1  # independent layouts

    def test_gate_off_skips_whole_clip(self):
        seen_none = False
        for seed in range(40):
            if sample_clip_masks(16, 4, Rng(seed), RUN.gate_probability, RUN.mask_ratio) is None:
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
        clip = sample_clip(store[0].frames(), Rng(0), ViewConfig(clip_len=2, frameskip=1))
        assert any(all(np.array_equal(frame, store[0][start + j]) for j, frame in enumerate(clip))
                   for start in range(5))

    def test_frames_and_masks_are_checked_against_the_video(self, tmp_path):
        frames = toy_video(3, h=8, w=8, seed=2)
        masks = [np.full((8, 8), i, dtype=np.int32) for i in range(3)]
        directory = write_video_dir(tmp_path, "vid", frames, masks)
        source = VideoSource(directory)
        video = source.frames()
        assert video.shape == (3, 8, 8, 3) and video.dtype == np.float32
        assert all(np.array_equal(video[i], source[i]) for i in range(3))
        assert np.array_equal(source[1::2], video[1::2])
        assert np.array_equal(source.masks(video), np.stack(masks))
        assert np.array_equal(source.masks(video, first_only=True), masks[:1])
        with pytest.raises(ValueError, match="2 frames, need one per frame"):
            source.masks(video[:2])
        write_pgm(directory / "mask_00001.pgm", np.zeros((8, 6), dtype=np.uint8))
        with pytest.raises(ValueError, match=r"mask_00001\.pgm: mask shape \(8, 6\)"):
            source.masks(video)
        assert np.array_equal(source.masks(video, first_only=True), masks[:1])
        write_ppm(directory / "frame_00002.ppm", np.zeros((8, 6, 3)))
        with pytest.raises(ValueError, match=r"frame_00002\.ppm: frame shape \(8, 6\)"):
            source.frames()
        bare = VideoSource(write_video_dir(tmp_path, "bare", frames))
        with pytest.raises(ValueError, match="0 masks for 3 frames, need the first"):
            bare.masks(video, first_only=True)

    @pytest.mark.parametrize("damage, message", [
        (lambda buf: b"P5" + buf[2:], "expected P6 file"),
        (lambda buf: buf.replace(b"\n255\n", b"\n65535\n", 1), "only maxval 255 supported"),
        (lambda buf: buf[:-1], "truncated pixel data (191 of 192 bytes)"),
        (lambda buf: buf.replace(b"8 8", b"8 4", 1), "frame shape (4, 8) differs"),
    ], ids=["magic", "maxval", "pixel-bytes", "size"])
    def test_check_reads_headers_alone(self, tmp_path, monkeypatch, damage, message):
        """VideoSource.check finds each frame fault from the file's
        header and size, decoding no pixels, and names the file."""
        import vidcorr.views as views

        directory = write_video_dir(tmp_path, "vid", toy_video(3, h=8, w=8, seed=2))
        path = directory / "frame_00001.ppm"
        path.write_bytes(damage(path.read_bytes()))
        monkeypatch.setattr(views, "read_ppm", None)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            VideoSource(directory).check()

    @pytest.mark.parametrize("missing", ["frame_00002.ppm", "mask_00001.pgm"])
    def test_numbering_gap_names_the_missing_file(self, tmp_path, missing):
        """Frames and masks are numbered from 00000 without gaps, checked
        once when the source is made: a gap names the directory and the
        first missing file."""
        frames = toy_video(4, h=8, w=8, seed=2)
        masks = [np.full((8, 8), i, dtype=np.int32) for i in range(4)]
        directory = write_video_dir(tmp_path, "vid", frames, masks)
        source = VideoSource(directory)
        assert len(source) == 4 and source.has_masks
        assert np.array_equal(source[-1], source[3]) and np.array_equal(source.mask(-1), masks[3])
        with pytest.raises(IndexError):
            source[4]
        (directory / missing).unlink()
        with pytest.raises(ValueError, match=re.escape(f"{directory}: {missing} missing")):
            VideoSource(directory)

    def test_missing_index_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_store(tmp_path)

    def test_empty_video_dir_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError):
            VideoSource(tmp_path / "empty")
