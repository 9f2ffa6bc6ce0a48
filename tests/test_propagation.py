"""Tests for restricted-attention label propagation."""

import logging

import numpy as np
import pytest

from reference_propagation import propagate_frame_reference, reference_cell
from vidcorr import propagation
from vidcorr.propagation import (
    FeatureMap,
    LabelMap,
    PropagationConfig,
    _rows_per_tile,
    init_labels,
    labels_to_mask,
    propagate_frame,
    propagate_video,
)


def unit_grid(rng, h, w, d):
    g = rng.normal(size=(h, w, d))
    return g / np.sqrt((g * g).sum(axis=-1, keepdims=True))


def random_onehot(rng, h, w, c):
    return np.eye(c)[rng.integers(0, c, size=(h, w))]


def make_instance(seed, h=16, w=16, d=8, c=4, frames=3):
    rng = np.random.default_rng(seed)
    target = FeatureMap(unit_grid(rng, h, w, d))
    context = [(FeatureMap(unit_grid(rng, h, w, d)),
                LabelMap(random_onehot(rng, h, w, c)))
               for _ in range(frames)]
    return target, context


def stacked(context):
    feats = np.stack([f.grid for f, _ in context])
    labels = np.stack([l.grid for _, l in context])
    return feats, labels


class TestConfig:
    """Field validation."""

    def test_defaults(self):
        cfg = PropagationConfig()
        assert (cfg.top_k, cfg.context_size, cfg.radius) == (5, 10, 40)
        assert cfg.temperature == 0.07

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            PropagationConfig(top_k=0)
        with pytest.raises(ValueError):
            PropagationConfig(radius=0)
        with pytest.raises(ValueError):
            PropagationConfig(context_size=-1)
        with pytest.raises(ValueError):
            PropagationConfig(temperature=0.0)
        with pytest.raises(ValueError):
            PropagationConfig(include_first_frame=False)

    def test_feature_map_requires_unit_rows(self):
        with pytest.raises(ValueError, match="unit norm"):
            FeatureMap(np.full((2, 2, 3), 2.0))

    def test_label_map_requires_distributions(self):
        with pytest.raises(ValueError):
            LabelMap(np.full((2, 2, 3), 0.9))
        with pytest.raises(ValueError):
            LabelMap(np.array([[[1.5, -0.5]]]))


class TestInitLabels:
    """Majority-vote downsampling to the feature grid."""

    def test_uniform_background(self):
        lm = init_labels(np.zeros((8, 8), dtype=np.int32), (4, 4))
        assert np.array_equal(lm.grid[:, :, 0], np.ones((4, 4)))

    def test_aligned_mask_transfers_exactly(self):
        ids = np.array([[0, 1], [2, 1]])
        mask = np.kron(ids, np.ones((3, 3), dtype=int))
        lm = init_labels(mask, (2, 2))
        assert np.array_equal(lm.grid.argmax(axis=-1), ids)
        assert lm.grid.max() == 1.0

    def test_majority_wins(self):
        """3 background pixels against 1 object pixel -> background."""
        mask = np.zeros((2, 2), dtype=int)
        mask[0, 0] = 1
        lm = init_labels(mask, (1, 1))
        assert np.array_equal(lm.grid[0, 0], [1.0, 0.0])

    def test_tie_goes_to_lower_id(self):
        mask = np.array([[0, 2], [2, 0]])
        lm = init_labels(mask, (1, 1))
        assert lm.grid[0, 0].argmax() == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            init_labels(np.zeros((0, 4), dtype=int), (1, 1))
        with pytest.raises(ValueError):
            init_labels(np.zeros((5, 4), dtype=int), (2, 2))
        with pytest.raises(ValueError):
            init_labels(np.zeros((4, 4)), (2, 2))  # float mask
        with pytest.raises(ValueError, match="nonnegative"):
            init_labels(np.full((4, 4), -1), (2, 2))


class TestPropagateFrame:
    """Per-frame voting against hand cases and the exhaustive oracle."""

    def test_self_match_exact(self):
        """Identical context with top_k=1 copies one-hot labels bit for bit."""
        target, context = make_instance(0, frames=1)
        feats = context[0][0]
        labels = context[0][1]
        cfg = PropagationConfig(top_k=1, radius=3)
        out = propagate_frame(feats, [(feats, labels)], cfg)
        assert np.array_equal(out.grid, labels.grid)

    def test_equal_similarity_split(self):
        """Two tied neighbors with different one-hot labels give 0.5/0.5."""
        q = np.array([1.0, 0.0])
        feats = FeatureMap(np.array([[q, [0.0, 1.0], q]]))
        labels = LabelMap(np.array([[[0, 1, 0], [1, 0, 0], [0, 0, 1]]], dtype=np.float64))
        target = FeatureMap(np.array([[q, q, q]]))
        cfg = PropagationConfig(top_k=2, radius=1)
        out = propagate_frame(target, [(feats, labels)], cfg)
        assert np.array_equal(out.grid[0, 1], [0.0, 0.5, 0.5])

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bruteforce_oracle(self, seed):
        """Bitwise equality with the exhaustive reference, 16x16."""
        target, context = make_instance(seed)
        cfg = PropagationConfig(top_k=5, radius=3)
        out = propagate_frame(target, context, cfg)
        feats, labels = stacked(context)
        ref = propagate_frame_reference(target.grid, feats, labels, 3, 5, 0.07)
        assert np.array_equal(out.grid, ref)

    def test_odd_shape_and_shortage(self):
        """top_k above the candidate count uses all candidates."""
        target, context = make_instance(5, h=4, w=7, d=6, c=3, frames=1)
        cfg = PropagationConfig(top_k=50, radius=1)
        out = propagate_frame(target, context, cfg)
        feats, labels = stacked(context)
        ref = propagate_frame_reference(target.grid, feats, labels, 1, 50, 0.07)
        assert np.array_equal(out.grid, ref)

    def test_many_tiles_match_oracle_on_sampled_cells(self):
        """A grid whose target rows split into several tiles agrees with
        the reference on cells drawn from every part of it."""
        target, context = make_instance(23, h=24, w=24, d=16, frames=11)
        assert _rows_per_tile(24, 24, 11, 3) < 24 // 2
        cfg = PropagationConfig(top_k=5, radius=3)
        out = propagate_frame(target, context, cfg)
        feats, labels = stacked(context)
        rng = np.random.default_rng(1)
        cells = [(0, 0), (23, 23), (0, 23), (23, 0)] + [
            tuple(int(v) for v in rng.integers(0, 24, size=2)) for _ in range(24)]
        for y, x in cells:
            ref = reference_cell(y, x, target.grid, feats, labels, 3, 5, 0.07)
            assert np.array_equal(out.grid[y, x], ref), (y, x)

    def test_tie_heavy_instance(self):
        """Cells drawn from a four-vector palette and frames that repeat
        one another give exact similarity ties everywhere; the frame and
        cell tie-breaks must match the reference."""
        rng = np.random.default_rng(29)
        palette = unit_grid(rng, 1, 4, 8)[0]
        base = palette[rng.integers(0, 4, size=(7, 9))]
        frames = [base, base, palette[rng.integers(0, 4, size=(7, 9))], base]
        context = [(FeatureMap(f), LabelMap(random_onehot(rng, 7, 9, 3)))
                   for f in frames]
        target = FeatureMap(palette[rng.integers(0, 4, size=(7, 9))])
        feats, labels = stacked(context)
        for top_k, radius in ((5, 2), (12, 1), (3, 9)):
            out = propagate_frame(target, context,
                                  PropagationConfig(top_k=top_k, radius=radius))
            ref = propagate_frame_reference(target.grid, feats, labels,
                                            radius, top_k, 0.07)
            assert np.array_equal(out.grid, ref), (top_k, radius)

    def test_last_bit_ties_follow_the_recipe(self):
        """Context cells are permutations of one vector and the target
        is uniform, so every similarity is the same sum taken in another
        order: the candidates differ only in rounding, where a BLAS
        product and the recipe's sequential sum disagree. Ranking on the
        BLAS values alone, without the error margin, fails here wherever
        the product sums in another order (OpenBLAS does at d=13)."""
        rng = np.random.default_rng(37)
        d = 13
        v = rng.normal(size=d)
        v /= np.sqrt((v * v).sum())
        feats = v[np.argsort(rng.random((3, 6, 6, d)), axis=-1)]
        labels = random_onehot(rng, 18, 6, 4).reshape(3, 6, 6, 4)
        target = FeatureMap(np.full((6, 6, d), 1.0 / np.sqrt(d)))
        context = [(FeatureMap(feats[i]), LabelMap(labels[i])) for i in range(3)]
        out = propagate_frame(target, context, PropagationConfig(top_k=5, radius=2))
        ref = propagate_frame_reference(target.grid, feats, labels, 2, 5, 0.07)
        assert np.array_equal(out.grid, ref)

    def test_norms_at_the_accepted_edge(self):
        """FeatureMap accepts rows whose norm is off 1 by up to about 2e-5;
        at 1 +- 1.5e-5 the kernel still matches the reference."""
        rng = np.random.default_rng(31)

        def off_unit(*shape):
            scale = 1.0 + 1.5e-5 * rng.choice([-1.0, 1.0], size=shape + (1,))
            return unit_grid(rng, *shape[-2:], 12) * scale

        target = FeatureMap(off_unit(9, 10))
        context = [(FeatureMap(off_unit(9, 10)), LabelMap(random_onehot(rng, 9, 10, 4)))
                   for _ in range(4)]
        cfg = PropagationConfig(top_k=5, radius=3)
        out = propagate_frame(target, context, cfg)
        feats, labels = stacked(context)
        ref = propagate_frame_reference(target.grid, feats, labels, 3, 5, 0.07)
        assert np.array_equal(out.grid, ref)

    @pytest.mark.parametrize("h, w, radius, frames, tile_elements", [
        (7, 9, 8, 3, None),      # every window covers the grid
        (9, 13, 5, 3, None),     # masked band, one tile
        (9, 13, 5, 3, 1 << 10),  # masked band, one target row per tile
        (9, 13, 2, 4, None),     # window slots
        (9, 13, 1, 4, 1 << 10),  # window slots, one target row per tile
    ])
    def test_float32_search_below_float32_resolution(self, h, w, radius, frames,
                                                     tile_elements, monkeypatch):
        """Every row lies within about 1e-4 of one direction, turned by a
        random rotation so that no coordinate is a float32: similarities
        differ from one another by about 1e-8, below float32's spacing
        near 1, so the float32 search values tie or misorder them. Only
        a margin that covers the input rounding and float32 accumulation
        keeps every candidate the recipe ranks into the top_k; every
        cell matches the reference."""
        if tile_elements is not None:
            monkeypatch.setattr(propagation, "_TILE_ELEMENTS", tile_elements)
            assert _rows_per_tile(h, w, frames, radius) == 1
        rng = np.random.default_rng(h * radius + frames)
        d = 8
        rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))

        def near_tied(*shape):
            g = np.concatenate([np.ones(shape + (1,)), 1e-4 * rng.normal(size=shape + (d - 1,))],
                               axis=-1)
            g = (g / np.sqrt((g * g).sum(axis=-1, keepdims=True))) @ rotation.T
            assert not np.array_equal(g.astype(np.float32), g)
            return g

        target = FeatureMap(near_tied(h, w))
        context = [(FeatureMap(near_tied(h, w)), LabelMap(random_onehot(rng, h, w, 3)))
                   for _ in range(frames)]
        feats, labels = stacked(context)
        sims = np.einsum("yxk,fyxk->fyx", target.grid, feats)
        assert 0.0 < 1.0 - sims.min() < 1e-6  # every candidate within float32's reach of 1
        out = propagate_frame(target, context, PropagationConfig(top_k=5, radius=radius))
        for y in range(h):
            for x in range(w):
                ref = reference_cell(y, x, target.grid, feats, labels, radius, 5, 0.07)
                assert np.array_equal(out.grid[y, x], ref), (y, x)

    @pytest.mark.parametrize("frames", [1, 11])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_small_windows_match_oracle_on_every_cell(self, radius, frames, monkeypatch):
        """Small radii rank each target's window slots alone. On a 9x13
        grid most windows are cut by a border; every cell matches the
        reference, at top_k 5 and at one more than a corner window's
        candidate count, where a corner target keeps all of them."""
        rng = np.random.default_rng(41 + radius)
        target = FeatureMap(unit_grid(rng, 9, 13, 6))
        context = [(FeatureMap(unit_grid(rng, 9, 13, 6)),
                    LabelMap(random_onehot(rng, 9, 13, 3))) for _ in range(frames)]
        feats, labels = stacked(context)
        windowed = []
        gather = propagation._window_survivors

        def counting(band_context, tile_target, *args):
            windowed.append(len(tile_target))
            return gather(band_context, tile_target, *args)

        monkeypatch.setattr(propagation, "_window_survivors", counting)
        for top_k in (5, frames * (radius + 1) ** 2 + 1):
            windowed.clear()
            out = propagate_frame(target, context,
                                  PropagationConfig(top_k=top_k, radius=radius))
            assert sum(windowed) >= 7 * 13
            for y in range(9):
                for x in range(13):
                    ref = reference_cell(y, x, target.grid, feats, labels,
                                         radius, top_k, 0.07)
                    assert np.array_equal(out.grid[y, x], ref), (top_k, y, x)

    def test_radius_beyond_grid_is_unrestricted(self):
        target, context = make_instance(11, h=6, w=6)
        a = propagate_frame(target, context, PropagationConfig(top_k=5, radius=6))
        b = propagate_frame(target, context, PropagationConfig(top_k=5, radius=600))
        assert np.array_equal(a.grid, b.grid)

    def test_output_is_convex_combination(self):
        target, context = make_instance(13)
        out = propagate_frame(target, context, PropagationConfig(top_k=5, radius=3))
        assert out.grid.min() >= 0.0 and out.grid.max() <= 1.0
        assert np.allclose(out.grid.sum(axis=-1), 1.0, atol=1e-6)

    def test_cells_independent_of_visit_order(self):
        """Each cell depends only on the inputs, not on its neighbors."""
        target, context = make_instance(17, h=6, w=5)
        cfg = PropagationConfig(top_k=4, radius=2)
        out = propagate_frame(target, context, cfg)
        feats, labels = stacked(context)
        cells = [(y, x) for y in range(6) for x in range(5)]
        np.random.default_rng(0).shuffle(cells)
        for y, x in cells:
            ref = reference_cell(y, x, target.grid, feats, labels, 2, 4, 0.07)
            assert np.array_equal(out.grid[y, x], ref)

    def test_errors(self):
        target, context = make_instance(19, h=4, w=4)
        cfg = PropagationConfig(radius=2)
        with pytest.raises(ValueError):
            propagate_frame(target, [], cfg)
        small, small_ctx = make_instance(19, h=3, w=4)
        with pytest.raises(ValueError):
            propagate_frame(target, small_ctx, cfg)


class TestPropagateVideo:
    """Sequential context management."""

    def test_single_frame_returns_init(self):
        rng = np.random.default_rng(2)
        feats = unit_grid(rng, 4, 4, 6)
        mask = rng.integers(0, 3, size=(8, 8)).astype(np.int32)
        out = propagate_video([feats], mask, PropagationConfig(radius=2))
        assert len(out) == 1
        assert np.array_equal(out[0].grid, init_labels(mask, (4, 4)).grid)

    def test_zero_context_uses_first_frame_only(self):
        rng = np.random.default_rng(3)
        frames = [unit_grid(rng, 5, 5, 6) for _ in range(4)]
        mask = rng.integers(0, 2, size=(10, 10)).astype(np.int32)
        cfg = PropagationConfig(top_k=3, radius=2, context_size=0)
        outs = propagate_video(frames, mask, cfg)
        first = FeatureMap(frames[0])
        first_labels = init_labels(mask, (5, 5))
        for t in range(1, 4):
            expected = propagate_frame(FeatureMap(frames[t]),
                                       [(first, first_labels)], cfg)
            assert np.array_equal(outs[t].grid, expected.grid)

    def test_constant_video_is_fixed_point(self):
        """Identical frames keep the first frame's argmax everywhere."""
        rng = np.random.default_rng(4)
        g = unit_grid(rng, 6, 6, 8)
        ids = rng.integers(0, 3, size=(6, 6))
        mask = np.kron(ids, np.ones((2, 2), dtype=int)).astype(np.int32)
        outs = propagate_video([g, g, g, g], mask, PropagationConfig(top_k=5, radius=2))
        for out in outs:
            assert np.array_equal(out.grid.argmax(axis=-1), ids)
        # and the second frame matches the oracle run directly
        first_labels = init_labels(mask, (6, 6))
        ref = propagate_frame_reference(g, g[None], first_labels.grid[None], 2, 5, 0.07)
        assert np.array_equal(outs[1].grid, ref)

    def test_context_window_caps_at_size(self):
        rng = np.random.default_rng(5)
        frames = [unit_grid(rng, 4, 4, 5) for _ in range(5)]
        mask = rng.integers(0, 2, size=(4, 4)).astype(np.int32)
        cfg = PropagationConfig(top_k=3, radius=2, context_size=1)
        outs = propagate_video(frames, mask, cfg)
        # frame 3's context must be {frame 0, prediction for frame 2}
        maps = [FeatureMap(f) for f in frames]
        first_labels = init_labels(mask, (4, 4))
        expected = propagate_frame(
            maps[3], [(maps[0], first_labels), (maps[2], outs[2])], cfg)
        assert np.array_equal(outs[3].grid, expected.grid)

    def test_empty_video_rejected(self):
        with pytest.raises(ValueError):
            propagate_video([], np.zeros((4, 4), dtype=int), PropagationConfig(radius=2))

    @pytest.mark.parametrize("radius, warnings", [(1, 1), (2, 0)])
    def test_shortage_warned_once_per_video(self, caplog, radius, warnings):
        """At radius 1 a corner cell of a 4x4 grid has 2x2 = 4 candidates
        in frame 1's one-frame context, fewer than top_k 5: each video
        warns once, not only the first of the process. Radius 2 gives
        every cell at least 3x3 = 9, and nothing is logged."""
        rng = np.random.default_rng(6)
        mask = rng.integers(0, 2, size=(8, 8)).astype(np.int32)
        cfg = PropagationConfig(top_k=5, radius=radius)
        for _ in range(2):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="vidcorr.propagation"):
                propagate_video([unit_grid(rng, 4, 4, 6) for _ in range(4)], mask, cfg)
            assert len(caplog.records) == warnings
            assert all("top_k=5" in r.message for r in caplog.records)


class TestLabelsToMask:
    """Argmax hardening and nearest-neighbor upsampling."""

    def test_upsample_repeats_cells(self):
        grid = np.zeros((2, 2, 2))
        grid[:, :, 0] = 1.0
        grid[1, 1] = [0.0, 1.0]
        mask = labels_to_mask(LabelMap(grid), 3)
        assert mask.shape == (6, 6)
        assert mask[5, 5] == 1 and mask[0, 0] == 0
        assert (mask[3:, 3:] == 1).all()

    def test_argmax_tie_takes_lower_id(self):
        grid = np.full((1, 1, 2), 0.5)
        assert labels_to_mask(LabelMap(grid), 1)[0, 0] == 0
