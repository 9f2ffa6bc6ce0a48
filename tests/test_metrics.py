"""Metric oracles: cell-counting J, brute-force boundary matching F."""

import math

import numpy as np
import pytest
from scipy.ndimage import distance_transform_edt

from vidcorr.metrics import (
    SequenceScores,
    TrackScores,
    aggregate,
    boundary_pixels,
    contour_accuracy_F,
    default_tolerance,
    dilate,
    region_similarity_J,
    report,
    score_track,
)


def oracle_boundary(fg):
    """Loop-based boundary: foreground with any 4-neighbor outside the
    grid or off the object."""
    fg = np.asarray(fg, dtype=bool)
    h, w = fg.shape
    out = np.zeros_like(fg)
    for y in range(h):
        for x in range(w):
            if not fg[y, x]:
                continue
            for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ny, nx = y + dy, x + dx
                if not (0 <= ny < h and 0 <= nx < w) or not fg[ny, nx]:
                    out[y, x] = True
                    break
    return out


def oracle_f(pred, truth, object_id, tolerance):
    """Exhaustive pairwise-distance boundary F-measure."""
    p_pts = np.argwhere(oracle_boundary(np.asarray(pred) == object_id))
    t_pts = np.argwhere(oracle_boundary(np.asarray(truth) == object_id))
    if len(p_pts) == 0 and len(t_pts) == 0:
        return 1.0
    if len(p_pts) == 0 or len(t_pts) == 0:
        return 0.0

    def matched(points, others):
        hits = 0
        for a in points:
            dist = min(math.hypot(a[0] - b[0], a[1] - b[1]) for b in others)
            hits += dist <= tolerance
        return hits / len(points)

    precision = matched(p_pts, t_pts)
    recall = matched(t_pts, p_pts)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def edt_f(pred, truth, object_id, tolerance):
    """Boundary F-measure with the matching done by scipy's exact
    Euclidean distance transform."""
    p_bnd = boundary_pixels(np.asarray(pred) == object_id)
    t_bnd = boundary_pixels(np.asarray(truth) == object_id)
    if not p_bnd.any() and not t_bnd.any():
        return 1.0
    if not p_bnd.any() or not t_bnd.any():
        return 0.0
    precision = float((distance_transform_edt(~t_bnd)[p_bnd] <= tolerance).mean())
    recall = float((distance_transform_edt(~p_bnd)[t_bnd] <= tolerance).mean())
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def square(h, w, y0, y1, x0, x1, object_id=1):
    grid = np.zeros((h, w), dtype=np.int64)
    grid[y0:y1 + 1, x0:x1 + 1] = object_id
    return grid


def random_blobs(seed, shape=(12, 17)):
    g = np.random.default_rng(seed)
    grid = (g.random(shape) > 0.72).astype(np.int64)
    y, x = g.integers(0, shape[0] - 4), g.integers(0, shape[1] - 4)
    grid[y:y + 4, x:x + 4] = 1
    return grid


class TestRegionSimilarity:
    def test_identical_masks(self):
        grid = square(8, 8, 2, 5, 2, 5)
        assert region_similarity_J(grid, grid, 1) == 1.0

    def test_disjoint_masks(self):
        a = square(8, 8, 0, 1, 0, 1)
        b = square(8, 8, 5, 6, 5, 6)
        assert region_similarity_J(a, b, 1) == 0.0

    def test_shifted_square(self):
        """4x4 squares one column apart: overlap 4x3 = 12 cells, union
        16 + 16 - 12 = 20, so J = 0.6."""
        truth = square(8, 8, 2, 5, 2, 5)
        pred = square(8, 8, 2, 5, 3, 6)
        assert region_similarity_J(pred, truth, 1) == pytest.approx(0.6)

    def test_empty_conventions(self):
        empty = np.zeros((4, 4), dtype=np.int64)
        full = square(4, 4, 1, 2, 1, 2)
        assert region_similarity_J(empty, empty, 1) == 1.0
        assert region_similarity_J(empty, full, 1) == 0.0
        assert region_similarity_J(full, empty, 1) == 0.0

    def test_symmetric(self):
        a, b = random_blobs(0), random_blobs(1)
        assert region_similarity_J(a, b, 1) == region_similarity_J(b, a, 1)

    def test_unity_iff_equal(self):
        a = random_blobs(2)
        b = a.copy()
        assert region_similarity_J(a, b, 1) == 1.0
        b[0, 0] = 1 - b[0, 0]
        assert region_similarity_J(a, b, 1) < 1.0

    def test_selects_object_id(self):
        """Other ids are background for the queried object."""
        a = np.array([[1, 2], [2, 2]])
        b = np.array([[1, 0], [0, 2]])
        assert region_similarity_J(a, b, 1) == 1.0
        assert region_similarity_J(a, b, 2) == pytest.approx(1 / 3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            region_similarity_J(np.zeros((2, 2), dtype=int),
                                np.zeros((3, 2), dtype=int), 1)


class TestBoundary:
    def test_single_pixel_is_its_own_boundary(self):
        fg = np.zeros((5, 5), dtype=bool)
        fg[2, 2] = True
        np.testing.assert_array_equal(boundary_pixels(fg), fg)

    def test_block_interior_excluded(self):
        fg = square(7, 7, 2, 4, 2, 4) == 1
        bnd = boundary_pixels(fg)
        assert not bnd[3, 3]
        assert bnd.sum() == 8

    def test_grid_edge_counts_as_outside(self):
        """A full-frame object still has its picture-frame boundary."""
        fg = np.ones((5, 6), dtype=bool)
        bnd = boundary_pixels(fg)
        assert bnd.sum() == 2 * 5 + 2 * 6 - 4
        assert not bnd[2, 2]

    def test_matches_loop_oracle(self):
        for seed in range(6):
            fg = random_blobs(seed) == 1
            np.testing.assert_array_equal(boundary_pixels(fg), oracle_boundary(fg))


class TestDefaultTolerance:
    def test_small_grid_floors_at_one(self):
        assert default_tolerance((8, 8)) == 1

    def test_benchmark_scale(self):
        """480x854: diagonal 979.65, 0.8% of it is 7.84, ceil 8."""
        assert default_tolerance((480, 854)) == 8


class TestContourAccuracy:
    def test_identical_masks(self):
        grid = square(9, 9, 2, 6, 3, 5)
        assert contour_accuracy_F(grid, grid, 1) == 1.0

    def test_empty_conventions(self):
        empty = np.zeros((6, 6), dtype=np.int64)
        full = square(6, 6, 1, 4, 1, 4)
        assert contour_accuracy_F(empty, empty, 1) == 1.0
        assert contour_accuracy_F(empty, full, 1) == 0.0
        assert contour_accuracy_F(full, empty, 1) == 0.0

    def test_concentric_ring(self):
        """4x4 truth inside a 6x6 prediction, tolerance 1: the 16 non-
        corner cells of the 20-cell predicted ring match (corners sit
        sqrt(2) away), all 12 truth cells match, F = 2(.8)(1)/1.8 = 8/9."""
        truth = square(8, 8, 2, 5, 2, 5)
        pred = square(8, 8, 1, 6, 1, 6)
        value = contour_accuracy_F(pred, truth, 1, tolerance=1)
        assert value == pytest.approx(8 / 9, abs=1e-12)
        assert value == pytest.approx(oracle_f(pred, truth, 1, 1), abs=1e-12)

    def test_matches_pairwise_oracle(self):
        for seed in range(8):
            pred, truth = random_blobs(seed), random_blobs(seed + 100)
            for tol in (1, 2):
                assert contour_accuracy_F(pred, truth, 1, tol) == pytest.approx(
                    oracle_f(pred, truth, 1, tol), abs=1e-12), (seed, tol)

    def test_matches_distance_transform(self):
        """The disk dilation, and F through it, equal scipy's distance
        transform thresholded at the tolerance, bit for bit, at integer
        and non-integer tolerances."""
        g = np.random.default_rng(0)
        tolerances = (0, 0.5, 1, math.sqrt(2), 1.5, 2, 2.5, math.sqrt(8), 3, 4.2, 7)
        for _ in range(30):
            shape = tuple(int(v) for v in g.integers(1, 24, size=2))
            pred = (g.random(shape) < g.uniform(0.05, 0.9)).astype(np.int64)
            truth = (g.random(shape) < g.uniform(0.05, 0.9)).astype(np.int64)
            bnd = boundary_pixels(truth == 1)
            for tol in tolerances:
                if bnd.any():
                    assert np.array_equal(dilate(bnd, tol),
                                          distance_transform_edt(~bnd) <= tol), (shape, tol)
                assert contour_accuracy_F(pred, truth, 1, tol) == edt_f(pred, truth, 1, tol)

    def test_symmetric(self):
        pred, truth = random_blobs(3), random_blobs(4)
        assert contour_accuracy_F(pred, truth, 1) == pytest.approx(
            contour_accuracy_F(truth, pred, 1), abs=1e-12)

    def test_monotone_in_tolerance(self):
        pred, truth = random_blobs(5), random_blobs(6)
        values = [contour_accuracy_F(pred, truth, 1, tol) for tol in (1, 2, 3, 5)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_within_unit_interval(self):
        for seed in range(5):
            v = contour_accuracy_F(random_blobs(seed), random_blobs(seed + 50), 1)
            assert 0.0 <= v <= 1.0

    def test_default_tolerance_applied(self):
        pred, truth = random_blobs(7), random_blobs(8)
        assert contour_accuracy_F(pred, truth, 1) == contour_accuracy_F(
            pred, truth, 1, default_tolerance(pred.shape))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            contour_accuracy_F(np.zeros((2, 2), dtype=int),
                               np.zeros((2, 3), dtype=int), 1)


class TestTracksAndAggregates:
    def test_first_frame_excluded(self):
        """Frame 0 is the given label; a garbage prediction there must
        not dent the score."""
        truth = [square(8, 8, 2, 5, 2, 5)] * 3
        garbage = square(8, 8, 0, 1, 6, 7)
        track = score_track([garbage, truth[1], truth[2]], truth, 1)
        assert track.j_mean == 1.0
        assert track.f_mean == 1.0
        assert len(track.j_frames) == 2

    def test_track_needs_two_frames(self):
        grid = square(4, 4, 1, 2, 1, 2)
        with pytest.raises(ValueError, match="beyond"):
            score_track([grid], [grid], 1)

    def test_length_mismatch_rejected(self):
        grid = square(4, 4, 1, 2, 1, 2)
        with pytest.raises(ValueError, match="predictions"):
            score_track([grid, grid], [grid], 1)

    @pytest.mark.parametrize("side, tolerance", [(24, 1), (100, 2)])
    def test_track_matches_frames_scored_alone(self, side, tolerance):
        """score_track scores a track's frames as one stack; each frame's
        J and F equal, bit for bit, what the one-frame functions give,
        with the object absent from the prediction, the truth or both
        and with objects that touch the grid edge."""
        assert default_tolerance((side, side)) == tolerance
        rng = np.random.default_rng(side)
        masks = rng.integers(0, 3, size=(2, 9, side, side))
        pred, truth = list(masks[0]), list(masks[1])
        pred[2][pred[2] == 1] = 0
        truth[3][truth[3] == 1] = 0
        pred[4][pred[4] == 1] = 0
        truth[4][truth[4] == 1] = 0
        pred[5] = square(side, side, 0, side // 2, 0, 3)
        truth[5] = square(side, side, 1, side // 2 + 2, 0, 5)
        track = score_track(pred, truth, 1)
        js = [region_similarity_J(p, t, 1) for p, t in zip(pred[1:], truth[1:])]
        fs = [contour_accuracy_F(p, t, 1) for p, t in zip(pred[1:], truth[1:])]
        assert all(type(v) is float for v in track.j_frames + track.f_frames)
        assert track.j_frames == js and track.f_frames == fs
        assert (js[1], js[3], fs[3]) == (0.0, 1.0, 1.0)
        assert 0.0 < js[4] < 1.0 and 0.0 < fs[4] <= 1.0

    def test_all_perfect_scores(self):
        tracks = [TrackScores("a", 1, [1.0, 1.0], [1.0, 1.0]),
                  TrackScores("a", 2, [1.0], [1.0])]
        scores = aggregate(tracks)
        assert (scores.j_mean, scores.f_mean) == (1.0, 1.0)
        assert (scores.j_recall, scores.f_recall) == (1.0, 1.0)
        assert scores.jf_mean == 1.0

    def test_recall_threshold_straddle(self):
        """Track means 0.6 and 0.4: exactly half the tracks recall."""
        tracks = [TrackScores("a", 1, [0.6], [0.6]),
                  TrackScores("b", 1, [0.4], [0.4])]
        scores = aggregate(tracks)
        assert scores.j_recall == 0.5
        assert scores.f_recall == 0.5

    def test_hand_averaged_table(self):
        """2 objects x 3 frames: J means 0.8 / 0.3, F means 0.8 / 0.6."""
        tracks = [
            TrackScores("seq", 1, [0.8, 0.6, 1.0], [0.9, 0.7, 0.8]),
            TrackScores("seq", 2, [0.2, 0.4, 0.3], [0.6, 0.55, 0.65]),
        ]
        scores = aggregate(tracks)
        assert scores.j_mean == pytest.approx(0.55)
        assert scores.f_mean == pytest.approx(0.7)
        assert scores.j_recall == 0.5
        assert scores.f_recall == 1.0
        assert scores.jf_mean == pytest.approx(0.625)

    def test_empty_aggregate_rejected(self):
        with pytest.raises(ValueError, match="tracks"):
            aggregate([])

    def test_track_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            TrackScores("a", 1, [], [])
        with pytest.raises(ValueError, match="matching"):
            TrackScores("a", 1, [1.0], [1.0, 1.0])


class TestReport:
    def test_rows_and_footer(self):
        tracks = [
            TrackScores("city", 1, [0.8, 0.6], [0.7, 0.9]),
            TrackScores("river", 1, [0.4], [0.2]),
        ]
        text = report(aggregate(tracks))
        lines = text.strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1].split("\t") == ["city", "1", "0.7000", "0.8000"]
        assert lines[2].split("\t") == ["river", "1", "0.4000", "0.2000"]
        footer = [float(v) for v in lines[4].split("\t")]
        j_m, f_m = (0.7 + 0.4) / 2, (0.8 + 0.2) / 2
        assert footer == pytest.approx([(j_m + f_m) / 2, j_m, 0.5, f_m, 0.5])
