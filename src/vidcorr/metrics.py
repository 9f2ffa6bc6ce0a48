"""Segmentation quality: region similarity J, contour accuracy F, and
their track-level aggregates.

J is the Jaccard index of the object's binary masks. F matches the two
boundary point sets with a distance tolerance of 0.8% of the image
diagonal (floor one pixel) and reports the harmonic mean of the matched
fractions. The first frame of every track carries the given label and
is excluded from averaging.
"""

import math
from dataclasses import dataclass, field

import numpy as np


def _binary(mask, object_id):
    return np.asarray(mask) == object_id


def _check_shapes(pred, truth):
    p, t = np.asarray(pred), np.asarray(truth)
    if p.shape != t.shape:
        raise ValueError(f"mask shapes differ: {p.shape} vs {t.shape}")


def _per_frame(values):
    """A float for one frame's 0-d result, the array for a stack's."""
    return float(values) if values.ndim == 0 else values


def region_similarity_J(pred, truth, object_id):
    """Intersection over union of the object's binary masks, for one
    (H, W) frame or per frame of (T, H, W) stacks.

    Both masks empty counts as a perfect 1; exactly one empty is 0."""
    _check_shapes(pred, truth)
    p = _binary(pred, object_id)
    t = _binary(truth, object_id)
    union = np.logical_or(p, t).sum(axis=(-2, -1))
    inter = np.logical_and(p, t).sum(axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return _per_frame(np.where(union == 0, 1.0, inter / union))


def boundary_pixels(binary):
    """Foreground cells 4-adjacent to non-foreground, over the last two
    axes; cells outside the grid count as non-foreground, so
    edge-touching objects still have a boundary there."""
    fg = np.asarray(binary, dtype=bool)
    padded = np.zeros(fg.shape[:-2] + (fg.shape[-2] + 2, fg.shape[-1] + 2), dtype=bool)
    padded[..., 1:-1, 1:-1] = fg
    interior = (padded[..., :-2, 1:-1] & padded[..., 2:, 1:-1]
                & padded[..., 1:-1, :-2] & padded[..., 1:-1, 2:])
    return fg & ~interior


def default_tolerance(shape):
    """ceil(0.008 * image diagonal), at least one pixel; the image is
    the last two axes of shape."""
    diag = math.hypot(shape[-2], shape[-1])
    return max(1, math.ceil(0.008 * diag))


def dilate(binary, tolerance):
    """Cells within Euclidean distance `tolerance` of a foreground cell,
    over the last two axes: the union of the grid shifted by every
    integer offset (dy, dx) with sqrt(dy**2 + dx**2) <= tolerance, the
    test a distance transform thresholded at `tolerance` makes."""
    fg = np.asarray(binary, dtype=bool)
    h, w = fg.shape[-2:]
    reach = max(0, min(math.floor(tolerance), max(h, w)))  # farther shifts leave the grid
    steps = np.arange(-reach, reach + 1)
    dy, dx = np.meshgrid(steps, steps, indexing="ij")
    disk = np.sqrt(dy * dy + dx * dx) <= tolerance
    padded = np.zeros(fg.shape[:-2] + (h + 2 * reach, w + 2 * reach), dtype=bool)
    padded[..., reach:reach + h, reach:reach + w] = fg
    out = np.zeros_like(fg)
    for y, x in zip(dy[disk].tolist(), dx[disk].tolist()):
        out |= padded[..., reach + y:reach + y + h, reach + x:reach + x + w]
    return out


def contour_accuracy_F(pred, truth, object_id, tolerance=None):
    """Boundary F-measure with distance-tolerance matching, for one
    (H, W) frame or per frame of (T, H, W) stacks.

    Precision: fraction of predicted boundary pixels within tolerance
    (Euclidean) of some truth boundary pixel; recall symmetric. Both
    boundaries empty gives 1, one empty or a vanished P + R gives 0."""
    _check_shapes(pred, truth)
    p = _binary(pred, object_id)
    t = _binary(truth, object_id)
    if tolerance is None:
        tolerance = default_tolerance(p.shape)
    p_bnd = boundary_pixels(p)
    t_bnd = boundary_pixels(t)
    p_count = p_bnd.sum(axis=(-2, -1))
    t_count = t_bnd.sum(axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = (dilate(t_bnd, tolerance) & p_bnd).sum(axis=(-2, -1)) / p_count
        recall = (dilate(p_bnd, tolerance) & t_bnd).sum(axis=(-2, -1)) / t_count
        f = 2.0 * precision * recall / (precision + recall)
    f = np.where((p_count == 0) | (t_count == 0) | (precision + recall == 0), 0.0, f)
    return _per_frame(np.where((p_count == 0) & (t_count == 0), 1.0, f))


@dataclass
class TrackScores:
    """Per-frame J and F for one object in one sequence, first frame
    already excluded."""

    sequence: str
    object_id: int
    j_frames: list
    f_frames: list

    def __post_init__(self):
        if not self.j_frames or len(self.j_frames) != len(self.f_frames):
            raise ValueError("a track needs matching, nonempty J and F lists")

    @property
    def j_mean(self):
        return float(np.mean(self.j_frames))

    @property
    def f_mean(self):
        return float(np.mean(self.f_frames))


@dataclass
class SequenceScores:
    """Aggregates over a set of tracks, Table-style."""

    tracks: list = field(repr=False)
    j_mean: float = 0.0
    f_mean: float = 0.0
    j_recall: float = 0.0
    f_recall: float = 0.0

    @property
    def jf_mean(self):
        return (self.j_mean + self.f_mean) / 2.0


def score_track(pred_masks, truth_masks, object_id, sequence="seq"):
    """J and F per frame for one object, over all frames at once; frame
    0 is the given label and does not count."""
    if len(pred_masks) != len(truth_masks):
        raise ValueError(f"{len(pred_masks)} predictions for {len(truth_masks)} frames")
    if len(pred_masks) < 2:
        raise ValueError("a track needs at least one frame beyond the first")
    for pred, truth in zip(pred_masks[1:], truth_masks[1:]):
        _check_shapes(pred, truth)
    pred, truth = np.stack(pred_masks[1:]), np.stack(truth_masks[1:])
    return TrackScores(sequence, object_id,
                       region_similarity_J(pred, truth, object_id).tolist(),
                       contour_accuracy_F(pred, truth, object_id).tolist())


def aggregate(tracks):
    """Means over tracks of per-track frame means, plus the fraction of
    tracks above 0.5 (the recall columns)."""
    if not tracks:
        raise ValueError("no tracks to aggregate")
    j_means = np.array([t.j_mean for t in tracks])
    f_means = np.array([t.f_mean for t in tracks])
    return SequenceScores(
        tracks=list(tracks),
        j_mean=float(j_means.mean()),
        f_mean=float(f_means.mean()),
        j_recall=float((j_means > 0.5).mean()),
        f_recall=float((f_means > 0.5).mean()),
    )


def report(scores):
    """Tab-separated table: one row per track, then the global footer
    J&F_m, J_m, J_r, F_m, F_r."""
    lines = ["# sequence\tobject\tJ_m\tF_m"]
    for t in scores.tracks:
        lines.append(f"{t.sequence}\t{t.object_id}\t{t.j_mean:.4f}\t{t.f_mean:.4f}")
    lines.append("# J&F_m\tJ_m\tJ_r\tF_m\tF_r")
    lines.append(f"{scores.jf_mean:.4f}\t{scores.j_mean:.4f}\t{scores.j_recall:.4f}"
                 f"\t{scores.f_mean:.4f}\t{scores.f_recall:.4f}")
    return "\n".join(lines) + "\n"
