"""Label propagation inference.

First-frame object labels are carried through a video by restricted
attention: each feature-grid cell gathers cosine similarities to every
context cell within a square radius, keeps the global top_k across all
context frames, softmaxes them at a small temperature, and emits the
weighted combination of the corresponding label vectors.

The per-frame work is one numpy kernel that follows the float64 recipe
in _recipe.md bit for bit: a BLAS product ranks candidates only
approximately, an error bound keeps every candidate that could reach the
top_k, and those few are recomputed and ranked exactly.
"""

import logging
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

_shortage_logged = False

# Most similarity entries one tile's approximate product may hold; tiles
# of whole target rows stay under it, so large grids never build the
# full (h*w) x (n*h*w) matrix.
_TILE_ELEMENTS = 1 << 17


@dataclass
class PropagationConfig:
    """Inference-time knobs.

    top_k: neighbors kept per target cell after similarity ranking
    context_size: how many recent predicted frames join the first frame
    radius: Chebyshev window half-width on the feature grid
    temperature: softmax temperature over the kept similarities
    include_first_frame: the first frame always stays in the context
    """

    top_k: int = 5
    context_size: int = 10
    radius: int = 40
    temperature: float = 0.07
    include_first_frame: bool = True

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")
        if self.context_size < 0:
            raise ValueError(f"context_size must be >= 0, got {self.context_size}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not self.include_first_frame:
            raise ValueError("dropping the first frame from the context is not supported")


@dataclass
class FeatureMap:
    """h*w grid of unit-norm feature vectors for one frame."""

    grid: np.ndarray

    def __post_init__(self):
        self.grid = np.ascontiguousarray(self.grid, dtype=np.float64)
        if self.grid.ndim != 3:
            raise ValueError(f"feature grid must be (h, w, d), got shape {self.grid.shape}")
        norms = np.sqrt((self.grid * self.grid).sum(axis=-1))
        if not np.allclose(norms, 1.0, atol=1e-5):
            worst = float(np.abs(norms - 1.0).max())
            raise ValueError(f"feature vectors must be unit norm (worst deviation {worst:.2e})")


@dataclass
class LabelMap:
    """h*w grid of per-cell class probabilities (background is class 0)."""

    grid: np.ndarray

    def __post_init__(self):
        self.grid = np.ascontiguousarray(self.grid, dtype=np.float64)
        if self.grid.ndim != 3:
            raise ValueError(f"label grid must be (h, w, c), got shape {self.grid.shape}")
        if self.grid.min() < 0.0:
            raise ValueError("label probabilities must be nonnegative")
        sums = self.grid.sum(axis=-1)
        if not np.allclose(sums, 1.0, atol=1e-6):
            worst = float(np.abs(sums - 1.0).max())
            raise ValueError(f"label cells must sum to 1 (worst deviation {worst:.2e})")


def init_labels(mask, grid):
    """Downsample a pixel mask of object ids to a one-hot LabelMap.

    Each grid cell takes the majority id over the pixels it covers,
    ties broken toward the lower id; the label width is the largest id
    plus one. Mask extents must be integer multiples of the grid
    extents.
    """
    mask = np.asarray(mask)
    if mask.size == 0:
        raise ValueError("mask is empty")
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2-d, got shape {mask.shape}")
    if np.issubdtype(mask.dtype, np.floating):
        raise ValueError("mask must hold integer object ids")
    h, w = grid
    mh, mw = mask.shape
    if mh % h != 0 or mw % w != 0:
        raise ValueError(f"mask shape {mask.shape} is not divisible by grid {grid}")
    if mask.min() < 0:
        raise ValueError("object ids must be nonnegative")
    num_classes = int(mask.max()) + 1

    cell_y = np.arange(mh) // (mh // h)
    cell_x = np.arange(mw) // (mw // w)
    counts = np.zeros((h, w, num_classes), dtype=np.int64)
    np.add.at(counts, (cell_y[:, None], cell_x[None, :], mask), 1)
    winner = counts.argmax(axis=-1)
    return LabelMap(np.eye(num_classes, dtype=np.float64)[winner])


def _check_context(target, context):
    if not context:
        raise ValueError("context must contain at least one frame")
    h, w, d = target.grid.shape
    c = context[0][1].grid.shape[2]
    for feats, labels in context:
        if feats.grid.shape != (h, w, d):
            raise ValueError(
                f"context feature grid {feats.grid.shape} does not match target {(h, w, d)}")
        if labels.grid.shape != (h, w, c):
            raise ValueError(
                f"context label grid {labels.grid.shape} does not match {(h, w, c)}")
    return h, w, c


def _rows_per_tile(h, w, frames, radius):
    """Target rows per tile: the most whose approximate product against
    the context rows in their window stays within _TILE_ELEMENTS."""
    rows = 1
    while rows < h and ((rows + 1) * w * frames * min(rows + 1 + 2 * radius, h) * w
                        <= _TILE_ELEMENTS):
        rows += 1
    return rows


def _survivors(target, context, radius, top_k):
    """(target cell, flat context index) pairs that may reach a target's
    top_k, found from BLAS similarities whose summation order differs
    from the recipe.

    Each approximate similarity lies within gamma_d*|t|*|c| of the
    recipe's sequential sum (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1), so every top_k member sits within twice that of the
    k-th largest approximate value. The margin takes gamma for d + 2
    terms, which also covers rounding in the norms, the margin itself and
    the subtraction from the k-th value.

    Each tile's product covers the context rows of its band. Where a
    target's (2r+1)^2 window is at most three quarters of that band (a
    small radius), each target's window entries are gathered into one
    row and only they are ranked (_window_survivors); otherwise the band
    is ranked whole, with out-of-window entries at -inf. Both rank the
    same values with the same filter, so they keep the same pairs."""
    n, h, w, d = context.shape
    flat_target = target.reshape(h * w, d)
    u = 2.0 ** -53
    gamma = (d + 2) * u / (1.0 - (d + 2) * u)
    t_norm = math.sqrt(float(np.einsum("ij,ij->i", flat_target, flat_target).max()))
    flat_context = context.reshape(n * h * w, d)
    c_norm = math.sqrt(float(np.einsum("ij,ij->i", flat_context, flat_context).max()))
    margin = 4.0 * gamma * t_norm * c_norm

    rows = _rows_per_tile(h, w, n, radius)
    side = 2 * radius + 1
    x_near = np.abs(np.arange(w)[:, None] - np.arange(w)[None, :]) <= radius
    cells, sources = [], []
    for y0 in range(0, h, rows):
        y1 = min(y0 + rows, h)
        lo, hi = max(y0 - radius, 0), min(y1 - 1 + radius, h - 1) + 1
        band = (hi - lo) * w
        band_context = context[:, lo:hi].reshape(n, band, d)
        tile_target = flat_target[y0 * w:y1 * w]
        if 4 * side * side <= 3 * band:
            cell, source = _window_survivors(band_context, tile_target, y0, lo, h, w,
                                             radius, top_k, margin)
        else:
            # (context cell in band, target cell in tile), one block per frame
            sims = np.matmul(band_context, tile_target.T)
            y_near = np.abs(np.arange(lo, hi)[:, None] - np.arange(y0, y1)[None, :]) <= radius
            near = (y_near[:, None, :, None] & x_near[None, :, None, :]).reshape(band, -1)
            np.copyto(sims, -np.inf, where=~near)
            sims = sims.reshape(n * band, -1)
            kk = min(top_k, n * band)
            kth = np.partition(sims, n * band - kk, axis=0)[n * band - kk]
            keep = (sims >= kth - margin) & (sims > -np.inf)
            col, cell = np.divmod(np.flatnonzero(keep), len(tile_target))
            source = (col // band) * (h * w) + lo * w + col % band
        cells.append(y0 * w + cell)
        sources.append(source)
    return np.concatenate(cells), np.concatenate(sources)


def _window_survivors(band_context, tile_target, y0, lo, h, w, radius, top_k, margin):
    """_survivors for one tile, ranked over each target's window only:
    (target cell in tile, flat context index) pairs.

    The tile's band product is laid out as in _survivors, each frame's
    block followed by one -inf. Each target's (frame, window slot)
    entries are gathered into one row, slots outside the grid pointing
    at the -inf, so the k-th value and the filter run along rows of
    n*(2r+1)^2 entries rather than columns of the whole band."""
    n, band, _ = band_context.shape
    tile = len(tile_target)
    block = band * tile + 1
    product = np.empty((n, block))
    product[:, -1] = -np.inf
    np.matmul(band_context, tile_target.T, out=product[:, :-1].reshape(n, band, tile))

    side = 2 * radius + 1
    dy, dx = np.divmod(np.arange(side * side), side)
    ty, tx = np.divmod(np.arange(y0 * w, y0 * w + tile), w)
    cy = ty[:, None] + (dy - radius)
    cx = tx[:, None] + (dx - radius)
    grid_cell = cy * w + cx
    inside = (cy >= 0) & (cy < h) & (cx >= 0) & (cx < w)
    at = np.where(inside, (grid_cell - lo * w) * tile + np.arange(tile)[:, None], block - 1)
    slots = product.reshape(-1).take(at[:, None, :] + np.arange(0, n * block, block)[:, None])
    slots = slots.reshape(tile, -1)  # (target, frame * slot)

    count = slots.shape[1]
    kk = min(top_k, count)
    kth = np.partition(slots, count - kk, axis=1)[:, count - kk]
    keep = (slots >= (kth - margin)[:, None]) & (slots > -np.inf)
    cell, slot = np.divmod(np.flatnonzero(keep), count)
    frame, slot = np.divmod(slot, side * side)
    return cell, frame * (h * w) + grid_cell[cell, slot]


def _propagate(target, context, labels, radius, top_k, temperature):
    """(h, w, c) labels for target (h, w, d) from context (n, h, w, d)
    and its labels (n, h, w, c), all float64, bitwise as in _recipe.md."""
    n, h, w, d = context.shape
    c = labels.shape[3]
    cells, sources = _survivors(target, context, radius, top_k)

    # exact similarities, summed over d in index order
    t_rows = np.ascontiguousarray(target.reshape(h * w, d)[cells].T)
    c_rows = np.ascontiguousarray(context.reshape(n * h * w, d)[sources].T)
    sims = np.zeros(len(cells))
    for k in range(d):
        sims = sims + t_rows[k] * c_rows[k]

    frames, grid_cells = np.divmod(sources, h * w)
    order = np.lexsort((grid_cells, -frames, -sims, cells))
    cells, sims, sources = cells[order], sims[order], sources[order]
    counts = np.bincount(cells, minlength=h * w)
    rank = np.arange(len(cells)) - (np.cumsum(counts) - counts)[cells]
    kept = rank < top_k
    cells, rank, sims, sources = cells[kept], rank[kept], sims[kept], sources[kept]

    # rank-order softmax with libm exp, then rank-order label sums
    peak = np.empty(h * w)
    peak[cells[rank == 0]] = sims[rank == 0]
    scaled = (sims - peak[cells]) / temperature
    slots = min(top_k, int(counts.max()))
    exps = np.zeros((h * w, slots))
    exps[cells, rank] = [math.exp(v) for v in scaled.tolist()]
    kept_labels = np.zeros((h * w, slots, c))
    kept_labels[cells, rank] = labels.reshape(n * h * w, c)[sources]
    # empty slots hold 0, which leaves every running sum unchanged
    total = np.zeros(h * w)
    for r in range(slots):
        total = total + exps[:, r]
    acc = np.zeros((h * w, c))
    for r in range(slots):
        acc = acc + (exps[:, r] / total)[:, None] * kept_labels[:, r]
    norm = np.zeros(h * w)
    for k in range(c):
        norm = norm + acc[:, k]
    positive = norm > 0.0
    acc[positive] = acc[positive] / norm[positive, None]
    return acc.reshape(h, w, c)


def propagate_frame(target, context, config):
    """Propagate labels from (FeatureMap, LabelMap) context pairs onto
    one target FeatureMap. Returns the target's LabelMap.

    Context order matters only for similarity ties, which go to the
    latest frame in the list.
    """
    global _shortage_logged
    h, w, _ = _check_context(target, context)
    n = len(context)

    min_window = (min(config.radius, h - 1) + 1) * (min(config.radius, w - 1) + 1)
    if n * min_window < config.top_k and not _shortage_logged:
        log.warning("fewer than top_k=%d candidates available in %d context frame(s); "
                    "using all of them", config.top_k, n)
        _shortage_logged = True

    context_feats = np.stack([feats.grid for feats, _ in context], axis=0)
    context_labels = np.stack([labels.grid for _, labels in context], axis=0)
    out = _propagate(target.grid, context_feats, context_labels,
                     config.radius, config.top_k, config.temperature)
    return LabelMap(out)


def propagate_video(features, first_mask, config):
    """Carry first-frame labels through a whole video.

    features: one (h, w, d) grid of unit-norm features per frame
    first_mask: integer object-id raster for frame 0
    Returns one LabelMap per frame; frame 0 keeps its ground-truth
    one-hot labels. Context for frame t is the first frame plus up to
    context_size most recent predictions, oldest first.
    """
    if len(features) == 0:
        raise ValueError("need at least one frame")
    maps = [FeatureMap(f) for f in features]
    h, w, _ = maps[0].grid.shape
    first_labels = init_labels(first_mask, (h, w))

    outputs = [first_labels]
    recent = deque(maxlen=config.context_size)  # only these ever join a context
    for t in range(1, len(maps)):
        context = [(maps[0], first_labels)] + list(recent)
        predicted = propagate_frame(maps[t], context, config)
        outputs.append(predicted)
        recent.append((maps[t], predicted))
    return outputs


def labels_to_mask(label_map, patch_size):
    """Hard object-id mask at pixel resolution: per-cell argmax (ties
    toward the lower id), then nearest-neighbor upsampling by the patch
    stride."""
    ids = label_map.grid.argmax(axis=-1).astype(np.int32)
    return np.repeat(np.repeat(ids, patch_size, axis=0), patch_size, axis=1)
