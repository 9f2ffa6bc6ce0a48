"""Label propagation inference.

First-frame object labels are carried through a video by restricted
attention: each feature-grid cell gathers cosine similarities to every
context cell within a square radius, keeps the global top_k across all
context frames, softmaxes them at a small temperature, and emits the
weighted combination of the corresponding label vectors.

The per-frame work is one numpy kernel that follows the float64 recipe
in _recipe.md bit for bit: a float32 BLAS product ranks candidates only
approximately, an error bound keeps every candidate that could reach the
top_k, and those few are recomputed and ranked exactly in float64.
"""

import logging
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

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
    """h*w grid of unit-norm feature vectors for one frame; max_norm is
    the largest row norm, which the candidate search's error bound
    reads."""

    grid: np.ndarray

    def __post_init__(self):
        self.grid = np.ascontiguousarray(self.grid, dtype=np.float64)
        if self.grid.ndim != 3:
            raise ValueError(f"feature grid must be (h, w, d), got shape {self.grid.shape}")
        norms = np.sqrt((self.grid * self.grid).sum(axis=-1))
        worst = float(np.abs(norms - 1.0).max(initial=0.0))
        if not worst <= 1e-5 + 1e-5:  # NaN fails too
            raise ValueError(f"feature vectors must be unit norm (worst deviation {worst:.2e})")
        self.max_norm = float(norms.max(initial=0.0))


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
        worst = float(np.abs(self.grid.sum(axis=-1) - 1.0).max(initial=0.0))
        if not worst <= 1e-6 + 1e-5:  # NaN fails too
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


def _rows_per_tile(h, w, frames, radius):
    """Target rows per tile: the most whose approximate product against
    the context rows in their window stays within _TILE_ELEMENTS."""
    rows = 1
    while rows < h and ((rows + 1) * w * frames * min(rows + 1 + 2 * radius, h) * w
                        <= _TILE_ELEMENTS):
        rows += 1
    return rows


# float32's unit roundoff, and its smallest normal: the largest error of
# rounding a float64 to float32 (or of a float32 product) is relative in
# the normal range and absolute below it, whether the value becomes a
# subnormal or is flushed to zero
_U32 = 2.0 ** -24
_ETA32 = 2.0 ** -126


def _gamma(m, u):
    return m * u / (1.0 - m * u)


def _search_margin(d, t_norm, c_norm):
    """How far below a target's k-th largest float32 search value a
    candidate may sit and still reach the recipe's top_k (_recipe.md):
    twice the largest gap between a float32 search value and the
    recipe's float64 sum, for rows of length d and norms at most t_norm
    (targets) and c_norm (candidates)."""
    relative = (2.0 * _U32 + _U32 * _U32 + (1.0 + _U32) ** 2 * _gamma(d + 2, _U32)
                + _gamma(d + 2, 2.0 ** -53))
    absolute = _ETA32 * (2.0 * math.sqrt(d) * (t_norm + c_norm) + 3.0 * d)
    return 2.0 * (relative * t_norm * c_norm + absolute)


def _kept(values, top_k, margin, scratch):
    """Flat indices of the entries of each row of float32 ``values``
    that are at least the row's k-th largest value less ``margin``,
    compared in float64; -inf entries are never kept. ``scratch`` is a
    buffer of values' shape that the ranking overwrites."""
    count = values.shape[1]
    kk = min(top_k, count)
    np.copyto(scratch, values)
    scratch.partition(count - kk, axis=1)
    floor = scratch[:, count - kk].astype(np.float64) - margin
    # the least float32 >= floor, so that a float32 comparison against
    # it is the float64 comparison; at least the least finite float32,
    # so that a row with fewer than k finite values keeps all of them
    bound = floor.astype(np.float32)
    low = bound < floor
    bound[low] = np.nextafter(bound[low], np.float32(np.inf))
    np.maximum(bound, np.finfo(np.float32).min, out=bound)
    return np.flatnonzero(values >= bound[:, None])


def _survivors(target32, context32, radius, top_k, margin):
    """(target cell, flat context index) pairs that may reach a target's
    top_k, found from float32 BLAS similarities (_recipe.md); target32
    is (h*w, d), context32 (n, h, w, d).

    Targets go in tiles of whole rows. A tile's product is target-major,
    one row per target, so each target's k-th value and filter run
    along a contiguous row. Where every target's window covers the grid
    the row is the whole context; where a (2r+1)^2 window is at most
    three quarters of the tile's band, the row is the target's window
    slots alone (_window_survivors); otherwise it is the band, with
    out-of-window entries at -inf. The window layout and the buffers
    are built once per frame and shared by its tiles."""
    n, h, w, d = context32.shape
    rows = _rows_per_tile(h, w, n, radius)
    side = 2 * radius + 1
    band_rows = min(rows + 2 * radius, h)
    whole = radius >= h - 1 and radius >= w - 1
    if not whole and 4 * side * side <= 3 * band_rows * w:
        return _window_survivors(context32, target32, rows, radius, top_k, margin)

    product = np.empty(rows * w * n * band_rows * w, dtype=np.float32)
    scratch = np.empty_like(product)
    if not whole:
        y_far = np.abs(np.arange(h)[:, None] - np.arange(h)[None, :]) > radius
        x_far = np.abs(np.arange(w)[:, None] - np.arange(w)[None, :]) > radius
    cells, sources = [], []
    for y0 in range(0, h, rows):
        y1 = min(y0 + rows, h)
        tile = (y1 - y0) * w
        lo, hi = max(y0 - radius, 0), min(y1 - 1 + radius, h - 1) + 1
        band = (hi - lo) * w
        sims = product[:tile * n * band].reshape(tile, n, band)
        np.matmul(target32[y0 * w:y1 * w], context32[:, lo:hi].reshape(n, band, d)
                  .transpose(0, 2, 1), out=sims.transpose(1, 0, 2))
        if not whole:
            far = (y_far[y0:y1, None, lo:hi, None] | x_far[None, :, None, :]).reshape(tile, 1, band)
            np.copyto(sims, -np.inf, where=far)
        sims = sims.reshape(tile, n * band)
        cell, col = np.divmod(_kept(sims, top_k, margin, scratch[:sims.size].reshape(sims.shape)),
                              n * band)
        frame, slot = np.divmod(col, band)
        cells.append(y0 * w + cell)
        sources.append(frame * (h * w) + lo * w + slot)
    return np.concatenate(cells), np.concatenate(sources)


def _window_survivors(context, target, rows, radius, top_k, margin):
    """_survivors ranked over each target's window slots alone, for
    float32 context (n, h, w, d) and flat targets (h*w, d).

    Every tile's product covers the same 2r + rows band rows, centred
    on the tile, one block per (target, frame) followed by one -inf;
    band rows outside the grid hold -inf. So the gather index from a
    target's (frame, window slot) into its product is the same for
    every tile, and is built once: a slot outside the grid in x points
    at the block's -inf, one outside in y at a -inf row. Each target's
    n*(2r+1)^2 gathered slots form one row."""
    n, h, w, d = context.shape
    side = 2 * radius + 1
    band_rows = rows + 2 * radius
    block = band_rows * w + 1
    tile = rows * w

    dy, dx = np.divmod(np.arange(side * side), side)
    ty, tx = np.divmod(np.arange(tile), w)
    cx = tx[:, None] + (dx - radius)
    rel = np.where((cx >= 0) & (cx < w), (ty[:, None] + dy) * w + cx, block - 1)
    at = (np.arange(tile)[:, None, None] * (n * block) + np.arange(0, n * block, block)[:, None]
          + rel[:, None, :]).reshape(tile, n * side * side)

    product = np.empty((tile, n, block), dtype=np.float32)
    product[:, :, -1] = -np.inf
    slots = np.empty(at.shape, dtype=np.float32)
    scratch = np.empty_like(slots)
    flat = product.reshape(-1)
    cells, sources = [], []
    for y0 in range(0, h, rows):
        y1 = min(y0 + rows, h)
        count = (y1 - y0) * w
        # band rows [a, b) of the tile's band lie inside the grid
        a, b = max(radius - y0, 0), min(h - y0 + radius, band_rows)
        if a or b < band_rows:
            product[:count, :, :a * w] = -np.inf
            product[:count, :, b * w:-1] = -np.inf
        np.matmul(target[y0 * w:y1 * w],
                  context[:, y0 - radius + a:y0 - radius + b].reshape(n, (b - a) * w, d)
                  .transpose(0, 2, 1),
                  out=product[:count, :, a * w:b * w].transpose(1, 0, 2))
        tile_slots = slots[:count]
        np.take(flat, at[:count], out=tile_slots, mode="clip")
        cell, slot = np.divmod(_kept(tile_slots, top_k, margin, scratch[:count]),
                               at.shape[1])
        frame, slot = np.divmod(slot, side * side)
        sy, sx = np.divmod(slot, side)
        cells.append(y0 * w + cell)
        sources.append(frame * (h * w) + (y0 + cell // w + sy - radius) * w
                       + cell % w + sx - radius)
    return np.concatenate(cells), np.concatenate(sources)


def _propagate(target, grids, labels, margin, radius, top_k, temperature):
    """(h, w, c) labels for target (h, w, d) from the context's n
    (h, w, d) feature grids and their labels (n, h, w, c), all float64,
    bitwise as in _recipe.md; margin is the search's _search_margin."""
    n = len(grids)
    h, w, d = target.shape
    c = labels.shape[3]
    context32 = np.empty((n, h, w, d), dtype=np.float32)
    for i, grid in enumerate(grids):
        context32[i] = grid
    cells, sources = _survivors(target.reshape(h * w, d).astype(np.float32), context32,
                                radius, top_k, margin)
    del context32  # the exact step reuses its memory rather than growing the heap

    # exact similarities: the products, then their sum over d in index
    # order, starting from 0.0; survivors in source order, so that each
    # frame's rows are gathered into one slice
    by_source = np.argsort(sources, kind="stable")
    cells, sources = cells[by_source], sources[by_source]
    frames, grid_cells = np.divmod(sources, h * w)
    bounds = np.searchsorted(sources, np.arange(n + 1) * (h * w)).tolist()
    terms = np.empty((len(cells), d))
    for i, grid in enumerate(grids):
        np.take(grid.reshape(h * w, d), grid_cells[bounds[i]:bounds[i + 1]], axis=0,
                out=terms[bounds[i]:bounds[i + 1]], mode="clip")
    terms *= target.reshape(h * w, d)[cells]
    sims = np.zeros(len(cells))
    for k in range(d):
        sims += terms[:, k]

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
    _check_context(target, context)
    context_labels = np.stack([labels.grid for _, labels in context], axis=0)
    margin = _search_margin(target.grid.shape[2], target.max_norm,
                            max(feats.max_norm for feats, _ in context))
    out = _propagate(target.grid, [feats.grid for feats, _ in context], context_labels,
                     margin, config.radius, config.top_k, config.temperature)
    return LabelMap(out)


def propagate_video(features, first_mask, config):
    """Carry first-frame labels through a whole video.

    features: one (h, w, d) grid of unit-norm features per frame
    first_mask: integer object-id raster for frame 0
    Returns one LabelMap per frame; frame 0 keeps its ground-truth
    one-hot labels. Context for frame t is the first frame plus up to
    context_size most recent predictions, oldest first. Logs one warning
    when a target cell has fewer than top_k candidates: frame 1's
    one-frame context at a corner window is the fewest any cell sees.
    """
    if len(features) == 0:
        raise ValueError("need at least one frame")
    maps = [FeatureMap(f) for f in features]
    h, w, _ = maps[0].grid.shape
    first_labels = init_labels(first_mask, (h, w))
    corner_window = (min(config.radius, h - 1) + 1) * (min(config.radius, w - 1) + 1)
    if len(maps) > 1 and corner_window < config.top_k:
        log.warning("frame 1 has cells with fewer than top_k=%d candidates in its "
                    "one-frame context; using all of them", config.top_k)

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
