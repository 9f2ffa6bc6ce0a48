"""Label propagation inference.

First-frame object labels are carried through a video by restricted
attention: each feature-grid cell gathers cosine similarities to every
context cell within a square radius, keeps the global top_k across all
context frames, softmaxes them at a small temperature, and emits the
weighted combination of the corresponding label vectors.

Two interchangeable kernels do the per-frame work: a compiled extension
(preferred) and a pure-Python fallback, selected at import time. They
are bitwise identical at float64 by construction (see _recipe.md), so
the choice only affects speed.
"""

import logging
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from vidcorr.propagation._kernel_py import propagate_frame_py

try:
    from vidcorr.propagation._kernel import propagate_frame_c
    _DEFAULT_BACKEND = "compiled"
except ImportError:  # extension not built; stay on the slow path
    propagate_frame_c = None
    _DEFAULT_BACKEND = "python"

log = logging.getLogger(__name__)

_shortage_logged = False


def active_backend():
    """Name of the kernel selected at import: 'compiled' or 'python'."""
    return _DEFAULT_BACKEND


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
    frame_index: int = 0

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

    @property
    def num_classes(self):
        return self.grid.shape[2]


def init_labels(mask, grid, num_classes=None):
    """Downsample a pixel mask of object ids to a one-hot LabelMap.

    Each grid cell takes the majority id over the pixels it covers,
    ties broken toward the lower id. Mask extents must be integer
    multiples of the grid extents.
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
    if num_classes is None:
        num_classes = int(mask.max()) + 1
    elif mask.max() >= num_classes:
        raise ValueError(f"mask id {int(mask.max())} outside {num_classes} classes")

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


def propagate_frame(target, context, config, backend=None):
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

    context_feats = np.ascontiguousarray(
        np.stack([feats.grid for feats, _ in context], axis=0))
    context_labels = np.ascontiguousarray(
        np.stack([labels.grid for _, labels in context], axis=0))

    if backend is None:
        backend = _DEFAULT_BACKEND
    if backend == "compiled":
        if propagate_frame_c is None:
            raise RuntimeError("compiled propagation kernel is not available")
        kernel = propagate_frame_c
    elif backend == "python":
        kernel = propagate_frame_py
    else:
        raise ValueError(f"unknown backend {backend!r}")

    out = kernel(target.grid, context_feats, context_labels,
                 config.radius, config.top_k, config.temperature)
    return LabelMap(out)


def propagate_video(features, first_mask, config, backend=None):
    """Carry first-frame labels through a whole video.

    features: one FeatureMap (or raw (h, w, d) grid) per frame
    first_mask: integer object-id raster for frame 0
    Returns one LabelMap per frame; frame 0 keeps its ground-truth
    one-hot labels. Context for frame t is the first frame plus up to
    context_size most recent predictions, oldest first.
    """
    if len(features) == 0:
        raise ValueError("need at least one frame")
    maps = [f if isinstance(f, FeatureMap) else FeatureMap(np.asarray(f), i)
            for i, f in enumerate(features)]
    h, w, _ = maps[0].grid.shape
    first_labels = init_labels(first_mask, (h, w))

    outputs = [first_labels]
    recent = deque(maxlen=config.context_size)  # only these ever join a context
    for t in range(1, len(maps)):
        context = [(maps[0], first_labels)] + list(recent)
        predicted = propagate_frame(maps[t], context, config, backend=backend)
        outputs.append(predicted)
        recent.append((maps[t], predicted))
    return outputs


def labels_to_mask(label_map, patch_size):
    """Hard object-id mask at pixel resolution: per-cell argmax (ties
    toward the lower id), then nearest-neighbor upsampling by the patch
    stride."""
    ids = label_map.grid.argmax(axis=-1).astype(np.int32)
    return np.repeat(np.repeat(ids, patch_size, axis=0), patch_size, axis=1)
