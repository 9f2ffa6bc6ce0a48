"""Separable image resampling kernels.

Both resizers map output pixel centers to source coordinates with the
half-pixel convention ``src = (dst + 0.5) * (in / out) - 0.5`` and clamp
source indices at the borders. The bicubic kernel is Catmull-Rom
(a = -0.5), which reproduces the input exactly on identity resizes; it
is the one used to rescale the learnable position-embedding grid, so it
participates in the autodiff graph. The bilinear resizer is plain numpy
and lives outside the graph; it scales the synthetic textures, and the
crop renderer in :mod:`vidcorr.views` takes its taps the same way.
"""

from functools import lru_cache

import numpy as np

from .tensor import Tensor, _result, as_tensor


def _catmull_rom(t):
    """Kernel weight at distance |t|, a = -0.5."""
    a = -0.5
    t = abs(t)
    if t <= 1.0:
        return (a + 2.0) * t**3 - (a + 3.0) * t**2 + 1.0
    if t < 2.0:
        return a * t**3 - 5.0 * a * t**2 + 8.0 * a * t - 4.0 * a
    return 0.0


@lru_cache(maxsize=None)
def _bicubic_matrix(n_src, n_dst):
    """Dense (n_dst, n_src) row-resampling operator, border-clamped."""
    w = np.zeros((n_dst, n_src), dtype=np.float64)
    ratio = n_src / n_dst
    for i in range(n_dst):
        src = (i + 0.5) * ratio - 0.5
        base = int(np.floor(src))
        for tap in range(-1, 3):
            j = base + tap
            weight = _catmull_rom(src - j)
            w[i, min(max(j, 0), n_src - 1)] += weight
    return w


_einsum_paths = {}


def _einsum(subscripts, *operands):
    """``np.einsum(..., optimize=True)`` with the contraction path
    searched once per (subscripts, shapes, dtype)."""
    key = (subscripts, operands[-1].dtype) + tuple(op.shape for op in operands)
    path = _einsum_paths.get(key)
    if path is None:
        path = _einsum_paths[key] = np.einsum_path(subscripts, *operands, optimize=True)[0]
    return np.einsum(subscripts, *operands, optimize=path)


def bicubic_resize_2d(grid, target):
    """Resize an (H, W, D) grid to (H', W', D) channelwise.

    Linear in the input, so the backward pass is the transposed
    application of the same weight matrices.
    """
    grid = as_tensor(grid)
    if grid.ndim != 3:
        raise ValueError(f"bicubic_resize_2d expects an (H, W, D) grid, got {grid.shape}")
    h, w, _ = grid.shape
    ht, wt = int(target[0]), int(target[1])
    if h < 2 or w < 2:
        raise ValueError(f"bicubic_resize_2d needs source extents >= 2, got {(h, w)}")
    if ht < 1 or wt < 1:
        raise ValueError(f"bicubic_resize_2d: degenerate target {(ht, wt)}")

    wr = _bicubic_matrix(h, ht).astype(grid.dtype.type)
    wc = _bicubic_matrix(w, wt).astype(grid.dtype.type)
    data = _einsum("ih,jw,hwd->ijd", wr, wc, grid.data)

    def vjp(g):
        return (_einsum("ih,jw,ijd->hwd", wr, wc, g),)

    return _result(data, (grid,), vjp)


def bilinear_resize(image, target):
    """Resize an (H, W, C) numpy image to (H', W', C). Not differentiated."""
    image = np.asarray(image)
    h, w = image.shape[:2]
    ht, wt = int(target[0]), int(target[1])
    if ht < 1 or wt < 1:
        raise ValueError(f"bilinear_resize: degenerate target {(ht, wt)}")

    ys = (np.arange(ht) + 0.5) * (h / ht) - 0.5
    xs = (np.arange(wt) + 0.5) * (w / wt) - 0.5
    y0 = np.clip(np.floor(ys).astype(np.intp), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.intp), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0).reshape(-1, 1, 1)
    fx = np.clip(xs - x0, 0.0, 1.0).reshape(1, -1, 1)

    rows0 = image[y0]
    rows1 = image[y1]
    top = rows0[:, x0] * (1.0 - fx) + rows0[:, x1] * fx
    bot = rows1[:, x0] * (1.0 - fx) + rows1[:, x1] * fx
    return (top * (1.0 - fy) + bot * fy).astype(image.dtype, copy=False)
