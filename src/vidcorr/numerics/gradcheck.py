"""Central finite-difference validation of analytic gradients."""

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, backward

DEFAULT_STEP = 1e-3


@dataclass
class GradCheckReport:
    """Per-coordinate analytic vs numeric comparison for one input tensor."""

    analytic: np.ndarray
    numeric: np.ndarray
    max_rel_error: float


def grad_check(f, x, h=DEFAULT_STEP):
    """Compare analytic gradients of scalar-valued ``f`` at ``x`` to
    central differences with step ``h``.

    ``x`` must be float64: the comparison is meaningless in single
    precision. Relative error uses a denominator floored at 1, so it
    degrades to absolute error for near-zero coordinates.
    """
    if x.dtype != np.float64:
        raise ValueError(f"grad_check requires a float64 input, got {x.dtype}")

    probe = Tensor(x.data.copy(), requires_grad=True, name=x.name)
    out = f(probe)
    if out.data.size != 1:
        raise ValueError(f"grad_check target must return a scalar, got shape {out.shape}")
    if not np.isfinite(out.data).all():
        raise ValueError("grad_check: non-finite function value at the base point")
    backward(out)
    analytic = probe.grad.copy() if probe.grad is not None else np.zeros_like(x.data)

    numeric = np.zeros_like(x.data)
    flat = numeric.reshape(-1)
    base = x.data.reshape(-1)
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] = base[i] + h
        hi = f(Tensor(bumped.reshape(x.shape))).data.reshape(())
        bumped[i] = base[i] - h
        lo = f(Tensor(bumped.reshape(x.shape))).data.reshape(())
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError(f"grad_check: non-finite function value at coordinate {i}")
        flat[i] = (hi - lo) / (2.0 * h)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    rel = np.abs(analytic - numeric) / denom
    return GradCheckReport(analytic, numeric, float(rel.max()) if rel.size else 0.0)
