"""AdamW with decoupled decay plus the warmup/cosine schedules.

The base learning rate follows the linear scaling rule
lr = constant * batch * L / 1024, ramps linearly over the warmup epochs
and decays along a half cosine to a small floor. Weight decay runs its
own half cosine from 0.04 up to 0.4 across the whole run, warmup
included.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

# Parameters that skip weight decay: every 1-d tensor (biases, norm
# scales) and the two learned tokens.
DECAY_EXEMPT_NAMES = ("cls_token", "mask_token")


def check_knobs(knobs, total_epochs, betas):
    """The checks every optimizer setting passes, for an OptimizerConfig
    and for the run config's opt.* section alike: warmup_epochs in
    [0, total_epochs), positive rates and both betas in [0, 1)."""
    if not 0 <= knobs.warmup_epochs < total_epochs:
        raise ValueError(f"warmup_epochs {knobs.warmup_epochs} must lie in "
                         f"[0, epochs {total_epochs})")
    bad = [name for name in ("lr_scale_constant", "lr_floor_fraction", "wd_start",
                             "wd_end", "eps") if not getattr(knobs, name) > 0]
    if bad:
        raise ValueError(f"rates must be positive: {', '.join(bad)}")
    if not all(0 <= b < 1 for b in betas):
        raise ValueError(f"betas {betas} must lie in [0, 1)")


@dataclass
class OptimizerConfig:
    batch_size: int
    clip_len: int
    steps_per_epoch: int
    total_epochs: int = 25
    warmup_epochs: int = 5
    lr_scale_constant: float = 0.003
    lr_floor_fraction: float = 1e-6
    wd_start: float = 0.04
    wd_end: float = 0.4
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8

    def __post_init__(self):
        if min(self.batch_size, self.clip_len, self.steps_per_epoch,
               self.total_epochs) <= 0:
            raise ValueError("batch, clip length, steps and epochs must be positive")
        check_knobs(self, self.total_epochs, self.betas)

    @property
    def warmup_steps(self):
        return self.warmup_epochs * self.steps_per_epoch

    @property
    def total_steps(self):
        return self.total_epochs * self.steps_per_epoch


def base_lr(config):
    """Linear scaling rule: constant * batch * clip length / 1024."""
    return config.lr_scale_constant * config.batch_size * config.clip_len / 1024


def lr_at(step, config):
    """Linear ramp 0 -> base over the warmup steps, then a half cosine
    down to lr_floor_fraction * base. Steps past the end clamp."""
    base = base_lr(config)
    floor = config.lr_floor_fraction * base
    warm, total = config.warmup_steps, config.total_steps
    if step < 0:
        raise ValueError(f"negative step {step}")
    if step < warm:
        return base * step / warm
    if step >= total:
        return floor
    u = (step - warm) / (total - warm)
    return floor + 0.5 * (base - floor) * (1.0 + math.cos(math.pi * u))


def wd_at(step, config):
    """Half cosine wd_start -> wd_end over all steps, no warmup.

    Anchored at wd_start so step 0 returns it exactly; the far end is
    handled by the clamp."""
    if step < 0:
        raise ValueError(f"negative step {step}")
    total = config.total_steps
    if step >= total:
        return config.wd_end
    u = step / total
    return config.wd_start + 0.5 * (config.wd_end - config.wd_start) * (
        1.0 - math.cos(math.pi * u))


class OptState:
    """First/second moment buffers per parameter plus the step count."""

    def __init__(self, moments1, moments2, step=0):
        self.m = moments1
        self.v = moments2
        self.step = step

    @classmethod
    def init(cls, params):
        def zeros():
            return {n: np.zeros_like(t.data) for n, t in params.named_parameters()}
        return cls(zeros(), zeros(), step=0)

    def to_named_list(self):
        """Flat (name, array) view for the checkpoint writer; the step
        counter rides along as a float64 scalar (exact below 2**53)."""
        items = [("step", np.array([self.step], dtype=np.float64))]
        for name in self.m:
            items.append((f"m/{name}", self.m[name]))
        for name in self.v:
            items.append((f"v/{name}", self.v[name]))
        return items

    @classmethod
    def from_named_list(cls, items):
        m, v, step = {}, {}, 0
        for name, arr in items:
            if name == "step":
                step = int(arr[0])
            elif name.startswith("m/"):
                m[name[2:]] = arr
            elif name.startswith("v/"):
                v[name[2:]] = arr
            else:
                raise ValueError(f"unexpected optimizer record {name!r}")
        if m.keys() != v.keys():
            raise ValueError("moment buffers do not pair up")
        return cls(m, v, step)


def decay_exempt(name, tensor):
    return tensor.data.ndim <= 1 or name in DECAY_EXEMPT_NAMES


def adamw_step(params, grads, state, lr, wd, config):
    """One decoupled-decay update over every parameter.

    grads maps parameter name to an array; a missing or None entry
    counts as a zero gradient (e.g. the mask token on gated-off steps).
    Any non-finite gradient skips the whole step, leaving params and
    state untouched. Returns True when the step applied.
    """
    named = params.named_parameters()
    updates = []
    for name, t in named:
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(t.data)
        else:
            g = np.asarray(g)
            if g.shape != t.data.shape:
                raise ValueError(
                    f"gradient for {name} has shape {g.shape}, want {t.data.shape}")
            if not np.isfinite(g).all():
                log.warning("non-finite gradient in %s; step %d skipped",
                            name, state.step)
                return False
        updates.append((name, t, g))

    b1, b2 = config.betas
    state.step += 1
    t_count = state.step
    c1 = 1.0 - b1 ** t_count
    c2 = 1.0 - b2 ** t_count
    for name, t, g in updates:
        m = state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        v = state.v[name] = b2 * state.v[name] + (1.0 - b2) * (g * g)
        update = (m / c1) / (np.sqrt(v / c2) + config.eps)
        if wd and not decay_exempt(name, t):
            update = update + wd * t.data
        t.data = t.data - lr * update
    return True
