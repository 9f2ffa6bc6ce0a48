"""AdamW with decoupled decay plus the warmup/cosine schedules.

The base learning rate follows the linear scaling rule
lr = constant * batch * L / 1024, ramps linearly over the warmup epochs
and decays along a half cosine to a small floor. Weight decay runs its
own half cosine from 0.04 up to 0.4 across the whole run, warmup
included.
"""

import math
from dataclasses import dataclass

import numpy as np

# Parameters that skip weight decay: every 1-d tensor (biases, norm
# scales) and the two learned tokens.
DECAY_EXEMPT_NAMES = ("cls_token", "mask_token")


@dataclass
class OptimizerConfig:
    """The run config's opt.* section. The schedules also read run facts,
    which a :class:`Schedule` adds; warmup_epochs < epochs is RunConfig's
    check, because epochs is a run setting."""

    warmup_epochs: int = 1
    lr_scale_constant: float = 0.003
    lr_floor_fraction: float = 1e-6
    wd_start: float = 0.04
    wd_end: float = 0.4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.warmup_epochs < 0:
            raise ValueError(f"warmup_epochs {self.warmup_epochs} must be >= 0")
        bad = [name for name in ("lr_scale_constant", "lr_floor_fraction", "wd_start",
                                 "wd_end", "eps") if not getattr(self, name) > 0]
        if bad:
            raise ValueError(f"rates must be positive: {', '.join(bad)}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError(f"betas ({self.beta1}, {self.beta2}) must lie in [0, 1)")


@dataclass(frozen=True)
class Schedule:
    """What the lr and wd schedules read: the opt.* settings plus the
    run facts known once the training set is indexed (batch size, clip
    length, steps per epoch, epochs). train() builds one per run."""

    opt: OptimizerConfig
    batch_size: int
    clip_len: int
    steps_per_epoch: int
    total_epochs: int

    @property
    def warmup_steps(self):
        return self.opt.warmup_epochs * self.steps_per_epoch

    @property
    def total_steps(self):
        return self.total_epochs * self.steps_per_epoch


def base_lr(schedule):
    """Linear scaling rule: constant * batch * clip length / 1024."""
    return schedule.opt.lr_scale_constant * schedule.batch_size * schedule.clip_len / 1024


def lr_at(step, schedule):
    """Linear ramp 0 -> base over the warmup steps, then a half cosine
    down to lr_floor_fraction * base. Steps past the end clamp."""
    base = base_lr(schedule)
    floor = schedule.opt.lr_floor_fraction * base
    warm, total = schedule.warmup_steps, schedule.total_steps
    if step < 0:
        raise ValueError(f"negative step {step}")
    if step < warm:
        return base * step / warm
    if step >= total:
        return floor
    u = (step - warm) / (total - warm)
    return floor + 0.5 * (base - floor) * (1.0 + math.cos(math.pi * u))


def wd_at(step, schedule):
    """Half cosine wd_start -> wd_end over all steps, no warmup.

    Anchored at wd_start so step 0 returns it exactly; the far end is
    handled by the clamp."""
    if step < 0:
        raise ValueError(f"negative step {step}")
    opt, total = schedule.opt, schedule.total_steps
    if step >= total:
        return opt.wd_end
    u = step / total
    return opt.wd_start + 0.5 * (opt.wd_end - opt.wd_start) * (
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


def decay_exempt(name, tensor):
    return tensor.data.ndim <= 1 or name in DECAY_EXEMPT_NAMES


def adamw_step(params, grads, state, lr, wd, config):
    """One decoupled-decay update over every parameter; always applies.

    grads maps parameter name to an array; a missing or None entry
    counts as a zero gradient (e.g. the mask token on gated-off steps).
    The caller decides whether a step applies: ``harness.train_step``
    skips the update on a non-finite loss or gradient. config: the
    OptimizerConfig, for its betas and eps.
    """
    updates = []
    for name, t in params.named_parameters():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(t.data)
        else:
            g = np.asarray(g)
            if g.shape != t.data.shape:
                raise ValueError(
                    f"gradient for {name} has shape {g.shape}, want {t.data.shape}")
        updates.append((name, t, g))

    b1, b2 = config.beta1, config.beta2
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
