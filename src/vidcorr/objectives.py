"""Training objectives and the teacher-side machinery.

Four losses with equal weights: class-token distillation between paired
global crops, locals-to-globals distillation, masked patch-token
prediction, and affinity-matrix consistency across consecutive frames.
The teacher is an EMA copy of the student; its raw logits are centered
by a running batch mean and sharpened with a lower softmax temperature.
"""

from dataclasses import dataclass

import numpy as np

from vidcorr.numerics import (
    CROSS_ENTROPY_EPS,
    Tensor,
    add,
    clamp_min,
    gather_rows,
    log,
    matmul,
    mul,
    reshape,
    scale,
    softmax_t,
    tensor_sum,
    transpose,
)


@dataclass
class TemperatureConfig:
    """Student/teacher softmax temperatures; the teacher is sharper.

    One pair serves both distribution sharpening and affinity rows."""

    student: float = 0.1
    teacher: float = 0.04

    def __post_init__(self):
        if self.student <= 0 or self.teacher <= 0:
            raise ValueError("temperatures must be positive")
        if self.teacher > self.student:
            raise ValueError(
                f"teacher temperature {self.teacher} must not exceed student {self.student}")


class TeacherState:
    """EMA parameter copy plus the centering vectors.

    Teacher parameters never carry a gradient graph; every update is a
    plain numpy assignment between training steps."""

    def __init__(self, params, momentum, center_momentum, centers=None):
        """centers: the (proj_dim,) center_cls and center_patch Tensors;
        zeros when None."""
        if any(t.requires_grad for _, t in params.named_parameters()):
            raise ValueError("teacher parameters must not track gradients")
        self.params = params
        self.momentum = momentum
        self.center_momentum = center_momentum
        if centers is None:
            centers = [Tensor(np.zeros(params.config.proj_dim, params["cls_token"].dtype),
                              name=name) for name in ("center_cls", "center_patch")]
        self.center_cls, self.center_patch = centers

    @classmethod
    def from_student(cls, student_params, momentum, center_momentum):
        return cls(student_params.clone(), momentum, center_momentum)


def teacher_distribution(logits, center, temperature):
    """Center raw teacher logits and sharpen: softmax_t(z - c, τ), with c
    the caller's center (``TeacherState.center_cls`` for class-token
    logits, ``center_patch`` for patch tokens) and τ the teacher's."""
    if logits.requires_grad:
        raise ValueError("teacher_distribution expects detached logits (stop-gradient teacher)")
    return softmax_t(add(logits, scale(center, -1.0)), temperature=temperature)


def student_distribution(logits, temps):
    """softmax_t at the student temperature; no centering, in-graph."""
    return softmax_t(logits, temperature=temps.student)


def _ce_rowsum(target_rows, prediction_rows):
    """Sum over rows of -<target, log prediction>, log clamped below."""
    if target_rows.shape != prediction_rows.shape:
        raise ValueError(
            f"cross-entropy rows mismatch: {target_rows.shape} vs {prediction_rows.shape}")
    logp = log(clamp_min(prediction_rows, CROSS_ENTROPY_EPS))
    return scale(tensor_sum(mul(target_rows, logp)), -1.0)


def zero_loss(dtype):
    return Tensor(np.zeros((), dtype=dtype))


def loss_out_g2g(teacher_cls, student_cls, pairs):
    """Global-to-global class distillation.

    teacher_cls/student_cls: (L, k) distributions per frame's global
    crop. Each pair (a, b) contributes the two cross terms
    CE(T_a, S_b) + CE(T_b, S_a); the result is averaged over pairs."""
    if teacher_cls.shape != student_cls.shape:
        raise ValueError(
            f"teacher/student shapes differ: {teacher_cls.shape} vs {student_cls.shape}")
    if not pairs:
        raise ValueError("no frame pairs")
    t_idx, s_idx = [], []
    for a, b in pairs:
        t_idx += [a, b]
        s_idx += [b, a]
    total = _ce_rowsum(gather_rows(teacher_cls, np.array(t_idx)),
                       gather_rows(student_cls, np.array(s_idx)))
    return scale(total, 1.0 / len(pairs))


def loss_out_l2g(teacher_cls, student_locals, pairs):
    """Locals-to-globals distillation.

    teacher_cls: (L, k) global-crop distributions; student_locals:
    (L, M, k) local-crop distributions. Per pair, both teacher globals
    meet all 2M locals of the two frames: 4M terms, averaged over
    pairs."""
    if teacher_cls.ndim != 2 or student_locals.ndim != 3:
        raise ValueError(
            f"want (L, k) teacher and (L, M, k) locals, got "
            f"{teacher_cls.shape} and {student_locals.shape}")
    clip_len, m, k = student_locals.shape
    if teacher_cls.shape != (clip_len, k):
        raise ValueError(
            f"teacher shape {teacher_cls.shape} does not match locals {student_locals.shape}")
    if not pairs:
        raise ValueError("no frame pairs")
    flat_locals = reshape(student_locals, (clip_len * m, k))
    t_idx, s_idx = [], []
    for a, b in pairs:
        for t in (a, b):
            for s_frame in (a, b):
                for j in range(m):
                    t_idx.append(t)
                    s_idx.append(s_frame * m + j)
    total = _ce_rowsum(gather_rows(teacher_cls, np.array(t_idx)),
                       gather_rows(flat_locals, np.array(s_idx)))
    return scale(total, 1.0 / len(pairs))


def loss_in_mim(teacher_rows, student_rows, clip_len):
    """Masked patch-token distillation over one clip's masked rows.

    teacher_rows: distributions from the unmasked forward, student_rows:
    from the mask-token forward, both (K, k) with one row per masked
    position; the row-sum cross-entropy is divided by the clip length."""
    return scale(_ce_rowsum(teacher_rows, student_rows), 1.0 / clip_len)


def build_affinity(q_a, q_b, temperature):
    """Row-stochastic K x K transition between two frames: the rowwise
    softmax of the similarity matrix Q_a Q_b^T / τ, as a Tensor.

    Rows of both Q matrices are unit-norm (the caller normalizes), so
    the similarities are cosines."""
    if q_a.ndim != 2 or q_b.ndim != 2 or q_a.shape != q_b.shape:
        raise ValueError(f"Q shapes differ: {q_a.shape} vs {q_b.shape}")
    values = softmax_t(matmul(q_a, transpose(q_b)), temperature=temperature)
    # np.allclose(sums, 1.0, atol=1e-6) without its per-call overhead
    if not (np.abs(values.data.sum(axis=-1) - 1.0) <= 1e-6 + 1e-5).all():
        raise ValueError("affinity rows must sum to 1")
    return values


def loss_in_aff(teacher_affinities, student_affinities):
    """Affinity consistency: mean over the L-1 frame transitions of the
    row-summed cross-entropy between teacher and student matrices, each
    a list of (K, K) Tensors from :func:`build_affinity`."""
    if len(teacher_affinities) != len(student_affinities):
        raise ValueError("teacher/student transition counts differ")
    if not teacher_affinities:
        raise ValueError("no frame transitions")
    total = None
    for t_mat, s_mat in zip(teacher_affinities, student_affinities):
        if t_mat.shape != s_mat.shape:
            raise ValueError(f"affinity shapes differ: {t_mat.shape} vs {s_mat.shape}")
        term = _ce_rowsum(t_mat, s_mat)
        total = term if total is None else add(total, term)
    return scale(total, 1.0 / len(teacher_affinities))


@dataclass
class LossBreakdown:
    """The four terms and their equal-weight sum, kept as graph nodes."""

    out_g2g: Tensor
    out_l2g: Tensor
    in_mim: Tensor
    in_aff: Tensor
    total: Tensor

    def floats(self):
        return (float(self.out_g2g.data), float(self.out_l2g.data),
                float(self.in_mim.data), float(self.in_aff.data),
                float(self.total.data))

    def log_line(self, step, lr, wd, gated):
        """step, four terms, total, lr, wd, gate flag; tab-separated."""
        g2g, l2g, mim, aff, total = self.floats()
        return (f"{step}\t{g2g:.6f}\t{l2g:.6f}\t{mim:.6f}\t{aff:.6f}\t"
                f"{total:.6f}\t{lr:.8f}\t{wd:.6f}\t{int(gated)}")


def total_loss(out_g2g, out_l2g, in_mim, in_aff):
    """Equal-weight sum of the four terms (gated terms arrive as 0)."""
    total = add(add(out_g2g, out_l2g), add(in_mim, in_aff))
    return LossBreakdown(out_g2g, out_l2g, in_mim, in_aff, total)


def ema_update(state, student_params):
    """teacher <- m * teacher + (1 - m) * student with m = state.momentum,
    elementwise, outside any gradient graph; both parameter trees come
    from one ``param_specs`` layout. Mutates and returns the state."""
    m = state.momentum
    for (_, t), (_, s) in zip(state.params.named_parameters(),
                              student_params.named_parameters()):
        t.data = m * t.data + (1.0 - m) * s.data
    return state


def center_update(state, cls_logits, patch_logits):
    """center <- m * center + (1 - m) * batch row mean of the raw teacher
    logits, with m = state.center_momentum; the class center takes the
    class logits and the patch center the patch logits, both Tensors of
    the teacher forward. Mutates and returns the state."""
    m = state.center_momentum
    for name, center, logits in (("cls", state.center_cls, cls_logits),
                                 ("patch", state.center_patch, patch_logits)):
        batch = logits.data.reshape(-1, logits.shape[-1])
        if batch.shape[0] == 0:
            raise ValueError(f"empty {name} batch in center_update")
        mean = batch.mean(axis=0)
        center.data = m * center.data + (1.0 - m) * mean.astype(center.dtype)
    return state
