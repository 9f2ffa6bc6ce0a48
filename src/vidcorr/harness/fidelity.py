"""Finite-difference fidelity of the four losses on a micro setup.

Gradients flow through the real student chain (tempered softmax,
normalized masked rows, affinity softmax) with the teacher side held
fixed, in 64-bit. The micro shapes (two frames, two locals per frame,
a 2x2 token grid, 16-way distributions, K = 2 masked tokens) keep the
central-difference sweep under a second per loss.
"""

import numpy as np

from vidcorr.harness import clip_affinity_loss
from vidcorr.numerics import Tensor, gather_rows, grad_check, narrow, reshape
from vidcorr.objectives import (
    TemperatureConfig,
    loss_in_mim,
    loss_out_g2g,
    loss_out_l2g,
    student_distribution,
    total_loss,
)
from vidcorr.views import make_frame_pairs

CLIP_LEN = 2
LOCALS = 2
TOKENS = 4  # 2x2 grid
WIDTH = 16
# K = 2 masked tokens per frame, one row per frame
MASKS = np.array([[1, 0, 0, 1], [0, 1, 1, 0]], dtype=bool)


def _teacher_rows(g, shape):
    logits = g.normal(size=shape)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def loss_fidelity_report(seed=0, h=1e-3):
    """[(loss name, max relative error)] for the four losses and the
    equal-weight total, each checked against central differences."""
    g = np.random.default_rng(seed)
    temps = TemperatureConfig()
    pairs = make_frame_pairs(CLIP_LEN)

    td_cls = Tensor(_teacher_rows(g, (CLIP_LEN, WIDTH)))
    td_patch = _teacher_rows(g, (CLIP_LEN, TOKENS, WIDTH))
    t_patch_raw = g.normal(size=(CLIP_LEN, TOKENS, WIDTH))
    # masked rows frame by frame, as step_losses gathers them
    crop_idx, patch_idx = np.nonzero(MASKS)
    rows = crop_idx * TOKENS + patch_idx
    counts = MASKS.sum(axis=1).tolist()
    td_rows = Tensor(td_patch.reshape(CLIP_LEN * TOKENS, WIDTH)[rows])
    t_rows = t_patch_raw.reshape(CLIP_LEN * TOKENS, WIDTH)[rows]

    cls_n = CLIP_LEN * WIDTH
    loc_n = CLIP_LEN * LOCALS * WIDTH
    patch_n = CLIP_LEN * TOKENS * WIDTH

    def g2g_of(z):
        return loss_out_g2g(td_cls, student_distribution(
            reshape(z, (CLIP_LEN, WIDTH)), temps), pairs)

    def l2g_of(z):
        return loss_out_l2g(td_cls, student_distribution(
            reshape(z, (CLIP_LEN, LOCALS, WIDTH)), temps), pairs)

    def mim_of(z):
        s_rows = gather_rows(reshape(z, (CLIP_LEN * TOKENS, WIDTH)), rows)
        return loss_in_mim(td_rows, student_distribution(s_rows, temps), CLIP_LEN)

    def aff_of(z):
        s_rows = gather_rows(reshape(z, (CLIP_LEN * TOKENS, WIDTH)), rows)
        return clip_affinity_loss(t_rows, s_rows, counts, temps)

    def total_of(z):
        z_cls = narrow(z, 0, 0, cls_n)
        z_loc = narrow(z, 0, cls_n, loc_n)
        z_patch = narrow(z, 0, cls_n + loc_n, patch_n)
        return total_loss(g2g_of(z_cls), l2g_of(z_loc), mim_of(z_patch),
                          aff_of(z_patch)).total

    z_cls0 = g.normal(size=cls_n)
    z_loc0 = g.normal(size=loc_n)
    z_patch0 = g.normal(size=patch_n)
    z_all0 = np.concatenate([z_cls0, z_loc0, z_patch0])

    checks = [
        ("loss_out_g2g", g2g_of, z_cls0),
        ("loss_out_l2g", l2g_of, z_loc0),
        ("loss_in_mim", mim_of, z_patch0),
        ("loss_in_aff", aff_of, z_patch0),
        ("total_loss", total_of, z_all0),
    ]
    out = []
    for name, fn, z0 in checks:
        probe = Tensor(z0.copy(), name=name)
        out.append((name, grad_check(fn, probe, h=h).max_rel_error))
    return out
