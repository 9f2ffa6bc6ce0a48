"""Tests for the ViT encoder: embedding, masking, attention, head."""

import math

import numpy as np
import pytest
from scipy.special import erf

from vidcorr.encoder import (
    EncoderParams,
    ModelConfig,
    TokenSequence,
    apply_mask_tokens,
    extract_inference_features,
    forward_batch,
    patch_pos_embed,
    patchify_batch,
    token_rows,
)
from vidcorr.numerics import (
    Rng,
    Tensor,
    add,
    backward,
    concat,
    gather_rows,
    grad_check,
    mul,
    reshape,
    tensor_sum,
)
from vidcorr.harness import _write_checkpoint, load_checkpoint

MICRO = dict(patch_size=2, embed_dim=8, depth=1, heads=1, mlp_ratio=2,
             proj_layers=1, proj_dim=8, proj_hidden=16, pe_base_resolution=2,
             inference_layer=1)


def micro_setup(seed=0, **overrides):
    config = ModelConfig(**{**MICRO, **overrides})
    params = EncoderParams.init(config, Rng(seed), dtype=np.float64)
    image = Rng(seed + 100).uniform(size=(4, 4, 3))
    return config, params, image


class TestModelConfig:
    """Dimension bookkeeping."""

    def test_token_grid_counts(self):
        cfg = ModelConfig()
        assert cfg.token_grid(64, 64) == (8, 8)
        assert cfg.token_grid(32, 32) == (4, 4)
        # full-scale crop: 784 patch tokens
        assert cfg.token_grid(224, 224) == (28, 28)

    def test_indivisible_crop_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig().token_grid(60, 64)

    def test_head_must_divide_embed(self):
        with pytest.raises(ValueError):
            ModelConfig(embed_dim=64, heads=5)

    def test_inference_layer_bounds(self):
        with pytest.raises(ValueError):
            ModelConfig(depth=6, inference_layer=7)
        with pytest.raises(ValueError):
            ModelConfig(depth=6, inference_layer=0)
        with pytest.raises(ValueError):
            ModelConfig(depth=0, inference_layer=0)

    @pytest.mark.parametrize("name, value", [
        ("patch_size", 0), ("embed_dim", 0), ("heads", 0), ("mlp_ratio", 0),
        ("proj_layers", 0), ("proj_dim", 0), ("proj_hidden", -1),
        ("pe_base_resolution", 1)])
    def test_sizes_out_of_range_rejected(self, name, value):
        """A ValueError naming the key, not a ZeroDivisionError here or a
        numpy error in the first forward."""
        with pytest.raises(ValueError, match=name):
            ModelConfig(**{name: value})

    def test_hidden_defaults_to_four_k(self):
        assert ModelConfig(proj_dim=256).proj_hidden == 1024
        assert ModelConfig(proj_hidden=32).proj_hidden == 32


class TestParams:
    """Initialization, cloning, serialization."""

    def test_student_tracks_teacher_does_not(self):
        config, params, _ = micro_setup()
        assert all(t.requires_grad for _, t in params.named_parameters())
        teacher = params.clone()
        assert not any(t.requires_grad for _, t in teacher.named_parameters())
        assert all(np.array_equal(a.data, b.data) for (_, a), (_, b)
                   in zip(params.named_parameters(), teacher.named_parameters()))

    def test_init_is_order_independent(self):
        """Per-name substreams pin each tensor's values."""
        config = ModelConfig(**MICRO)
        a = EncoderParams.init(config, Rng(5))
        b = EncoderParams.init(config, Rng(5))
        for (_, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(ta.data, tb.data)

    def test_named_list_round_trip(self, tmp_path):
        """Parameters survive the checkpoint's record encoding, and a
        parameter set builds by name from the decoded arrays, whatever
        their order."""
        config, params, _ = micro_setup()
        path = tmp_path / "params.ckpt"
        with open(path, "wb") as fh:
            _write_checkpoint(fh, [(n, t.data) for n, t in params.named_parameters()], 0, "")
        ckpt = load_checkpoint(path)
        back = EncoderParams(config, {n: Tensor(ckpt.arrays[n], name=n)
                                      for n, _ in reversed(ckpt.index)})
        names = [n for n, _ in back.named_parameters()]
        assert names == [n for n, _ in params.named_parameters()]
        assert all(np.array_equal(a.data, b.data) for (_, a), (_, b)
                   in zip(params.named_parameters(), back.named_parameters()))

    def test_missing_parameter_rejected(self):
        config, params, _ = micro_setup()
        tensors = dict(params.named_parameters())
        del tensors["head/out_bias"]
        with pytest.raises(ValueError, match="^head/out_bias is missing$"):
            EncoderParams(config, tensors)

    def test_misshaped_parameter_rejected(self):
        config, params, _ = micro_setup()
        tensors = {**dict(params.named_parameters()), "cls_token": Tensor(np.zeros(3))}
        with pytest.raises(ValueError, match=r"^cls_token has shape \(3,\), want \(8,\)$"):
            EncoderParams(config, tensors)


class TestPatchify:
    """Patch embedding and position handling."""

    def test_token_counts(self):
        config = ModelConfig(proj_dim=16, proj_hidden=16)
        params = EncoderParams.init(config, Rng(1))
        seq = patchify_batch(np.zeros((1, 64, 64, 3), dtype=np.float32), params, config)
        assert seq.tokens.shape == (1, 65, 64)
        seq = patchify_batch(np.zeros((1, 32, 32, 3), dtype=np.float32), params, config)
        assert seq.tokens.shape == (1, 17, 64)
        assert seq.grid == (4, 4)

    def test_pe_resize_at_base_is_identity(self):
        config, params, _ = micro_setup()
        pe = patch_pos_embed(params, config, (2, 2))
        stored = params["pos_embed/grid"].data.reshape(4, config.embed_dim)
        assert np.allclose(pe.data, stored, atol=1e-5)

    def test_patch_rows_follow_projection(self):
        """First patch token = flattened top-left patch through the linear map."""
        config, params, image = micro_setup()
        seq = patchify_batch(image[None], params, config)
        patch = image[:2, :2, :].reshape(-1)
        expected = patch @ params["patch_proj/weight"].data + params["patch_proj/bias"].data
        expected = expected + patch_pos_embed(params, config, (2, 2)).data[0]
        assert np.allclose(seq.tokens.data[0, 1], expected, atol=1e-12)

    def test_cls_row_is_token_plus_its_pe(self):
        config, params, image = micro_setup()
        seq = patchify_batch(image[None], params, config)
        expected = params["cls_token"].data + params["pos_embed/cls"].data
        assert np.allclose(seq.tokens.data[0, 0], expected, atol=1e-12)

    def test_batch_matches_single(self):
        config, params, image = micro_setup()
        other = Rng(7).uniform(size=(4, 4, 3))
        batched = patchify_batch([image, other], params, config)
        assert batched.tokens.shape[0] == 2
        single = patchify_batch(other[None], params, config)
        assert np.allclose(batched.tokens.data[1], single.tokens.data[0], atol=1e-12)


class TestMasking:
    """Mask-token substitution."""

    def test_zero_mask_is_identity(self):
        config, params, image = micro_setup()
        seq = patchify_batch(image[None], params, config)
        out = apply_mask_tokens(seq, np.zeros((1, 4), dtype=np.int64), params)
        assert np.array_equal(out.tokens.data, seq.tokens.data)

    def test_full_mask_saturates(self):
        config, params, image = micro_setup()
        seq = patchify_batch(image[None], params, config)
        out = apply_mask_tokens(seq, np.ones((1, 4), dtype=np.int64), params)
        pe = patch_pos_embed(params, config, (2, 2)).data
        expected = params["mask_token"].data + pe
        assert np.allclose(out.tokens.data[0, 1:], expected, atol=1e-12)
        assert np.array_equal(out.tokens.data[0, 0], seq.tokens.data[0, 0])

    def test_partial_mask_touches_exact_positions(self):
        """K of P masked -> exactly K patch rows differ."""
        config = ModelConfig(patch_size=2, embed_dim=8, depth=1, heads=2,
                             proj_layers=1, proj_dim=8, proj_hidden=16,
                             pe_base_resolution=2, inference_layer=1)
        params = EncoderParams.init(config, Rng(3), dtype=np.float64)
        image = Rng(4).uniform(size=(8, 8, 3))  # 16 patches
        seq = patchify_batch(image[None], params, config)
        mask = np.zeros(16, dtype=np.int64)
        mask[[1, 5, 6, 12]] = 1
        out = apply_mask_tokens(seq, mask[None], params)
        differs = [not np.array_equal(out.tokens.data[0, 1 + j], seq.tokens.data[0, 1 + j])
                   for j in range(16)]
        assert differs == mask.astype(bool).tolist()

    def test_length_mismatch_rejected(self):
        config, params, image = micro_setup()
        seq = patchify_batch(image[None], params, config)
        with pytest.raises(ValueError):
            apply_mask_tokens(seq, np.zeros((1, 5), dtype=np.int64), params)


def ln(x, gamma, beta, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def gelu_np(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def oracle_tokens(image, params, config, depth):
    """Independent single-head run of the first ``depth`` blocks, plain
    numpy, step by step; (1 + P, D) tokens, class token first."""
    p = params
    ps = config.patch_size
    d = config.embed_dim
    h_tok, w_tok = image.shape[0] // ps, image.shape[1] // ps
    rows = []
    for gy in range(h_tok):
        for gx in range(w_tok):
            patch = image[gy * ps:(gy + 1) * ps, gx * ps:(gx + 1) * ps, :].reshape(-1)
            rows.append(patch @ p["patch_proj/weight"].data + p["patch_proj/bias"].data)
    tokens = np.stack(rows) + p["pos_embed/grid"].data.reshape(-1, d)
    cls = p["cls_token"].data + p["pos_embed/cls"].data
    x = np.concatenate([cls[None], tokens], axis=0)

    for i in range(depth):
        y = ln(x, p[f"block{i}/norm1/gamma"].data, p[f"block{i}/norm1/beta"].data)
        qkv = y @ p[f"block{i}/attn/qkv_weight"].data + p[f"block{i}/attn/qkv_bias"].data
        q, k, v = qkv[:, :d], qkv[:, d:2 * d], qkv[:, 2 * d:]
        scores = q @ k.T / math.sqrt(d)
        scores = scores - scores.max(-1, keepdims=True)
        attn = np.exp(scores)
        attn = attn / attn.sum(-1, keepdims=True)
        x = x + (attn @ v) @ p[f"block{i}/attn/out_weight"].data + p[f"block{i}/attn/out_bias"].data
        y = ln(x, p[f"block{i}/norm2/gamma"].data, p[f"block{i}/norm2/beta"].data)
        hdn = gelu_np(y @ p[f"block{i}/mlp/fc1_weight"].data + p[f"block{i}/mlp/fc1_bias"].data)
        x = x + hdn @ p[f"block{i}/mlp/fc2_weight"].data + p[f"block{i}/mlp/fc2_bias"].data
    return x


def oracle_forward(image, params, config):
    """Independent single-head forward: the blocks, the final norm and
    the head; (class logits, patch logits)."""
    p = params
    x = oracle_tokens(image, params, config, config.depth)
    x = ln(x, p["final_norm/gamma"].data, p["final_norm/beta"].data)
    for l in range(config.proj_layers):
        x = gelu_np(x @ p[f"head/fc{l}_weight"].data + p[f"head/fc{l}_bias"].data)
    x = x @ p["head/out_weight"].data + p["head/out_bias"].data
    return x[0], x[1:]


class TestForward:
    """Transformer stack against the naive oracle."""

    def test_micro_forward_matches_oracle(self):
        """P=4, D=8, depth=1, k=8, single head."""
        config, params, image = micro_setup()
        cls_logits, patch_logits = forward_batch(patchify_batch(image[None], params, config),
                                                 params, config)
        ref_cls, ref_patch = oracle_forward(image, params, config)
        assert np.allclose(cls_logits.data[0], ref_cls, atol=1e-5)
        assert np.allclose(patch_logits.data[0], ref_patch, atol=1e-5)

    def test_two_block_oracle(self):
        config, params, image = micro_setup(depth=2, inference_layer=2, seed=8)
        cls_logits, patch_logits = forward_batch(patchify_batch(image[None], params, config),
                                                 params, config)
        ref_cls, ref_patch = oracle_forward(image, params, config)
        assert np.allclose(cls_logits.data[0], ref_cls, atol=1e-5)
        assert np.allclose(patch_logits.data[0], ref_patch, atol=1e-5)

    def test_permutation_equivariance(self):
        """Swapping patch tokens (with their PEs) permutes patch logits
        and leaves class logits unchanged."""
        config, params, image = micro_setup(seed=5)
        seq = patchify_batch(image[None], params, config)
        perm = [0, 4, 2, 3, 1]  # token rows, cls fixed; patches 0 and 3 swapped
        permuted = TokenSequence(Tensor(seq.tokens.data[:, perm, :].copy()), seq.grid)
        cls_a, patch_a = forward_batch(seq, params, config)
        cls_b, patch_b = forward_batch(permuted, params, config)
        assert np.allclose(cls_a.data, cls_b.data, atol=1e-10)
        assert np.allclose(patch_a.data[:, [3, 1, 2, 0]], patch_b.data, atol=1e-10)

    def test_batched_forward_matches_per_crop(self):
        config, params, _ = micro_setup(seed=9)
        images = [Rng(i).uniform(size=(4, 4, 3)) for i in range(3)]
        cls_b, patch_b = forward_batch(patchify_batch(images, params, config), params, config)
        for i, img in enumerate(images):
            cls_s, patch_s = forward_batch(patchify_batch(img[None], params, config), params, config)
            assert np.allclose(cls_b.data[i], cls_s.data[0], atol=1e-10)
            assert np.allclose(patch_b.data[i], patch_s.data[0], atol=1e-10)

    def test_head_on_selected_rows_matches_all_rows(self):
        """rows runs the head on chosen tokens only; they equal the same
        tokens of the all-rows forward, and gradients reach the chosen
        rows alone."""
        config, params, _ = micro_setup(seed=9)
        images = [Rng(i).uniform(size=(4, 4, 3)) for i in range(3)]
        seq = patchify_batch(images, params, config)
        cls_all, patch_all = forward_batch(seq, params, config)
        crops, positions = np.array([2, 0, 1, 2]), np.array([0, 3, 0, 4])
        rows = token_rows(seq, crops, positions)
        assert rows.tolist() == [10, 3, 5, 14]
        picked = forward_batch(seq, params, config, rows=rows)
        assert picked.shape == (4, config.proj_dim)
        full = np.concatenate([cls_all.data[:, None], patch_all.data], axis=1)
        np.testing.assert_allclose(picked.data, full[crops, positions], rtol=1e-12, atol=1e-14)

        tokens = Tensor(seq.tokens.data.copy(), requires_grad=True)
        picked = forward_batch(TokenSequence(tokens, seq.grid), params, config,
                               rows=token_rows(seq, [1], [2]))
        backward(tensor_sum(picked))
        # depth 1: attention mixes every token of crop 1 into the picked row
        touched = np.abs(tokens.grad).sum(axis=-1) > 0
        assert touched[1].all() and not touched[[0, 2]].any()

    @pytest.mark.parametrize("depth", [1, 2])
    def test_last_block_on_selected_rows_matches_full_forward(self, depth):
        """rows= runs the last block's per-token work on the wanted rows
        only; values, the token gradient and every parameter gradient
        equal those of the same rows gathered from the full forward.
        Rows come out of crop order, with a different count per crop,
        duplicates, and class and patch positions mixed."""
        config, params, _ = micro_setup(seed=4, depth=depth, heads=2,
                                        inference_layer=depth)
        images = [Rng(20 + i).uniform(size=(4, 4, 3)) for i in range(3)]
        seq = patchify_batch(images, params, config)
        rows = token_rows(seq, [2, 0, 2, 1, 2, 0, 2, 2],
                          [3, 0, 0, 4, 3, 2, 1, 4])
        weights = Tensor(np.random.default_rng(1).normal(size=(len(rows), config.proj_dim)))

        def run(pruned):
            for _, t in params.named_parameters():
                t.zero_grad()
            tokens = Tensor(seq.tokens.data.copy(), requires_grad=True)
            sub = TokenSequence(tokens, seq.grid)
            if pruned:
                picked = forward_batch(sub, params, config, rows=rows)
            else:
                cls_logits, patch_logits = forward_batch(sub, params, config)
                every = concat([reshape(cls_logits, (3, 1, config.proj_dim)), patch_logits],
                               axis=1)
                picked = gather_rows(reshape(every, (-1, config.proj_dim)), rows)
            backward(tensor_sum(mul(picked, weights)))
            grads = {name: t.grad for name, t in params.named_parameters()
                     if t.grad is not None}
            return picked.data, tokens.grad, grads

        def rel(got, want):
            return np.abs(got - want).max() / np.abs(want).max()

        value, token_grad, grads = run(pruned=True)
        ref_value, ref_token_grad, ref_grads = run(pruned=False)
        assert value.shape == (len(rows), config.proj_dim)
        assert rel(value, ref_value) <= 1e-12
        assert rel(token_grad, ref_token_grad) <= 1e-12
        # the embedding parameters sit before the tokens and get no grad
        assert set(grads) == set(ref_grads) == {
            name for name, _ in params.named_parameters()
            if name.startswith(("block", "final_norm", "head"))}
        for name, grad in grads.items():
            assert rel(grad, ref_grads[name]) <= 1e-12, name

    def test_selected_rows_gradients_match_finite_differences(self):
        """Through rows= at depth 2, with masking, uneven per-crop counts
        and a duplicate row; a parameter per family of both blocks."""
        config, params, _ = micro_setup(seed=12, depth=2, inference_layer=2)
        images = np.stack([Rng(30 + i).uniform(size=(4, 4, 3)) for i in range(2)])
        w_rows = Tensor(np.random.default_rng(2).normal(size=(5, 8)))

        def loss_with(name, tensor):
            trial = EncoderParams(config, {**dict(params.named_parameters()), name: tensor})
            seq = apply_mask_tokens(patchify_batch(images, trial, config),
                                    np.array([[0, 1, 0, 1], [1, 0, 0, 0]]), trial)
            rows = token_rows(seq, [1, 0, 0, 1, 0], [1, 2, 4, 0, 2])
            return tensor_sum(mul(forward_batch(seq, trial, config, rows=rows), w_rows))

        for name in ["patch_proj/weight", "mask_token", "pos_embed/grid",
                     "block0/attn/qkv_weight", "block0/mlp/fc2_weight",
                     "block1/norm1/gamma", "block1/attn/qkv_weight",
                     "block1/attn/out_weight", "block1/norm2/beta",
                     "block1/mlp/fc1_weight", "final_norm/gamma", "head/fc0_weight"]:
            base = params[name]
            probe = Tensor(base.data.copy(), requires_grad=True, name=name)
            report = grad_check(lambda t: loss_with(name, t), probe, h=5e-5)
            assert report.max_rel_error < 1e-4, f"{name}: {report.max_rel_error:.3e}"

    def test_nonfinite_names_block(self):
        config, params, image = micro_setup()
        params["block0/attn/qkv_bias"].data[0] = np.inf
        with pytest.raises(ValueError, match="block0"):
            forward_batch(patchify_batch(image[None], params, config), params, config)

    def test_nonfinite_after_mlp_names_block(self):
        config, params, image = micro_setup(depth=2, inference_layer=2)
        params["block1/mlp/fc2_bias"].data[0] = np.nan
        with pytest.raises(ValueError, match="block 1"):
            forward_batch(patchify_batch(image[None], params, config), params, config)

    def test_gradients_match_finite_differences(self):
        """Full forward, micro config, 64-bit, a parameter per family."""
        config, params, image = micro_setup(seed=11)
        rng = np.random.default_rng(0)
        w_cls = Tensor(rng.normal(size=(8,)))
        w_patch = Tensor(rng.normal(size=(4, 8)))

        def loss_with(name, tensor):
            trial = EncoderParams(config, {**dict(params.named_parameters()), name: tensor})
            seq = patchify_batch(image[None], trial, config)
            seq = apply_mask_tokens(seq, np.array([[0, 1, 0, 0]]), trial)
            cls_logits, patch_logits = forward_batch(seq, trial, config)
            return add(tensor_sum(mul(cls_logits, w_cls)),
                       tensor_sum(mul(patch_logits, w_patch)))

        # The fan-in-scaled head weights add curvature, so the default step
        # leaves visible O(h^2) truncation (error drops fourfold per halving);
        # 5e-5 pushes it to ~4e-6 with roundoff still well below that.
        for name in ["patch_proj/weight", "cls_token", "mask_token", "pos_embed/grid",
                     "pos_embed/cls", "block0/attn/qkv_weight", "block0/attn/out_bias",
                     "block0/mlp/fc1_weight", "block0/norm1/gamma", "final_norm/beta",
                     "head/fc0_weight", "head/out_bias"]:
            base = params[name]
            probe = Tensor(base.data.copy(), requires_grad=True, name=name)
            report = grad_check(lambda t: loss_with(name, t), probe, h=5e-5)
            assert report.max_rel_error < 1e-4, f"{name}: {report.max_rel_error:.3e}"


class TestInferenceFeatures:
    """Intermediate-layer extraction for propagation."""

    def test_grid_shape(self):
        config = ModelConfig(proj_dim=16, proj_hidden=16)
        params = EncoderParams.init(config, Rng(2)).clone()
        feats = extract_inference_features(
            Rng(3).uniform(size=(32, 32, 3)).astype(np.float32), params, config)
        assert feats.shape == (4, 4, 64)

    @pytest.mark.parametrize("side", [32, 64])
    def test_stack_matches_frames_alone(self, side):
        """A (T, H, W, 3) video gets each frame's own bits, at the desk
        model's 65 and 257 tokens per frame, for videos shorter than,
        as long as and longer than one 256-token forward."""
        config = ModelConfig(patch_size=4, embed_dim=32, depth=2, heads=4, proj_dim=64,
                             proj_hidden=128, pe_base_resolution=4, inference_layer=2)
        params = EncoderParams.init(config, Rng(4), requires_grad=False)
        frames = Rng(5).uniform(size=(7, side, side, 3)).astype(np.float32)
        alone = [extract_inference_features(f, params, config).data for f in frames]
        assert alone[0].shape == (side // 4, side // 4, 32)
        for size in (2, 3, 7):
            stacked = extract_inference_features(frames[:size], params, config).data
            assert stacked.shape == (size,) + alone[0].shape
            for got, want in zip(stacked, alone):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_rows_unit_norm_and_deterministic(self):
        config, params, image = micro_setup()
        params = params.clone()
        a = extract_inference_features(image, params, config)
        b = extract_inference_features(image, params, config)
        assert np.array_equal(a.data, b.data)
        assert np.allclose(np.linalg.norm(a.data, axis=-1), 1.0, atol=1e-6)
        assert not a.requires_grad

    def test_last_layer_matches_forward_features(self):
        config, params, image = micro_setup(depth=2, inference_layer=2)
        feats = extract_inference_features(image, params.clone(), config)
        raw = oracle_tokens(image, params, config, 2)[1:]
        ref = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
        assert np.allclose(feats.data.reshape(4, -1), ref, atol=1e-6)

    def test_grad_tracking_params_rejected(self):
        """Inference builds no graph because its parameters track no
        gradients; a student's live parameters are refused."""
        config, params, image = micro_setup()
        assert all(t.requires_grad for _, t in params.named_parameters())
        with pytest.raises(ValueError, match="must not track gradients"):
            extract_inference_features(image, params, config)
