"""Minimal ViT backbone with class token, learnable 2-d position
embedding, mask-token substitution, and a shared projection head.

Blocks are pre-norm (norm -> attention -> residual, norm -> mlp ->
residual) with a final norm before the head. The head is an N-layer
MLP with gelu and a last linear to the output width, applied to the
class token and to every patch token with the same weights.

Parameter names are stable documented strings (see _param_specs), so
serialized checkpoints are diffable across versions.
"""

from dataclasses import dataclass

import numpy as np

from vidcorr.numerics import (
    DEFAULT_DTYPE,
    Tensor,
    add,
    as_tensor,
    attention,
    bicubic_resize_2d,
    concat,
    gather_rows,
    gelu,
    l2_normalize_rows,
    layer_norm,
    linear,
    matmul,  # noqa: F401  re-exported: perfbench traces encoder.matmul
    mul,
    narrow,
    no_grad,
    reshape,
    softmax_t,  # noqa: F401  re-exported: perfbench traces encoder.softmax_t
)

PARAM_INIT_STD = 0.02


@dataclass
class ModelConfig:
    """Backbone and head dimensions.

    Desk-scale defaults keep CPU tests fast; the full-scale values
    (embed 384, depth 12, head width 4096, inference layer 7, 224-pixel
    crops) stay reachable through config.
    """

    patch_size: int = 8
    embed_dim: int = 64
    depth: int = 6
    heads: int = 4
    mlp_ratio: int = 4
    proj_layers: int = 3
    proj_dim: int = 256
    proj_hidden: int = 0  # 0 resolves to 4 * proj_dim
    pe_base_resolution: int = 8
    inference_layer: int = 4

    def __post_init__(self):
        if self.embed_dim % self.heads != 0:
            raise ValueError(f"heads={self.heads} must divide embed_dim={self.embed_dim}")
        if self.depth < 0 or self.patch_size < 1 or self.pe_base_resolution < 2:
            raise ValueError("bad backbone geometry")
        if self.depth == 0:
            if self.inference_layer != 0:
                raise ValueError("depth 0 admits only inference_layer 0")
        elif not (1 <= self.inference_layer <= self.depth):
            raise ValueError(
                f"inference_layer={self.inference_layer} outside 1..depth={self.depth}")
        if self.proj_layers < 1:
            raise ValueError("projection head needs at least one layer")
        if self.proj_hidden == 0:
            self.proj_hidden = 4 * self.proj_dim

    def token_grid(self, height, width):
        if height % self.patch_size or width % self.patch_size:
            raise ValueError(
                f"crop {height}x{width} not divisible by patch size {self.patch_size}")
        return height // self.patch_size, width // self.patch_size


def _param_specs(config):
    """Stable (name, shape) list; checkpoint order follows it."""
    d = config.embed_dim
    patch_dim = config.patch_size * config.patch_size * 3
    pe = config.pe_base_resolution
    hidden = config.proj_hidden
    mlp = config.mlp_ratio * d
    specs = [
        ("patch_proj/weight", (patch_dim, d)),
        ("patch_proj/bias", (d,)),
        ("cls_token", (d,)),
        ("mask_token", (d,)),
        ("pos_embed/grid", (pe, pe, d)),
        ("pos_embed/cls", (d,)),
    ]
    for i in range(config.depth):
        specs += [
            (f"block{i}/norm1/gamma", (d,)),
            (f"block{i}/norm1/beta", (d,)),
            (f"block{i}/attn/qkv_weight", (d, 3 * d)),
            (f"block{i}/attn/qkv_bias", (3 * d,)),
            (f"block{i}/attn/out_weight", (d, d)),
            (f"block{i}/attn/out_bias", (d,)),
            (f"block{i}/norm2/gamma", (d,)),
            (f"block{i}/norm2/beta", (d,)),
            (f"block{i}/mlp/fc1_weight", (d, mlp)),
            (f"block{i}/mlp/fc1_bias", (mlp,)),
            (f"block{i}/mlp/fc2_weight", (mlp, d)),
            (f"block{i}/mlp/fc2_bias", (d,)),
        ]
    specs += [("final_norm/gamma", (d,)), ("final_norm/beta", (d,))]
    in_width = d
    for l in range(config.proj_layers):
        specs += [(f"head/fc{l}_weight", (in_width, hidden)),
                  (f"head/fc{l}_bias", (hidden,))]
        in_width = hidden
    specs += [("head/out_weight", (in_width, config.proj_dim)),
              ("head/out_bias", (config.proj_dim,))]
    return specs


def _init_value(name, shape, rng):
    if name.endswith(("bias", "beta")):
        return np.zeros(shape)
    if name.endswith("gamma"):
        return np.ones(shape)
    # Attention, MLP, and head matmuls scale by fan-in so the signal neither
    # dies nor blows up through matmul chains; a fixed small std would shrink
    # the head output geometrically (no residuals there) and leave the
    # softmax targets uniform, stalling training before it starts. The patch
    # projection and the embedding-like vectors (tokens, position grids) stay
    # at the conventional small std: they feed the residual stream once and
    # the first layer norm rescales it, so they only set the starting balance
    # between content and position, which training then adjusts.
    if name.endswith("weight") and name != "patch_proj/weight":
        std = shape[0] ** -0.5
    else:
        std = PARAM_INIT_STD
    return rng.substream(name).normal(0.0, std, size=shape)


class EncoderParams:
    """Named parameter set for one encoder copy.

    The student copy is built with requires_grad=True; the teacher copy
    never tracks gradients.
    """

    def __init__(self, config, tensors):
        self.config = config
        self._tensors = dict(tensors)
        for name, shape in _param_specs(config):
            if name not in self._tensors:
                raise ValueError(f"missing parameter {name}")
            if self._tensors[name].shape != shape:
                raise ValueError(
                    f"parameter {name} has shape {self._tensors[name].shape}, want {shape}")

    @classmethod
    def init(cls, config, rng, requires_grad=True, dtype=DEFAULT_DTYPE):
        """Draw fresh parameters; each tensor uses its own rng substream
        so values do not depend on creation order."""
        tensors = {}
        for name, shape in _param_specs(config):
            value = _init_value(name, shape, rng).astype(dtype)
            tensors[name] = Tensor(value, requires_grad=requires_grad, name=name)
        return cls(config, tensors)

    def __getitem__(self, name):
        return self._tensors[name]

    def named_parameters(self):
        return [(name, self._tensors[name]) for name, _ in _param_specs(self.config)]

    def clone(self, requires_grad=False):
        """Deep copy of the values, by default outside the graph."""
        return EncoderParams(self.config, {
            name: Tensor(t.data.copy(), requires_grad=requires_grad, name=name)
            for name, t in self._tensors.items()
        })


@dataclass
class TokenSequence:
    """Class token plus P patch tokens for a batch of same-size crops."""

    tokens: Tensor  # (batch, 1 + P, embed_dim)
    grid: tuple  # (h_tok, w_tok), P = h_tok * w_tok

    @property
    def batch(self):
        return self.tokens.shape[0]

    @property
    def num_patches(self):
        return self.grid[0] * self.grid[1]


def patch_pos_embed(params, config, grid):
    """Patch-grid position embedding resized to ``grid`` by bicubic
    interpolation; (P, D). The class-token embedding is separate and
    never resized."""
    resized = bicubic_resize_2d(params["pos_embed/grid"], grid)
    return reshape(resized, (grid[0] * grid[1], config.embed_dim))


def _flatten_patches(images, patch_size):
    """(B, H, W, 3) -> (B, P, patch_size*patch_size*3), patches in
    row-major order, pixels row-major within each patch."""
    b, height, width, chans = images.shape
    h, w = height // patch_size, width // patch_size
    x = images.reshape(b, h, patch_size, w, patch_size, chans)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return x.reshape(b, h * w, patch_size * patch_size * chans)


def patchify_batch(images, params, config):
    """Embed a stack of same-size crops: linear patch projection, class
    token prepended, position embedding added."""
    images = np.asarray([img.data if isinstance(img, Tensor) else img for img in images])
    if images.ndim != 4 or images.shape[3] != 3:
        raise ValueError(f"expected (batch, H, W, 3) images, got {images.shape}")
    b = images.shape[0]
    grid = config.token_grid(images.shape[1], images.shape[2])
    p = grid[0] * grid[1]
    d = config.embed_dim

    flat = _flatten_patches(images.astype(params["patch_proj/weight"].dtype), config.patch_size)
    tokens = linear(as_tensor(flat), params["patch_proj/weight"],
                    params["patch_proj/bias"])  # (B, P, D)
    tokens = add(tokens, patch_pos_embed(params, config, grid))

    cls_vec = add(params["cls_token"], params["pos_embed/cls"])
    cls_tok = add(Tensor(np.zeros((b, 1, d), dtype=tokens.dtype)), cls_vec)
    return TokenSequence(concat([cls_tok, tokens], axis=1), grid)


def patchify(image, params, config):
    """Single-crop convenience wrapper around :func:`patchify_batch`."""
    arr = image.data if isinstance(image, Tensor) else np.asarray(image)
    if arr.ndim != 3:
        raise ValueError(f"expected an (H, W, 3) image, got {arr.shape}")
    return patchify_batch(arr[None], params, config)


def apply_mask_tokens(seq, mask, params):
    """Replace masked patch positions with mask_token + that position's
    position embedding. The class token is never masked.

    mask: (P,) or (batch, P) of {0, 1}.
    """
    mask = np.asarray(mask)
    p = seq.num_patches
    if mask.shape[-1] != p or mask.ndim not in (1, 2):
        raise ValueError(f"mask shape {mask.shape} does not cover {p} patch tokens")
    if mask.ndim == 1:
        mask = np.broadcast_to(mask, (seq.batch, p))
    dtype = seq.tokens.dtype
    gate = np.concatenate(
        [np.zeros((mask.shape[0], 1), dtype=dtype), mask.astype(dtype)], axis=1)[:, :, None]

    config = params.config
    pos = patch_pos_embed(params, config, seq.grid)
    filler = add(params["mask_token"], pos)  # (P, D)
    filler = concat([Tensor(np.zeros((1, config.embed_dim), dtype=dtype)), filler], axis=0)
    kept = mul(seq.tokens, Tensor(1.0 - gate))
    injected = mul(filler, Tensor(gate))
    return TokenSequence(add(kept, injected), seq.grid)


def _check_finite(x, where):
    if not np.isfinite(x.data).all():
        raise ValueError(f"non-finite activations after {where}")


def _attention(x, params, prefix, config):
    qkv = linear(x, params[f"{prefix}/qkv_weight"], params[f"{prefix}/qkv_bias"])
    # the scores' name lets the non-finite rail name the block
    mixed = attention(qkv, config.heads, f"{prefix} scores")
    return linear(mixed, params[f"{prefix}/out_weight"], params[f"{prefix}/out_bias"])


def _block(x, params, i, config):
    normed = layer_norm(x, params[f"block{i}/norm1/gamma"], params[f"block{i}/norm1/beta"])
    x = add(x, _attention(normed, params, f"block{i}/attn", config))
    normed = layer_norm(x, params[f"block{i}/norm2/gamma"], params[f"block{i}/norm2/beta"])
    h = gelu(linear(normed, params[f"block{i}/mlp/fc1_weight"], params[f"block{i}/mlp/fc1_bias"]))
    return add(x, linear(h, params[f"block{i}/mlp/fc2_weight"], params[f"block{i}/mlp/fc2_bias"]))


def _run_blocks(seq, params, config, upto=None):
    """Returns final tokens and per-layer patch-token activations
    (index 0 = embedded input, index i = after block i)."""
    p = seq.num_patches
    x = seq.tokens
    features = [narrow(x, 1, 1, p)]
    depth = config.depth if upto is None else upto
    for i in range(depth):
        x = _block(x, params, i, config)
        _check_finite(x, f"block {i}")
        features.append(narrow(x, 1, 1, p))
    return x, features


def _head(x, params, config):
    for l in range(config.proj_layers):
        x = gelu(linear(x, params[f"head/fc{l}_weight"], params[f"head/fc{l}_bias"]))
    return linear(x, params["head/out_weight"], params["head/out_bias"])


def token_rows(seq, crops, positions):
    """Flat indices into the B * (1 + P) tokens of ``seq``, for
    :func:`forward_batch`'s ``rows``: token ``positions[i]`` (0 = class
    token, 1 + j = patch j) of crop ``crops[i]``."""
    return np.asarray(crops) * (1 + seq.num_patches) + np.asarray(positions)


def forward_batch(seq, params, config, rows=None):
    """(cls_logits (B, k), patch_logits (B, P, k), features_by_layer).

    rows: optional flat indices into the B * (1 + P) tokens (see
    :func:`token_rows`). The backbone always sees every token; given
    rows, the head runs on those tokens only and the result is
    (row_logits (len(rows), k), None, features_by_layer).

    With depth 0 the head consumes the embedded tokens directly and the
    final norm is skipped.
    """
    x, features = _run_blocks(seq, params, config)
    if config.depth > 0:
        x = layer_norm(x, params["final_norm/gamma"], params["final_norm/beta"])
    if rows is not None:
        x = gather_rows(reshape(x, (seq.batch * (1 + seq.num_patches), config.embed_dim)),
                        rows)
    logits = _head(x, params, config)
    _check_finite(logits, "projection head")
    if rows is not None:
        return logits, None, features
    p = seq.num_patches
    cls_logits = reshape(narrow(logits, 1, 0, 1), (seq.batch, config.proj_dim))
    patch_logits = narrow(logits, 1, 1, p)
    return cls_logits, patch_logits, features


def extract_inference_features(image, params, config):
    """Patch-token activations after block ``inference_layer``, on the
    token grid, l2-normalized per position; (h_tok, w_tok, D). Runs
    outside the autodiff graph."""
    with no_grad():
        seq = patchify(image, params, config)
        _, features = _run_blocks(seq, params, config, upto=config.inference_layer)
        chosen = features[config.inference_layer]
        h, w = seq.grid
        flat = reshape(chosen, (h * w, config.embed_dim))
        return reshape(l2_normalize_rows(flat), (h, w, config.embed_dim))
