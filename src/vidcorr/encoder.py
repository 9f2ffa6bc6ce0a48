"""Minimal ViT backbone with class token, learnable 2-d position
embedding, mask-token substitution, and a shared projection head.

Blocks are pre-norm (norm -> attention -> residual, norm -> mlp ->
residual) with a final norm before the head. The head is an N-layer
MLP with gelu and a last linear to the output width, applied to the
class token and to every patch token with the same weights.

Parameter names are stable documented strings (see param_specs), so
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
    reshape,
    softmax_t,  # noqa: F401  re-exported: perfbench traces encoder.softmax_t
)

PARAM_INIT_STD = 0.02


@dataclass
class ModelConfig:
    """Backbone and head dimensions.

    Desk-scale defaults keep CPU tests fast. examples/vits16.cfg holds
    the full-scale values (ViT-S/16: embed 384, depth 12, 6 heads,
    inference layer 7, 224-pixel crops) and names the choices the paper
    leaves open, the head's width among them.
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
        for name, least in (("patch_size", 1), ("embed_dim", 1), ("depth", 1), ("heads", 1),
                            ("mlp_ratio", 1), ("proj_layers", 1), ("proj_dim", 1),
                            ("proj_hidden", 0), ("pe_base_resolution", 2)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.embed_dim % self.heads != 0:
            raise ValueError(f"heads={self.heads} must divide embed_dim={self.embed_dim}")
        if not 1 <= self.inference_layer <= self.depth:
            raise ValueError(
                f"inference_layer={self.inference_layer} outside 1..depth={self.depth}")
        if self.proj_hidden == 0:
            self.proj_hidden = 4 * self.proj_dim

    def token_grid(self, height, width):
        if height % self.patch_size or width % self.patch_size:
            raise ValueError(
                f"crop {height}x{width} not divisible by patch size {self.patch_size}")
        return height // self.patch_size, width // self.patch_size


def param_specs(config):
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
    """Named parameter set for one encoder copy: one Tensor for each
    (name, shape) of param_specs.

    The student copy is built with requires_grad=True; the teacher copy
    never tracks gradients.
    """

    def __init__(self, config, tensors):
        """tensors: {name: Tensor}, other names dropped. A missing or
        mis-shaped tensor raises a ValueError that starts with its name."""
        self.config = config
        self._tensors = {}
        for name, shape in param_specs(config):
            if name not in tensors:
                raise ValueError(f"{name} is missing")
            if tensors[name].shape != shape:
                raise ValueError(f"{name} has shape {tensors[name].shape}, want {shape}")
            self._tensors[name] = tensors[name]

    @classmethod
    def init(cls, config, rng, requires_grad=True, dtype=DEFAULT_DTYPE):
        """Draw fresh parameters; each tensor uses its own rng substream
        so values do not depend on creation order."""
        tensors = {}
        for name, shape in param_specs(config):
            value = _init_value(name, shape, rng).astype(dtype)
            tensors[name] = Tensor(value, requires_grad=requires_grad, name=name)
        return cls(config, tensors)

    def __getitem__(self, name):
        return self._tensors[name]

    def named_parameters(self):
        return list(self._tensors.items())

    def clone(self):
        """Deep copy of the values that tracks no gradients."""
        return EncoderParams(self.config, {
            name: Tensor(t.data.copy(), name=name)
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


def patchify_batch(images, params, config, pos=None):
    """Embed a stack of same-size crops: linear patch projection, class
    token prepended, position embedding added. pos: the stack's
    patch_pos_embed, when the caller already has it."""
    images = np.asarray(images)
    if images.ndim != 4 or images.shape[3] != 3:
        raise ValueError(f"expected (batch, H, W, 3) images, got {images.shape}")
    b = images.shape[0]
    grid = config.token_grid(images.shape[1], images.shape[2])
    d = config.embed_dim

    flat = _flatten_patches(images.astype(params["patch_proj/weight"].dtype), config.patch_size)
    tokens = linear(as_tensor(flat), params["patch_proj/weight"],
                    params["patch_proj/bias"])  # (B, P, D)
    tokens = add(tokens, patch_pos_embed(params, config, grid) if pos is None else pos)

    cls_vec = add(params["cls_token"], params["pos_embed/cls"])
    cls_tok = add(Tensor(np.zeros((b, 1, d), dtype=tokens.dtype)), cls_vec)
    return TokenSequence(concat([cls_tok, tokens], axis=1), grid)


def apply_mask_tokens(seq, mask, params):
    """Replace masked patch positions with mask_token + that position's
    position embedding. The class token is never masked.

    mask: (batch, P) of {0, 1}.
    """
    mask = np.asarray(mask)
    if mask.shape != (seq.batch, seq.num_patches):
        raise ValueError(f"mask shape {mask.shape} does not cover the "
                         f"{seq.batch} x {seq.num_patches} patch tokens")
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


def _attention(x, params, prefix, config, queries):
    qkv = linear(x, params[f"{prefix}/qkv_weight"], params[f"{prefix}/qkv_bias"])
    # the scores' name lets the non-finite rail name the block
    mixed = attention(qkv, config.heads, f"{prefix} scores", queries)
    return linear(mixed, params[f"{prefix}/out_weight"], params[f"{prefix}/out_bias"])


def _gather_tokens(x, queries):
    """(B, N, D) tokens -> (B, M, D), crop b's rows at ``queries[b]``."""
    b, n, d = x.shape
    flat = (np.arange(b)[:, None] * n + queries).reshape(-1)
    return reshape(gather_rows(reshape(x, (b * n, d)), flat), queries.shape + (d,))


def _block(x, params, i, config, queries=None):
    """Pre-norm block i on (B, N, D) tokens.

    queries: optional (B, M) token positions, distinct within each crop.
    Then norm1 and the qkv projection still run on every token, because
    keys and values come from all of them, while the attention queries,
    the output projection, the residual, norm2 and the MLP run on the
    chosen rows only, and the result is (B, M, D). None computes every
    row.
    """
    normed = layer_norm(x, params[f"block{i}/norm1/gamma"], params[f"block{i}/norm1/beta"])
    mixed = _attention(normed, params, f"block{i}/attn", config, queries)
    if queries is not None:
        x = _gather_tokens(x, queries)
    x = add(x, mixed)
    normed = layer_norm(x, params[f"block{i}/norm2/gamma"], params[f"block{i}/norm2/beta"])
    h = gelu(linear(normed, params[f"block{i}/mlp/fc1_weight"], params[f"block{i}/mlp/fc1_bias"]))
    return add(x, linear(h, params[f"block{i}/mlp/fc2_weight"], params[f"block{i}/mlp/fc2_bias"]))


def _run_blocks(seq, params, config, depth, queries=None):
    """Tokens after the first ``depth`` blocks; every token, or only the
    ``queries`` rows of the last block (see :func:`_block`)."""
    x = seq.tokens
    for i in range(depth):
        x = _block(x, params, i, config, queries if i == depth - 1 else None)
        _check_finite(x, f"block {i}")
    return x


def _head(x, params, config):
    for l in range(config.proj_layers):
        x = gelu(linear(x, params[f"head/fc{l}_weight"], params[f"head/fc{l}_bias"]))
    return linear(x, params["head/out_weight"], params["head/out_bias"])


def token_rows(seq, crops, positions):
    """Flat indices into the B * (1 + P) tokens of ``seq``, for
    :func:`forward_batch`'s ``rows``: token ``positions[i]`` (0 = class
    token, 1 + j = patch j) of crop ``crops[i]``."""
    return np.asarray(crops) * (1 + seq.num_patches) + np.asarray(positions)


def _query_slots(rows, batch, tokens):
    """Per-crop query positions for the last block, and where each of
    ``rows`` lands in its (B, M) output.

    Each crop asks for its distinct wanted positions in ascending order;
    a crop that wants fewer than the largest count M is padded with its
    lowest unwanted positions, so positions stay distinct within a crop.
    Returns (queries (B, M), flat indices into the B * M output rows).
    """
    crops, positions = np.divmod(np.asarray(rows, dtype=np.intp), tokens)
    wanted = np.zeros((batch, tokens), dtype=bool)
    wanted[crops, positions] = True
    m = int(wanted.sum(axis=1).max())
    queries = np.argsort(~wanted, axis=1, kind="stable")[:, :m]
    slot = np.cumsum(wanted, axis=1) - 1
    return queries, crops * m + slot[crops, positions]


def forward_batch(seq, params, config, rows=None):
    """(cls_logits (B, k), patch_logits (B, P, k)).

    rows: optional flat indices into the B * (1 + P) tokens (see
    :func:`token_rows`), in any order and with duplicates allowed. Given
    rows, the result is the row logits (len(rows), k) alone, in ``rows``
    order. Every block but the last runs on all tokens; the last one
    runs its per-token work (attention queries, output projection,
    residual, norm2, MLP) and the final norm only on the distinct
    wanted rows, while its keys and values still come from every token
    (see :func:`_block`); the head then runs on the wanted rows.
    """
    queries = None
    if rows is not None:
        queries, rows = _query_slots(rows, seq.batch, 1 + seq.num_patches)
    x = _run_blocks(seq, params, config, config.depth, queries)
    x = layer_norm(x, params["final_norm/gamma"], params["final_norm/beta"])
    if rows is not None:
        x = gather_rows(reshape(x, (-1, config.embed_dim)), rows)
    logits = _head(x, params, config)
    _check_finite(logits, "projection head")
    if rows is not None:
        return logits
    cls_logits = reshape(narrow(logits, 1, 0, 1), (seq.batch, config.proj_dim))
    return cls_logits, narrow(logits, 1, 1, seq.num_patches)


# Most tokens one inference forward takes: a video's frames go through
# the encoder in stacks of as many as fit (at least one), which saves
# per-call work on small frames, while the (heads, N, N) attention
# scores of large ones stay in cache.
_FEATURE_TOKENS = 256


def extract_inference_features(images, params, config):
    """Patch-token activations after block ``inference_layer``, on the
    token grid, l2-normalized per position: (h_tok, w_tok, D) for one
    (H, W, 3) image, (T, h_tok, w_tok, D) for a video's (T, H, W, 3)
    frames. The frames go through the encoder in stacks of at most
    _FEATURE_TOKENS tokens with the position embedding resized once,
    and each gets the same bits as alone. ``params`` must be grad-free
    (``params_from_checkpoint``'s or ``EncoderParams.clone()``'s), so
    that no kernel records a graph node."""
    if any(t.requires_grad for _, t in params.named_parameters()):
        raise ValueError("inference parameters must not track gradients")
    images = np.asarray(images)
    if images.ndim not in (3, 4) or images.shape[-1] != 3:
        raise ValueError(f"expected (H, W, 3) or (T, H, W, 3) images, got {images.shape}")
    single = images.ndim == 3
    frames = images[None] if single else images
    grid = config.token_grid(frames.shape[1], frames.shape[2])
    p = grid[0] * grid[1]
    per_forward = max(1, _FEATURE_TOKENS // (1 + p))
    out = np.empty((len(frames), p, config.embed_dim), dtype=params["patch_proj/weight"].dtype)
    pos = patch_pos_embed(params, config, grid)
    for start in range(0, len(frames), per_forward):
        seq = patchify_batch(frames[start:start + per_forward], params, config, pos)
        x = _run_blocks(seq, params, config, config.inference_layer)
        flat = reshape(narrow(x, 1, 1, p), (seq.batch * p, config.embed_dim))
        out[start:start + seq.batch] = l2_normalize_rows(flat).data.reshape(seq.batch, p, -1)
    out = out.reshape((len(frames),) + grid + (config.embed_dim,))
    return Tensor(out[0] if single else out)
