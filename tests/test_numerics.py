"""Tests for the tensor engine: kernels, autodiff, rng, serialization."""

import math
import weakref

import numpy as np
import pytest
from scipy import special

from vidcorr.numerics import (
    Tensor,
    add,
    attention,
    backward,
    bicubic_resize_2d,
    clamp_min,
    concat,
    gather_rows,
    gelu,
    grad_check,
    layer_norm,
    l2_normalize_rows,
    linear,
    log,
    matmul,
    mul,
    narrow,
    reshape,
    Rng,
    scale,
    softmax_t,
    tensor_sum,
    transpose,
)
from vidcorr.encoder import EncoderParams, ModelConfig, forward_batch, patchify_batch
from vidcorr.harness import build_run_config, step_losses
from vidcorr.harness.synthetic import gen_synthetic_dataset
from vidcorr.numerics.tensor import _Node, _consumed, _result
from vidcorr.objectives import TeacherState, loss_in_mim
from vidcorr.views import load_store, make_crops, sample_clip, sample_clip_masks
from vidcorr.numerics.rng import _fnv1a
from vidcorr.numerics.tensor import DEFAULT_DTYPE, erf
from vidcorr.numerics.recordio import (
    named_list_bytes,
    parse_named_list,
    parse_tensor_record,
    tensor_record_bytes,
)


def t64(values, requires_grad=False):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)


class TestTensorBasics:
    """Construction and graph bookkeeping."""

    def test_ops_do_not_mutate_inputs(self):
        """Kernel outputs are fresh buffers."""
        x = t64([1.0, 2.0, 3.0])
        before = x.data.copy()
        add(x, x)
        mul(x, x)
        softmax_t(x, temperature=1.0)
        assert np.array_equal(x.data, before)

    def test_requires_grad_propagates(self):
        x = t64([1.0, 2.0], requires_grad=True)
        y = t64([3.0, 4.0])
        z = add(x, y)
        assert z.requires_grad
        w = add(y, y)
        assert not w.requires_grad

    def test_default_dtype(self):
        """Plain python data builds float32 tensors; explicit ndarrays
        keep their precision."""
        assert DEFAULT_DTYPE is np.float32
        assert Tensor([0.0, 1.0]).data.dtype == np.float32
        assert Tensor(np.zeros(3, dtype=np.float64)).data.dtype == np.float64
        assert Tensor(np.zeros(3, dtype=np.float32)).data.dtype == np.float32


class TestSoftmax:
    """Temperature softmax values and safety rails."""

    def test_uniform_logits(self):
        """Equal logits give equal probabilities at any temperature."""
        for tau in (0.04, 0.1, 1.0, 7.0):
            y = softmax_t(t64([2.0, 2.0, 2.0, 2.0]), temperature=tau)
            assert np.allclose(y.data, 0.25, atol=1e-12)

    def test_zero_ln3_pair(self):
        """exp(0) : exp(ln 3) splits 1:3."""
        y = softmax_t(t64([0.0, math.log(3.0)]), temperature=1.0)
        assert np.allclose(y.data, [0.25, 0.75], atol=1e-12)

    def test_temperature_halving_matches_doubled_logits(self):
        logits = t64([0.3, -1.2, 0.7])
        a = softmax_t(logits, temperature=0.5)
        b = softmax_t(scale(logits, 2.0), temperature=1.0)
        assert np.allclose(a.data, b.data, atol=1e-12)

    def test_shift_invariance_and_row_sums(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.normal(size=(3, 5)) * 10
            a = softmax_t(t64(x), temperature=0.3)
            b = softmax_t(t64(x + 123.456), temperature=0.3)
            assert np.allclose(a.data.sum(axis=-1), 1.0, atol=1e-6)
            assert np.allclose(a.data, b.data, atol=1e-9)
            assert a.data.min() >= 0.0

    def test_nonfinite_input_names_tensor(self):
        bad = Tensor(np.array([1.0, np.inf]), name="teacher_logits")
        with pytest.raises(ValueError, match="teacher_logits"):
            softmax_t(bad, temperature=1.0)

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            softmax_t(t64([1.0]), temperature=0.0)


class TestCrossEntropy:
    """Row-mean cross entropy against hand values: the training loop's
    masked-row CE with the row count as divisor."""

    def test_uniform_four(self):
        """H(uniform over 4) = ln 4."""
        p = t64([[0.25, 0.25, 0.25, 0.25]])
        out = loss_in_mim(p, p, 1)
        assert abs(out.data - 1.3862943611198906) < 1e-12

    def test_uniform_two_against_skewed(self):
        target = t64([[0.5, 0.5]])
        pred = t64([[0.9, 0.1]])
        out = loss_in_mim(target, pred, 1)
        expected = -0.5 * (math.log(0.9) + math.log(0.1))
        assert abs(out.data - expected) < 1e-12
        assert abs(out.data - 1.2039728043259361) < 1e-12

    def test_gibbs_minimum_at_target(self):
        """CE(p, q) >= CE(p, p) = H(p) for distributions q."""
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(6), size=4)
        base = loss_in_mim(t64(p), t64(p), 4).data
        for _ in range(25):
            q = rng.dirichlet(np.ones(6), size=4)
            assert loss_in_mim(t64(p), t64(q), 4).data >= base - 1e-12

    def test_mean_over_rows(self):
        target = t64([[1.0, 0.0], [0.0, 1.0]])
        pred = t64([[0.5, 0.5], [0.25, 0.75]])
        out = loss_in_mim(target, pred, 2)
        expected = (-math.log(0.5) - math.log(0.75)) / 2.0
        assert abs(out.data - expected) < 1e-12

    def test_shape_mismatch_reports_both(self):
        with pytest.raises(ValueError, match=r"\(1, 3\).*\(1, 4\)"):
            loss_in_mim(t64([[0.2, 0.3, 0.5]]), t64([[0.1, 0.2, 0.3, 0.4]]), 1)


class TestL2Normalize:
    """Row normalization identities."""

    def test_three_four_five(self):
        y = l2_normalize_rows(t64([[3.0, 4.0]]))
        assert np.allclose(y.data, [[0.6, 0.8]], atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 7))
        once = l2_normalize_rows(t64(x)).data
        twice = l2_normalize_rows(t64(once)).data
        assert np.allclose(once, twice, atol=1e-6)
        assert np.allclose(np.linalg.norm(once, axis=-1), 1.0, atol=1e-6)

    def test_positive_scale_invariance(self):
        x = np.array([[1.0, -2.0, 0.5]])
        a = l2_normalize_rows(t64(x)).data
        b = l2_normalize_rows(t64(37.5 * x)).data
        assert np.allclose(a, b, atol=1e-9)

    def test_near_zero_row_rejected(self):
        with pytest.raises(ValueError):
            l2_normalize_rows(t64([[1e-300, 0.0]]))


def catmull_rom_weight(t):
    """Independent scalar Catmull-Rom kernel, a = -0.5."""
    t = abs(t)
    if t <= 1.0:
        return 1.5 * t**3 - 2.5 * t**2 + 1.0
    if t < 2.0:
        return -0.5 * t**3 + 2.5 * t**2 - 4.0 * t + 2.0
    return 0.0


def oracle_bicubic_point(grid, sy, sx):
    """Pointwise kernel-sum evaluation with edge clamping."""
    h, w = grid.shape[:2]
    y0, x0 = math.floor(sy), math.floor(sx)
    val = 0.0
    for i in range(-1, 3):
        wy = catmull_rom_weight(sy - (y0 + i))
        yy = min(max(y0 + i, 0), h - 1)
        for j in range(-1, 3):
            wx = catmull_rom_weight(sx - (x0 + j))
            xx = min(max(x0 + j, 0), w - 1)
            val += wy * wx * grid[yy, xx]
    return val


class TestBicubic:
    """Separable Catmull-Rom resize."""

    def test_constant_grid(self):
        g = np.full((4, 5, 2), 3.25)
        out = bicubic_resize_2d(t64(g), (9, 7))
        assert np.allclose(out.data, 3.25, atol=1e-9)

    def test_identity_resize(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(6, 6, 3))
        out = bicubic_resize_2d(t64(g), (6, 6))
        assert np.allclose(out.data, g, atol=1e-5)

    def test_ramp_center_matches_scalar_oracle(self):
        """2x2 ramp to 3x3; center lands at source (0.5, 0.5)."""
        g = np.array([[0.0, 1.0], [2.0, 3.0]])[:, :, None]
        out = bicubic_resize_2d(t64(g), (3, 3))
        sy = (1 + 0.5) * (2 / 3) - 0.5
        sx = (1 + 0.5) * (2 / 3) - 0.5
        expected = oracle_bicubic_point(g[:, :, 0], sy, sx)
        assert abs(out.data[1, 1, 0] - expected) < 1e-12
        assert abs(expected - 1.5) < 1e-12

    def test_upsample_matches_oracle_everywhere(self):
        rng = np.random.default_rng(14)
        g = rng.normal(size=(4, 3))
        out = bicubic_resize_2d(t64(g[:, :, None]), (7, 5)).data[:, :, 0]
        for i in range(7):
            for j in range(5):
                sy = (i + 0.5) * (4 / 7) - 0.5
                sx = (j + 0.5) * (3 / 5) - 0.5
                assert abs(out[i, j] - oracle_bicubic_point(g, sy, sx)) < 1e-10

    def test_degenerate_target(self):
        with pytest.raises(ValueError):
            bicubic_resize_2d(t64(np.zeros((4, 4, 1))), (0, 3))


class TestCoreKernels:
    """Forward values of the plumbing ops."""

    def test_matmul_identity(self):
        a = np.random.default_rng(5).normal(size=(3, 3))
        out = matmul(t64(np.eye(3)), t64(a))
        assert np.allclose(out.data, a, atol=1e-12)

    def test_matmul_triple_loop_oracle(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 5))
        ref = np.zeros((3, 5))
        for i in range(3):
            for j in range(5):
                for k in range(4):
                    ref[i, j] += a[i, k] * b[k, j]
        out = matmul(t64(a), t64(b))
        assert np.allclose(out.data, ref, atol=1e-6)

    def test_matmul_batched(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 4, 5))
        out = matmul(t64(a), t64(b))
        assert np.allclose(out.data, a @ b, atol=1e-12)

    def test_layer_norm_constant_rows(self):
        """Zero variance maps to zero before the affine terms."""
        x = t64(np.full((2, 4), 7.0))
        gamma = t64(np.ones(4))
        beta = t64(np.zeros(4))
        out = layer_norm(x, gamma, beta)
        assert np.allclose(out.data, 0.0, atol=1e-6)

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 16)) * 4 + 2
        out = layer_norm(t64(x), t64(np.ones(16)), t64(np.zeros(16)))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_add_shape_mismatch_reports_both(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4,\)"):
            add(t64(np.zeros((2, 3))), t64(np.zeros(4)))

    def test_gather_rows(self):
        x = t64(np.arange(12, dtype=np.float64).reshape(4, 3))
        out = gather_rows(x, np.array([2, 0, 2]))
        assert np.array_equal(out.data, x.data[[2, 0, 2]])

    def test_gelu_reference_points(self):
        """gelu(0) = 0 and gelu is odd-symmetric about x -> -x up to x."""
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        out = gelu(t64(x)).data
        ref = 0.5 * x * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))
        assert np.allclose(out, ref, atol=1e-12)

    def test_erf_matches_scipy(self):
        """float32 bitwise against scipy.special.erf (what gelu trains
        with), float64 within one ulp, across both Cephes branches, the
        |x| = 1 and 8 seams, signed zeros, subnormals and non-finite
        values."""
        g = np.random.default_rng(0)
        edges = np.array([0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), 8.0, -8.0,
                          np.nextafter(8.0, 0.0), 27.0, 1e300, -1e300, 5e-324,
                          np.inf, -np.inf, np.nan])
        x = np.concatenate([edges, g.normal(size=200_000) * 3.0,
                            np.linspace(-6.0, 6.0, 100_001)])
        for dtype in (np.float32, np.float64):
            with np.errstate(over="ignore"):
                v = x.astype(dtype)
            got, want = erf(v), special.erf(v)
            assert got.dtype == dtype
            if dtype == np.float32:
                assert np.array_equal(got.view(np.int32), want.view(np.int32))
            else:
                assert np.array_equal(np.isnan(got), np.isnan(want))
                ok = ~np.isnan(want)
                assert np.abs(got[ok].view(np.int64) - want[ok].view(np.int64)).max() <= 1
        assert erf(np.float32(0.5)).dtype == np.float32
        strided = x[:1000].reshape(-1, 4)[:, ::2]
        assert np.array_equal(erf(strided), erf(strided.copy()), equal_nan=True)

    def test_reshape_transpose_concat_narrow(self):
        x = t64(np.arange(24, dtype=np.float64).reshape(2, 3, 4))
        assert reshape(x, (6, 4)).data.shape == (6, 4)
        assert transpose(x, (0, 2, 1)).data.shape == (2, 4, 3)
        c = concat([x, x], axis=1)
        assert c.data.shape == (2, 6, 4)
        n = narrow(x, axis=2, start=1, length=2)
        assert np.array_equal(n.data, x.data[:, :, 1:3])

    def test_reductions(self):
        x = t64(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert tensor_sum(x).data == 10.0


def same_bits(a, b):
    """Equal dtype, shape and bytes: signed zeros and NaN payloads count."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def attention_chain(qkv, heads):
    """Multi-head attention from the primitive kernels."""
    b, n, d3 = qkv.shape
    d = d3 // 3
    dh = d // heads

    def split(t):
        return transpose(reshape(t, (b, n, heads, dh)), (0, 2, 1, 3))

    q = split(narrow(qkv, 2, 0, d))
    k = split(narrow(qkv, 2, d, d))
    v = split(narrow(qkv, 2, 2 * d, d))
    scores = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    attn = softmax_t(scores, axis=-1, temperature=1.0)
    return reshape(transpose(matmul(attn, v), (0, 2, 1, 3)), (b, n, d))


def value_and_grads(fn, arrays, weight):
    """Output of fn over fresh leaf tensors, and each leaf's gradient of
    sum(output * weight)."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*leaves)
    backward(tensor_sum(mul(out, Tensor(weight))))
    return out.data, [t.grad for t in leaves]


class TestFusedKernels:
    """linear and attention against the primitive chains they replace:
    bitwise in float32, and finite-difference checked in float64."""

    @pytest.mark.parametrize("lead", [(7,), (3, 5)])
    def test_linear_matches_matmul_add(self, lead):
        g = np.random.default_rng(31)
        x = g.normal(size=lead + (6,)).astype(np.float32)
        w = g.normal(size=(6, 4)).astype(np.float32)
        bias = g.normal(size=4).astype(np.float32)
        weight = g.normal(size=lead + (4,)).astype(np.float32)
        weight[..., 1] = -0.0
        fused = value_and_grads(linear, (x, w, bias), weight)
        chain = value_and_grads(lambda a, m, c: add(matmul(a, m), c), (x, w, bias), weight)
        assert same_bits(fused[0], chain[0])
        for got, want in zip(fused[1], chain[1]):
            assert same_bits(got, want)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention_matches_primitive_chain(self, heads):
        g = np.random.default_rng(32 + heads)
        qkv = (g.normal(size=(3, 5, 24)) * 2.0).astype(np.float32)
        weight = g.normal(size=(3, 5, 8)).astype(np.float32)
        weight[:, :, 0] = -0.0
        weight[1] = 0.0
        fused = value_and_grads(lambda t: attention(t, heads, "scores"), (qkv,), weight)
        chain = value_and_grads(lambda t: attention_chain(t, heads), (qkv,), weight)
        assert same_bits(fused[0], chain[0])
        assert same_bits(fused[1][0], chain[1][0])

    def test_linear_grad_check(self):
        g = np.random.default_rng(33)
        x, w, bias = g.normal(size=(2, 3, 4)), g.normal(size=(4, 5)), g.normal(size=5)
        weight = t64(g.normal(size=(2, 3, 5)))
        check(lambda t: tensor_sum(mul(linear(t, t64(w), t64(bias)), weight)), t64(x, True))
        check(lambda t: tensor_sum(mul(linear(t64(x), t, t64(bias)), weight)), t64(w, True))
        check(lambda t: tensor_sum(mul(linear(t64(x), t64(w), t), weight)), t64(bias, True))

    def test_attention_grad_check(self):
        g = np.random.default_rng(34)
        qkv = g.normal(size=(2, 4, 12))
        weight = t64(g.normal(size=(2, 4, 4)))
        check(lambda t: tensor_sum(mul(attention(t, 2, "scores"), weight)), t64(qkv, True))

    def test_attention_nonfinite_names_scores(self):
        qkv = np.ones((1, 3, 12), dtype=np.float32)
        qkv[0, 1, 5] = np.nan
        with pytest.raises(ValueError, match="block3/attn scores"):
            attention(Tensor(qkv), 2, "block3/attn scores")

    def test_encoder_nonfinite_names_block_scores(self):
        config = ModelConfig(patch_size=4, embed_dim=8, depth=2, heads=2, proj_layers=1,
                             proj_dim=4, pe_base_resolution=2, inference_layer=1)
        params = EncoderParams.init(config, Rng(0))
        params["block1/attn/qkv_weight"].data[0, 0] = np.inf
        images = np.full((1, 8, 8, 3), 0.5)
        with pytest.raises(ValueError, match="block1/attn scores"):
            forward_batch(patchify_batch(images, params, config), params, config)


class TestBackward:
    """Reverse-mode results on hand-checkable graphs."""

    def test_sum_gives_ones(self):
        x = t64([1.0, -2.0, 3.0], requires_grad=True)
        backward(tensor_sum(x))
        assert np.array_equal(x.grad, np.ones(3))

    def test_sum_of_squares_gives_2x(self):
        x = t64([1.5, -0.5, 2.0], requires_grad=True)
        backward(tensor_sum(mul(x, x)))
        assert np.allclose(x.grad, 2 * x.data, atol=1e-12)

    def test_grad_accumulates_across_backward_calls(self):
        x = t64([2.0], requires_grad=True)
        backward(tensor_sum(x))
        backward(tensor_sum(x))
        assert np.array_equal(x.grad, [2.0])

    def test_nonscalar_root_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            backward(add(x, x))

    def test_broadcast_add_backward(self):
        x = t64(np.ones((3, 4)), requires_grad=True)
        b = t64(np.ones(4), requires_grad=True)
        backward(tensor_sum(add(x, b)))
        assert np.array_equal(x.grad, np.ones((3, 4)))
        assert np.array_equal(b.grad, np.full(4, 3.0))

    def test_diamond_graph_accumulates(self):
        # y = x*x + x*x reuses the same node twice
        x = t64([3.0], requires_grad=True)
        s = mul(x, x)
        backward(tensor_sum(add(s, s)))
        assert np.allclose(x.grad, [12.0], atol=1e-12)

    def test_interior_nodes_are_consumed(self):
        """Only leaves get a grad; every interior node is cut from its
        parents, so nothing of the graph outlives the pass."""
        g = np.random.default_rng(40)
        x = t64(g.normal(size=(2, 3, 4)), requires_grad=True)
        w = t64(g.normal(size=(4, 6)), requires_grad=True)
        b = t64(g.normal(size=6), requires_grad=True)
        h = gelu(linear(x, w, b))
        root = tensor_sum(mul(concat([h, h], axis=1), t64(g.normal(size=(2, 6, 6)))))
        interior = graph_nodes(root)
        assert len(interior) == 5
        backward(root)
        for node in interior:
            assert node.parents == () and node.vjp is _consumed
        assert h.grad is None and root.grad is None
        assert all(t.grad is not None for t in (x, w, b))

    def test_second_backward_raises(self):
        x = t64([1.0, 2.0], requires_grad=True)
        root = tensor_sum(mul(x, x))
        backward(root)
        with pytest.raises(RuntimeError, match="already backpropagated"):
            backward(root)
        hidden = mul(x, x)
        backward(tensor_sum(hidden))
        with pytest.raises(RuntimeError, match="already backpropagated"):
            backward(tensor_sum(hidden))  # a new graph over a consumed node
        assert np.array_equal(x.grad, [4.0, 8.0])

    def test_activations_freed_during_backward(self):
        """An activation that no VJP reads dies when the forward drops
        it; one that a VJP reads dies once that VJP has run, before the
        pass reaches the nodes below it."""
        g = np.random.default_rng(41)
        x = t64(g.normal(size=(4, 5)), requires_grad=True)
        w = t64(g.normal(size=(4, 5)), requires_grad=True)
        freed = []

        def low_vjp(g):
            freed.append(low_probe() is None)
            return (g * 2.0,)

        low = _result(x.data * 2.0, (x,), low_vjp)
        low_probe = weakref.ref(low.data)
        high = gelu(mul(low, w))
        probe = weakref.ref(high.data)
        root = tensor_sum(high)
        del low, high
        assert probe() is None  # tensor_sum's VJP reads only a shape
        assert low_probe() is not None  # mul's VJP reads it for w's gradient
        backward(root)
        assert freed == [True]

    def test_desk_step_matches_frozen_backward(self, tmp_path):
        """Every parameter gradient of one desk step_losses graph equals,
        byte for byte, what the graph-keeping backward below gives."""
        crops, clip_masks, student, teacher, run = desk_step_inputs(tmp_path)

        def param_grads(backward_fn):
            total = step_losses(crops, clip_masks, student, teacher, run)[0].total
            backward_fn(total)
            grads = {name: t.grad for name, t in student.named_parameters()}
            for _, t in student.named_parameters():
                t.zero_grad()
            return grads

        want = param_grads(reference_backward)
        got = param_grads(backward)
        assert all(grad is not None for grad in want.values())
        for name, grad in want.items():
            assert same_bits(got[name], grad), name

    def test_desk_graph_holds_no_tensors(self, tmp_path):
        """Over a desk step_losses graph, every edge points at a node or
        a leaf, and no VJP closure holds a Tensor: the graph keeps only
        the arrays its VJPs read."""
        crops, clip_masks, student, teacher, run = desk_step_inputs(tmp_path)
        total = step_losses(crops, clip_masks, student, teacher, run)[0].total
        nodes = graph_nodes(total)
        assert len(nodes) > 100
        for node in nodes:
            for parent in node.parents:
                assert (parent is None or isinstance(parent, _Node)
                        or (isinstance(parent, Tensor) and parent._node is None))
            cells = node.vjp.__closure__ or ()
            assert not any(holds_tensor(c.cell_contents) for c in cells), node.vjp

    def test_desk_residual_freed_while_graph_alive(self, tmp_path, monkeypatch):
        """The residual sum that feeds each block's norm2 is freed when
        the forward drops it: layer_norm's VJP reads its normalized copy,
        and the next residual add reads only shapes."""
        import vidcorr.encoder as encoder

        crops, clip_masks, student, teacher, run = desk_step_inputs(tmp_path)
        probes = []

        def probed_layer_norm(x, gamma, beta, eps=1e-5):
            if gamma.requires_grad and gamma.name.endswith("norm2/gamma"):
                probes.append(weakref.ref(x.data))
            return layer_norm(x, gamma, beta, eps)

        monkeypatch.setattr(encoder, "layer_norm", probed_layer_norm)
        total = step_losses(crops, clip_masks, student, teacher, run)[0].total
        assert len(probes) == 3 * run.model.depth  # the three student forwards
        assert all(probe() is None for probe in probes)
        backward(total)
        assert all(t.grad is not None for _, t in student.named_parameters())

    def test_desk_last_block_qkv_freed_while_graph_alive(self, tmp_path, monkeypatch):
        """The last block's (B, N, 3D) qkv projection is freed when the
        forward drops it: with queries, attention's VJP keeps the chosen
        query rows and the key and value columns, each copied."""
        import vidcorr.encoder as encoder

        crops, clip_masks, student, teacher, run = desk_step_inputs(tmp_path)
        probes = []

        def probed_attention(qkv, heads, name, queries=None):
            if queries is not None and qkv.requires_grad:
                probes.append(weakref.ref(qkv.data))
            return attention(qkv, heads, name, queries)

        monkeypatch.setattr(encoder, "attention", probed_attention)
        total = step_losses(crops, clip_masks, student, teacher, run)[0].total
        assert len(probes) == 3  # the last block of the three student forwards
        assert all(probe() is None for probe in probes)
        backward(total)
        assert all(t.grad is not None for _, t in student.named_parameters())


def desk_step_inputs(tmp_path):
    """Crops, masks, student and teacher of one seeded desk train step
    over a 2-video corpus, with criterion 7's desk config."""
    from test_acceptance import DESK_CONFIG

    gen_synthetic_dataset(tmp_path, 0, train_videos=2, eval_videos=0,
                          canvas=32, frames=12)
    run = build_run_config(DESK_CONFIG)
    view = run.view
    gh, gw = run.model.token_grid(view.global_size, view.global_size)
    step = Rng(3).substream("step0")
    crops, clip_masks = [], []
    for i, source in enumerate(load_store(tmp_path / "train")):
        crng = step.substream(f"clip{i}")
        frames = sample_clip(source.frames(), crng.substream("frames"), view)
        crops.append(make_crops(frames, crng.substream("crops"), view))
        clip_masks.append(sample_clip_masks(gh * gw, view.clip_len, crng.substream("mask"),
                                            run.gate_probability, run.mask_ratio))
    student = EncoderParams.init(run.model, Rng(3).substream("init"))
    teacher = TeacherState.from_student(student, run.ema_momentum, run.center_momentum)
    return crops, clip_masks, student, teacher, run


def holds_tensor(value):
    """Whether ``value`` is a Tensor or holds one in a tuple, a list or
    the closure of a function."""
    if isinstance(value, Tensor):
        return True
    if isinstance(value, (tuple, list)):
        return any(holds_tensor(v) for v in value)
    if callable(value) and getattr(value, "__closure__", None):
        return any(holds_tensor(c.cell_contents) for c in value.__closure__)
    return False


def graph_nodes(root):
    """Every interior node reachable from root."""
    found, stack = {}, [root._node]
    while stack:
        node = stack.pop()
        if isinstance(node, _Node) and id(node) not in found:
            found[id(node)] = node
            stack.extend(node.parents)
    return list(found.values())


def reference_backward(root):
    """backward as it was before it consumed the graph: every visited
    node keeps its grad (a leaf in ``.grad``, an interior node in the
    returned dict, keyed by node id), and the VJP closures stay alive
    with the graph. Frozen here as the oracle for the leaf gradients:
    same VJPs, same order, same flow sums."""
    start = root if root._node is None else root._node
    topo = []
    seen = set()
    stack = [(start, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in getattr(node, "parents", ()):
            if p is not None and id(p) not in seen:
                stack.append((p, False))

    interior = {}
    flows = {id(start): np.ones_like(root.data)}
    for node in reversed(topo):
        g = flows.pop(id(node), None)
        if g is None:
            continue
        if isinstance(node, Tensor):
            node.grad = g if node.grad is None else node.grad + g
            continue
        interior[id(node)] = g
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is None or parent is None:
                continue
            key = id(parent)
            flows[key] = pg if key not in flows else flows[key] + pg
    return interior


def check(f, x, atol=1e-4):
    report = grad_check(f, x)
    assert report.max_rel_error < atol, f"max_rel_error={report.max_rel_error:.3e}"


class TestGradCheck:
    """Finite-difference agreement for every registered kernel."""

    def test_sum_exact(self):
        report = grad_check(tensor_sum, t64(np.arange(5.0), requires_grad=True))
        assert report.max_rel_error < 1e-10

    def test_elementwise_kernels(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 3))
        check(lambda t: tensor_sum(mul(t, t)), t64(x, True))
        check(lambda t: tensor_sum(add(t, t64(x))), t64(x, True))
        check(lambda t: tensor_sum(log(add(mul(t, t), t64(np.full((2, 3), 0.5))))),
              t64(x, True))
        check(lambda t: tensor_sum(gelu(t)), t64(x, True))
        # keep inputs away from the clamp kink
        far = np.abs(x) + 0.7
        check(lambda t: tensor_sum(clamp_min(t, 0.2)), t64(far, True))

    def test_structural_kernels(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(2, 6))
        w34 = t64(rng.normal(size=(3, 4)))
        w62 = t64(rng.normal(size=(6, 2)))
        w46 = t64(rng.normal(size=(4, 6)))
        w23 = t64(rng.normal(size=(2, 3)))
        w36 = t64(rng.normal(size=(3, 6)))
        check(lambda t: tensor_sum(mul(reshape(t, (3, 4)), w34)), t64(x, True))
        check(lambda t: tensor_sum(mul(transpose(t, (1, 0)), w62)), t64(x, True))
        check(lambda t: tensor_sum(mul(concat([t, t], axis=0), w46)), t64(x, True))
        check(lambda t: tensor_sum(mul(narrow(t, 1, 2, 3), w23)), t64(x, True))
        check(lambda t: tensor_sum(mul(gather_rows(t, np.array([1, 1, 0])), w36)),
              t64(x, True))

    def test_matmul_chain(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(3, 4))
        b = t64(rng.normal(size=(4, 2)))
        check(lambda t: tensor_sum(gelu(matmul(t, b))), t64(a, True))

    def test_softmax_and_normalize(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(3, 5))
        w = t64(rng.normal(size=(3, 5)))
        check(lambda t: tensor_sum(mul(softmax_t(t, temperature=0.1), w)), t64(x, True))
        check(lambda t: tensor_sum(mul(l2_normalize_rows(t), w)), t64(x + 2.0, True))

    def test_layer_norm_full(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(4, 6))
        gamma = t64(rng.normal(size=6) + 1.0, requires_grad=True)
        beta = t64(rng.normal(size=6), requires_grad=True)
        w = t64(rng.normal(size=(4, 6)))
        check(lambda t: tensor_sum(mul(layer_norm(t, gamma, beta), w)), t64(x, True))
        check(lambda g: tensor_sum(mul(layer_norm(t64(x, True), g, beta), w)), gamma)
        check(lambda b: tensor_sum(mul(layer_norm(t64(x, True), gamma, b), w)), beta)

    def test_cross_entropy_fixed_target(self):
        """Matches the finite-difference oracle below 1e-4."""
        rng = np.random.default_rng(26)
        target = t64(rng.dirichlet(np.ones(5), size=3))
        # keep predictions >= 0.1: the h^2 truncation term of the central
        # difference grows like 1/p^3 and would swamp the tolerance
        pred = rng.dirichlet(np.ones(5), size=3) * 0.5 + 0.1
        check(lambda p: loss_in_mim(target, p, 3), t64(pred, True))
        logits = rng.normal(size=(3, 5))
        check(lambda z: loss_in_mim(target, softmax_t(z, temperature=0.5), 3),
              t64(logits, True))

    def test_bicubic_resize(self):
        rng = np.random.default_rng(27)
        g = rng.normal(size=(3, 4, 2))
        w = t64(rng.normal(size=(5, 6, 2)))
        check(lambda t: tensor_sum(mul(bicubic_resize_2d(t, (5, 6)), w)), t64(g, True))

    def test_float32_rejected(self):
        x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(tensor_sum, x)


class TestRng:
    """Counter-based generator with named substreams."""

    def test_same_seed_same_draws(self):
        a = Rng(123).uniform(size=10)
        b = Rng(123).uniform(size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniform(size=8), Rng(2).uniform(size=8))

    def test_seed_outside_range_refused(self):
        """A seed is an integer in [0, 2**64): 2**64 no longer wraps to
        0, nor -1 to 2**64 - 1."""
        for seed in (-1, 2 ** 64, 1.5, None):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
                Rng(seed)
        top = Rng(2 ** 64 - 1)
        assert top.seed == 2 ** 64 - 1
        assert np.array_equal(top.substream("x").uniform(size=3),
                              Rng(2 ** 64 - 1).substream("x").uniform(size=3))

    def test_substreams_are_independent_of_order(self):
        r = Rng(7)
        a_first = r.substream("a").uniform(size=4)
        b_first = Rng(7).substream("b").uniform(size=4)
        # consuming b before a must not shift a's draws
        r2 = Rng(7)
        assert np.array_equal(r2.substream("b").uniform(size=4), b_first)
        assert np.array_equal(r2.substream("a").uniform(size=4), a_first)

    def test_nested_substreams(self):
        a = Rng(7).substream("x").substream("y").uniform(size=3)
        b = Rng(7).substream("x").substream("y").uniform(size=3)
        c = Rng(7).substream("xy").uniform(size=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("path", [("init",), ("step3", "ñandú"),
                                      ("γ", "clip0", "時間"), ("a", "", "ü/x", "frame1")])
    def test_substream_draws_equal_philox_on_full_path(self, path):
        r = Rng(42)
        for name in path:
            r = r.substream(name)
        full = "/".join(path)
        assert r.path == full
        key = np.array([42, _fnv1a(full.encode("utf-8"))], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key))
        assert np.array_equal(r.uniform(size=5), want.uniform(size=5))
        assert np.array_equal(r.integers(0, 100, size=5), want.integers(0, 100, size=5))

    def test_spawning_builds_no_generator(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(kwargs.get("key"))
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        root = Rng(3)
        leaf = root.substream("step0").substream("clip1").substream("crops")
        assert built == []
        leaf.uniform(size=2)
        leaf.normal()
        assert len(built) == 1

    def test_integers_half_open(self):
        draws = Rng(99).integers(0, 4, size=1000)
        assert draws.min() >= 0 and draws.max() <= 3
        assert set(np.unique(draws)) == {0, 1, 2, 3}

    def test_permutation_and_normal(self):
        r = Rng(5)
        p = r.substream("perm").permutation(6)
        assert sorted(p.tolist()) == list(range(6))
        n = r.substream("gauss").normal(size=(2, 2))
        assert n.shape == (2, 2)


class TestRecordio:
    """Little-endian tensor records."""

    def test_round_trip_dtypes(self):
        for dtype in (np.float32, np.float64):
            arr = np.arange(12, dtype=dtype).reshape(3, 4) / 7
            buf = tensor_record_bytes(arr)
            back, offset = parse_tensor_record(buf)
            assert offset == len(buf)
            assert back.dtype == dtype
            assert np.array_equal(back, arr)

    def test_record_layout(self):
        buf = tensor_record_bytes(np.zeros((2, 3), dtype=np.float32))
        assert buf[:4] == b"INOT"
        assert buf[4] == 1  # version
        assert buf[5] == 2  # rank

    def test_bad_magic_rejected(self):
        buf = bytearray(tensor_record_bytes(np.zeros(2, dtype=np.float64)))
        buf[:4] = b"XXXX"
        with pytest.raises(ValueError):
            parse_tensor_record(bytes(buf), 0)

    def test_named_list_round_trip(self):
        items = [("w", np.ones((2, 2), dtype=np.float32)),
                 ("b", np.zeros(3, dtype=np.float64))]
        buf = named_list_bytes(items)
        back, offset = parse_named_list(buf, 0)
        assert offset == len(buf)
        assert [name for name, _ in back] == ["w", "b"]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(items, back))
