"""Dense tensors with reverse-mode automatic differentiation.

Every kernel computes its forward value with numpy and records a graph
node exactly when one of its inputs tracks gradients, so
:func:`backward` can fill the ``.grad`` of the leaves (tensors built
with ``requires_grad=True`` rather than by a kernel) by walking the
graph in reverse topological order. No switch turns recording off: a
forward that must build no graph, the teacher's or inference's, takes
grad-free parameters.

The graph is made of nodes, not of tensors. A kernel's output tensor
holds its node; the node holds its vector-Jacobian closure and the
nodes of the inputs that track gradients (a leaf's node is the leaf
tensor itself, ``None`` stands for an input without gradient), and
nothing else. A VJP closure captures only the arrays it reads, plus
plain shapes, dtypes and flags, never a tensor: ``mul``, ``matmul`` and
``linear`` keep one operand's data only when the other side needs a
gradient, shape kernels keep shapes, ``layer_norm`` keeps its
normalized input, inverse deviation and gamma, and ``gelu`` forms its
derivative in the forward (only when it records a node) and keeps that
one array. So an activation that no VJP reads is freed as soon as the
forward drops its tensor, while the graph waits for :func:`backward`.
On one seeded desk train step (the acceptance tests' desk config) the
live graph at backward holds 8.6 MB, against 12.3 MB when nodes held
their input tensors, and the ``train-desk`` benchmark peaks at 57.9
against 60.5 MB RSS (2-core x86-64 VM, Python 3.11, numpy 2.4).

Interior tensors never get a ``.grad``, and :func:`backward` consumes
the graph as it walks it: each node's closure and parents are dropped
once its VJP has run, so a graph can be backpropagated only once.
Kernels never write to their inputs' data; VJPs return ``None`` for
inputs that do not track gradients.

Training runs in float32: tensors built from plain python data take
:data:`DEFAULT_DTYPE`, while ndarrays keep their precision. Gradient
checks and the oracle tests build float64 arrays explicitly (the 1e-4
finite-difference tolerance is unreachable in single precision).
"""

import math

import numpy as np

_ALLOWED_DTYPES = (np.float32, np.float64)
DEFAULT_DTYPE = np.float32


def _coerce(data):
    # ndarrays and numpy scalars keep their precision; reductions
    # produce numpy scalars and must not fall back to the default
    if isinstance(data, (np.ndarray, np.generic)) and data.dtype.type in _ALLOWED_DTYPES:
        return np.asarray(data)
    return np.asarray(data, dtype=DEFAULT_DTYPE)


class Tensor:
    """Shape-carrying dense array, a leaf or a kernel's output.

    A leaf (``requires_grad=True``, not produced by a kernel) is its own
    graph node. Its ``grad`` is ``None`` until :func:`backward` runs over
    a scalar root that reaches it; backward calls over separate graphs
    accumulate into it (call :meth:`zero_grad` between steps). A
    kernel's output that tracks gradients is interior: it holds its
    :class:`_Node` in ``_node``, its ``grad`` stays ``None``, and once a
    backward pass has gone through its node, it cannot take part in
    another.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "_node")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = _coerce(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.name = name
        self._node = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad}{tag})"

    def label(self):
        return self.name if self.name else f"tensor{self.shape}"

    # -- gradient bookkeeping ------------------------------------------------

    def zero_grad(self):
        self.grad = None


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


# -- graph plumbing ------------------------------------------------------------


class _Node:
    """An interior graph node: the VJP of one kernel call and the nodes
    of its inputs, ``None`` where an input tracks no gradient."""

    __slots__ = ("parents", "vjp")

    def __init__(self, parents, vjp):
        self.parents = parents
        self.vjp = vjp


def _node_of(t):
    """The graph node of tensor ``t``: its kernel's node, itself for a
    leaf, ``None`` when it tracks no gradient."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _result(data, parents, vjp):
    if any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True)
        out._node = _Node(tuple(_node_of(p) for p in parents), vjp)
        return out
    return Tensor(data)


def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _shape_err(op, a, b):
    return ValueError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def _consumed(g):
    raise RuntimeError("backward: graph already backpropagated; "
                       "run the forward again to build a new one")


def backward(root):
    """Add d(root)/d(leaf) into ``.grad`` of every requires_grad leaf
    reachable from ``root``, consuming the graph as it goes.

    ``root`` must hold a single element. Leaf grads accumulate across
    calls on separate graphs. Interior nodes never get a ``.grad``: each
    one's VJP closure and parents are dropped as soon as its VJP has run,
    so the arrays a closure kept are freed once it is done.
    The graph can be backpropagated once; reaching a consumed node again
    raises.
    """
    if not isinstance(root, Tensor):
        raise TypeError("backward expects a Tensor root")
    if root.data.size != 1:
        raise ValueError(f"backward needs a scalar root, got shape {root.shape}")
    if not root.requires_grad:
        return

    start = _node_of(root)
    # Iterative topological order over nodes (graphs are deep enough to
    # overflow recursion); a leaf is a Tensor and has no parents.
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
        if isinstance(node, _Node):
            for p in node.parents:
                if p is not None and id(p) not in seen:
                    stack.append((p, False))

    # Pop rather than iterate, so that no list keeps a finished node alive.
    flows = {id(start): np.ones_like(root.data)}
    while topo:
        node = topo.pop()
        g = flows.pop(id(node), None)
        if isinstance(node, Tensor):
            if g is not None:
                node.grad = g if node.grad is None else node.grad + g
            continue
        if g is not None:
            for parent, pg in zip(node.parents, node.vjp(g)):
                if pg is None or parent is None:
                    continue
                key = id(parent)
                flows[key] = pg if key not in flows else flows[key] + pg
        node.parents = ()
        node.vjp = _consumed


# -- elementwise kernels -------------------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise _shape_err("add", a, b) from None

    a_shape, b_shape = a.shape, b.shape
    a_grad, b_grad = a.requires_grad, b.requires_grad

    def vjp(g):
        return (_unbroadcast(g, a_shape) if a_grad else None,
                _unbroadcast(g, b_shape) if b_grad else None)

    return _result(data, (a, b), vjp)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise _shape_err("mul", a, b) from None

    a_shape, b_shape = a.shape, b.shape
    # each side keeps the other's data only if it needs a gradient
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def vjp(g):
        return (None if b_data is None else _unbroadcast(g * b_data, a_shape),
                None if a_data is None else _unbroadcast(g * a_data, b_shape))

    return _result(data, (a, b), vjp)


def scale(a, c):
    a = as_tensor(a)
    c = np.asarray(float(c), dtype=a.dtype)
    return _result(a.data * c, (a,), lambda g: (g * c,))


def log(a):
    a = as_tensor(a)
    x = a.data
    return _result(np.log(x), (a,), lambda g: (g / x,))


def clamp_min(a, floor):
    """Elementwise max(a, floor); gradient flows only where a > floor."""
    a = as_tensor(a)
    floor = float(floor)
    data = np.maximum(a.data, np.asarray(floor, dtype=a.dtype))
    mask = (a.data > floor).astype(a.dtype.type)
    return _result(data, (a,), lambda g: (g * mask,))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Cephes ndtr.c coefficients: erf(x) = x*T(x^2)/U(x^2) for |x| <= 1, and
# erfc(x) = exp(-x^2)*P(x)/Q(x) for x > 1 (U and Q have a leading 1).
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)


def _horner(x, coefs, leading_one=False):
    if leading_one:
        acc = x + coefs[0]
    else:
        acc = x * coefs[0]
        acc += coefs[1]
        coefs = coefs[1:]
    for c in coefs[1:]:
        acc *= x
        acc += c
    return acc


def erf(x):
    """Elementwise error function, evaluated in float64 as Cephes does
    and returned in the input's dtype. Float32 results equal
    scipy.special.erf bit for bit; float64 ones are within one ulp (the
    tail's exp comes from numpy rather than libm). Past |x| = 8,
    1 - erfc(x) rounds to 1 whichever tail polynomial is used."""
    x = np.asarray(x)
    v = np.ascontiguousarray(x, dtype=np.float64)
    # inf/inf in the |x| <= 1 form at infinite x is overwritten below
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        z = v * v
        out = _horner(z, _ERF_T)
        out *= v
        out /= _horner(z, _ERF_U, leading_one=True)
        tail = np.flatnonzero(z > 1.0)  # exactly |x| > 1
        s = v.reshape(-1)[tail]
        erfc = np.exp(-z.reshape(-1)[tail])
        a = np.minimum(np.abs(s), 8.0)
        erfc *= _horner(a, _ERFC_P)
        erfc /= _horner(a, _ERFC_Q, leading_one=True)
        out.reshape(-1)[tail] = np.copysign(1.0 - erfc, s)
    return out.astype(x.dtype, copy=False)


def gelu(a):
    """Exact erf formulation: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    a = as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * np.asarray(_INV_SQRT2, dtype=a.dtype)))
    data = (x * cdf).astype(a.dtype.type, copy=False)
    if not a.requires_grad:
        return Tensor(data)
    # the derivative is all the VJP reads, so it is formed here and x
    # and cdf are not kept
    pdf = np.exp(-0.5 * x * x) * np.asarray(_INV_SQRT_2PI, dtype=a.dtype)
    deriv = cdf + x * pdf
    return _result(data, (a,), lambda g: (g * deriv,))


# -- shape kernels ---------------------------------------------------------------


def reshape(a, shape):
    a = as_tensor(a)
    data = a.data.reshape(shape)
    a_shape = a.shape
    return _result(data, (a,), lambda g: (g.reshape(a_shape),))


def transpose(a, axes=None):
    a = as_tensor(a)
    data = np.transpose(a.data, axes)
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))
    return _result(data, (a,), lambda g: (np.transpose(g, inv),))


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]
    wanted = [t.requires_grad for t in tensors]

    def vjp(g):
        parts = np.split(g, bounds, axis=axis)
        return tuple(p if w else None for p, w in zip(parts, wanted))

    return _result(data, tuple(tensors), vjp)


def narrow(a, axis, start, length):
    """Contiguous slice [start, start+length) along ``axis``."""
    a = as_tensor(a)
    if not (0 <= start and start + length <= a.shape[axis]):
        raise ValueError(f"narrow: [{start}, {start + length}) outside axis {axis} of shape {a.shape}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    a_shape = a.shape

    def vjp(g):
        full = np.zeros(a_shape, dtype=g.dtype)
        full[index] = g
        return (full,)

    return _result(a.data[index], (a,), vjp)


def gather_rows(a, indices):
    """Select rows (positions along axis 0); duplicate indices
    accumulate grads."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    data = np.take(a.data, idx, axis=0)
    a_shape = a.shape

    def vjp(g):
        full = np.zeros(a_shape, dtype=g.dtype)
        np.add.at(full, idx, g)
        return (full,)

    return _result(data, (a,), vjp)


def tensor_sum(a):
    """Sum of every element, as a 0-d Tensor."""
    a = as_tensor(a)
    data = a.data.sum()
    a_shape = a.shape

    def vjp(g):
        return (np.broadcast_to(g.reshape((1,) * len(a_shape)), a_shape).copy(),)

    return _result(data, (a,), vjp)


# -- linear algebra ---------------------------------------------------------------


def matmul(a, b):
    """Matrix product with numpy batching; leading axes may broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs ndim >= 2 operands, got {a.shape} and {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError:
        raise _shape_err("matmul", a, b) from None

    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def vjp(g):
        ga = None if b_data is None else _unbroadcast(g @ np.swapaxes(b_data, -1, -2), a_shape)
        gb = None if a_data is None else _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b_shape)
        return (ga, gb)

    return _result(data, (a, b), vjp)


def linear(x, weight, bias):
    """``x @ weight + bias`` as one graph node; the arithmetic, gradients
    included, is that of ``add(matmul(x, weight), bias)``."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.ndim < 2 or weight.ndim != 2:
        raise ValueError(
            f"linear needs an ndim >= 2 input and a 2-d weight, got {x.shape} and {weight.shape}")
    try:
        data = x.data @ weight.data + bias.data
    except ValueError:
        raise _shape_err("linear", x, weight) from None

    x_shape, w_shape, b_shape = x.shape, weight.shape, bias.shape
    b_grad = bias.requires_grad
    # x and weight each keep the other's data only if it needs a gradient
    x_data = x.data if weight.requires_grad else None
    w_data = weight.data if x.requires_grad else None

    def vjp(g):
        gb = _unbroadcast(g, b_shape) if b_grad else None
        gx = None if w_data is None else _unbroadcast(g @ np.swapaxes(w_data, -1, -2), x_shape)
        gw = None if x_data is None else _unbroadcast(np.swapaxes(x_data, -1, -2) @ g, w_shape)
        return (gx, gw, gb)

    return _result(data, (x, weight, bias), vjp)


# -- normalization and distribution kernels ----------------------------------------


def _softmax(y, axis):
    """Softmax of the temperature-scaled array ``y`` along ``axis``,
    stabilized by max-subtraction, written over ``y`` and returned."""
    np.subtract(y, y.max(axis=axis, keepdims=True), out=y)
    np.exp(y, out=y)
    np.divide(y, y.sum(axis=axis, keepdims=True), out=y)
    return y


def _softmax_vjp(g, y, axis, inv_t):
    inner = (g * y).sum(axis=axis, keepdims=True)
    return (g - inner) * y * inv_t


def _check_softmax_input(x, label):
    if not np.isfinite(x).all():
        raise ValueError(f"softmax_t: non-finite values in {label}")


def softmax_t(logits, axis=-1, temperature=1.0):
    """Temperature softmax along ``axis``, stabilized by max-subtraction."""
    logits = as_tensor(logits)
    if temperature <= 0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    _check_softmax_input(logits.data, logits.label())
    inv_t = np.asarray(1.0 / temperature, dtype=logits.dtype)
    y = _softmax(logits.data * inv_t, axis)
    return _result(y, (logits,), lambda g: (_softmax_vjp(g, y, axis, inv_t),))


def attention(qkv, heads, name, queries=None):
    """Multi-head self-attention core as one graph node.

    qkv: (B, N, 3D) with the query, key and value projections side by
    side; returns the (B, N, D) head outputs, concatenated head by head.
    Each head mixes the values with softmax(q k^T / sqrt(dh)). The
    arithmetic is that of the primitive chain (narrow, reshape,
    transpose, matmul, softmax_t at temperature sqrt(dh)) op for op, so
    values and gradients match it bitwise. ``name`` labels the scores in
    the non-finite error.

    queries: optional (B, M) integer array of token positions, distinct
    within each crop. Then scores, softmax and value mixing run only for
    those M query rows of each crop, against the keys and values of all
    N tokens, and the result is (B, M, D) in ``queries`` order. The
    gradient reaches every key and value row, and the query part of the
    chosen rows only.
    """
    qkv = as_tensor(qkv)
    b, n, d3 = qkv.shape
    d = d3 // 3
    dh = d // heads
    x = qkv.data

    def split(start):
        return x[:, :, start:start + d].reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

    q, k, v = split(0), split(d), split(2 * d)
    if queries is None:
        at = np.s_[:, :]
    else:
        q = np.take_along_axis(q, queries[:, None, :, None], axis=2)
        at = (np.arange(b)[:, None], queries)
    m = q.shape[2]
    k_t = np.transpose(k, (0, 1, 3, 2))
    scores = q @ k_t
    _check_softmax_input(scores, name)
    inv_t = np.asarray(1.0 / math.sqrt(dh), dtype=qkv.dtype)
    # the scores are fresh and nothing else reads them
    attn = _softmax(np.multiply(scores, inv_t, out=scores), -1)
    mixed = np.transpose(attn @ v, (0, 2, 1, 3)).reshape(b, m, d)
    if queries is not None:
        # the VJP reads no other query row: a copy of the key and value
        # columns alone lets qkv be freed after the forward
        x = x[:, :, d:].copy()
        k_t, v = np.transpose(split(0), (0, 1, 3, 2)), split(d)

    def vjp(g):
        g = np.transpose(g.reshape(b, m, heads, dh), (0, 2, 1, 3))
        g_attn = g @ np.swapaxes(v, -1, -2)
        g_v = np.swapaxes(attn, -1, -2) @ g
        g_scores = _softmax_vjp(g_attn, attn, -1, inv_t)
        g_q = g_scores @ np.swapaxes(k_t, -1, -2)
        g_k = np.transpose(np.swapaxes(q, -1, -2) @ g_scores, (0, 1, 3, 2))
        # accumulate into zeros as the graph's flow sum does, so -0.0 -> +0.0
        full = np.zeros((b, n, d3), dtype=g.dtype)
        parts = full.reshape(b, n, 3, heads, dh)
        parts[at + (0,)] += np.transpose(g_q, (0, 2, 1, 3))
        for i, part in ((1, g_k), (2, g_v)):
            parts[:, :, i] += np.transpose(part, (0, 2, 1, 3))
        return (full,)

    return _result(mixed, (qkv,), vjp)


def l2_normalize_rows(x, eps=1e-8):
    """Scale each last-axis vector to unit Euclidean norm.

    Rows with norm <= ``eps`` are rejected: a direction cannot be
    recovered from a near-zero vector.
    """
    x = as_tensor(x)
    norm = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    if (norm <= eps).any():
        raise ValueError(f"l2_normalize_rows: row norm below {eps} in {x.label()}")
    y = x.data / norm

    def vjp(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return ((g - y * inner) / norm,)

    return _result(y, (x,), vjp)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize over the last axis, then apply the affine pair.

    The variance is floored by ``eps``, so a constant vector maps to the
    zero vector before gamma/beta are applied.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if gamma.shape != x.shape[-1:] or beta.shape != x.shape[-1:]:
        raise ValueError(
            f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match feature dim {x.shape[-1:]}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat = centered * inv_std
    gamma_data = gamma.data
    data = xhat * gamma_data + beta.data
    lead = tuple(range(x.ndim - 1))

    def vjp(g):
        dxhat = g * gamma_data
        dx = (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv_std
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        return (dx, dgamma, dbeta)

    return _result(data, (x, gamma, beta), vjp)


CROSS_ENTROPY_EPS = 1e-12  # log clamp; teacher sharpening produces near-zero probabilities
