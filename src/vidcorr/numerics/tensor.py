"""Dense tensors with reverse-mode automatic differentiation.

Every kernel computes its forward value with numpy and, when an input
tracks gradients, records a vector-Jacobian closure so :func:`backward`
can fill ``.grad`` buffers by walking the graph in reverse topological
order. Kernels never write to their inputs' data; the only mutation a
tensor ever sees is gradient accumulation inside :func:`backward`.

Training runs in float32: tensors built from plain python data take
:data:`DEFAULT_DTYPE`, while ndarrays keep their precision. Gradient
checks and the oracle tests build float64 arrays explicitly (the 1e-4
finite-difference tolerance is unreachable in single precision).
"""

import math
from contextlib import contextmanager

import numpy as np

_ALLOWED_DTYPES = (np.float32, np.float64)
DEFAULT_DTYPE = np.float32
_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording; forwards inside run as plain numpy."""
    global _grad_enabled
    old = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = old


def _coerce(data):
    # ndarrays and numpy scalars keep their precision; reductions
    # produce numpy scalars and must not fall back to the default
    if isinstance(data, (np.ndarray, np.generic)) and data.dtype.type in _ALLOWED_DTYPES:
        return np.asarray(data)
    return np.asarray(data, dtype=DEFAULT_DTYPE)


class Tensor:
    """Shape-carrying dense array node of the autodiff graph.

    ``grad`` stays ``None`` until :func:`backward` runs over a scalar
    root that reaches this tensor; repeated backward calls accumulate
    into it (call :meth:`zero_grad` between steps).
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = _coerce(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.name = name
        self._parents = ()
        self._vjp = None

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


def _result(data, parents, vjp):
    if _grad_enabled and any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True)
        out._parents = parents
        out._vjp = vjp
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


def backward(root):
    """Fill ``.grad`` of every requires_grad tensor reachable from ``root``.

    ``root`` must hold a single element. Grads accumulate across calls.
    """
    if not isinstance(root, Tensor):
        raise TypeError("backward expects a Tensor root")
    if root.data.size != 1:
        raise ValueError(f"backward needs a scalar root, got shape {root.shape}")
    if not root.requires_grad:
        return

    # Iterative topological order (graphs are deep enough to overflow recursion).
    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    flows = {id(root): np.ones_like(root.data)}
    for node in reversed(topo):
        g = flows.pop(id(node), None)
        if g is None:
            continue
        node.grad = g if node.grad is None else node.grad + g
        if node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            flows[key] = pg if key not in flows else flows[key] + pg


# -- elementwise kernels -------------------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise _shape_err("add", a, b) from None
    return _result(data, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise _shape_err("mul", a, b) from None
    return _result(
        data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def scale(a, c):
    a = as_tensor(a)
    c = float(c)
    return _result(a.data * np.asarray(c, dtype=a.dtype), (a,), lambda g: (g * np.asarray(c, dtype=a.dtype),))


def log(a):
    a = as_tensor(a)
    return _result(np.log(a.data), (a,), lambda g: (g / a.data,))


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

    def vjp(g):
        pdf = np.exp(-0.5 * x * x) * np.asarray(_INV_SQRT_2PI, dtype=a.dtype)
        return (g * (cdf + x * pdf),)

    return _result(data, (a,), vjp)


# -- shape kernels ---------------------------------------------------------------


def reshape(a, shape):
    a = as_tensor(a)
    data = a.data.reshape(shape)
    return _result(data, (a,), lambda g: (g.reshape(a.shape),))


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

    def vjp(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _result(data, tuple(tensors), vjp)


def narrow(a, axis, start, length):
    """Contiguous slice [start, start+length) along ``axis``."""
    a = as_tensor(a)
    if not (0 <= start and start + length <= a.shape[axis]):
        raise ValueError(f"narrow: [{start}, {start + length}) outside axis {axis} of shape {a.shape}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def vjp(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        full[index] = g
        return (full,)

    return _result(a.data[index], (a,), vjp)


def gather_rows(a, indices, axis=0):
    """Select positions along ``axis``; duplicate indices accumulate grads."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    data = np.take(a.data, idx, axis=axis)

    def vjp(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        moved = np.moveaxis(full, axis, 0)
        np.add.at(moved, idx, np.moveaxis(g, axis, 0))
        return (full,)

    return _result(data, (a,), vjp)


def tensor_sum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g.reshape((1,) * a.ndim), a.shape).copy(),)
        if not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, tuple(ax % a.ndim for ax in axes))
        return (np.broadcast_to(g, a.shape).copy(),)

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

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
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

    def vjp(g):
        gb = _unbroadcast(g, bias.shape)
        gx = _unbroadcast(g @ np.swapaxes(weight.data, -1, -2), x.shape)
        gw = _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, weight.shape)
        return (gx, gw, gb)

    return _result(data, (x, weight, bias), vjp)


# -- normalization and distribution kernels ----------------------------------------


def _softmax(x, axis, inv_t):
    """Forward of :func:`softmax_t` on plain arrays; ``inv_t`` is the
    reciprocal temperature as a 0-d array of x's dtype."""
    y = x * inv_t
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
    y = _softmax(logits.data, axis, inv_t)
    return _result(y, (logits,), lambda g: (_softmax_vjp(g, y, axis, inv_t),))


def attention(qkv, heads, name):
    """Multi-head self-attention core as one graph node.

    qkv: (B, N, 3D) with the query, key and value projections side by
    side; returns the (B, N, D) head outputs, concatenated head by head.
    Each head mixes the values with softmax(q k^T / sqrt(dh)). The
    arithmetic is that of the primitive chain (narrow, reshape,
    transpose, matmul, softmax_t at temperature sqrt(dh)) op for op, so
    values and gradients match it bitwise. ``name`` labels the scores in
    the non-finite error.
    """
    qkv = as_tensor(qkv)
    b, n, d3 = qkv.shape
    d = d3 // 3
    dh = d // heads
    x = qkv.data

    def split(start):
        return x[:, :, start:start + d].reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

    q, k, v = split(0), split(d), split(2 * d)
    k_t = np.transpose(k, (0, 1, 3, 2))
    scores = q @ k_t
    _check_softmax_input(scores, name)
    inv_t = np.asarray(1.0 / math.sqrt(dh), dtype=qkv.dtype)
    attn = _softmax(scores, -1, inv_t)
    mixed = np.transpose(attn @ v, (0, 2, 1, 3)).reshape(b, n, d)

    def vjp(g):
        g = np.transpose(g.reshape(b, n, heads, dh), (0, 2, 1, 3))
        g_attn = g @ np.swapaxes(v, -1, -2)
        g_v = np.swapaxes(attn, -1, -2) @ g
        g_scores = _softmax_vjp(g_attn, attn, -1, inv_t)
        g_q = g_scores @ np.swapaxes(k_t, -1, -2)
        g_k = np.transpose(np.swapaxes(q, -1, -2) @ g_scores, (0, 1, 3, 2))
        # accumulate into zeros as the graph's flow sum does, so -0.0 -> +0.0
        full = np.zeros(x.shape, dtype=g.dtype)
        parts = full.reshape(b, n, 3, heads, dh)
        for i, part in enumerate((g_q, g_k, g_v)):
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
    data = xhat * gamma.data + beta.data

    def vjp(g):
        d = x.shape[-1]
        dxhat = g * gamma.data
        dx = (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv_std
        lead = tuple(range(x.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        return (dx, dgamma, dbeta)

    return _result(data, (x, gamma, beta), vjp)


CROSS_ENTROPY_EPS = 1e-12  # log clamp; teacher sharpening produces near-zero probabilities
