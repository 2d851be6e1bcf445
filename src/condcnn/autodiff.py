"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is float64: it keeps finite-difference checks and oracle
comparisons sharp. The graph is built eagerly during the forward pass
(each op records its inputs and a backward closure) unless `no_grad` is
active. backward() visits every reachable node exactly once in reverse
topological order and consumes the graph as it goes: once a node's
closure has run, its links and gradient are dropped, so intermediates
are freed during the sweep and only leaves keep their gradients.

Convolution uses the cross-correlation convention (no kernel flip).
"""

from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError

# False inside `no_grad`: ops then record no inputs and no backward closure.
_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Scope in which ops build no graph: their results do not require a
    gradient, whatever their inputs, so no intermediate outlives its use.
    Scopes nest; the previous state returns on exit, also on an error."""
    global _GRAD_ENABLED
    previous, _GRAD_ENABLED = _GRAD_ENABLED, False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _consumed(grad):
    """Backward closure of a node whose graph a backward() already used."""
    raise RuntimeError("graph already consumed by backward()")


class Tensor:
    """A dense n-d float64 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_children", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        # Leaf parameters carry an always-present gradient buffer so that
        # parameters untouched by a loss read as zero gradient.
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._children = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0
        elif self.requires_grad:
            self.grad = np.zeros_like(self.data)

    def backward(self):
        """Reverse-mode sweep from this (scalar) node through the graph.

        The sweep consumes the graph: after a node's closure has run, the
        node drops its closure, its inputs and its gradient, so it is freed
        as soon as nothing else holds it. Leaves keep their gradients. A
        second backward through a consumed node raises RuntimeError.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward requires a scalar, got shape {self.data.shape}"
            )
        topo = _topo_order(self)
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None and node.requires_grad:
                node._backward(node.grad)
                node._backward, node._children, node.grad = _consumed, (), None

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _lift(value):
    return value if isinstance(value, Tensor) else Tensor(value)


def _topo_order(root):
    # Iterative DFS; graphs from deep models overflow Python's recursion limit.
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for child in node._children:
            if id(child) not in visited:
                stack.append((child, False))
    return order


def _result(data, children, backward, op_name):
    """Wrap an op's output; a non-finite value raises NumericError."""
    data = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise NumericError(f"{op_name} produced non-finite values")
    out = Tensor(data)
    out.requires_grad = _GRAD_ENABLED and any(c.requires_grad for c in children)
    if out.requires_grad:
        out._children = tuple(children)
        out._backward = backward
    return out


def _inputs(*tensors):
    """The given op inputs, leaving out optional ones passed as None."""
    return tuple(t for t in tensors if t is not None)


def _accumulate(tensor, grad):
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        tensor.grad = np.zeros_like(tensor.data)
    tensor.grad += grad


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise arithmetic ----------------------------------------------

def add(a, b):
    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _result(a.data + b.data, (a, b), backward, "add")


def sub(a, b):
    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _result(a.data - b.data, (a, b), backward, "sub")


def mul(a, b):
    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(a.data * b.data, (a, b), backward, "mul")


def div(a, b):
    def backward(g):
        _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    with np.errstate(divide="ignore", invalid="ignore"):
        value = a.data / b.data
    return _result(value, (a, b), backward, "div")


def neg(a):
    def backward(g):
        _accumulate(a, -g)

    return _result(-a.data, (a,), backward, "neg")


def power(a, exponent):
    if not isinstance(exponent, (int, float)):
        raise ConfigError("power exponent must be a plain number")

    def backward(g):
        _accumulate(a, g * exponent * a.data ** (exponent - 1))

    return _result(a.data ** exponent, (a,), backward, "power")


def tsqrt(a):
    value = np.sqrt(a.data)

    def backward(g):
        _accumulate(a, g * 0.5 / value)

    return _result(value, (a,), backward, "sqrt")


# -- activations -----------------------------------------------------------

def relu(a):
    def backward(g):
        _accumulate(a, g * (a.data > 0))

    return _result(np.maximum(a.data, 0.0), (a,), backward, "relu")


def leaky_relu(a, slope=0.01):
    def backward(g):
        _accumulate(a, g * np.where(a.data > 0, 1.0, slope))

    return _result(np.where(a.data > 0, a.data, slope * a.data), (a,), backward, "leaky_relu")


def elu(a, alpha=1.0):
    with np.errstate(over="ignore"):
        value = np.where(a.data > 0, a.data, alpha * (np.exp(a.data) - 1.0))

    def backward(g):
        _accumulate(a, g * np.where(a.data > 0, 1.0, value + alpha))

    return _result(value, (a,), backward, "elu")


def sigmoid(a):
    value = _sigmoid_stable(a.data)

    def backward(g):
        _accumulate(a, g * value * (1.0 - value))

    return _result(value, (a,), backward, "sigmoid")


def _sigmoid_stable(x):
    with np.errstate(over="ignore", invalid="ignore"):
        positive = 1.0 / (1.0 + np.exp(-x))
        e = np.exp(x)
        negative = e / (1.0 + e)
    return np.where(x >= 0, positive, negative)


def tanh(a):
    value = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - value * value))

    return _result(value, (a,), backward, "tanh")


# -- reductions and shape ----------------------------------------------------

def tsum(a, axis=None, keepdims=False):
    value = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, g)  # broadcasts over the summed axes

    return _result(value, (a,), backward, "sum")


def tmean(a, axis=None, keepdims=False):
    value = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in np.atleast_1d(axis)]
    )

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, g / count)  # broadcasts over the averaged axes

    return _result(value, (a,), backward, "mean")


def reshape(a, shape):
    original = a.data.shape

    def backward(g):
        _accumulate(a, g.reshape(original))

    return _result(a.data.reshape(shape), (a,), backward, "reshape")


# -- linear algebra ----------------------------------------------------------

def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul expects 2-d operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.data.shape} x {b.data.shape}"
        )

    def backward(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _result(a.data @ b.data, (a, b), backward, "matmul")


# -- normalization -------------------------------------------------------------

def batch_norm(x, gamma, beta, epsilon, stats=None):
    """Batch normalization of `x` (batch, T, C): (x - mean) * (gamma / std)
    + beta per channel, with std = sqrt(var + epsilon), into one buffer.

    Without `stats` (train mode) mean and var are the channel's mean and
    biased variance over the (batch, T) axes; `stats`, a (mean, var) pair
    of arrays (eval mode, the running statistics), fixes them instead.
    Returns (out, mean, var); mean and var are plain arrays for the
    running statistics. The node keeps only per-channel vectors: backward
    recomputes x_hat from the input, which the graph holds anyway. With
    batch statistics it applies the closed form
    dx = gamma / std * (g - mean(g) - x_hat * mean(g * x_hat));
    with fixed ones the statistic terms drop out, dx = g * gamma / std.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"batch norm input must be (batch, T, C), got {x.data.shape}")
    if x.data.shape[2] != gamma.data.shape[0]:
        raise ShapeError(f"batch norm built for {gamma.data.shape[0]} channels, "
                         f"input has {x.data.shape[2]}")
    count = x.data.shape[0] * x.data.shape[1]
    if stats is None and count < 2:
        raise ConfigError("batch norm needs at least 2 samples per channel in train mode")
    if stats is None:
        mu = x.data.mean(axis=(0, 1))
        value = x.data - mu
        var = (value * value).mean(axis=(0, 1))
    else:
        mu, var = stats
        value = x.data - mu
    std = np.sqrt(var + epsilon)
    scale = gamma.data / std
    value *= scale
    value += beta.data

    def backward(g):
        x_hat = x.data - mu
        x_hat /= std
        g_sum = g.sum(axis=(0, 1))
        gx_sum = (g * x_hat).sum(axis=(0, 1))
        _accumulate(beta, g_sum)
        _accumulate(gamma, gx_sum)
        if x.requires_grad and stats is not None:
            _accumulate(x, g * scale)
        elif x.requires_grad:
            dx = g - g_sum / count
            x_hat *= gx_sum / count
            dx -= x_hat
            del x_hat  # freed before x's gradient is allocated
            dx *= scale
            _accumulate(x, dx)

    return _result(value, (x, gamma, beta), backward, "batch_norm"), mu, var


# -- temporal convolution ------------------------------------------------------

def _same_padding(t, k, stride):
    out = -(-t // stride)  # ceil division
    total = max(0, (out - 1) * stride + k - t)
    return total // 2, total - total // 2


def _conv_geometry(t_in, k, stride, padding):
    """Validate stride and padding; return (left pad, padded length,
    output length)."""
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    if padding == "same":
        left, right = _same_padding(t_in, k, stride)
    elif padding == "valid":
        left = right = 0
    else:
        raise ConfigError(f"padding must be 'same' or 'valid', got {padding!r}")
    t_padded = t_in + left + right
    if k > t_padded:
        raise ConfigError(
            f"kernel length {k} exceeds padded input length {t_padded}"
        )
    return left, t_padded, (t_padded - k) // stride + 1


def conv_length(t_in, k, stride=1, padding="same"):
    """Output length of a temporal convolution over `t_in` steps."""
    return _conv_geometry(t_in, k, stride, padding)[2]


def _im2col(data, left, t_padded, t_out, k, stride):
    """cols[b, t, j*C_in + i] == padded[b, t*stride + j, i]: a strided view of
    (batch, T, C_in) `data` zero-padded along time; no copy when nothing pads."""
    if t_padded == data.shape[1]:
        padded = np.ascontiguousarray(data)
    else:
        padded = np.zeros((data.shape[0], t_padded, data.shape[2]), dtype=np.float64)
        padded[:, left:left + data.shape[1], :] = data
    s_b, s_t, s_c = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded, (padded.shape[0], t_out, k * padded.shape[2]), (s_b, s_t * stride, s_c),
        writeable=False,
    )


def _fold_windows(dwin, t_padded, stride):
    """Adjoint of `_im2col`: dwin[b, t, j, c] is the gradient of
    padded[b, t*stride + j, c]; sum it onto a (batch, t_padded, C) array."""
    batch, t_out, k, c = dwin.shape
    dpad = np.zeros((batch, t_padded, c), dtype=np.float64)
    for j in range(k):
        # for fixed j the target indices t*stride + j are distinct
        dpad[:, j:j + (t_out - 1) * stride + 1:stride, :] += dwin[:, :, j, :]
    return dpad


# Byte budget for the mixed kernels that `condconv_temporal` holds at once;
# `conv_temporal`'s backward walks the batch in the same chunks. The chunk
# size follows from it and the layer's shape alone, never from the machine,
# so results are the same everywhere.
CONDCONV_CHUNK_BYTES = 64 * 2**20


def condconv_chunk(kernel_shape):
    """Examples per chunk for a mixed kernel of `kernel_shape`."""
    kernel_bytes = 8 * int(np.prod(kernel_shape))
    return max(1, CONDCONV_CHUNK_BYTES // kernel_bytes)


def _chunks(batch, kernel_shape):
    """The batch as consecutive slices of `condconv_chunk` examples."""
    step = condconv_chunk(kernel_shape)
    return [slice(lo, min(lo + step, batch)) for lo in range(0, batch, step)]


def conv_temporal(x, kernel, stride=1, padding="same", bias=None):
    """Cross-correlate `x` (batch, T, C_in) with the shared (K, C_in, C_out)
    `kernel` along its temporal axis: one matmul of the im2col view against
    the kernel as a (K*C_in, C_out) matrix, the call `condconv_temporal`
    makes with a chunk's mixed kernels. Backward walks the batch in the same
    chunks, so no whole-batch window array or window gradient exists. An
    optional (C_out,) `bias` is added in place to the output.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"conv input must be (batch, T, C_in), got {x.data.shape}")
    if kernel.data.ndim != 3:
        raise ShapeError(f"kernel must be (K, C_in, C_out), got {kernel.data.shape}")
    batch, t_in, c_in = x.data.shape
    k, kc_in, c_out = kernel.data.shape
    if kc_in != c_in:
        raise ShapeError(f"kernel expects {kc_in} input channels, input has {c_in}")
    left, t_padded, t_out = _conv_geometry(t_in, k, stride, padding)
    w = kernel.data.reshape(k * c_in, c_out)
    value = np.matmul(_im2col(x.data, left, t_padded, t_out, k, stride), w)
    if bias is not None:
        value += bias.data

    def backward(g):
        if bias is not None:
            _accumulate(bias, _unbroadcast(g, bias.data.shape))
        dw = np.zeros_like(w) if kernel.requires_grad else None
        dx = np.empty_like(x.data) if x.requires_grad else None
        for c in _chunks(batch, kernel.data.shape):
            g_c = g[c].reshape(-1, c_out)
            if dw is not None:
                cols = _im2col(x.data[c], left, t_padded, t_out, k, stride)
                dw += cols.reshape(-1, k * c_in).T @ g_c
                del cols  # frees the padded chunk before the input pass
            if dx is not None:
                dcols = (g_c @ w.T).reshape(-1, t_out, k, c_in)
                dx[c] = _fold_windows(dcols, t_padded, stride)[:, left:left + t_in, :]
        if dw is not None:
            _accumulate(kernel, dw.reshape(kernel.data.shape))
        if dx is not None:
            _accumulate(x, dx)

    return _result(value, _inputs(x, kernel, bias), backward, "conv_temporal")


def condconv_temporal(x, alpha, experts, stride=1, padding="same", bias=None):
    """Conditionally parameterized convolution of `x` (batch, T, C_in).

    Example b is cross-correlated with its own kernel, the mix
    sum_i alpha[b, i] * experts[i] of the (n, K, C_in, C_out) experts under
    the (batch, n) routing weights `alpha`. The batch is walked in chunks of
    `condconv_chunk` examples: each chunk mixes its kernels and convolves
    them as one batched matmul against an im2col view of the input, so at
    most one chunk of mixed kernels exists at a time. Backward recomputes
    them per chunk rather than keeping them from the forward pass. An
    optional (C_out,) `bias` is added in place to the output.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"conv input must be (batch, T, C_in), got {x.data.shape}")
    if experts.data.ndim != 4:
        raise ShapeError(
            f"experts must be (n, K, C_in, C_out), got {experts.data.shape}"
        )
    batch, t_in, c_in = x.data.shape
    n, k, kc_in, c_out = experts.data.shape
    if alpha.data.shape != (batch, n):
        raise ShapeError(
            f"alpha shape {alpha.data.shape} does not match batch {batch} "
            f"and {n} experts"
        )
    if kc_in != c_in:
        raise ShapeError(f"kernel expects {kc_in} input channels, input has {c_in}")
    left, t_padded, t_out = _conv_geometry(t_in, k, stride, padding)
    flat = experts.data.reshape(n, k * c_in * c_out)
    chunks = _chunks(batch, (k, c_in, c_out))

    def cols(c):
        return _im2col(x.data[c], left, t_padded, t_out, k, stride)

    def mixed(c):
        return (alpha.data[c] @ flat).reshape(-1, k * c_in, c_out)

    value = np.empty((batch, t_out, c_out))
    for c in chunks:
        np.matmul(cols(c), mixed(c), out=value[c])
    if bias is not None:
        value += bias.data

    def backward(g):
        if bias is not None:
            _accumulate(bias, _unbroadcast(g, bias.data.shape))
        d_alpha = np.empty_like(alpha.data) if alpha.requires_grad else None
        dx = np.empty_like(x.data) if x.requires_grad else None
        for c in chunks:
            if experts.requires_grad or alpha.requires_grad:
                dk = np.matmul(cols(c).transpose(0, 2, 1), g[c]).reshape(-1, flat.shape[1])
                if experts.requires_grad:
                    _accumulate(experts, (alpha.data[c].T @ dk).reshape(experts.data.shape))
                if alpha.requires_grad:
                    d_alpha[c] = dk @ flat.T
                del dk  # freed before the input pass mixes this chunk's kernels
            if dx is not None:
                dcols = np.matmul(g[c], mixed(c).transpose(0, 2, 1))
                dpad = _fold_windows(dcols.reshape(-1, t_out, k, c_in), t_padded, stride)
                dx[c] = dpad[:, left:left + t_in, :]
        if d_alpha is not None:
            _accumulate(alpha, d_alpha)
        if dx is not None:
            _accumulate(x, dx)

    return _result(value, _inputs(x, alpha, experts, bias), backward,
                   "condconv_temporal")


def max_pool_temporal(x, size, stride):
    """Per-channel max over temporal windows of `size`, advanced by `stride`."""
    if x.data.ndim != 3:
        raise ShapeError(f"pool input must be (batch, T, C), got {x.data.shape}")
    batch, t_in, channels = x.data.shape
    if size > t_in:
        raise ConfigError(f"pool size {size} exceeds temporal length {t_in}")
    if size < 1 or stride < 1:
        raise ConfigError("pool size and stride must be >= 1")

    windows = np.lib.stride_tricks.sliding_window_view(x.data, size, axis=1)[:, ::stride]
    value = windows.max(axis=-1)
    argmax = windows.argmax(axis=-1)
    t_out = value.shape[1]

    def backward(g):
        dx = np.zeros_like(x.data)
        b_idx, t_idx, c_idx = np.ogrid[:batch, :t_out, :channels]
        np.add.at(dx, (b_idx, t_idx * stride + argmax, c_idx), g)
        _accumulate(x, dx)

    return _result(value, (x,), backward, "max_pool_temporal")


# -- classification ops ---------------------------------------------------------

def softmax(x):
    """Row-wise softmax of a (batch, classes) tensor, max-subtracted."""
    if x.data.ndim != 2:
        raise ShapeError(f"softmax input must be 2-d, got {x.data.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    value = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * value).sum(axis=1, keepdims=True)
        _accumulate(x, value * (g - dot))

    return _result(value, (x,), backward, "softmax")


def _check_labels(labels, n_classes):
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be a 1-d vector, got shape {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        labels = labels.astype(np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


def cross_entropy(probs, labels):
    """Mean negative log-likelihood of integer labels under given class
    probabilities. Rows are expected to already sum to 1."""
    if probs.data.ndim != 2:
        raise ShapeError(f"probs must be 2-d, got {probs.data.shape}")
    batch, n_classes = probs.data.shape
    labels = _check_labels(labels, n_classes)
    picked = probs.data[np.arange(batch), labels]
    with np.errstate(divide="ignore"):
        value = -np.log(picked).mean()

    def backward(g):
        dp = np.zeros_like(probs.data)
        dp[np.arange(batch), labels] = -g / (batch * picked)
        _accumulate(probs, dp)

    return _result(value, (probs,), backward, "cross_entropy")


def softmax_cross_entropy(logits, labels):
    """Fused softmax + cross-entropy on logits; the numerically stable
    training-loss path."""
    if logits.data.ndim != 2:
        raise ShapeError(f"logits must be 2-d, got {logits.data.shape}")
    batch, n_classes = logits.data.shape
    labels = _check_labels(labels, n_classes)
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(e.sum(axis=1, keepdims=True))
    value = -log_probs[np.arange(batch), labels].mean()

    def backward(g):
        d = probs.copy()
        d[np.arange(batch), labels] -= 1.0
        _accumulate(logits, g * d / batch)

    return _result(value, (logits,), backward, "softmax_cross_entropy")


def dropout(x, rate, rng):
    """Inverted dropout: zero with probability `rate`, survivors scaled by
    1/(1-rate). Identity when rate is 0."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)

    def backward(g):
        _accumulate(x, g * mask)

    return _result(x.data * mask, (x,), backward, "dropout")


# -- gradient checking -----------------------------------------------------------

def grad_check(f, x, eps=1e-5):
    """Compare reverse-mode gradients of scalar-valued `f` at `x` against
    central finite differences.

    Returns the max over coordinates of
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ConfigError(f"eps must lie in [1e-7, 1e-3], got {eps}")
    if not x.requires_grad:
        raise ConfigError("grad_check input must have requires_grad=True")
    x.data = np.ascontiguousarray(x.data)  # in-place perturbation needs a view
    x.zero_grad()
    out = f(x)
    if out.data.size != 1:
        raise ShapeError(f"grad_check target must be scalar, got {out.data.shape}")
    out.backward()
    analytic = x.grad.copy()

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        up = float(f(x).data)
        flat[i] = saved - eps
        down = float(f(x).data)
        flat[i] = saved
        numeric[i] = (up - down) / (2.0 * eps)
    numeric = numeric.reshape(x.data.shape)
    if not (np.all(np.isfinite(analytic)) and np.all(np.isfinite(numeric))):
        raise NumericError("grad_check encountered non-finite derivatives")

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())
