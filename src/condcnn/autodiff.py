"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is float64: it keeps finite-difference checks and oracle
comparisons sharp. The graph is built eagerly during the forward pass
(each op records its inputs and a backward closure) unless `no_grad` is
active. backward() visits every reachable node exactly once in reverse
topological order and consumes the graph as it goes: once a node's
closure has run, its links and gradient are dropped, so intermediates
are freed during the sweep and only leaves keep their gradients.

Convolution uses the cross-correlation convention (no kernel flip).
The two conv ops share one front end (`_conv_front`: input and bias checks,
geometry, output, im2col view, thread count, batch chunks, the forward
pass, which adds the bias, and the backward walk: bias gradient, the op's
kernel step per chunk, input pass, input gradient; each op keeps only its
kernel work) and split each batch chunk over the CPUs
this process may run on (`_workers`), one `_split` call per parallel pass,
whose helper threads are joined within it. Every split follows one rule,
each BLAS call is the same call on any core count, so neither op's bits
depend on the worker count. A pass over examples makes each example's
product a call of its own in a batched matmul, one worker doing all of a
part's per-example work. A walk over kernel rows or columns goes by the
fixed blocks of `_column_blocks`, dealt whole to the workers:
`conv_temporal`'s kernel gradient, and the CondConv op's kernel mix,
experts' gradient, d_alpha and remix; d_alpha, a sum over the blocks, is
taken after the split, in block order.

Batch norm splits its elementwise passes by examples the same way, and
keeps each reduction over (batch, T) one numpy call on the whole array.
Max-pool takes a running maximum over its strided taps and keeps an
argmax only for a node that records a graph, so inference holds none.

Importing this module raises glibc's mmap and trim thresholds once
(`_keep_step_arrays_in_heap`), so that a step's arrays come back from the
heap on the next step instead of being mapped, zeroed by the kernel and
unmapped on every call. Only where freed memory goes changes, never a
result; a host process that wants glibc's values back sets them with its
own `mallopt` calls after this import.
"""

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial

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
        return self.data.item()

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

def batch_norm(x, gamma, beta, epsilon, stats=None, relu=False):
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

    `relu=True` clamps the buffer at 0 in place, the values of
    `relu(batch_norm(...))` in one node. The clamped output carries the
    ReLU's mask (`max(a, 0) > 0` exactly when `a > 0`), so backward masks
    `g` by it first and keeps no array of its own.

    Each elementwise pass is one `_split` by examples over `_workers`
    (gated by `_THREAD_MIN_ELEMENTS`); passes with no reduction between
    them share it. Each reduction over (batch, T) is one numpy call on the
    whole array, so results do not depend on the thread count.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"batch norm input must be (batch, T, C), got {x.data.shape}")
    if x.data.shape[2] != gamma.data.shape[0]:
        raise ShapeError(f"batch norm built for {gamma.data.shape[0]} channels, "
                         f"input has {x.data.shape[2]}")
    batch = x.data.shape[0]
    count = batch * x.data.shape[1]
    if stats is None and count < 2:
        raise ConfigError("batch norm needs at least 2 samples per channel in train mode")
    split = partial(_split, _workers(x.data.size, _THREAD_MIN_ELEMENTS), m=batch)
    value = np.empty_like(x.data)

    def center(p):
        np.subtract(x.data[p], mu, out=value[p])

    def center_and_square(p):
        center(p)
        np.multiply(value[p], value[p], out=squares[p])

    def normalize(p):
        if stats is not None:
            center(p)
        v = value[p]
        v *= scale
        v += beta.data
        if relu:
            np.maximum(v, 0.0, out=v)

    if stats is None:
        mu = x.data.mean(axis=(0, 1))
        squares = np.empty_like(x.data)
        split(task=center_and_square)
        var = squares.mean(axis=(0, 1))
        del squares
    else:
        mu, var = stats
    std = np.sqrt(var + epsilon)
    scale = gamma.data / std
    split(task=normalize)

    def backward(g):
        masked = np.empty_like(g) if relu else g
        x_hat, gx = np.empty_like(x.data), np.empty_like(x.data)

        def prepare(p):
            if relu:  # g * (value > 0) bit for bit, with no boolean temporary
                np.greater(value[p], 0.0, out=masked[p])
                masked[p] *= g[p]
            np.subtract(x.data[p], mu, out=x_hat[p])
            x_hat[p] /= std
            np.multiply(masked[p], x_hat[p], out=gx[p])

        split(task=prepare)
        g_sum, gx_sum = masked.sum(axis=(0, 1)), gx.sum(axis=(0, 1))
        _accumulate(beta, g_sum)
        _accumulate(gamma, gx_sum)
        if not x.requires_grad:
            return
        g_mean, gx_mean = g_sum / count, gx_sum / count

        def input_grad(p):  # into gx, whose values the sum has used
            dx = gx[p]
            if stats is not None:
                np.multiply(masked[p], scale, out=dx)
                return
            np.subtract(masked[p], g_mean, out=dx)
            x_hat_p = x_hat[p]
            x_hat_p *= gx_mean
            dx -= x_hat_p
            dx *= scale

        split(task=input_grad)
        del x_hat, masked  # freed before x's gradient is allocated
        _accumulate(x, gx)

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


def _fold_windows(dwin, dx, left, stride):
    """Adjoint of `_im2col`: dwin[b, t, j, c] is the gradient of
    padded[b, t*stride + j, c], i.e. of x[b, t*stride + j - left, c]. Add it
    onto the zeroed (batch, T_in, C) `dx`, tap by tap in j order; terms
    that fall on padding are dropped."""
    t_out, k = dwin.shape[1], dwin.shape[2]
    t_in = dx.shape[1]
    for j in range(k):
        # window positions t whose tap j lands inside the input
        lo = max(0, -((j - left) // stride))
        hi = min(t_out, (t_in - 1 + left - j) // stride + 1)
        if hi > lo:
            # for fixed j the target indices t*stride + j - left are distinct
            start = lo * stride + j - left
            dx[:, start:start + (hi - lo - 1) * stride + 1:stride, :] += dwin[:, lo:hi, j, :]


# Byte budget for the mixed kernels that `condconv_temporal` holds at once;
# `_conv_front` cuts both conv ops' batches into chunks of it. The chunk
# size follows from it and the layer's shape alone, never from the machine,
# so results are the same everywhere.
CONDCONV_CHUNK_BYTES = 64 * 2**20


def _keep_step_arrays_in_heap():
    """Serve arrays up to twice the chunk budget (the chunk workspace, Adam's
    temporaries at the shipped batches) from glibc's heap; larger arrays
    (datasets) stay mapped and go back to the OS when freed. The heap's top
    is trimmed only past 1 GiB free: at 512 MiB, a batch-204 PAMAP2 step
    still spent 5% of its time in the kernel faulting its trimmed top back
    in. Where `mallopt` is missing or refuses, nothing changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    if mallopt(-3, 2 * CONDCONV_CHUNK_BYTES):  # M_MMAP_THRESHOLD
        mallopt(-1, 2**30)  # M_TRIM_THRESHOLD


_keep_step_arrays_in_heap()


def condconv_chunk(kernel_shape):
    """Examples per chunk for a mixed kernel of `kernel_shape`."""
    kernel_bytes = 8 * int(np.prod(kernel_shape))
    return max(1, CONDCONV_CHUNK_BYTES // kernel_bytes)


# Columns per block of every walk `condconv_temporal` makes over kernel
# columns: the mix, the experts' gradient, d_alpha's slots and the remix.
# Which columns share a matmul does not change the mix or the experts'
# gradient, but a one-example chunk's mix and a one-expert gradient are
# vector-matrix products, for which that holds only when every block starts
# on a multiple of 4 columns: keep it a multiple of 4. d_alpha is a sum
# over the blocks, so changing it changes d_alpha's rounding.
_GRAD_COLUMNS = 4096

# Most kernel rows (of K*C_in) per block of `conv_temporal`'s kernel gradient; under
# twice as many make 2 blocks, the first a multiple of 4 rows. Each call packs all of
# `g`: on a 2-core VM, 960 rows at 384 -> 384 took 9-11% longer in 160-row blocks, 1-3% in 320.
_GRAD_ROWS = 320


def _column_blocks(width, size):
    """[lo, hi) ranges of `size` columns that cover `width`. A last range of
    one column joins the one before: numpy hands a one-column product to a
    matrix-vector routine, which rounds differently."""
    los = list(range(0, width, size))
    if len(los) > 1 and width - los[-1] == 1:
        los.pop()
    return list(zip(los, los[1:] + [width]))


# An elementwise pass (Adam's update, batch norm's passes) over fewer
# elements than this runs on the calling thread alone: below it, starting a
# helper thread costs more than the split saves (on a 2-core VM two threads
# ran Adam's update 0.93-1.01x as fast as one at 2^16 elements, and
# 1.18-1.30x at 2^17).
_THREAD_MIN_ELEMENTS = 2**17

# A conv op whose forward pass takes fewer multiply-adds than this runs on
# the calling thread alone: below it, starting and handing work to threads
# cost more than they save (on a 2-core VM the split op's forward and
# backward overtake the serial ones between 5 M and 21 M).
_THREAD_MIN_MACS = 2**24


def _workers(work, least=_THREAD_MIN_MACS):
    """Threads a pass of `work` units splits over: one per CPU this process
    may run on (`taskset` limits them; a system without affinity masks,
    such as macOS, counts every CPU), the calling thread included, or 1
    when `work` is under `least`, by default a conv op's forward gate."""
    if work < least:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split(workers, task, m):
    """Call `task(p)` for each part `p` of `_parts(m, workers)`: the first
    on the calling thread, the others on helper threads that this call
    starts and joins before it returns, so no thread outlives a pass. One
    part starts no thread. A task's exception reaches the caller once
    every helper thread has joined."""
    first, *rest = _parts(m, workers)
    if not rest:
        task(first)
        return
    with ThreadPoolExecutor(len(rest)) as pool:
        futures = [pool.submit(task, p) for p in rest]
        task(first)
        for future in futures:
            future.result()


def _parts(m, count):
    """range(m) as at most `count` contiguous nonempty slices, sizes
    differing by at most 1."""
    count = max(1, min(count, m))
    bounds = [m * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _conv_front(x, weights, name, layout, stride, padding, bias):
    """The checks, set-up, forward pass and backward walk both conv ops
    share. `x` must be (batch, T, C_in), `weights` have the axes `layout`
    names, ending in (K, C_in, C_out), and a `bias` be (C_out,); a
    ShapeError names the weights as `name`. Returns (value, workers, cols,
    chunks, forward_pass, backward_walk): the op's (batch, T_out, C_out)
    output, unwritten; its thread count, from its multiply-adds;
    cols(x_part), the im2col view of some of x's examples; the batch as
    consecutive slices of `condconv_chunk` examples; and the two passes, K_b
    the shared (K*C_in, C_out) `kernels` or, if 3-d, its b-th matrix.
    forward_pass(x_c, value_c, kernels), one `_split` by examples, writes
    cols_b·K_b into each example's rows of `value_c`, then adds the bias to
    it all on the calling thread. backward_walk(g, kernel_step) adds the
    bias gradient, then per chunk `c` calls kernel_step(c), the op's
    kernel-gradient work, and folds g_b·K_bᵀ, with the kernels it returns,
    onto x's gradient, one `_split` by examples; last it adds that
    gradient into x."""
    if x.data.ndim != 3:
        raise ShapeError(f"conv input must be (batch, T, C_in), got {x.data.shape}")
    if weights.data.ndim != len(layout):
        raise ShapeError(f"{name} must be ({', '.join(layout)}), got {weights.data.shape}")
    batch, t_in, c_in = x.data.shape
    k, kc_in, c_out = weights.data.shape[-3:]
    if kc_in != c_in:
        raise ShapeError(f"kernel expects {kc_in} input channels, input has {c_in}")
    if bias is not None and bias.data.shape != (c_out,):
        raise ShapeError(f"bias must be ({c_out},), got {bias.data.shape}")
    left, t_padded, t_out = _conv_geometry(t_in, k, stride, padding)
    workers = _workers(batch * t_out * k * c_in * c_out)
    cols = partial(_im2col, left=left, t_padded=t_padded, t_out=t_out, k=k, stride=stride)
    step = condconv_chunk((k, c_in, c_out))
    chunks = [slice(lo, min(lo + step, batch)) for lo in range(0, batch, step)]

    def convolve(x_c, value_c, kernels, p):
        np.matmul(cols(x_c[p]), kernels if kernels.ndim == 2 else kernels[p], out=value_c[p])

    def fold(g_c, dx_c, kernels, p):
        w_t = np.swapaxes(kernels if kernels.ndim == 2 else kernels[p], -1, -2)
        _fold_windows(np.matmul(g_c[p], w_t).reshape(-1, t_out, k, c_in), dx_c[p], left, stride)

    def forward_pass(x_c, value_c, kernels):
        _split(workers, partial(convolve, x_c, value_c, kernels), len(x_c))
        if bias is not None:  # after the split: the parts run only their matmuls
            value_c += bias.data

    def backward_walk(g, kernel_step):
        if bias is not None:
            _accumulate(bias, _unbroadcast(g, bias.data.shape))
        dx = np.zeros_like(x.data) if x.requires_grad else None
        for c in chunks:
            kernels = kernel_step(c)
            if dx is not None:
                _split(workers, partial(fold, g[c], dx[c], kernels), c.stop - c.start)
        if dx is not None:
            _accumulate(x, dx)

    return np.empty((batch, t_out, c_out)), workers, cols, chunks, forward_pass, backward_walk


def conv_temporal(x, kernel, stride=1, padding="same", bias=None):
    """Cross-correlate `x` (batch, T, C_in) with the shared (K, C_in, C_out)
    `kernel` along time, plus an optional (C_out,) `bias`: `_conv_front`'s
    forward pass over the whole batch and its backward walk, both against
    the kernel as a (K*C_in, C_out) matrix `w`. The kernel step adds the
    chunk's colsᵀ·g to the kernel gradient, one `_split` by its row blocks,
    and frees the chunk's window copy before the walk's input pass.
    """
    value, workers, cols, _, forward_pass, backward_walk = _conv_front(
        x, kernel, "kernel", ("K", "C_in", "C_out"), stride, padding, bias)
    k, c_in, c_out = kernel.data.shape
    w = kernel.data.reshape(k * c_in, c_out)
    blocks = _column_blocks(k * c_in, min(_GRAD_ROWS, 4 * -(-k * c_in // 8)))
    forward_pass(x.data, value, w)

    def weight_pass(cols_c, g_rows, dw, part):
        lo, hi = blocks[part][0][0], blocks[part][-1][1]
        grad = np.empty((hi - lo, c_out))  # one per part, as large as a row split's
        for b_lo, b_hi in blocks[part]:
            np.matmul(cols_c[:, b_lo:b_hi].T, g_rows, out=grad[b_lo - lo:b_hi - lo])
        dw[lo:hi] += grad

    def backward(g):
        dw = np.zeros_like(w) if kernel.requires_grad else None

        def kernel_step(c):
            if dw is not None:
                _split(workers, partial(weight_pass, cols(x.data[c]).reshape(-1, k * c_in),
                                        g[c].reshape(-1, c_out), dw), len(blocks))
            return w

        backward_walk(g, kernel_step)
        if dw is not None:
            _accumulate(kernel, dw.reshape(kernel.data.shape))

    return _result(value, _inputs(x, kernel, bias), backward, "conv_temporal")


def condconv_temporal(x, alpha, experts, stride=1, padding="same", bias=None):
    """Conditionally parameterized convolution of `x` (batch, T, C_in).

    Example b is cross-correlated with its own kernel, the mix
    sum_i alpha[b, i] * experts[i] of the (n, K, C_in, C_out) experts under
    the (batch, n) routing weights `alpha`, plus an optional (C_out,)
    `bias`. Forward and backward each allocate one chunk of per-example
    kernels, a workspace reused for every chunk. Forward mixes a chunk's
    kernels into it block by block of `_GRAD_COLUMNS` columns, one `_split`
    over the blocks, then runs `_conv_front`'s forward pass with them.

    Backward is `_conv_front`'s walk. Its kernel step writes the chunk's
    kernel gradient `dk` into the workspace, one `_split` by examples, then
    walks the blocks once, one `_split` over them. Each block adds alphaᵀ·dk
    to the experts' gradient, writes dk·expertsᵀ into its own slot of a
    (blocks, chunk, n) array, and remixes the chunk's kernels into itself
    for the walk's input pass, rather than keeping them from the forward
    pass. d_alpha is the slots' sum, in block order, so no expert-sized
    temporary exists and the sum's order is fixed.
    """
    value, workers, cols, chunks, forward_pass, backward_walk = _conv_front(
        x, experts, "experts", ("n", "K", "C_in", "C_out"), stride, padding, bias)
    batch = x.data.shape[0]
    n, k, c_in, c_out = experts.data.shape
    if alpha.data.shape != (batch, n):
        raise ShapeError(
            f"alpha shape {alpha.data.shape} does not match batch {batch} "
            f"and {n} experts"
        )
    flat = experts.data.reshape(n, k * c_in * c_out)
    rows = chunks[0].stop if chunks else 0  # examples in the largest chunk
    blocks = _column_blocks(flat.shape[1], _GRAD_COLUMNS)

    def mix(alpha_c, kernels, part):
        """Columns `blocks[part]` of the kernels `alpha_c` mixes, into `kernels`."""
        for lo, hi in blocks[part]:
            np.matmul(alpha_c, flat[:, lo:hi], out=kernels[:, lo:hi])

    kernels = np.empty((rows, k * c_in, c_out))  # the call's one workspace
    for c in chunks:
        m = c.stop - c.start
        _split(workers, partial(mix, alpha.data[c], kernels[:m].reshape(m, -1)), len(blocks))
        forward_pass(x.data[c], value[c], kernels)
    del kernels  # freed before the finite check

    def backward(g):
        d_alpha = np.empty_like(alpha.data) if alpha.requires_grad else None
        if experts.requires_grad:
            # contiguous, so that writes through the flat view land in it
            experts.grad = (np.zeros(experts.data.shape) if experts.grad is None
                            else np.ascontiguousarray(experts.grad))
            d_experts = experts.grad.reshape(n, -1)
        # block i's share of a chunk's d_alpha, summed in block order
        slots = np.empty((len(blocks), rows, n)) if alpha.requires_grad else None
        kernels = np.empty((rows, k * c_in, c_out))

        def kernel_grad(c, p):
            np.matmul(cols(x.data[c][p]).transpose(0, 2, 1), g[c][p], out=kernels[p])

        def column_walk(alpha_c, dk, part):
            """Takes each block of `dk` into the experts' gradient and
            d_alpha's slots, then remixes the kernels into it for dx."""
            for i in range(len(blocks))[part]:
                lo, hi = blocks[i]
                if experts.requires_grad:
                    d_experts[:, lo:hi] += alpha_c.T @ dk[:, lo:hi]
                if slots is not None:
                    np.matmul(dk[:, lo:hi], flat[:, lo:hi].T, out=slots[i, :len(dk)])
                if x.requires_grad:
                    np.matmul(alpha_c, flat[:, lo:hi], out=dk[:, lo:hi])

        def kernel_step(c):
            m = c.stop - c.start
            if experts.requires_grad or alpha.requires_grad:
                _split(workers, partial(kernel_grad, c), m)
            _split(workers, partial(column_walk, alpha.data[c], kernels[:m].reshape(m, -1)),
                   len(blocks))
            if slots is not None:
                np.add.reduce(slots[:, :m], axis=0, out=d_alpha[c])
            return kernels

        backward_walk(g, kernel_step)
        if d_alpha is not None:
            _accumulate(alpha, d_alpha)

    return _result(value, _inputs(x, alpha, experts, bias), backward,
                   "condconv_temporal")


def max_pool_temporal(x, size, stride):
    """Per-channel max over temporal windows of `size`, advanced by `stride`.

    The forward is a running `np.maximum` over the `size` strided taps
    x[:, j::stride], one output buffer. Only a node that records a graph
    tracks the argmax: a tap takes it where it is strictly greater, so
    ties keep the earliest tap, as `np.argmax` does. Backward scatters `g`
    onto it with `np.add.at`, which adds overlapping windows' terms in
    order."""
    if x.data.ndim != 3:
        raise ShapeError(f"pool input must be (batch, T, C), got {x.data.shape}")
    batch, t_in, channels = x.data.shape
    if size > t_in:
        raise ConfigError(f"pool size {size} exceeds temporal length {t_in}")
    if size < 1 or stride < 1:
        raise ConfigError("pool size and stride must be >= 1")

    t_out = (t_in - size) // stride + 1
    span = (t_out - 1) * stride + 1  # steps from a window's first tap to the last's
    value = x.data[:, :span:stride].copy()
    argmax = np.zeros(value.shape, dtype=np.intp) if _GRAD_ENABLED and x.requires_grad else None
    for j in range(1, size):
        tap = x.data[:, j:j + span:stride]
        if argmax is not None:
            np.copyto(argmax, j, where=tap > value)
        np.maximum(value, tap, out=value)

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
    1/(1-rate). Identity when rate is 0. The node keeps a boolean mask,
    1 byte per element; masking and then scaling gives the same bits as
    multiplying by a float mask of 0 and 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = rng.random(x.data.shape) >= rate
    scale = 1.0 / (1.0 - rate)

    def backward(g):
        dx = np.multiply(g, keep)
        dx *= scale
        _accumulate(x, dx)

    value = np.multiply(x.data, keep)
    value *= scale
    return _result(value, (x,), backward, "dropout")


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
        up = f(x).item()
        flat[i] = saved - eps
        down = f(x).item()
        flat[i] = saved
        numeric[i] = (up - down) / (2.0 * eps)
    numeric = numeric.reshape(x.data.shape)
    if not (np.all(np.isfinite(analytic)) and np.all(np.isfinite(numeric))):
        raise NumericError("grad_check encountered non-finite derivatives")

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())
