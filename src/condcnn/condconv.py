"""Conditionally parameterized temporal convolution.

A CondConv layer keeps n expert kernels of identical shape. For every
example a routing function maps the time-averaged input channels through a
learned matrix and a sigmoid to n weights in (0, 1); the expert kernels are
mixed with those weights into one per-example kernel and a single
convolution is applied. Mixing first means the cost of extra experts is one
multiply-add per kernel parameter per example, independent of sequence
length. `autodiff.condconv_temporal` does the mixing and the convolution one
batch chunk at a time, so mixed kernels never exist for the whole batch.

`condconv_as_sum` computes the mathematically equivalent (but more
expensive) form that convolves with every expert separately and mixes the
outputs; it exists purely as a test oracle for the efficient path.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .layers import Layer, he_normal

ROUTING_ACTIVATIONS = {
    "sigmoid": ad.sigmoid,
    "tanh": ad.tanh,
    "softmax": ad.softmax,
    "relu": ad.relu,
    "lrelu": ad.leaky_relu,
    "elu": ad.elu,
}

# Routing weights start near 0.5 (sigmoid of ~0) so training begins close
# to an averaged-kernel standard convolution.
ROUTING_INIT_SCALE = 0.01


class CondConv(Layer):
    """Temporal convolution with n expert kernels and learned routing.

    `pin_routing=True` replaces the routing output with the constant 1 for
    every expert; with a single expert that makes the layer bitwise
    identical to a standard convolution.
    """

    def __init__(self, c_in, c_out, kernel_len, n_experts, rng, stride=1,
                 padding="same", routing_activation="sigmoid",
                 pin_routing=False, name=""):
        super().__init__(name)
        if n_experts < 1:
            raise ConfigError(f"need at least one expert, got {n_experts}")
        if routing_activation not in ROUTING_ACTIVATIONS:
            raise ConfigError(
                f"unknown routing activation {routing_activation!r}; "
                f"choose from {sorted(ROUTING_ACTIVATIONS)}"
            )
        self.c_in, self.c_out, self.kernel_len = c_in, c_out, kernel_len
        self.n_experts = n_experts
        self.stride, self.padding = stride, padding
        self.routing_activation = routing_activation
        self.pin_routing = pin_routing
        # Expert draw order matches TemporalConv's kernel draw so that with
        # n=1 both layer types consume identical values from one stream.
        self.experts = Tensor(
            he_normal(rng, (n_experts, kernel_len, c_in, c_out), kernel_len * c_in),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)
        self.routing = Tensor(
            rng.normal(0.0, ROUTING_INIT_SCALE / np.sqrt(c_in), size=(c_in, n_experts)),
            requires_grad=True,
        )

    def forward(self, x, rng=None):
        return condconv_forward(x, self, activation=None)

    def cost(self, shape):
        """One convolution (like a standard layer) plus kernel mixing (n MACs
        per kernel parameter), the routing projection (C_in * n MACs) and the
        routing pool (one FLOP per input element); only the mixing and the
        projection grow with the expert count."""
        t_out = ad.conv_length(shape[0], self.kernel_len, self.stride, self.padding)
        kernel = self.kernel_len * self.c_in * self.c_out
        macs = t_out * kernel + self.n_experts * kernel + self.c_in * self.n_experts
        return (t_out, self.c_out), macs, shape[0] * self.c_in

    def params(self):
        return {"experts": self.experts, "bias": self.bias, "routing": self.routing}


def route(x, layer):
    """Per-example expert weights: activation(mean_over_time(x) @ R).

    Returns a (batch, n_experts) tensor; with the default sigmoid
    activation every weight lies strictly in (0, 1).
    """
    if x.data.ndim != 3:
        raise ShapeError(f"routing input must be (batch, T, C), got {x.data.shape}")
    if x.data.shape[2] != layer.routing.data.shape[0]:
        raise ShapeError(
            f"routing matrix expects {layer.routing.data.shape[0]} channels, "
            f"input has {x.data.shape[2]}"
        )
    if layer.pin_routing:
        return Tensor(np.ones((x.data.shape[0], layer.n_experts)))
    activation = ROUTING_ACTIVATIONS[layer.routing_activation]
    return activation(ad.matmul(x.mean(axis=1), layer.routing))


def combine_kernels(alpha, experts):
    """Mix expert kernels into one kernel per example, for the whole batch.

    alpha: (batch, n) weights; experts: (n, K, C_in, C_out).
    Returns (batch, K, C_in, C_out). Nothing in condcnn calls it (the
    training path mixes inside `autodiff.condconv_temporal`); it stays for
    its tests and the benchmark tracer until its tracer metrics retire.
    """
    n, k, c_in, c_out = experts.data.shape
    if alpha.data.ndim != 2 or alpha.data.shape[1] != n:
        raise ConfigError(
            f"alpha shape {alpha.data.shape} does not match {n} experts"
        )
    flat = ad.reshape(experts, (n, k * c_in * c_out))
    mixed = ad.matmul(alpha, flat)
    return ad.reshape(mixed, (alpha.data.shape[0], k, c_in, c_out))


def _apply_activation(y, activation):
    if activation is None:
        return y
    if activation == "relu":
        return ad.relu(y)
    raise ConfigError(f"unsupported output activation {activation!r}")


def convolve(x, alpha, layer):
    """The layer's convolution of `x` under the (batch, n) routing weights
    `alpha` that `route` gave for it: mix kernels and convolve once per
    example, one batch chunk at a time. No activation."""
    if layer.pin_routing and layer.n_experts == 1:
        # the mixed kernel is exactly 1.0 * W1; the shared-kernel path keeps
        # forward AND backward bitwise identical to a standard convolution
        kernel = ad.reshape(layer.experts, layer.experts.data.shape[1:])
        return ad.conv_temporal(x, kernel, layer.stride, layer.padding, layer.bias)
    return ad.condconv_temporal(x, alpha, layer.experts, layer.stride, layer.padding,
                                layer.bias)


def condconv_forward(x, layer, activation="relu"):
    """Efficient path: route, then `convolve` with those weights."""
    return _apply_activation(convolve(x, route(x, layer), layer), activation)


def condconv_as_sum(x, layer, activation="relu"):
    """Oracle path: convolve with every expert, then mix the outputs.

    Mathematically identical to `condconv_forward` because convolution is
    linear in the kernel; kept out of the training path (it costs one full
    convolution per expert).
    """
    alpha = route(x, layer)
    batch = x.data.shape[0]
    n, k, c_in, c_out = layer.experts.data.shape
    total = None
    for i in range(n):
        pick = np.zeros((n, 1))
        pick[i, 0] = 1.0
        coeff = ad.reshape(ad.matmul(alpha, Tensor(pick)), (batch, 1, 1))
        expert_i = ad.reshape(
            ad.matmul(Tensor(pick.T), ad.reshape(layer.experts, (n, k * c_in * c_out))),
            (k, c_in, c_out),
        )
        term = coeff * ad.conv_temporal(x, expert_i, layer.stride, layer.padding)
        total = term if total is None else total + term
    y = total + layer.bias
    return _apply_activation(y, activation)


class PointwiseCondConvHead(CondConv):
    """1x1 CondConv classifier: a per-example pointwise mix of channels,
    then a global average over time, yielding per-class logits."""

    def __init__(self, c_in, n_classes, n_experts, rng, **kwargs):
        super().__init__(c_in, n_classes, 1, n_experts, rng, **kwargs)

    @property
    def conv(self):
        """The head's CondConv, which is the head itself."""
        return self

    def forward(self, x, rng=None):
        # not CondConv.forward, so time spent there never includes the head
        return condconv_forward(x, self, activation=None).mean(axis=1)

    def cost(self, shape):
        """The 1x1 CondConv plus one FLOP per element it averages over time."""
        (t, c), macs, pool = super().cost(shape)
        return (c,), macs, pool + t * c
