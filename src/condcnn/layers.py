"""Standard layers composing the baseline temporal CNN.

Layers are stateless apart from parameters, batch-norm running statistics,
and the training-mode flag. Random state (dropout masks) is injected per
call so a whole training run is reproducible from one seeded generator.
Each layer also derives its own per-example output shape and cost.
"""

from contextlib import contextmanager
from math import prod

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError


def he_normal(rng, shape, fan_in):
    """Fan-in-scaled normal init, suited to ReLU stacks."""
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


class Layer:
    """Base class: a named graph node with parameters and a mode flag."""

    def __init__(self, name=""):
        self.name = name or type(self).__name__.lower()
        self.training = True

    def forward(self, x, rng=None):
        raise NotImplementedError

    def cost(self, shape):
        """(output shape, multiply-adds, elementwise FLOPs) for one example
        of `shape`, (T, C) or (C,). The default is a shape-preserving op
        costing one FLOP per element."""
        return shape, 0, prod(shape)

    def params(self):
        return {}

    def buffers(self):
        """Non-learnable state that still belongs in a checkpoint."""
        return {}

    def __call__(self, x, rng=None):
        return self.forward(x, rng=rng)


class TemporalConv(Layer):
    """Shared-kernel convolution along the temporal axis, with bias."""

    def __init__(self, c_in, c_out, kernel_len, rng, stride=1, padding="same", name=""):
        super().__init__(name)
        self.c_in, self.c_out, self.kernel_len = c_in, c_out, kernel_len
        self.stride, self.padding = stride, padding
        self.kernel = Tensor(
            he_normal(rng, (kernel_len, c_in, c_out), kernel_len * c_in),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)

    def forward(self, x, rng=None):
        return ad.conv_temporal(x, self.kernel, self.stride, self.padding, self.bias)

    def cost(self, shape):
        t_out = ad.conv_length(shape[0], self.kernel_len, self.stride, self.padding)
        return (t_out, self.c_out), t_out * self.c_out * self.kernel_len * self.c_in, 0

    def params(self):
        return {"kernel": self.kernel, "bias": self.bias}


def dense(x, w, b):
    """Affine map x @ w + b for a (batch, d) input."""
    if x.data.ndim != 2:
        raise ShapeError(f"dense input must be 2-d, got {x.data.shape}")
    return ad.matmul(x, w) + b


class Dense(Layer):
    def __init__(self, d_in, d_out, rng, name=""):
        super().__init__(name)
        self.d_in, self.d_out = d_in, d_out
        self.w = Tensor(he_normal(rng, (d_in, d_out), d_in), requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def forward(self, x, rng=None):
        return dense(x, self.w, self.b)

    def cost(self, shape):
        if len(shape) != 1:
            raise ConfigError(
                f"{self.name}: dense layer reached with unresolved temporal axis"
            )
        return (self.d_out,), self.d_in * self.d_out, 0

    def params(self):
        return {"w": self.w, "b": self.b}


class BatchNorm(Layer):
    """Per-channel standardization of (batch, T, C) activations.

    Both modes are one `autodiff.batch_norm` node. Train mode normalizes
    by batch statistics over the (batch, T) axes and updates running
    statistics by exponential moving average; eval mode normalizes by the
    running statistics alone.
    """

    def __init__(self, channels, momentum=0.1, epsilon=1e-5, name=""):
        super().__init__(name)
        self.momentum = momentum
        self.epsilon = epsilon
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x, rng=None):
        if not self.training:
            return ad.batch_norm(x, self.gamma, self.beta, self.epsilon,
                                 (self.running_mean, self.running_var))[0]
        out, mu, var = ad.batch_norm(x, self.gamma, self.beta, self.epsilon)
        m = self.momentum
        self.running_mean = (1 - m) * self.running_mean + m * mu
        self.running_var = (1 - m) * self.running_var + m * var
        return out

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}


class ReLU(Layer):
    def forward(self, x, rng=None):
        return ad.relu(x)


class MaxPool(Layer):
    def __init__(self, size=2, stride=2, name=""):
        super().__init__(name)
        self.size, self.stride = size, stride

    def forward(self, x, rng=None):
        return ad.max_pool_temporal(x, self.size, self.stride)

    def cost(self, shape):
        """One FLOP per output element."""
        t_out = (shape[0] - self.size) // self.stride + 1
        return (t_out, shape[1]), 0, t_out * shape[1]


class GlobalAvgPool(Layer):
    """Average over the temporal axis: (batch, T, C) -> (batch, C)."""

    def forward(self, x, rng=None):
        return x.mean(axis=1)

    def cost(self, shape):
        """One FLOP per input element."""
        return shape[1:], 0, prod(shape)


class Dropout(Layer):
    def __init__(self, rate=0.5, name=""):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x, rng=None):
        if not self.training:
            return x
        if rng is None:
            raise ConfigError("train-mode dropout needs a random generator")
        return ad.dropout(x, self.rate, rng)

    def cost(self, shape):
        return shape, 0, 0


class Softmax(Layer):
    def forward(self, x, rng=None):
        return ad.softmax(x)


class Model:
    """An ordered stack of layers ending in a Softmax head."""

    def __init__(self, layers, meta=None):
        if not layers or not isinstance(layers[-1], Softmax):
            raise ConfigError("a model must end with a softmax layer")
        self.layers = list(layers)
        self.meta = dict(meta or {})

    def logits(self, x, rng=None):
        """Forward pass through everything except the final softmax."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        for layer in self.layers[:-1]:
            x = layer.forward(x, rng=rng)
        return x

    def forward(self, x, rng=None):
        return self.layers[-1].forward(self.logits(x, rng=rng))

    def train(self):
        for layer in self.layers:
            layer.training = True
        return self

    def eval(self):
        for layer in self.layers:
            layer.training = False
        return self

    @property
    def training(self):
        return self.layers[0].training if self.layers else True

    @contextmanager
    def inference(self):
        """Every layer in eval mode and no graph recorded; each layer's
        previous mode returns on exit, also on an error."""
        modes = [layer.training for layer in self.layers]
        self.eval()
        try:
            with ad.no_grad():
                yield self
        finally:
            for layer, mode in zip(self.layers, modes):
                layer.training = mode

    def named_params(self):
        out = {}
        for layer in self.layers:
            for key, tensor in layer.params().items():
                out[f"{layer.name}.{key}"] = tensor
        return out

    def params(self):
        return list(self.named_params().values())

    def named_buffers(self):
        out = {}
        for layer in self.layers:
            for key, value in layer.buffers().items():
                out[f"{layer.name}.{key}"] = value
        return out

    def load_buffers(self, named):
        for layer in self.layers:
            for key in layer.buffers():
                setattr(layer, key, np.array(named[f"{layer.name}.{key}"]))

    def zero_grad(self):
        for p in self.params():
            p.zero_grad()
