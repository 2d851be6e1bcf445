"""Architecture shorthand: parse/render strings like "C(64)-C(128)-FC-Sm"
and build runnable models from them.

Grammar (case-insensitive, whitespace ignored):

    spec := ("C(" int ")" "-")* "FC" "-" "Sm"

that is, conv blocks of the given widths, then the classifier, then
softmax. Hyperparameters that the shorthand does not encode (convolutions
per block, kernel length, pooling, expert count, head implementation) live
on ModelSpec with overridable defaults.
"""

import re
from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from . import condconv as cc
from . import layers as ly
from .errors import ArchitectureError, ConfigError, check_count, check_keys, is_number

# Seed-stream tags so model init and the training loop never share draws.
_LAYER_STREAM = 0xC0


def _is_per_block(pool):
    return isinstance(pool, (list, tuple)) and pool and isinstance(
        pool[0], (list, tuple, type(None))
    )


@dataclass
class ModelSpec:
    """Parsed architecture plus the hyperparameters needed to build it; it
    checks each field that does not need the input shape when built."""

    filters: tuple  # each conv block's width; the FC-Sm tail is implied
    convs_per_block: int = 2
    kernel_length: int = 5
    pool: tuple | None = (2, 2)  # (size, stride) after each conv block, or None
    n_experts: int = 1
    condconv_mask: tuple | None = None  # per-conv-layer on/off; None = all on
    head: str = "dense"  # "dense" | "pointwise-condconv"
    routing_activation: str = "sigmoid"
    dropout_rate: float = 0.5
    pin_routing: bool = False

    def __post_init__(self):
        for name in ("convs_per_block", "kernel_length", "n_experts"):
            check_count(f"model {name}", getattr(self, name), 1)
        for width in self.filters:
            check_count("model conv block filters", width, 1)
        if self.head not in ("dense", "pointwise-condconv"):
            raise ConfigError(f"unknown head {self.head!r}")
        if self.routing_activation not in cc.ROUTING_ACTIVATIONS:
            raise ConfigError(f"unknown routing activation {self.routing_activation!r}")
        if not is_number(self.dropout_rate) or not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"model dropout_rate must be a number in [0, 1), "
                              f"got {self.dropout_rate!r}")
        if not isinstance(self.pin_routing, bool):
            raise ConfigError(f"model pin_routing must be true or false, "
                              f"got {self.pin_routing!r}")
        mask = self.condconv_mask
        if mask is not None and not (isinstance(mask, (list, tuple))
                                     and all(isinstance(on, bool) for on in mask)):
            raise ConfigError(f"model condconv_mask must be a list of true/false, "
                              f"got {mask!r}")
        if mask is not None and len(mask) != self.n_conv_layers():
            raise ConfigError(
                f"condconv_mask has {len(mask)} entries, model has "
                f"{self.n_conv_layers()} convolution layers"
            )
        if self.head == "pointwise-condconv" and mask is not None and not mask[-1]:
            raise ConfigError(
                'condconv_mask turns off the head, but head "pointwise-condconv" is '
                'always a CondConv; use head "dense" for a standard classifier'
            )
        n_blocks = len(self.filters)
        if _is_per_block(self.pool) and len(self.pool) != n_blocks:
            raise ConfigError(
                f"pool has {len(self.pool)} entries, model has {n_blocks} conv blocks"
            )
        for b in range(n_blocks):
            pool = self.block_pool(b)
            if pool is not None and not (isinstance(pool, (list, tuple)) and len(pool) == 2):
                raise ConfigError(f"pool must be a (size, stride) pair, got {pool!r}")
            for what, value in zip(("size", "stride"), pool or ()):
                check_count(f"model pool {what}", value, 1)

    def block_pool(self, b):
        """Block b's (size, stride) pool, or None."""
        return self.pool[b] if _is_per_block(self.pool) else self.pool

    def n_conv_layers(self):
        """Conv layers the mask must cover: block convs plus a condconv head."""
        count = len(self.filters) * self.convs_per_block
        if self.head == "pointwise-condconv":
            count += 1
        return count

    def with_overrides(self, **kw):
        return replace(self, **kw)


_CONV = re.compile(r"C\((\d+)\)", re.IGNORECASE)


def parse_shorthand(text, **overrides):
    """Parse a shorthand string into a ModelSpec.

    Keyword overrides set the non-shorthand hyperparameters (kernel_length,
    n_experts, ...).
    """
    if not isinstance(text, str):
        raise ConfigError(f"model shorthand must be a string, got {text!r}")
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ConfigError("empty architecture string")
    pieces = compact.split("-")
    if [piece.upper() for piece in pieces[-2:]] != ["FC", "SM"]:
        raise ConfigError(f"architecture {text!r} must end in FC-Sm")
    filters = []
    position = 0
    for piece in pieces[:-2]:
        if not piece:
            raise ConfigError(f"empty block at position {position}")
        match = _CONV.fullmatch(piece)
        if match is None:
            raise ConfigError(f"unknown block {piece!r} at position {position}")
        filters.append(int(match.group(1)))
        position += len(piece) + 1
    return ModelSpec(filters=tuple(filters), **overrides)


def render_shorthand(spec):
    """Canonical string form; inverse of parse_shorthand on canonical specs."""
    return "-".join([f"C({width})" for width in spec.filters] + ["FC", "Sm"])


class _Draws:
    """Stands in for one layer's generator while `build_model` builds the
    layers. `normal(loc, scale, size)` allocates the array on the calling
    thread and records the request; `fill(rng)` later draws the recorded
    requests from the layer's real generator `rng`, in the order they
    were made, with the float operations of `Generator.normal`: the
    standard normals `z` into the array, then `loc + scale*z` in place.
    Until then the arrays are uninitialized."""

    def __init__(self):
        self.requests = []

    def normal(self, loc, scale, size):
        out = np.empty(size)
        self.requests.append((out, loc, scale))
        return out

    def size(self):
        return sum(out.size for out, _, _ in self.requests)

    def fill(self, rng):
        for out, loc, scale in self.requests:
            rng.standard_normal(out=out)
            out *= scale
            out += loc


def _fill(draws, seed):
    """Fill layer i's recorded draws from `default_rng([seed, _LAYER_STREAM,
    i])`: the layers are dealt largest first, each to the least-loaded of
    `_workers` bins, and one `autodiff._split` part fills one bin. A
    layer's draws stay in order on one thread and its stream is its own,
    so the values are those of one thread drawing them all in build order.
    The largest layer bounds the time: splitting its stream would change
    its values."""
    sizes = [d.size() for d in draws]
    bins = [[] for _ in range(ad._workers(sum(sizes), ad._THREAD_MIN_ELEMENTS))]
    loads = [0] * len(bins)
    for i in sorted(range(len(draws)), key=lambda i: -sizes[i]):
        least = loads.index(min(loads))
        bins[least].append(i)
        loads[least] += sizes[i]

    def fill_bins(part):
        for layers in bins[part]:
            for i in layers:
                draws[i].fill(np.random.default_rng([seed, _LAYER_STREAM, i]))

    ad._split(len(bins), fill_bins, len(bins))


def build_model(spec, input_shape, n_classes, seed=0, draw_init=True):
    """Materialize a ModelSpec into a Model for (T, C) inputs.

    Every conv block expands to convs_per_block x [conv -> BN -> ReLU]
    (optionally CondConv per the mask), followed by that block's pool if
    configured. Each ReLU is applied by its batch-norm layer (`relu=True`)
    in the BN's own buffer, so a conv block keeps two activations for
    backward and the model has no separate ReLU layer. The classifier is a
    dense layer on time-averaged features or a 1x1 CondConv head, with the
    single dropout layer immediately before it and softmax last. The
    ModelSpec checked its own fields; the checks here are those that need
    the input shape.

    The build has two passes. The layers are built in order, each randomly
    initialized one with a `_Draws` stand-in that allocates its arrays;
    then `_fill` draws the i-th such layer's values from its own stream
    `default_rng([seed, _LAYER_STREAM, i])`, on every usable core, bitwise
    as on one. `draw_init=False` is the same build without the fill: every
    randomly initialized array stays uninitialized, for a caller that
    replaces them all, as loading a checkpoint does, and no generator is
    made; `seed` is still recorded in the model's meta.
    """
    t, channels = input_shape
    if t < 1 or channels < 1:
        raise ArchitectureError(f"input shape must be positive, got {input_shape}")
    mask = spec.condconv_mask or (True,) * spec.n_conv_layers()
    model_layers = []
    draws = []

    def stream():
        draws.append(_Draws())
        return draws[-1]

    conv_index = 0
    for b, filters in enumerate(spec.filters):
        if t < spec.kernel_length:
            raise ArchitectureError(
                f"block {b}: temporal length {t} fell below kernel length "
                f"{spec.kernel_length}"
            )
        for j in range(spec.convs_per_block):
            name = f"b{b}.conv{j}"
            if mask[conv_index]:
                conv = cc.CondConv(
                    channels, filters, spec.kernel_length, spec.n_experts, stream(),
                    routing_activation=spec.routing_activation,
                    pin_routing=spec.pin_routing, name=name,
                )
            else:
                conv = ly.TemporalConv(channels, filters, spec.kernel_length, stream(), name=name)
            conv_index += 1
            model_layers.append(conv)
            model_layers.append(ly.BatchNorm(filters, relu=True, name=f"b{b}.bn{j}"))
            channels = filters
        pool = spec.block_pool(b)
        if pool is not None:
            size, stride = pool
            if size > t:
                raise ArchitectureError(
                    f"block {b}: pool size {size} exceeds temporal length {t}"
                )
            pool_layer = ly.MaxPool(size, stride, name=f"b{b}.pool")
            model_layers.append(pool_layer)
            t = pool_layer.cost((t, channels))[0][0]

    if spec.head == "pointwise-condconv":
        model_layers.append(ly.Dropout(spec.dropout_rate, name="drop"))
        model_layers.append(cc.PointwiseCondConvHead(
            channels, n_classes, spec.n_experts, stream(),
            routing_activation=spec.routing_activation,
            pin_routing=spec.pin_routing, name="head",
        ))
    else:
        model_layers.append(ly.GlobalAvgPool(name="gap"))
        model_layers.append(ly.Dropout(spec.dropout_rate, name="drop"))
        model_layers.append(ly.Dense(channels, n_classes, stream(), name="head"))
    model_layers.append(ly.Softmax(name="sm"))
    if draw_init:
        _fill(draws, seed)

    meta = {
        "input_shape": (int(input_shape[0]), int(input_shape[1])),
        "n_classes": int(n_classes),
        "seed": int(seed),
        "spec": spec_to_dict(spec),
    }
    return ly.Model(model_layers, meta=meta)


# A recorded spec is the shorthand, which carries the widths, plus every
# other ModelSpec field, with tuples as lists.
_RECORDED = tuple(f.name for f in fields(ModelSpec) if f.name != "filters")


def _as_lists(value):
    if isinstance(value, (list, tuple)):
        return [_as_lists(v) for v in value]
    return value


def _as_tuples(value):
    if isinstance(value, list):
        return tuple(_as_tuples(v) for v in value)
    return value


def spec_to_dict(spec):
    record = {"shorthand": render_shorthand(spec)}
    record.update((name, _as_lists(getattr(spec, name))) for name in _RECORDED)
    return record


def spec_from_dict(d):
    check_keys("model spec", d, ("shorthand",), _RECORDED)
    overrides = {k: _as_tuples(v) for k, v in d.items() if k != "shorthand"}
    return parse_shorthand(d["shorthand"], **overrides)
