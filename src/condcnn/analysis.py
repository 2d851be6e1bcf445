"""Static cost accounting and post-hoc model introspection.

FLOPs are counted per example (batch 1) under one declared convention so
that reports are comparable across expert counts; absolute totals depend
on that convention, ratios between expert counts do not. Routing
statistics aggregate the per-example expert weights a trained (or
untrained) model produces over a dataset, per layer and per class.
"""

from dataclasses import dataclass, field

import numpy as np

from . import archspec, condconv, training
from .autodiff import Tensor
from .errors import ConfigError
from .storage import csv_line, write_text

COUNTING_CONVENTION = (
    "per example (batch=1); dot-product multiply-adds (conv, dense, routing, "
    "kernel mixing) cost 1 MAC = 2 FLOPs; batch norm, activations, max "
    "pooling and softmax cost 1 FLOP (0.5 MAC) per output element; averages "
    "over time (global pooling, routing pool) cost 1 FLOP per input element; "
    "dropout and reshapes are free; bias additions are absorbed into the MAC "
    "count"
)


@dataclass
class LayerCost:
    name: str
    multiply_adds: float
    flops: int
    params: int


@dataclass
class FlopsReport:
    per_layer: list
    n_experts: int

    @property
    def total_multiply_adds(self):
        return sum((c.multiply_adds for c in self.per_layer), 0.0)

    @property
    def total_flops(self):
        return sum(c.flops for c in self.per_layer)

    @property
    def total_params(self):
        return sum(c.params for c in self.per_layer)

    def to_text(self):
        lines = [f"{'layer':<16}{'multiply_adds':>16}{'flops':>14}{'params':>10}"]
        for c in self.per_layer:
            lines.append(f"{c.name:<16}{c.multiply_adds:>16.1f}{c.flops:>14}{c.params:>10}")
        lines.append(
            f"{'total':<16}{self.total_multiply_adds:>16.1f}"
            f"{self.total_flops:>14}{self.total_params:>10}"
        )
        lines.append(f"experts: {self.n_experts}")
        lines.append(f"convention: {COUNTING_CONVENTION}")
        return "\n".join(lines)

    def to_csv(self, path):
        write_text(path, [
            f"# convention: {COUNTING_CONVENTION}",
            "layer,multiply_adds,flops,params",
            *(csv_line([c.name, c.multiply_adds, c.flops, c.params]) for c in self.per_layer),
            csv_line(["total", self.total_multiply_adds, self.total_flops, self.total_params]),
        ])


def count_flops(model):
    """Per-layer cost of one forward pass on a single example of the model's
    recorded input shape, one row per model layer, from each layer's `cost`."""
    shape = tuple(model.meta["input_shape"])
    costs = []
    for layer in model.layers:
        shape, macs, elementwise = layer.cost(shape)
        params = sum(p.size for p in layer.params().values())
        flops = 2 * macs + elementwise
        costs.append(LayerCost(layer.name, macs + elementwise / 2.0, flops, params))
    n_experts = max(getattr(l, "n_experts", 1) for l in model.layers)
    return FlopsReport(costs, n_experts=n_experts)


def flops_ratio_vs_one_expert(model):
    """`count_flops` total of `model` over that of the same recorded spec
    with `n_experts=1` and every other field, `pin_routing` among them,
    kept: the README "Cost model" ratio, 1.068 for the 8-expert WISDM
    recipe. The baseline draws no init, since `count_flops` reads only shapes."""
    meta = model.meta
    spec = archspec.spec_from_dict(dict(meta["spec"], n_experts=1))
    baseline = archspec.build_model(spec, meta["input_shape"], meta["n_classes"], draw_init=False)
    return count_flops(model).total_flops / count_flops(baseline).total_flops


def count_params(model):
    """Exact learnable-parameter count (batch-norm statistics excluded)."""
    return int(sum(p.size for p in model.params()))


# -- confusion reporting -------------------------------------------------------

@dataclass
class ConfusionReport:
    matrix: np.ndarray
    accuracy: float
    label_names: list
    ranked_confusions: list  # (true_name, predicted_name, count), descending

    def to_text(self):
        names = self.label_names
        width = max(6, max(len(n) for n in names) + 1)
        header = " " * width + "".join(f"{n:>{width}}" for n in names)
        lines = [header]
        for i, name in enumerate(names):
            row = "".join(f"{self.matrix[i, j]:>{width}}" for j in range(len(names)))
            lines.append(f"{name:<{width}}" + row)
        lines.append(f"accuracy: {self.accuracy:.4f}")
        for true, pred, count in self.ranked_confusions[:10]:
            lines.append(f"confused {true} -> {pred}: {count}")
        return "\n".join(lines)

    def to_csv(self, path):
        write_text(path, ["true,predicted,count"] + [
            csv_line([tn, pn, self.matrix[i, j]])
            for i, tn in enumerate(self.label_names) for j, pn in enumerate(self.label_names)])


def confusion_matrix_report(model, ds):
    """Confusion matrix plus the misclassified pairs ranked by count."""
    result = training.evaluate(model, ds)
    names = list(ds.label_names)
    while len(names) < result.confusion.shape[0]:
        names.append(f"class{len(names)}")
    ranked = []
    for i in range(result.confusion.shape[0]):
        for j in range(result.confusion.shape[1]):
            if i != j and result.confusion[i, j] > 0:
                ranked.append((names[i], names[j], int(result.confusion[i, j])))
    ranked.sort(key=lambda item: (-item[2], item[0], item[1]))
    return ConfusionReport(
        matrix=result.confusion,
        accuracy=result.accuracy,
        label_names=names,
        ranked_confusions=ranked,
    )


# -- routing statistics -----------------------------------------------------------

@dataclass
class LayerRoutingStats:
    name: str
    alphas: np.ndarray        # (examples, n_experts), dataset order
    labels: np.ndarray        # (examples,)
    n_classes: int

    @property
    def n_experts(self):
        return self.alphas.shape[1]

    def class_means(self):
        out = np.zeros((self.n_classes, self.n_experts))
        for c in range(self.n_classes):
            picked = self.alphas[self.labels == c]
            out[c] = picked.mean(axis=0) if len(picked) else np.nan
        return out

    def class_stds(self):
        out = np.zeros((self.n_classes, self.n_experts))
        for c in range(self.n_classes):
            picked = self.alphas[self.labels == c]
            out[c] = picked.std(axis=0) if len(picked) else np.nan
        return out


N_BUCKETS = 20  # equal-width buckets of the pooled routing-weight histogram


@dataclass
class RoutingStats:
    per_layer: dict            # name -> LayerRoutingStats, model depth order
    histogram: np.ndarray = field(init=False)  # pooled over all layers

    def __post_init__(self):
        pooled = np.concatenate(
            [s.alphas.ravel() for s in self.per_layer.values()]
        ) if self.per_layer else np.zeros(0)
        self.histogram, _ = np.histogram(pooled, bins=N_BUCKETS, range=(0.0, 1.0))

    def bucket_edges(self):
        return np.linspace(0.0, 1.0, N_BUCKETS + 1)

    def histogram_to_csv(self, path):
        edges = self.bucket_edges()
        write_text(path, ["bucket_left,bucket_right,count"] + [
            csv_line([edges[i], edges[i + 1], count]) for i, count in enumerate(self.histogram)])

    def class_means_to_csv(self, path):
        lines = ["layer,class,expert,mean,std"]
        for name, stats in self.per_layer.items():
            means, stds = stats.class_means(), stats.class_stds()
            lines.extend(csv_line([name, c, e, means[c, e], stds[c, e]])
                         for c in range(stats.n_classes) for e in range(stats.n_experts))
        write_text(path, lines)


def routing_stats(model, ds):
    """Collect per-example routing weights over a dataset, per CondConv
    layer, with per-class means/deviations and a pooled histogram. Each
    batch of `training.EVAL_BATCH` windows routes every CondConv layer
    once, convolves with the weights it records, and stops at the last
    one; no graph is recorded. By `training.check_dataset`, an empty `ds`
    or a label outside the model's classes raises DataError, and windows
    of another shape ShapeError; a model without CondConv raises ConfigError."""
    n_classes = training.check_dataset(model, ds, "dataset")
    cond_layers = [l for l in model.layers if isinstance(l, condconv.CondConv)]
    if not cond_layers:
        raise ConfigError("model has no CondConv layers")

    collected = {layer.name: [] for layer in cond_layers}
    last = cond_layers[-1]
    before_last = model.layers[:model.layers.index(last)]
    with model.inference():
        for start in range(0, len(ds), training.EVAL_BATCH):
            x = Tensor(ds.x[start:start + training.EVAL_BATCH])
            for layer in before_last:
                if isinstance(layer, condconv.CondConv):
                    alpha = condconv.route(x, layer)
                    collected[layer.name].append(alpha.data)
                    x = condconv.convolve(x, alpha, layer)
                else:
                    x = layer.forward(x)
            collected[last.name].append(condconv.route(x, last).data)

    per_layer = {}
    for layer in cond_layers:
        alphas = np.concatenate(collected[layer.name], axis=0)
        per_layer[layer.name] = LayerRoutingStats(
            name=layer.name, alphas=alphas, labels=ds.y.copy(), n_classes=n_classes,
        )
    return RoutingStats(per_layer=per_layer)


def depth_divergence(stats):
    """Mean pairwise distance between class-mean routing vectors, per layer.

    Returned in model depth order; whether it grows with depth is an
    empirical observation to report, not an invariant to assert.
    """
    scores = {}
    for name, layer_stats in stats.per_layer.items():
        if layer_stats.n_classes < 2:
            raise ConfigError("depth divergence needs at least 2 classes")
        means = layer_stats.class_means()
        total, pairs = 0.0, 0
        for i in range(len(means)):
            for j in range(i + 1, len(means)):
                if np.isnan(means[i]).any() or np.isnan(means[j]).any():
                    continue
                total += float(np.linalg.norm(means[i] - means[j]))
                pairs += 1
        scores[name] = total / pairs if pairs else 0.0
    return scores
