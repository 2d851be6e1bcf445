"""Span tracing for the per-layer run, installed from outside the program.

`Tracer.install` replaces the public functions and methods that the
benchmark measures with wrappers that record a span per call: name,
start, end, parent span and run id. Spans stay in memory until
`write_spans`. Autodiff ops also wrap the backward closure of each result
they return, so backward time is attributed to the op that created it.
Nothing is installed for the untraced run, which therefore runs the
program's own code unchanged.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MODULES = ("autodiff", "condconv", "layers", "training", "archspec", "data",
           "storage", "analysis")
OPS = ("conv_temporal", "matmul", "max_pool_temporal", "reshape", "add", "sub",
       "mul", "div", "relu", "tmean", "tsqrt", "sigmoid", "dropout",
       "softmax_cross_entropy")
LAYER_CLASSES = ("CondConv", "PointwiseCondConvHead", "BatchNorm", "ReLU",
                 "MaxPool", "Dropout", "GlobalAvgPool", "Dense")

_NAME, _START, _END, _PARENT, _RUN = range(5)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1, run id]
        self.counts = defaultdict(float)
        self.run_id = ""
        self.active = False
        self._stack = []
        self._restore = []
        self._eval_depth = 0
        self._train_depth = 0

    # -- spans -------------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index):
        self.spans[index][_END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _patch(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _spanned(self, name, after=None, depth=None):
        """Wrapper factory: one span named `name` per call while active;
        `after(result, args)` records counts, `depth` marks the call as
        evaluation or training for node accounting."""
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                if depth:
                    setattr(tracer, depth, getattr(tracer, depth) + 1)
                index = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                    if depth:
                        setattr(tracer, depth, getattr(tracer, depth) - 1)
                if after is not None:
                    after(result, args)
                return result
            return wrapper
        return make

    def _op(self, op):
        tracer = self
        fwd_name, bwd_name = f"autodiff.{op}.fwd", f"autodiff.{op}.bwd"

        def make(fn):
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                index = tracer._open(fwd_name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                counts = tracer.counts
                counts[f"{op}.calls"] += 1
                if any(out is a for a in args):
                    return out  # identity (e.g. dropout at rate 0): no new node
                counts[f"{op}.out_bytes"] += out.data.nbytes
                if tracer._eval_depth:
                    counts["eval.nodes"] += 1
                    counts["eval.grad_nodes"] += out._backward is not None
                elif tracer._train_depth:
                    counts["train.nodes"] += 1
                macs = 0
                if op == "conv_temporal":
                    kernel = args[1]  # (K, C_in, C_out), or per example (B, K, C_in, C_out)
                    macs = out.data.size * kernel.data.shape[-2] * kernel.data.shape[-3]
                    counts["conv.fwd_macs"] += macs
                if out._backward is not None:
                    inner = out._backward

                    def timed_backward(g):
                        i = tracer._open(bwd_name)
                        try:
                            inner(g)
                        finally:
                            tracer._close(i)
                        if macs:
                            counts["conv.bwd_macs"] += macs * (
                                args[0].requires_grad + args[1].requires_grad)
                    out._backward = timed_backward
                return out
            return wrapper
        return make

    def install(self, mods, rows_per_ingest):
        """Wrap the measured calls of the condcnn modules in `mods`
        (a dict of module name -> module)."""
        ad, cc, ly, tr = mods["autodiff"], mods["condconv"], mods["layers"], mods["training"]
        counts = self.counts
        for op in OPS:
            self._patch(ad, op, self._op(op))
        # condconv resolved its routing activations when it was imported
        activations = cc.ROUTING_ACTIVATIONS
        self._restore.append((activations, "sigmoid", activations["sigmoid"]))
        activations["sigmoid"] = ad.sigmoid
        self._patch(ad.Tensor, "backward", self._spanned("autodiff.backward"))

        def mixed(out, args):
            counts["combine_kernels.out_bytes"] += out.data.nbytes
        self._patch(cc, "route", self._spanned("condconv.route"))
        self._patch(cc, "combine_kernels", self._spanned("condconv.combine_kernels", mixed))
        for cls in LAYER_CLASSES:
            owner = getattr(cc, cls, None) or getattr(ly, cls)
            self._patch(owner, "forward", self._spanned(f"layers.{cls}.fwd"))

        logits = ly.Model.logits
        train_logits = self._spanned("training.forward")(logits)
        eval_logits = self._spanned("layers.Model.logits")(logits)

        def model_logits(model, *args, **kwargs):
            return (train_logits if model.training else eval_logits)(model, *args, **kwargs)
        self._restore.append((ly.Model, "logits", logits))
        ly.Model.logits = model_logits

        self._patch(tr, "train", self._spanned("training.train", depth="_train_depth"))
        self._patch(tr, "evaluate", self._spanned("training.evaluate", depth="_eval_depth"))
        self._patch(tr.Adam, "step", self._spanned("training.adam"))
        self._patch(tr, "save_checkpoint", self._spanned("training.save_checkpoint"))
        self._patch(tr, "load_checkpoint", self._spanned("training.load_checkpoint"))

        def saved(out, args):
            counts["save_container.bytes"] += sum(
                np.asarray(a).nbytes for a in args[1].values())

        def loaded(out, args):
            counts["load_container.bytes"] += sum(a.nbytes for a in out[0].values())
        self._patch(mods["storage"], "save_container",
                    self._spanned("storage.save_container", saved))
        self._patch(mods["storage"], "load_container",
                    self._spanned("storage.load_container", loaded))

        def ingested(out, args):
            counts["ingest.rows"] += rows_per_ingest
        dp = mods["data"]
        self._patch(dp, "ingest_canonical", self._spanned("data.ingest_canonical", ingested))
        for fn in ("resample", "segment_windows", "split", "normalize"):
            self._patch(dp, fn, self._spanned(f"data.{fn}"))
        self._patch(mods["archspec"], "build_model", self._spanned("archspec.build_model"))

        def flops(out, args):
            counts["count_flops.flops_per_ex"] = out.total_flops
        an = mods["analysis"]
        self._patch(an, "routing_stats", self._spanned("analysis.routing_stats"))
        self._patch(an, "depth_divergence", self._spanned("analysis.depth_divergence"))
        self._patch(an, "count_flops", self._spanned("analysis.count_flops", flops))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- derived numbers -------------------------------------------------------
    def durations(self):
        """Per span: (inclusive seconds, self seconds)."""
        inclusive = [s[_END] - s[_START] for s in self.spans]
        own = list(inclusive)
        for s, d in zip(self.spans, inclusive):
            if s[_PARENT] >= 0:
                own[s[_PARENT]] -= d
        return inclusive, own

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[_NAME], "start": s[_START], "end": s[_END],
                    "parent": s[_PARENT] if s[_PARENT] >= 0 else None, "run": s[_RUN],
                }) + "\n")

    def metrics(self, overhead_ratio):
        """Per-layer metrics of this run; see README.md for definitions."""
        inclusive, own = self.durations()
        incl, selfs, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        module_self = defaultdict(float)
        for s, d, o in zip(self.spans, inclusive, own):
            incl[s[_NAME]] += d
            selfs[s[_NAME]] += o
            calls[s[_NAME]] += 1
            module_self[s[_NAME].split(".", 1)[0]] += o
        counts = self.counts
        m = {}
        for op in OPS:
            m[f"autodiff.{op}.fwd_s"] = selfs[f"autodiff.{op}.fwd"]
            m[f"autodiff.{op}.bwd_s"] = selfs[f"autodiff.{op}.bwd"]
            m[f"autodiff.{op}.calls"] = counts[f"{op}.calls"]
            m[f"autodiff.{op}.out_mb"] = counts[f"{op}.out_bytes"] / 1e6
        conv_s = m["autodiff.conv_temporal.fwd_s"] + m["autodiff.conv_temporal.bwd_s"]
        conv_macs = counts["conv.fwd_macs"] + counts["conv.bwd_macs"]
        m["autodiff.conv_temporal.gmac_per_s"] = conv_macs / conv_s / 1e9 if conv_s else 0.0
        m["autodiff.backward.self_s"] = selfs["autodiff.backward"]
        steps = calls["training.adam"]
        m["autodiff.nodes_per_step"] = counts["train.nodes"] / steps if steps else 0.0
        m["autodiff.eval_grad_node_share"] = (
            counts["eval.grad_nodes"] / counts["eval.nodes"] if counts["eval.nodes"] else 0.0)

        m["condconv.route.s"] = incl["condconv.route"]
        m["condconv.combine_kernels.s"] = incl["condconv.combine_kernels"]
        m["condconv.combine_kernels.out_mb"] = counts["combine_kernels.out_bytes"] / 1e6
        cond_fwd = incl["layers.CondConv.fwd"] + incl["layers.PointwiseCondConvHead.fwd"]
        m["condconv.mixing_share"] = (
            incl["condconv.combine_kernels"] / cond_fwd if cond_fwd else 0.0)

        for cls in LAYER_CLASSES:
            m[f"layers.{cls}.fwd_s"] = incl[f"layers.{cls}.fwd"]

        step_times = self._step_times()
        m["training.forward.s"] = incl["training.forward"] + self._train_loss_seconds()
        m["training.backward.s"] = incl["autodiff.backward"]
        m["training.adam.s"] = incl["training.adam"]
        m["training.train.self_s"] = selfs["training.train"]
        m["training.step.p50_s"] = float(np.percentile(step_times, 50)) if step_times else 0.0
        m["training.step.p90_s"] = float(np.percentile(step_times, 90)) if step_times else 0.0
        m["training.step.count"] = len(step_times)
        for fn in ("evaluate", "save_checkpoint", "load_checkpoint"):
            m[f"training.{fn}.s"] = incl[f"training.{fn}"]

        m["data.ingest_canonical.s"] = incl["data.ingest_canonical"]
        m["data.ingest_canonical.rows_per_s"] = (
            counts["ingest.rows"] / incl["data.ingest_canonical"]
            if incl["data.ingest_canonical"] else 0.0)
        for fn in ("resample", "segment_windows", "split", "normalize"):
            m[f"data.{fn}.s"] = incl[f"data.{fn}"]
        for fn in ("save_container", "load_container"):
            m[f"storage.{fn}.s"] = incl[f"storage.{fn}"]
            m[f"storage.{fn}.mb"] = counts[f"{fn}.bytes"] / 1e6
        m["archspec.build_model.s"] = incl["archspec.build_model"]
        m["analysis.routing_stats.s"] = incl["analysis.routing_stats"]
        m["analysis.depth_divergence.s"] = incl["analysis.depth_divergence"]
        m["analysis.count_flops.flops_per_ex"] = counts["count_flops.flops_per_ex"]
        for module in MODULES:
            m[f"{module}.self_s"] = module_self[module]
        m["bench.trace_overhead.ratio"] = overhead_ratio
        return m

    def _step_times(self):
        """Training steps: start of a train-mode forward to the end of the
        Adam step that follows it."""
        out, start = [], None
        for s in self.spans:
            if s[_NAME] == "training.forward":
                start = s[_START]
            elif s[_NAME] == "training.adam" and start is not None:
                out.append(s[_END] - start)
                start = None
        return out

    def _train_loss_seconds(self):
        """Loss ops evaluated directly inside `training.train`."""
        total = 0.0
        for s in self.spans:
            if (s[_NAME] == "autodiff.softmax_cross_entropy.fwd" and s[_PARENT] >= 0
                    and self.spans[s[_PARENT]][_NAME] == "training.train"):
                total += s[_END] - s[_START]
        return total
