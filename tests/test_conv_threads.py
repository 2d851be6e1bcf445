"""Both conv ops split each batch chunk over `autodiff._workers` threads:
outputs and gradients are bitwise the same for any thread count, an
exception on any thread reaches the caller, and no thread outlives an
op. The ops here are small, so the tests set the thread count
themselves; at the recipes' conv layer shapes, the parts of both ops'
passes run serially instead, up to 64 of them, so that each BLAS call is
checked to be the same call on any core count."""

import json
import os
import threading
import time
from importlib import resources

import numpy as np
import pytest

from condcnn import archspec
from condcnn import autodiff as ad
from condcnn.autodiff import Tensor
from condcnn.condconv import CondConv

BATCH, T_IN, C_IN, C_OUT, K = 23, 13, 4, 6, 5
# (x, alpha or kernel, experts) gradients wanted; experts only for condconv
GRADS = [(True, True, True), (False, True, True), (True, False, False)]


def _set_workers(monkeypatch, workers):
    monkeypatch.setattr(ad, "_workers", lambda macs: workers)


def _run(op, workers, monkeypatch, stride, padding, grads, n=3, t_in=T_IN, batch=BATCH,
         kernel_shape=(K, C_IN, C_OUT)):
    """The op's output and gradients at `workers` threads, on fixed inputs."""
    _set_workers(monkeypatch, workers)
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(batch, t_in, kernel_shape[1])), requires_grad=grads[0])
    bias = Tensor(rng.normal(size=kernel_shape[2]), requires_grad=True)
    if op == "condconv":
        alpha = Tensor(rng.uniform(size=(batch, n)), requires_grad=grads[1])
        experts = Tensor(rng.normal(size=(n, *kernel_shape)), requires_grad=grads[2])
        inputs = (x, alpha, experts, bias)
        out = ad.condconv_temporal(x, alpha, experts, stride, padding, bias=bias)
    else:
        kernel = Tensor(rng.normal(size=kernel_shape), requires_grad=grads[1])
        inputs = (x, kernel, bias)
        out = ad.conv_temporal(x, kernel, stride, padding, bias=bias)
    weights = Tensor(rng.normal(size=out.shape))
    (out * weights).sum().backward()
    return [out.data] + [t.grad for t in inputs if t.requires_grad]


def _chunk_budget(monkeypatch, examples):
    monkeypatch.setattr(ad, "CONDCONV_CHUNK_BYTES", examples * 8 * K * C_IN * C_OUT)


@pytest.mark.parametrize("op", ["condconv", "conv"])
@pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"),
                                            (2, "valid")])
@pytest.mark.parametrize("chunk", [1, 2, 3, 11])
@pytest.mark.parametrize("grads", GRADS)
def test_bitwise_equal_for_any_thread_count(monkeypatch, op, stride, padding, chunk, grads):
    _chunk_budget(monkeypatch, chunk)
    # 8-column and 8-row blocks, so both kernel gradients have blocks to deal out
    monkeypatch.setattr(ad, "_GRAD_COLUMNS", 8)
    monkeypatch.setattr(ad, "_GRAD_ROWS", 8)
    serial = _run(op, 1, monkeypatch, stride, padding, grads)
    for workers in (2, 3):  # 3 is more threads than a 2-core machine has cores
        threaded = _run(op, workers, monkeypatch, stride, padding, grads)
        assert len(threaded) == len(serial)
        for a, b in zip(serial, threaded):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("op", ["condconv", "conv"])
@pytest.mark.parametrize("chunk", [2, 3, 11])
def test_one_window_per_example_bitwise_equal(monkeypatch, op, chunk):
    # each example's matmuls have one row, so they are vector-matrix products
    _chunk_budget(monkeypatch, chunk)
    serial = _run(op, 1, monkeypatch, 1, "valid", GRADS[0], t_in=K)
    for workers in (2, 3):
        threaded = _run(op, workers, monkeypatch, 1, "valid", GRADS[0], t_in=K)
        for a, b in zip(serial, threaded):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("chunk", [1, 4, 11])
def test_one_expert_bitwise_equal_for_any_thread_count(monkeypatch, chunk):
    _chunk_budget(monkeypatch, chunk)
    serial = _run("condconv", 1, monkeypatch, 1, "same", GRADS[0], n=1)
    for workers in (2, 3):
        threaded = _run("condconv", workers, monkeypatch, 1, "same", GRADS[0], n=1)
        for a, b in zip(serial, threaded):
            assert a.tobytes() == b.tobytes()


def _recipe_conv_shapes(**overrides):
    """(experts shape, stride, padding) of every CondConv layer of the
    bundled recipes, each recipe built for its data's channel count with
    the model fields `overrides` sets."""
    shapes = set()
    for recipe, channels in {"wisdm": 3, "pamap2": 27, "unimib": 3, "opportunity": 113}.items():
        config = json.loads(
            resources.files("condcnn.configs").joinpath(f"{recipe}.json").read_text())
        spec = archspec.spec_from_dict({**config["model"], **overrides})
        model = archspec.build_model(spec, (32, channels), config["dataset"]["classes"],
                                     draw_init=False)
        shapes.update((layer.experts.data.shape, layer.stride, layer.padding)
                      for layer in model.layers if isinstance(layer, CondConv))
    return sorted(shapes)


def _part_count_cases():
    """The CondConv op at every recipe's CondConv layer shapes, also with
    one routed expert, whose kernel mix has an inner dimension of 1, and
    `conv_temporal` at every recipe's layer shapes as the pinned one-expert
    model, the CNN baseline, builds them (OPPORTUNITY's first is 113 -> 64
    channels). A CondConv case's id is `{shape}-{stride}-{padding}`, a
    conv case's the same after `conv-`."""
    def case(op, shape, stride, padding):
        shape_id = "x".join(map(str, shape))
        prefix = "" if op == "condconv" else f"{op}-"
        return pytest.param(op, shape, stride, padding,
                            id=f"{prefix}{shape_id}-{stride}-{padding}")

    return ([case("condconv", *layer)
             for layer in _recipe_conv_shapes() + _recipe_conv_shapes(n_experts=1)]
            + [case("conv", shape[1:], stride, padding) for shape, stride, padding
               in _recipe_conv_shapes(n_experts=1, pin_routing=True)])


# (batch, T) of each run per op: batch 13 of the largest CondConv layers
# walks a chunk of 11 examples and one of 2; for the conv op, an epoch's
# last batch can be 2 to 8 WISDM windows, and batch 16 at T 64 is
# OPPORTUNITY's
PART_COUNT_BATCHES = {"condconv": [(2, 6), (5, 6), (13, 6)],
                      "conv": [(batch, 200) for batch in range(2, 9)] + [(16, 64)]}


def _serial_split(workers, task, m):
    """`_split` with every part run in turn on the calling thread."""
    for part in ad._parts(m, workers):
        task(part)


@pytest.mark.parametrize("op,shape,stride,padding", _part_count_cases())
def test_condconv_bitwise_equal_for_any_part_count(monkeypatch, op, shape, stride, padding):
    """At every recipe's layer shapes, each conv op hands BLAS the same
    calls however many parts its passes are cut into, as on a machine with
    that many CPUs: the output and every gradient are bitwise those of one
    part. The parts run serially, so no thread starts."""
    monkeypatch.setattr(ad, "_split", _serial_split)
    n, kernel_shape = (shape[0], shape[1:]) if op == "condconv" else (1, shape)
    before = threading.active_count()
    for batch, t_in in PART_COUNT_BATCHES[op]:
        runs = [_run(op, parts, monkeypatch, stride, padding, GRADS[0], n=n, t_in=t_in,
                     batch=batch, kernel_shape=kernel_shape)
                for parts in (1, 2, 3, 16, 32, 64)]
        for parts, run in zip((2, 3, 16, 32, 64), runs[1:]):
            for a, b in zip(runs[0], run):
                assert a.tobytes() == b.tobytes(), (batch, t_in, parts)
    assert threading.active_count() == before


@pytest.mark.parametrize("op", ["condconv", "conv"])
def test_forward_without_graph_bitwise_equal(monkeypatch, op):
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(BATCH, T_IN, C_IN)))
    alpha = Tensor(rng.uniform(size=(BATCH, 3)))
    experts = Tensor(rng.normal(size=(3, K, C_IN, C_OUT)))
    kernel = Tensor(rng.normal(size=(K, C_IN, C_OUT)))
    outs = []
    for workers in (1, 2, 3):
        _set_workers(monkeypatch, workers)
        with ad.no_grad():
            if op == "condconv":
                outs.append(ad.condconv_temporal(x, alpha, experts).data)
            else:
                outs.append(ad.conv_temporal(x, kernel).data)
    assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()


def _failing_fold(monkeypatch, on_worker, on_caller=False):
    """Patch `_fold_windows` to record the live thread count at each call
    and, with `on_worker`, to raise on any thread but the caller's, or,
    with `on_caller`, to raise on the caller's while the others still
    run."""
    caller, real, seen = threading.get_ident(), ad._fold_windows, []

    def fold(dwin, dx, left, stride):
        if threading.get_ident() != caller and on_worker:
            raise RuntimeError("fold failed on a worker")
        if on_caller:
            if threading.get_ident() == caller:
                raise RuntimeError("fold failed on the caller")
            time.sleep(0.2)  # so the worker is still busy when the caller raises
        seen.append(threading.active_count())
        real(dwin, dx, left, stride)

    monkeypatch.setattr(ad, "_fold_windows", fold)
    return seen


@pytest.mark.parametrize("thread", ["worker", "caller"])
@pytest.mark.parametrize("op", ["condconv", "conv"])
def test_worker_exception_reaches_caller(monkeypatch, op, thread):
    # a caller's exception reaches the test only once the helper threads
    # have joined
    _failing_fold(monkeypatch, on_worker=thread == "worker", on_caller=thread == "caller")
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"fold failed on .* {thread}"):
        _run(op, 2, monkeypatch, 1, "same", GRADS[0])
    assert threading.active_count() == before


@pytest.mark.parametrize("op", ["condconv", "conv"])
def test_no_thread_outlives_the_op(monkeypatch, op):
    seen = _failing_fold(monkeypatch, on_worker=False)
    before = threading.active_count()
    _run(op, 3, monkeypatch, 1, "same", GRADS[0])
    assert max(seen) > before  # the backward did run on helper threads
    assert threading.active_count() == before


@pytest.mark.parametrize("op", ["condconv", "conv"])
def test_one_worker_starts_no_thread(monkeypatch, op):
    seen = _failing_fold(monkeypatch, on_worker=False)
    before = threading.active_count()
    _run(op, 1, monkeypatch, 1, "same", GRADS[0])
    assert set(seen) == {before}


def test_thread_count_follows_the_usable_cpus_above_the_size_floor():
    assert ad._workers(ad._THREAD_MIN_MACS - 1) == 1
    assert ad._workers(ad._THREAD_MIN_MACS) == len(os.sched_getaffinity(0))


def test_parts_cover_in_order_in_sizes_differing_by_at_most_one():
    for m in range(1, 30):
        for count in (1, 2, 3, 4):
            parts = ad._parts(m, count)
            assert parts[0].start == 0 and parts[-1].stop == m
            assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))
            assert len(parts) == min(m, count)
            sizes = [p.stop - p.start for p in parts]
            assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1
