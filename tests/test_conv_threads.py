"""Both conv ops split each batch chunk over `autodiff._workers` threads:
outputs and gradients are bitwise the same for any thread count, an
exception on any thread reaches the caller, no thread outlives an op,
and no code in `src/condcnn` but `autodiff._split` starts one. The ops
here are small, so the tests set the thread count themselves; at the
recipes' conv layer shapes, the parts of both ops' passes run serially
instead, up to 64 of them, so that each BLAS call is checked to be the
same call on any core count."""

import ast
import json
import os
import re
import threading
import time
from importlib import resources
from pathlib import Path

import pytest

from condcnn import archspec
from condcnn import autodiff as ad
from condcnn.condconv import CondConv
from conv_suite import INPUTS, backward_of, call_op, op_inputs
from helpers import chunk_budget, serial_split, set_workers

BATCH, T_IN, C_IN, C_OUT, K = 23, 13, 4, 6, 5
# (x, alpha or kernel, experts) gradients wanted; experts only for condconv
GRADS = [(True, True, True), (False, True, True), (True, False, False)]

pytestmark = pytest.mark.invariance


def _run(op, workers, monkeypatch, stride, padding, grads, n=3, t_in=T_IN, batch=BATCH,
         kernel_shape=(K, C_IN, C_OUT)):
    """The op's output and gradients at `workers` threads, on fixed inputs."""
    set_workers(monkeypatch, workers)
    constant = [name for name, wanted in zip(INPUTS[op], grads) if not wanted]
    args = op_inputs(op, batch, t_in, kernel_shape, constant, bias=True, n=n)
    out = backward_of(call_op(op, args, stride, padding, args["bias"]), args)
    return [out["y"]] + [out[name] for name, t in args.items() if t.requires_grad]


def _same_bits_at_2_and_3_threads(monkeypatch, op, chunk, *args, **kwargs):
    """`_run(op, workers, monkeypatch, *args, **kwargs)` in chunks of `chunk`
    examples gives the same bits at 2 and 3 threads as at 1."""
    chunk_budget(monkeypatch, chunk, (K, C_IN, C_OUT))
    serial = _run(op, 1, monkeypatch, *args, **kwargs)
    for workers in (2, 3):  # 3 is more threads than a 2-core machine has cores
        threaded = _run(op, workers, monkeypatch, *args, **kwargs)
        assert len(threaded) == len(serial)
        for a, b in zip(serial, threaded):
            assert a.tobytes() == b.tobytes(), workers


@pytest.mark.parametrize("op", ["condconv", "conv"])
@pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"),
                                            (2, "valid")])
@pytest.mark.parametrize("chunk", [1, 2, 3, 11])
@pytest.mark.parametrize("grads", GRADS)
def test_bitwise_equal_for_any_thread_count(monkeypatch, op, stride, padding, chunk, grads):
    # 8-column and 8-row blocks, so both kernel gradients have blocks to deal out
    monkeypatch.setattr(ad, "_GRAD_COLUMNS", 8)
    monkeypatch.setattr(ad, "_GRAD_ROWS", 8)
    _same_bits_at_2_and_3_threads(monkeypatch, op, chunk, stride, padding, grads)


@pytest.mark.parametrize("op", ["condconv", "conv"])
@pytest.mark.parametrize("chunk", [2, 3, 11])
def test_one_window_per_example_bitwise_equal(monkeypatch, op, chunk):
    # each example's matmuls have one row, so they are vector-matrix products
    _same_bits_at_2_and_3_threads(monkeypatch, op, chunk, 1, "valid", GRADS[0], t_in=K)


@pytest.mark.parametrize("chunk", [1, 4, 11])
def test_one_expert_bitwise_equal_for_any_thread_count(monkeypatch, chunk):
    _same_bits_at_2_and_3_threads(monkeypatch, "condconv", chunk, 1, "same", GRADS[0], n=1)


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


@pytest.mark.parametrize("op,shape,stride,padding", _part_count_cases())
def test_condconv_bitwise_equal_for_any_part_count(monkeypatch, op, shape, stride, padding):
    """At every recipe's layer shapes, each conv op hands BLAS the same
    calls however many parts its passes are cut into, as on a machine with
    that many CPUs: the output and every gradient are bitwise those of one
    part. The parts run serially, so no thread starts."""
    monkeypatch.setattr(ad, "_split", serial_split)
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
    args = op_inputs(op, BATCH, T_IN, (K, C_IN, C_OUT), INPUTS[op])
    outs = []
    for workers in (1, 2, 3):
        set_workers(monkeypatch, workers)
        with ad.no_grad():
            outs.append(call_op(op, args, 1, "same").data)
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


def test_only_split_starts_a_thread():
    """Every parallel pass in `src/condcnn` lies behind `autodiff._split`,
    the one function the invariance tests double: no other code names a
    thread, a process or a pool. autodiff's import of the pool `_split`
    uses is the one line outside it."""
    pattern = re.compile(r"ThreadPoolExecutor|threading|multiprocessing|concurrent\.futures")
    allowed = {("autodiff.py", "from concurrent.futures import ThreadPoolExecutor")}
    found = []
    for path in sorted(Path(ad.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        split = [node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef) and node.name == "_split"]
        inside = {i for node in split for i in range(node.lineno, node.end_lineno + 1)}
        found += [(path.name, i, line.strip()) for i, line in enumerate(source.splitlines(), 1)
                  if pattern.search(line) and i not in inside
                  and (path.name, line.strip()) not in allowed]
    assert not found
