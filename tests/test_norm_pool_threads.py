"""The passes outside the conv ops: batch norm splits each elementwise pass
by examples over `autodiff._workers` threads, with every reduction whole,
so its outputs and gradients are bitwise the same for any thread count;
max-pool's running maximum over strided taps is bitwise the window
max/argmax of a `sliding_window_view`. The inputs here are small, so the
tests set the thread count themselves."""

import sys
import tracemalloc

import numpy as np
import pytest

from condcnn import autodiff as ad
from condcnn.autodiff import Tensor

T, C = 9, 5


def _batch_norm(monkeypatch, workers, batch, training, relu, x_grad, calls=None):
    """batch_norm's output, statistics and gradients at `workers` threads,
    on fixed inputs; `calls` collects each `_workers` call and the element
    count of each `_split`."""
    def count_workers(work, least=None):
        if calls is not None:
            calls.append(("workers", work, least))
        return workers

    split = ad._split

    def recording_split(workers, task, m):
        if calls is not None:
            calls.append(("split", m))
        return split(workers, task, m)

    monkeypatch.setattr(ad, "_workers", count_workers)
    monkeypatch.setattr(ad, "_split", recording_split)
    rng = np.random.default_rng(41)
    x = Tensor(rng.normal(1.0, 2.0, size=(batch, T, C)), requires_grad=x_grad)
    gamma = Tensor(rng.normal(1.0, 0.5, size=C), requires_grad=True)
    beta = Tensor(rng.normal(size=C), requires_grad=True)
    stats = None if training else (rng.normal(size=C), rng.random(C) + 0.5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        out, mu, var = ad.batch_norm(x, gamma, beta, 1e-5, stats, relu=relu)
        (out * Tensor(rng.normal(size=out.shape))).sum().backward()
    finally:
        sys.setswitchinterval(interval)
    return [out.data, mu, var] + [t.grad for t in (x, gamma, beta) if t.requires_grad]


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("x_grad", [True, False], ids=["x-grad", "x-const"])
@pytest.mark.parametrize("relu", [True, False], ids=["relu", "no-relu"])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_batch_norm_bitwise_equal_for_any_thread_count(monkeypatch, batch, training,
                                                       relu, x_grad):
    serial = _batch_norm(monkeypatch, 1, batch, training, relu, x_grad)
    for workers in (2, 3):  # 3 is more threads than a 2-core machine has cores
        threaded = _batch_norm(monkeypatch, workers, batch, training, relu, x_grad)
        assert len(threaded) == len(serial)
        for a, b in zip(serial, threaded):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("x_grad", [True, False], ids=["x-grad", "x-const"])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_batch_norm_splits_each_pass_by_examples(monkeypatch, training, x_grad):
    """One `_workers` call, gated like Adam's update, then one split of
    the batch per run of passes with no reduction between them: forward,
    centering and squaring, then scaling (in eval mode one split does
    both); backward, the mask, x_hat and g * x_hat, then dx if x wants
    it."""
    calls = []
    _batch_norm(monkeypatch, 2, 7, training, True, x_grad, calls)
    splits = (2 if training else 1) + (2 if x_grad else 1)
    assert calls == ([("workers", 7 * T * C, ad._THREAD_MIN_ELEMENTS)]
                     + [("split", 7)] * splits)


def _reference_pool(x, size, stride, g):
    """Window max, and the gradient `g` scattered onto the window argmax
    and added to a zero gradient, from a `sliding_window_view`."""
    windows = np.lib.stride_tricks.sliding_window_view(x, size, axis=1)[:, ::stride]
    value, argmax = windows.max(axis=-1), windows.argmax(axis=-1)
    b_idx, t_idx, c_idx = np.ogrid[:x.shape[0], :value.shape[1], :x.shape[2]]
    dx = np.zeros_like(x)
    np.add.at(dx, (b_idx, t_idx * stride + argmax, c_idx), g)
    grad = np.zeros_like(x)
    grad += dx
    return value, grad


@pytest.mark.parametrize("size,stride", [(1, 1), (2, 2), (2, 3), (3, 1), (5, 2)])
@pytest.mark.parametrize("inputs", ["normal", "relu-ties"])
def test_max_pool_bitwise_equals_window_view_reference(size, stride, inputs):
    rng = np.random.default_rng(size * 10 + stride)
    data = rng.normal(size=(3, 17, 4))
    if inputs == "relu-ties":
        # ReLU outputs rounded to a coarse grid: runs of zeros, repeated
        # maxima in most windows
        data = np.maximum(np.round(data, 1), 0.0)
    x = Tensor(data, requires_grad=True)
    out = ad.max_pool_temporal(x, size, stride)
    g = rng.normal(size=out.shape)
    (out * Tensor(g)).sum().backward()
    value, grad = _reference_pool(data, size, stride, g)
    if inputs == "relu-ties" and size > 1:  # some window holds its max twice
        windows = np.lib.stride_tricks.sliding_window_view(data, size, axis=1)[:, ::stride]
        assert ((windows == value[..., None]).sum(axis=-1) > 1).any()
    assert out.data.tobytes() == value.tobytes()
    assert x.grad.tobytes() == grad.tobytes()
    with ad.no_grad():
        assert ad.max_pool_temporal(x, size, stride).data.tobytes() == value.tobytes()


@pytest.mark.parametrize("size,stride", [(2, 2), (5, 2)])
def test_max_pool_without_graph_peak_is_one_output_buffer(size, stride):
    x = Tensor(np.random.default_rng(9).normal(size=(16, 128, 64)), requires_grad=True)
    with ad.no_grad():
        tracemalloc.start()
        try:
            out = ad.max_pool_temporal(x, size, stride)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.5 * out.data.nbytes
