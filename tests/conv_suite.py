"""The cases both conv ops share. `conv_temporal` and `condconv_temporal`
run one front end, `autodiff._conv_front`, which owns the chunks, the bias
gradient and the input gradient, so each case holds for either op.
`ConvOpSuite` runs them for the op its subclass names in `op`; that
subclass lives in the op's own test module, whose test ids the cases keep.
Each case runs at every kernel shape in KERNELS."""

import gc
import tracemalloc
from functools import partial
from itertools import combinations, product

import numpy as np
import pytest

from condcnn import autodiff as ad
from condcnn import condconv as cc
from condcnn.autodiff import Tensor
from condcnn.layers import TemporalConv
from helpers import chunk_budget, set_workers

# each op's inputs, in call order
INPUTS = {"conv": ("x", "kernel"), "condconv": ("x", "alpha", "experts")}
# (K, C_in, C_out); K = 4 pads 'same' unevenly
KERNELS = [(3, 2, 3), (3, 2, 4), (4, 2, 5)]


def op_inputs(op, batch, t, kernel_shape, constant=(), bias=False, n=3):
    """Seeded inputs of `op` for a (K, C_in, C_out) kernel (of `n` experts
    for the CondConv op), with a (C_out,) bias if asked, each needing a
    gradient unless `constant` names it."""
    rng = np.random.default_rng(0)
    arrays = {"x": rng.normal(size=(batch, t, kernel_shape[1]))}
    if op == "conv":
        arrays["kernel"] = rng.normal(size=kernel_shape)
    else:
        arrays["alpha"] = rng.random((batch, n))
        arrays["experts"] = rng.normal(size=(n, *kernel_shape))
    if bias:
        arrays["bias"] = rng.normal(size=kernel_shape[2])
    return {name: Tensor(a, requires_grad=name not in constant) for name, a in arrays.items()}


def call_op(op, args, stride, padding, bias=None):
    conv = ad.conv_temporal if op == "conv" else ad.condconv_temporal
    return conv(*(args[name] for name in INPUTS[op]), stride, padding, bias)


def backward_of(y, args):
    """Backward of a seeded projection of `y`: {"y": its values, then each
    input's gradient, None where none was asked for}."""
    (y * Tensor(np.random.default_rng(1).normal(size=y.shape))).sum().backward()
    return {"y": y.data, **{name: t.grad for name, t in args.items()}}


@pytest.mark.invariance
class ConvOpSuite:
    op = None  # "conv" or "condconv"

    def pytest_generate_tests(self, metafunc):
        """`wrt` runs over the op's inputs, `constant` over each nonempty set of them."""
        names = INPUTS[self.op]
        if "wrt" in metafunc.fixturenames:
            metafunc.parametrize("wrt", names)
        if "constant" in metafunc.fixturenames:
            metafunc.parametrize("constant", [
                c for r in range(1, len(names) + 1) for c in combinations(names, r)])

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_finite_differences_across_chunks(self, monkeypatch, wrt, padding):
        for kernel_shape in KERNELS:
            args = op_inputs(self.op, 3, 9, kernel_shape)
            chunk_budget(monkeypatch, 2, kernel_shape)  # chunks of 2 and 1 examples
            w = Tensor(np.random.default_rng(1).normal(
                size=call_op(self.op, args, 2, padding).shape))

            def f(t):
                return (call_op(self.op, dict(args, **{wrt: t}), 2, padding) * w).sum()

            assert ad.grad_check(f, args[wrt], eps=1e-5) < 1e-6, kernel_shape

    def test_multi_chunk_equals_single_chunk(self, monkeypatch):
        def run():
            args = op_inputs(self.op, 7, 11, kernel_shape)
            return backward_of(call_op(self.op, args, 2, "same"), args).values()

        for kernel_shape in KERNELS:
            with monkeypatch.context() as patch:
                whole = run()
                chunk_budget(patch, 3, kernel_shape)  # chunks of 3, 3 and 1
                split, again = run(), run()
            for got, want in zip(split, whole):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            for got, want in zip(again, split):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"), (2, "valid")])
    def test_bias_in_op_equals_op_then_add(self, monkeypatch, stride, padding, chunked):
        for batch, kernel_shape in product((3, 5), KERNELS):
            if chunked:
                chunk_budget(monkeypatch, 2, kernel_shape)  # chunks of 2 and 1, or 2, 2 and 1
            runs = []
            for fused in (True, False):
                args = op_inputs(self.op, batch, 11, kernel_shape, bias=True)
                y = call_op(self.op, args, stride, padding, args["bias"] if fused else None)
                runs.append(backward_of(y if fused else y + args["bias"], args).values())
            for got, want in zip(*runs):
                np.testing.assert_array_equal(got, want)

    def test_skipped_gradients_leave_the_others_bitwise(self, monkeypatch, constant):
        """The backward walk's skip paths, in one chunk and in chunks of 2:
        an input that needs no gradient gets none, and every other gradient
        is bitwise the full backward's, with and without a bias."""
        def run(skip):
            args = op_inputs(self.op, batch, 11, kernel_shape, skip, bias)
            return backward_of(call_op(self.op, args, 2, "same", args.get("bias")), args)

        for batch, kernel_shape, chunked, bias in product((3, 5), KERNELS, *[(False, True)] * 2):
            with monkeypatch.context() as patch:
                if chunked:
                    chunk_budget(patch, 2, kernel_shape)
                full, skipped = run(()), run(constant)
            for name, grad in skipped.items():
                if name in constant:
                    assert grad is None, name
                else:
                    np.testing.assert_array_equal(grad, full[name])

    def test_backward_keeps_no_whole_batch_windows(self, monkeypatch):
        """One 384->384, K=5 layer (of 8 experts for the CondConv op) at
        T=8, forward and backward at 1, 2 and 4 chunks on 1 and 2 workers:
        each added example may add what scales with the batch (the output
        and its and the input's gradients), but neither K inputs' worth of
        windows or window gradients nor a quarter of a mixed kernel, of
        which mixing the whole batch at once adds two."""
        rng = np.random.default_rng(76)
        if self.op == "conv":
            forward = TemporalConv(384, 384, 5, rng)
        else:
            forward = partial(cc.condconv_forward, layer=cc.CondConv(384, 384, 5, 8, rng))
        chunk = ad.condconv_chunk((5, 384, 384))
        input_bytes = 8 * 8 * 384  # one example's input
        bound = min(5 * input_bytes, 8 * 5 * 384 * 384 / 4)

        def peak(batch):
            x = Tensor(rng.normal(size=(batch, 8, 384)), requires_grad=True)
            gc.collect()
            tracemalloc.start()
            try:
                forward(x).sum().backward()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for workers in (1, 2):
            set_workers(monkeypatch, workers)
            peaks = {chunks: peak(chunks * chunk) for chunks in (1, 2, 4)}
            for lo, hi in ((1, 2), (2, 4)):
                added = (peaks[hi] - peaks[lo]) / ((hi - lo) * chunk)
                assert added < bound, (workers, lo, hi, added / input_bytes)
