"""Tensor engine tests: forward oracles and gradient checks."""

import gc
import tracemalloc

import numpy as np
import pytest

from condcnn import autodiff as ad
from condcnn.autodiff import Tensor
from condcnn.condconv import CondConv
from condcnn.errors import ConfigError, DataError, NumericError, ShapeError
from condcnn.layers import BatchNorm, ReLU, TemporalConv


def rand(*shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(scale=scale, size=shape)


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        out = ad.matmul(eye, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, np.eye(2))

    def test_hand_checked(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])

    def test_against_triple_loop(self):
        a, b = rand(3, 4, seed=1), rand(4, 2, seed=2)
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = ad.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradients_flow_to_both_operands(self):
        a = Tensor(rand(3, 4, seed=3), requires_grad=True)
        b = Tensor(rand(4, 2, seed=4), requires_grad=True)
        ad.matmul(a, b).sum().backward()
        assert np.abs(a.grad).sum() > 0 and np.abs(b.grad).sum() > 0


class TestConvTemporal:
    def test_unit_kernel_is_identity(self):
        x = Tensor(rand(1, 5, 1, seed=5))
        kernel = Tensor(np.ones((1, 1, 1)))
        out = ad.conv_temporal(x, kernel, padding="valid")
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_summed(self):
        x = Tensor(np.array([[[1.0], [2.0], [3.0], [4.0]]]))
        kernel = Tensor(np.ones((2, 1, 1)))
        out = ad.conv_temporal(x, kernel, padding="valid")
        np.testing.assert_array_equal(out.data.ravel(), [3.0, 5.0, 7.0])

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_conv_length_matches_output(self, padding):
        for t in (5, 6, 7, 16):
            for k in (1, 2, 5):
                for stride in (1, 2, 3):
                    out = ad.conv_temporal(Tensor(rand(1, t, 2)), Tensor(rand(k, 2, 3)),
                                           stride, padding)
                    assert ad.conv_length(t, k, stride, padding) == out.data.shape[1]

    @pytest.mark.parametrize("stride,padding", [(1, "valid"), (2, "valid"), (1, "same"), (3, "same")])
    def test_against_quadruple_loop(self, stride, padding):
        batch, t, c_in, c_out, k = 2, 16, 3, 4, 5
        x = rand(batch, t, c_in, seed=6)
        w = rand(k, c_in, c_out, seed=7)
        out = ad.conv_temporal(Tensor(x), Tensor(w), stride=stride, padding=padding)

        if padding == "same":
            t_target = -(-t // stride)
            total = max(0, (t_target - 1) * stride + k - t)
            left = total // 2
            xp = np.zeros((batch, t + total, c_in))
            xp[:, left:left + t] = x
        else:
            xp = x
        t_out = (xp.shape[1] - k) // stride + 1
        expected = np.zeros((batch, t_out, c_out))
        for b in range(batch):
            for ti in range(t_out):
                for o in range(c_out):
                    for kk in range(k):
                        for ci in range(c_in):
                            expected[b, ti, o] += xp[b, ti * stride + kk, ci] * w[kk, ci, o]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_linearity(self):
        x = rand(2, 14, 3, seed=12)
        y = rand(2, 14, 3, seed=13)
        w = Tensor(rand(5, 3, 4, seed=14))
        a, b = 1.7, -0.3
        combined = ad.conv_temporal(Tensor(a * x + b * y), w)
        separate = a * ad.conv_temporal(Tensor(x), w).data + b * ad.conv_temporal(Tensor(y), w).data
        np.testing.assert_allclose(combined.data, separate, rtol=1e-10, atol=1e-12)

    def test_kernel_longer_than_input_rejected(self):
        with pytest.raises(ConfigError, match="kernel length"):
            ad.conv_temporal(Tensor(rand(1, 3, 1, seed=15)), Tensor(np.ones((5, 1, 1))), padding="valid")

    def test_forward_is_deterministic(self):
        x = Tensor(rand(3, 20, 4, seed=16))
        w = Tensor(rand(5, 4, 8, seed=17))
        first = ad.conv_temporal(x, w).data
        second = ad.conv_temporal(x, w).data
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "valid"), (2, "same")])
    def test_input_gradient(self, stride, padding):
        w = Tensor(rand(3, 2, 4, seed=60))
        x = Tensor(rand(2, 9, 2, seed=61), requires_grad=True)
        err = ad.grad_check(
            lambda t: (ad.conv_temporal(t, w, stride, padding) ** 2).sum(), x, eps=1e-5
        )
        assert err < 1e-6

    def test_kernel_gradient(self):
        x = Tensor(rand(2, 9, 2, seed=62))
        w = Tensor(rand(3, 2, 4, seed=63), requires_grad=True)
        err = ad.grad_check(
            lambda t: (ad.conv_temporal(x, t) ** 2).sum(), w, eps=1e-5
        )
        assert err < 1e-6

    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"), (2, "valid")])
    def test_bias_in_op_equals_op_then_add(self, monkeypatch, stride, padding, chunked):
        if chunked:
            _chunk_budget(monkeypatch, 2, (4, 2, 5))  # chunks of 2 and 1 examples

        def run(fused):
            x = Tensor(rand(3, 11, 2, seed=66), requires_grad=True)
            w = Tensor(rand(4, 2, 5, seed=67), requires_grad=True)
            bias = Tensor(rand(5, seed=68), requires_grad=True)
            if fused:
                y = ad.conv_temporal(x, w, stride, padding, bias)
            else:
                y = ad.conv_temporal(x, w, stride, padding) + bias
            (y * Tensor(rand(*y.shape, seed=69))).sum().backward()
            return [y.data, x.grad, w.grad, bias.grad]

        for got, want in zip(run(True), run(False)):
            np.testing.assert_array_equal(got, want)

    def test_per_example_kernel_rejected(self):
        with pytest.raises(ShapeError, match=r"\(K, C_in, C_out\)"):
            ad.conv_temporal(Tensor(rand(3, 10, 2)), Tensor(rand(3, 4, 2, 5)))

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("wrt", ["x", "kernel"])
    def test_finite_differences_across_chunks(self, monkeypatch, wrt, padding):
        args = {"x": Tensor(rand(3, 9, 2, seed=70), requires_grad=True),
                "kernel": Tensor(rand(3, 2, 4, seed=71), requires_grad=True)}
        _chunk_budget(monkeypatch, 2, (3, 2, 4))  # chunks of 2 and 1 examples
        w = rand(3, 5 if padding == "same" else 4, 4, seed=72)

        def f(t):
            call = dict(args, **{wrt: t})
            return (ad.conv_temporal(call["x"], call["kernel"], 2, padding) * Tensor(w)).sum()

        assert ad.grad_check(f, args[wrt], eps=1e-5) < 1e-6

    def test_multi_chunk_equals_single_chunk(self, monkeypatch):
        def run():
            x = Tensor(rand(7, 11, 2, seed=73), requires_grad=True)
            w = Tensor(rand(3, 2, 4, seed=74), requires_grad=True)
            y = ad.conv_temporal(x, w, 2)
            (y * Tensor(rand(*y.shape, seed=75))).sum().backward()
            return [y.data, x.grad, w.grad]

        whole = run()
        _chunk_budget(monkeypatch, 3, (3, 2, 4))  # chunks of 3, 3 and 1
        split, again = run(), run()
        for got, want in zip(split, whole):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for got, want in zip(again, split):
            np.testing.assert_array_equal(got, want)

    def test_backward_keeps_no_whole_batch_windows(self):
        """One 384->384, K=5 TemporalConv at T=8, forward and backward: going
        from 2 to 4 chunks may add what scales with the batch (the output,
        its gradient and the input gradient), but not K inputs' worth of
        windows or window gradients per added example."""
        layer = TemporalConv(384, 384, 5, np.random.default_rng(76))
        chunk = ad.condconv_chunk(layer.kernel.data.shape)
        rng = np.random.default_rng(77)

        def peak(batch):
            x = Tensor(rng.normal(size=(batch, 8, 384)), requires_grad=True)
            gc.collect()
            tracemalloc.start()
            try:
                layer(x).sum().backward()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        input_bytes = 8 * 8 * 384  # one example's input
        added = (peak(4 * chunk) - peak(2 * chunk)) / (2 * chunk) / input_bytes
        assert added < layer.kernel_len, added


def _chunk_budget(monkeypatch, examples, kernel_shape):
    """Shrink the chunk budget so that `examples` examples fill a chunk."""
    monkeypatch.setattr(ad, "CONDCONV_CHUNK_BYTES", examples * 8 * int(np.prod(kernel_shape)))
    assert ad.condconv_chunk(kernel_shape) == examples


class TestMaxPool:
    def test_size_one_is_identity(self):
        x = Tensor(rand(2, 6, 3, seed=18))
        np.testing.assert_array_equal(ad.max_pool_temporal(x, 1, 1).data, x.data)

    def test_hand_case(self):
        x = Tensor(np.array([[[1.0], [3.0], [2.0], [5.0]]]))
        out = ad.max_pool_temporal(x, 2, 2)
        np.testing.assert_array_equal(out.data.ravel(), [3.0, 5.0])

    def test_against_loop_oracle(self):
        x = rand(2, 13, 3, seed=19)
        size, stride = 3, 2
        out = ad.max_pool_temporal(Tensor(x), size, stride)
        t_out = (13 - size) // stride + 1
        for b in range(2):
            for t in range(t_out):
                for c in range(3):
                    assert out.data[b, t, c] == x[b, t * stride:t * stride + size, c].max()

    def test_oversized_window_rejected(self):
        with pytest.raises(ConfigError):
            ad.max_pool_temporal(Tensor(rand(1, 4, 1, seed=20)), 5, 1)

    @pytest.mark.parametrize("size,stride", [(2, 2), (3, 2), (3, 1)])
    def test_gradient_routes_to_argmax(self, size, stride):
        x = Tensor(rand(2, 10, 3, seed=66), requires_grad=True)
        err = ad.grad_check(
            lambda t: (ad.max_pool_temporal(t, size, stride) ** 2).sum(), x, eps=1e-5
        )
        assert err < 1e-6


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(rand(3, 4, seed=21), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_half_quadratic_gives_identity(self):
        x = Tensor(rand(5, seed=22), requires_grad=True)
        ((x * x).sum() / 2).backward()
        np.testing.assert_allclose(x.grad, x.data, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(rand(3, seed=23), requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 2).backward()

    def test_untouched_parameter_reads_zero(self):
        x = Tensor(rand(3, seed=24), requires_grad=True)
        unused = Tensor(rand(3, seed=25), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(unused.grad, np.zeros(3))

    def test_shared_subgraph_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 5
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_composed_network_matches_finite_differences(self):
        w1 = rand(6, 8, seed=26)
        w2 = rand(8, 3, seed=27)
        labels = np.array([0, 2, 1, 0])

        def f(x):
            h = ad.relu(ad.matmul(x, Tensor(w1)))
            logits = ad.matmul(h, Tensor(w2))
            return ad.softmax_cross_entropy(logits, labels)

        x = Tensor(rand(4, 6, seed=28), requires_grad=True)
        assert ad.grad_check(f, x, eps=1e-5) < 1e-4


class TestGradCheckHarness:
    def test_sum_is_machine_precision(self):
        x = Tensor(rand(7, seed=29), requires_grad=True)
        assert ad.grad_check(lambda t: t.sum(), x, eps=1e-5) < 1e-10

    def test_cross_entropy_of_softmax_of_dense(self):
        w = rand(5, 4, seed=30)
        b = rand(4, seed=31, scale=0.1)
        labels = np.array([1, 3, 0])

        def f(x):
            logits = ad.matmul(x, Tensor(w)) + Tensor(b)
            return ad.cross_entropy(ad.softmax(logits), labels)

        x = Tensor(rand(3, 5, seed=32), requires_grad=True)
        assert ad.grad_check(f, x, eps=1e-5) < 1e-4

    def test_eps_bounds_enforced(self):
        x = Tensor(rand(2, seed=33), requires_grad=True)
        with pytest.raises(ConfigError):
            ad.grad_check(lambda t: t.sum(), x, eps=1e-2)


class TestElementwiseOps:
    def test_relu(self):
        out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_saturates_without_overflow(self):
        out = ad.sigmoid(Tensor([-800.0, 800.0]))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_softmax_exact_thirds(self):
        logits = np.log(np.array([[1.0, 2.0, 3.0]]))
        out = ad.softmax(Tensor(logits))
        np.testing.assert_allclose(out.data, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        out = ad.softmax(Tensor(rand(20, 7, seed=34, scale=30)))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        assert (out.data > 0).all()

    @pytest.mark.parametrize("op", [ad.sigmoid, ad.tanh, ad.relu, ad.leaky_relu, ad.elu, ad.tsqrt])
    def test_unary_gradients(self, op):
        base = np.abs(rand(6, seed=35)) + 0.5  # keep relu/sqrt away from kinks
        x = Tensor(base, requires_grad=True)
        assert ad.grad_check(lambda t: op(t).sum(), x, eps=1e-5) < 1e-6

    def test_broadcast_add_gradient(self):
        x = Tensor(rand(4, 3, seed=36), requires_grad=True)
        b = Tensor(rand(3, seed=37), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_array_equal(b.grad, np.full(3, 4.0))


class TestLossOps:
    def test_one_hot_correct_prediction_is_zero(self):
        probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss = ad.cross_entropy(probs + 1e-300, np.array([0, 1]))
        assert loss.item() < 1e-10

    def test_uniform_over_six_classes(self):
        probs = Tensor(np.full((4, 6), 1 / 6))
        loss = ad.cross_entropy(probs, np.array([0, 1, 2, 3]))
        np.testing.assert_allclose(loss.item(), np.log(6), atol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(38)
        raw = rng.random((5, 4))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 4, size=5)
        loss = ad.cross_entropy(Tensor(probs), labels)
        expected = -np.log(probs[np.arange(5), labels]).mean()
        np.testing.assert_allclose(loss.item(), expected, atol=1e-12)

    def test_fused_path_agrees_with_composed_path(self):
        logits = rand(6, 5, seed=39, scale=3.0)
        labels = np.array([0, 4, 2, 2, 1, 3])
        fused = ad.softmax_cross_entropy(Tensor(logits), labels)
        composed = ad.cross_entropy(ad.softmax(Tensor(logits)), labels)
        np.testing.assert_allclose(fused.item(), composed.item(), atol=1e-12)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(DataError):
            ad.softmax_cross_entropy(Tensor(rand(2, 3, seed=40)), np.array([0, 3]))


class TestDropoutOp:
    def test_rate_zero_is_identity(self):
        x = Tensor(rand(4, 4, seed=41))
        assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_scaling_preserves_mean(self):
        x = Tensor(np.ones(100_000))
        out = ad.dropout(x, 0.5, np.random.default_rng(7))
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_mask_reproducible_from_seed(self):
        x = Tensor(rand(50, seed=43))
        a = ad.dropout(x, 0.3, np.random.default_rng(11)).data
        b = ad.dropout(x, 0.3, np.random.default_rng(11)).data
        np.testing.assert_array_equal(a, b)

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            ad.dropout(Tensor([1.0]), 1.0, np.random.default_rng(0))


class TestConsumedGraph:
    def _graph(self):
        x = Tensor(rand(4, 3, seed=90), requires_grad=True)
        w = Tensor(rand(3, 2, seed=91), requires_grad=True)
        logits = ad.matmul(x, w)
        loss = ad.softmax_cross_entropy(logits, np.array([0, 1, 1, 0]))
        return x, w, logits, loss

    def test_held_intermediate_is_released_and_leaves_keep_gradients(self):
        x, w, logits, loss = self._graph()
        x_ref, w_ref, _, loss_ref = self._graph()
        loss_ref.backward()
        del loss_ref
        loss.backward()
        assert logits._children == () and logits.grad is None
        assert loss._children == () and loss.grad is None
        np.testing.assert_array_equal(x.grad, x_ref.grad)
        np.testing.assert_array_equal(w.grad, w_ref.grad)

    def test_second_backward_raises(self):
        _, _, _, loss = self._graph()
        loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()

    def test_backward_through_held_consumed_node_raises(self):
        _, _, logits, loss = self._graph()
        loss.backward()
        again = ad.softmax_cross_entropy(logits, np.array([1, 0, 0, 1]))
        with pytest.raises(RuntimeError, match="consumed"):
            again.backward()

    def test_backward_does_not_double_the_forward_peak(self):
        # Kept gradients of every intermediate would about double the peak
        # of the forward pass that built the graph; consumed, they add
        # little beyond one layer's backward temporaries.
        rng = np.random.default_rng(92)
        layers = []
        for _ in range(6):
            layers += [TemporalConv(32, 32, 3, rng), BatchNorm(32), ReLU()]
        h = Tensor(rng.normal(size=(8, 100, 32)))
        tracemalloc.start()
        try:
            for layer in layers:
                h = layer(h)
            loss = (h * h).mean()
            del h
            forward_peak = tracemalloc.get_traced_memory()[1]
            loss.backward()
            total_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total_peak <= 1.25 * forward_peak

    @pytest.mark.parametrize("conv", ["plain", "condconv"])
    def test_conv_bn_relu_keeps_three_activations_per_layer(self, conv):
        # Each conv -> BN -> ReLU layer must keep only what backward needs:
        # the conv output (BN's input), the BN output (ReLU's input) and the
        # ReLU output (the next conv's input). Composed from elementary ops
        # it kept 7 activations: conv, +bias, centered, centered^2,
        # centered*scale, BN and ReLU outputs.
        rng = np.random.default_rng(97)
        n_layers, shape = 6, (8, 100, 32)
        layers = []
        for _ in range(n_layers):
            if conv == "plain":
                layers.append(TemporalConv(32, 32, 3, rng))
            else:
                layers.append(CondConv(32, 32, 3, 2, rng))
            layers += [BatchNorm(32), ReLU()]
        h = Tensor(rng.normal(size=shape))
        activation = 8 * h.size
        tracemalloc.start()
        try:
            for layer in layers:
                h = layer(h)
            forward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forward_peak <= 4 * n_layers * activation, forward_peak / activation


class TestNoGrad:
    def test_ops_record_no_graph(self):
        w = Tensor(rand(3, 2, seed=93), requires_grad=True)
        with ad.no_grad():
            out = ad.relu(ad.matmul(Tensor(rand(4, 3, seed=94)), w)).sum()
        assert not out.requires_grad
        assert out._children == () and out._backward is None

    def test_same_values_as_recorded_graph(self):
        x = Tensor(rand(2, 12, 3, seed=95))
        k = Tensor(rand(3, 3, 4, seed=96), requires_grad=True)
        recorded = ad.conv_temporal(x, k)
        with ad.no_grad():
            bare = ad.conv_temporal(x, k)
        assert recorded._backward is not None
        np.testing.assert_array_equal(bare.data, recorded.data)

    def test_nesting_restores_previous_state(self):
        w = Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not (w * 2.0).requires_grad
        assert (w * 2.0).requires_grad

    def test_exception_restores_previous_state(self):
        w = Tensor([1.0], requires_grad=True)
        with pytest.raises(ShapeError):
            with ad.no_grad():
                ad.matmul(w, w)
        assert (w * 2.0).requires_grad


class TestFiniteGuards:
    def test_division_by_zero_raises(self):
        with pytest.raises(NumericError):
            Tensor([1.0]) / Tensor([0.0])
