"""CondConv layer: routing, kernel mixing, and the two equivalent forms."""

import gc
import tracemalloc

import numpy as np
import pytest

from condcnn import autodiff as ad
from condcnn import condconv as cc
from condcnn.autodiff import Tensor
from condcnn.errors import ConfigError, ShapeError
from condcnn.layers import TemporalConv


def make_layer(c_in=3, c_out=4, k=5, n=4, seed=0, **kw):
    return cc.CondConv(c_in, c_out, k, n, np.random.default_rng(seed), **kw)


class TestRoute:
    def test_zero_matrix_gives_half_everywhere(self):
        layer = make_layer(n=3)
        layer.routing.data[:] = 0.0
        x = Tensor(np.random.default_rng(1).normal(size=(6, 10, 3)))
        alpha = cc.route(x, layer)
        np.testing.assert_array_equal(alpha.data, np.full((6, 3), 0.5))

    def test_constant_single_channel_closed_form(self):
        layer = cc.CondConv(1, 2, 3, 1, np.random.default_rng(2))
        r = 0.7
        layer.routing.data[:] = r
        c = 1.9
        alpha = cc.route(Tensor(np.full((2, 8, 1), c)), layer)
        expected = 1.0 / (1.0 + np.exp(-c * r))
        np.testing.assert_allclose(alpha.data, expected, atol=1e-12)

    def test_matches_loop_oracle(self):
        layer = make_layer(n=4, seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 12, 3))
        alpha = cc.route(Tensor(x), layer).data
        for b in range(5):
            pooled = np.array([x[b, :, c].mean() for c in range(3)])
            z = np.array([
                sum(pooled[c] * layer.routing.data[c, i] for c in range(3))
                for i in range(4)
            ])
            np.testing.assert_allclose(alpha[b], 1 / (1 + np.exp(-z)), atol=1e-12)

    def test_weights_strictly_inside_unit_interval(self):
        layer = make_layer(n=8, seed=5)
        x = Tensor(np.random.default_rng(6).normal(scale=50, size=(20, 9, 3)))
        alpha = cc.route(x, layer).data
        assert (alpha > 0).all() and (alpha < 1).all()


class TestCombineKernels:
    def test_single_expert_unit_weight(self):
        layer = make_layer(n=1, seed=7)
        alpha = Tensor(np.ones((3, 1)))
        combined = cc.combine_kernels(alpha, layer.experts)
        for b in range(3):
            np.testing.assert_array_equal(combined.data[b], layer.experts.data[0])

    def test_opposite_experts_cancel(self):
        layer = make_layer(n=2, seed=8)
        layer.experts.data[1] = -layer.experts.data[0]
        combined = cc.combine_kernels(Tensor(np.full((2, 2), 0.5)), layer.experts)
        np.testing.assert_allclose(combined.data, 0.0, atol=1e-15)

    def test_matches_elementwise_loop(self):
        layer = make_layer(n=4, seed=9)
        rng = np.random.default_rng(10)
        alpha = rng.random((3, 4))
        combined = cc.combine_kernels(Tensor(alpha), layer.experts).data
        for b in range(3):
            expected = sum(alpha[b, i] * layer.experts.data[i] for i in range(4))
            np.testing.assert_allclose(combined[b], expected, atol=1e-12)

    def test_expert_count_mismatch_rejected(self):
        layer = make_layer(n=4, seed=11)
        with pytest.raises(ConfigError):
            cc.combine_kernels(Tensor(np.ones((2, 3))), layer.experts)


class TestForwardEquivalence:
    def test_pinned_single_expert_is_bitwise_standard_conv(self):
        rng = np.random.default_rng(12)
        plain = TemporalConv(3, 4, 5, np.random.default_rng(99))
        layer = make_layer(n=1, seed=13, pin_routing=True)
        layer.experts.data[0] = plain.kernel.data
        layer.bias.data[:] = plain.bias.data
        x = Tensor(rng.normal(size=(4, 16, 3)))
        ours = cc.condconv_forward(x, layer, activation=None)
        theirs = plain.forward(x)
        np.testing.assert_array_equal(ours.data, theirs.data)

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"), (2, "valid")])
    def test_pinned_single_expert_trains_bitwise_as_standard_conv(self, stride, padding):
        """Criterion 3's train-mode half: output and every gradient."""
        plain = TemporalConv(3, 4, 5, np.random.default_rng(99), stride, padding)
        layer = make_layer(n=1, seed=13, stride=stride, padding=padding, pin_routing=True)
        layer.experts.data[0] = plain.kernel.data
        plain.bias.data[:] = np.random.default_rng(39).normal(size=4)
        layer.bias.data[:] = plain.bias.data
        x_data = np.random.default_rng(40).normal(size=(4, 16, 3))
        results = []
        for forward in (lambda x: cc.condconv_forward(x, layer, activation=None), plain):
            x = Tensor(x_data, requires_grad=True)
            y = forward(x)
            (y * Tensor(np.random.default_rng(41).normal(size=y.shape))).sum().backward()
            results.append([y.data, x.grad])
        results[0] += [layer.experts.grad[0], layer.bias.grad]
        results[1] += [plain.kernel.grad, plain.bias.grad]
        for ours, theirs in zip(*results):
            np.testing.assert_array_equal(ours, theirs)

    def test_constant_routing_equals_summed_kernel_conv(self):
        layer = make_layer(n=3, seed=14)
        layer.routing.data[:] = 0.0  # alpha = 0.5 for every expert
        x = Tensor(np.random.default_rng(15).normal(size=(3, 12, 3)))
        out = cc.condconv_forward(x, layer)
        merged = Tensor(0.5 * layer.experts.data.sum(axis=0))
        expected = ad.relu(ad.conv_temporal(x, merged) + layer.bias)
        np.testing.assert_allclose(out.data, expected.data, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_mix_then_convolve_equals_convolve_then_mix(self, n):
        layer = make_layer(n=n, seed=n)
        x = Tensor(np.random.default_rng(n + 50).normal(size=(3, 14, 3)))
        fast = cc.condconv_forward(x, layer)
        oracle = cc.condconv_as_sum(x, layer)
        np.testing.assert_allclose(fast.data, oracle.data, rtol=1e-10, atol=1e-12)

    def test_zero_input_gives_activated_bias(self):
        layer = make_layer(n=2, seed=16)
        layer.bias.data = np.array([1.0, -2.0, 0.5, 3.0])
        x = Tensor(np.zeros((2, 9, 3)))
        out = cc.condconv_as_sum(x, layer)
        expected = np.maximum(layer.bias.data, 0.0)
        for b in range(2):
            for t in range(out.data.shape[1]):
                np.testing.assert_allclose(out.data[b, t], expected, atol=1e-12)

    def test_gradients_through_full_block(self):
        layer = make_layer(c_in=2, c_out=3, k=3, n=2, seed=17)

        def f(x):
            return cc.condconv_forward(x, layer).sum()

        x = Tensor(np.random.default_rng(18).normal(size=(2, 8, 2)), requires_grad=True)
        assert ad.grad_check(f, x, eps=1e-5) < 1e-4

    def test_gradient_reaches_routing_matrix(self):
        layer = make_layer(c_in=2, c_out=2, k=3, n=3, seed=19)
        x = Tensor(np.random.default_rng(20).normal(size=(2, 8, 2)))
        cc.condconv_forward(x, layer).sum().backward()
        assert np.abs(layer.routing.grad).sum() > 0

    def test_routing_parameter_gradient_matches_finite_differences(self):
        layer = make_layer(c_in=2, c_out=2, k=3, n=3, seed=21)
        x = Tensor(np.random.default_rng(22).normal(size=(2, 8, 2)))

        def f(r):
            layer.routing = r
            return cc.condconv_forward(x, layer).sum()

        r = Tensor(layer.routing.data.copy(), requires_grad=True)
        assert ad.grad_check(f, r, eps=1e-5) < 1e-4


class TestPointwiseHead:
    def test_kernel_length_must_be_one(self):
        layer = make_layer(k=3, seed=23)
        with pytest.raises(ConfigError):
            cc.condconv_pointwise_head(Tensor(np.zeros((2, 6, 3))), layer)

    def test_pinned_single_expert_equals_dense_on_averaged_features(self):
        layer = cc.CondConv(3, 5, 1, 1, np.random.default_rng(24), pin_routing=True)
        x = np.random.default_rng(25).normal(size=(4, 10, 3))
        logits = cc.condconv_pointwise_head(Tensor(x), layer).data
        pooled = x.mean(axis=1)
        expected = pooled @ layer.experts.data[0, 0] + layer.bias.data
        np.testing.assert_allclose(logits, expected, rtol=1e-10, atol=1e-12)

    def test_matches_sum_form_oracle(self):
        layer = cc.CondConv(3, 5, 1, 4, np.random.default_rng(26))
        x = Tensor(np.random.default_rng(27).normal(size=(4, 10, 3)))
        logits = cc.condconv_pointwise_head(x, layer)
        oracle = cc.condconv_as_sum(x, layer, activation=None).mean(axis=1)
        np.testing.assert_allclose(logits.data, oracle.data, rtol=1e-10, atol=1e-12)


class TestRoutingActivationFlag:
    @pytest.mark.parametrize("name", sorted(cc.ROUTING_ACTIVATIONS))
    def test_alternatives_run(self, name):
        layer = make_layer(n=4, seed=28, routing_activation=name)
        x = Tensor(np.random.default_rng(29).normal(size=(3, 8, 3)))
        out = cc.condconv_forward(x, layer)
        assert out.data.shape == (3, 8, 4)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ConfigError):
            make_layer(routing_activation="step")


def _mixed_kernel_conv(x, alpha, experts, stride, padding):
    """Reference: convolve with every expert, then mix the outputs under the
    given routing weights, built as `condconv_as_sum` builds it."""
    batch, n = alpha.data.shape
    flat = ad.reshape(experts, (n, -1))
    total = None
    for i in range(n):
        pick = np.zeros((n, 1))
        pick[i, 0] = 1.0
        coeff = ad.reshape(ad.matmul(alpha, Tensor(pick)), (batch, 1, 1))
        expert_i = ad.reshape(ad.matmul(Tensor(pick.T), flat), experts.data.shape[1:])
        term = coeff * ad.conv_temporal(x, expert_i, stride, padding)
        total = term if total is None else total + term
    return total


def _op_inputs(batch=5, t=11, c_in=2, c_out=3, k=3, n=3, seed=30):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.normal(size=(batch, t, c_in)), requires_grad=True),
            Tensor(rng.random((batch, n)), requires_grad=True),
            Tensor(rng.normal(size=(n, k, c_in, c_out)), requires_grad=True))


def _run_op(op, x, alpha, experts, stride=2, padding="same", seed=31):
    """Forward plus backward of a fixed random projection of the output;
    returns the output and the gradients (None where none was asked for)."""
    for t in (x, alpha, experts):
        t.grad = None
    y = op(x, alpha, experts, stride, padding)
    w = Tensor(np.random.default_rng(seed).normal(size=y.data.shape))
    (y * w).sum().backward()
    return y.data, [None if t.grad is None else t.grad.copy() for t in (x, alpha, experts)]


def _chunk_budget(monkeypatch, examples, experts):
    """Shrink the chunk budget so that `examples` examples fill a chunk."""
    kernel_bytes = 8 * experts.data[0].size
    monkeypatch.setattr(ad, "CONDCONV_CHUNK_BYTES", examples * kernel_bytes)
    assert ad.condconv_chunk(experts.data.shape[1:]) == examples


class TestCondConvTemporal:
    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"), (2, "valid")])
    def test_matches_mixed_kernel_conv(self, stride, padding):
        x, alpha, experts = _op_inputs()
        ours, our_grads = _run_op(ad.condconv_temporal, x, alpha, experts, stride, padding)
        ref, ref_grads = _run_op(_mixed_kernel_conv, x, alpha, experts, stride, padding)
        np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-12)
        for got, want in zip(our_grads, ref_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("wrt", ["x", "alpha", "experts"])
    def test_finite_differences_across_chunks(self, monkeypatch, wrt, padding):
        x, alpha, experts = _op_inputs(batch=3, t=9)
        _chunk_budget(monkeypatch, 2, experts)  # chunks of 2 and 1 examples
        args = {"x": x, "alpha": alpha, "experts": experts}
        w = np.random.default_rng(32).normal(size=(3, 5 if padding == "same" else 4, 3))

        def f(t):
            call = dict(args, **{wrt: t})
            y = ad.condconv_temporal(call["x"], call["alpha"], call["experts"], 2, padding)
            return (y * Tensor(w)).sum()

        assert ad.grad_check(f, args[wrt], eps=1e-5) < 1e-6

    def test_multi_chunk_equals_single_chunk(self, monkeypatch):
        x, alpha, experts = _op_inputs(batch=7)
        whole = _run_op(ad.condconv_temporal, x, alpha, experts)
        _chunk_budget(monkeypatch, 3, experts)  # chunks of 3, 3 and 1
        split = _run_op(ad.condconv_temporal, x, alpha, experts)
        again = _run_op(ad.condconv_temporal, x, alpha, experts)
        np.testing.assert_allclose(split[0], whole[0], rtol=0, atol=1e-12)
        for got, want in zip(split[1], whole[1]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(again[0], split[0])
        for got, want in zip(again[1], split[1]):
            np.testing.assert_array_equal(got, want)

    def test_pinned_routing_skips_alpha_gradient(self, monkeypatch):
        x, alpha, experts = _op_inputs()
        _chunk_budget(monkeypatch, 2, experts)
        _, full = _run_op(ad.condconv_temporal, x, alpha, experts)
        pinned = Tensor(alpha.data)  # constant routing, as pin_routing gives
        _, grads = _run_op(ad.condconv_temporal, x, pinned, experts)
        assert grads[1] is None
        np.testing.assert_array_equal(grads[0], full[0])
        np.testing.assert_array_equal(grads[2], full[2])

    def test_input_without_grad_skips_input_gradient(self, monkeypatch):
        x, alpha, experts = _op_inputs()
        _chunk_budget(monkeypatch, 2, experts)
        _, full = _run_op(ad.condconv_temporal, x, alpha, experts)
        _, grads = _run_op(ad.condconv_temporal, Tensor(x.data), alpha, experts)
        assert grads[0] is None
        np.testing.assert_array_equal(grads[1], full[1])
        np.testing.assert_array_equal(grads[2], full[2])

    def test_only_input_gradient(self):
        x, alpha, experts = _op_inputs()
        _, full = _run_op(ad.condconv_temporal, x, alpha, experts)
        _, grads = _run_op(ad.condconv_temporal, x, Tensor(alpha.data), Tensor(experts.data))
        assert grads[1] is None and grads[2] is None
        np.testing.assert_array_equal(grads[0], full[0])

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"), (2, "valid")])
    def test_bias_in_op_equals_op_then_add(self, monkeypatch, stride, padding):
        x, alpha, experts = _op_inputs()
        bias = Tensor(np.random.default_rng(38).normal(size=3), requires_grad=True)
        _chunk_budget(monkeypatch, 2, experts)
        results = []
        for op in (lambda *a: ad.condconv_temporal(*a, bias),
                   lambda *a: ad.condconv_temporal(*a) + bias):
            bias.grad = None
            y, grads = _run_op(op, x, alpha, experts, stride, padding)
            results.append([y, *grads, bias.grad])
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_shape_mismatches_rejected(self):
        x, alpha, experts = _op_inputs()
        with pytest.raises(ShapeError, match="alpha"):
            ad.condconv_temporal(x, Tensor(alpha.data[:, :2]), experts)
        with pytest.raises(ShapeError, match="experts"):
            ad.condconv_temporal(x, alpha, Tensor(experts.data[0]))
        with pytest.raises(ShapeError, match="input channels"):
            ad.condconv_temporal(Tensor(x.data[:, :, :1]), alpha, experts)

    def test_condconv_layer_routes_through_the_op(self, monkeypatch):
        layer = make_layer(n=4, seed=33)
        x = Tensor(np.random.default_rng(34).normal(size=(3, 12, 3)))
        calls = []
        op = ad.condconv_temporal
        monkeypatch.setattr(ad, "condconv_temporal", lambda *a: calls.append(1) or op(*a))
        cc.condconv_forward(x, layer)
        assert calls == [1]
        pinned = make_layer(n=1, seed=35, pin_routing=True)
        cc.condconv_forward(x, pinned)
        assert calls == [1]  # pinned n=1 keeps the shared-kernel convolution


class TestCondConvMemory:
    def test_doubling_the_batch_does_not_add_mixed_kernels(self):
        """One 384->384, K=5, n=8 layer, forward and backward: the traced
        peak must not grow by a batch of per-example kernels when the batch
        doubles. Mixing the whole batch at once adds at least two per added
        example (its kernel and the kernel's gradient)."""
        layer = make_layer(c_in=384, c_out=384, k=5, n=8, seed=36)
        kernel_bytes = 8 * layer.experts.data[0].size
        chunk = ad.condconv_chunk(layer.experts.data.shape[1:])
        rng = np.random.default_rng(37)

        def peak(batch):
            x = Tensor(rng.normal(size=(batch, 8, 384)), requires_grad=True)
            gc.collect()
            tracemalloc.start()
            try:
                cc.condconv_forward(x, layer).sum().backward()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        batch = chunk  # one full chunk already holds every kernel alive at once
        growth = peak(2 * batch) - peak(batch)
        assert growth < 0.25 * batch * kernel_bytes, (growth, batch * kernel_bytes)
