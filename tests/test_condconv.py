"""CondConv layer: routing, kernel mixing, and the two equivalent forms."""

import gc
import re
import tracemalloc

import numpy as np
import pytest

from condcnn import autodiff as ad
from condcnn import condconv as cc
from condcnn.autodiff import Tensor
from condcnn.errors import ConfigError, ShapeError
from condcnn.layers import TemporalConv
from conv_suite import ConvOpSuite, backward_of, call_op, op_inputs
from helpers import chunk_budget

pytestmark = pytest.mark.invariance


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
    def test_head_is_a_kernel_length_one_condconv(self):
        head = cc.PointwiseCondConvHead(3, 5, 4, np.random.default_rng(23), name="head")
        assert isinstance(head, cc.CondConv)
        assert head.kernel_len == 1 and head.experts.data.shape == (4, 1, 3, 5)
        assert sorted(head.params()) == ["bias", "experts", "routing"]

    def test_draws_experts_then_routing_like_a_condconv(self):
        head = cc.PointwiseCondConvHead(3, 5, 4, np.random.default_rng(23))
        conv = cc.CondConv(3, 5, 1, 4, np.random.default_rng(23))
        for name, p in conv.params().items():
            np.testing.assert_array_equal(head.params()[name].data, p.data)

    def test_pinned_single_expert_equals_dense_on_averaged_features(self):
        head = cc.PointwiseCondConvHead(3, 5, 1, np.random.default_rng(24), pin_routing=True)
        x = np.random.default_rng(25).normal(size=(4, 10, 3))
        logits = head(Tensor(x)).data
        pooled = x.mean(axis=1)
        expected = pooled @ head.experts.data[0, 0] + head.bias.data
        np.testing.assert_allclose(logits, expected, rtol=1e-10, atol=1e-12)

    def test_matches_sum_form_oracle(self):
        head = cc.PointwiseCondConvHead(3, 5, 4, np.random.default_rng(26))
        x = Tensor(np.random.default_rng(27).normal(size=(4, 10, 3)))
        logits = head(x)
        oracle = cc.condconv_as_sum(x, head, activation=None).mean(axis=1)
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


class TestCondConvTemporal(ConvOpSuite):
    op = "condconv"

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"), (2, "valid")])
    def test_matches_mixed_kernel_conv(self, stride, padding):
        runs = []
        for conv in (ad.condconv_temporal, _mixed_kernel_conv):
            args = op_inputs("condconv", 5, 11, (3, 2, 3))
            runs.append(backward_of(conv(*args.values(), stride, padding), args).values())
        for got, want in zip(*runs):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kernel_shape", [(1, 5, 5), (3, 3, 3)])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_gradients_do_not_depend_on_the_column_block(self, monkeypatch, kernel_shape, n):
        """The op mixes kernels and walks the experts' gradient, d_alpha and
        the remix by `_GRAD_COLUMNS`-column blocks. Under every chunk split,
        blocks of a multiple of 4 columns, as the default is, give the output,
        the input gradient and the experts' gradient bitwise as one
        whole-width block (the default at these shapes) does: a one-example
        chunk's mix is a vector-matrix product, which needs them. The
        experts' gradient does not depend on the mix, so it holds at 2 and 3
        columns too. d_alpha is a sum over the blocks, so it only matches
        within rounding. 25 columns leave one-column tails, which join the
        block before; 27 leave tails of one to three."""
        whole = ad._GRAD_COLUMNS
        assert whole >= 27 and whole % 4 == 0
        blocks = (4, 8, 12) if n == 1 else (2, 3, 4, 8, 12)
        for examples in (1, 2, 3, 7):
            chunk_budget(monkeypatch, examples, kernel_shape)
            runs = []
            for columns in (whole, *blocks):
                monkeypatch.setattr(ad, "_GRAD_COLUMNS", columns)
                args = op_inputs("condconv", 7, 11, kernel_shape, n=n)
                runs.append(backward_of(call_op("condconv", args, 2, "same"), args).values())
            for columns, (y, dx, d_alpha, d_experts) in zip(blocks, runs[1:]):
                want_y, want_dx, want_d_alpha, want_d_experts = runs[0]
                where = (examples, columns)
                assert d_experts.tobytes() == want_d_experts.tobytes(), where
                np.testing.assert_allclose(d_alpha, want_d_alpha, rtol=1e-12, atol=0,
                                           err_msg=str(where))
                if columns % 4 == 0:
                    assert y.tobytes() == want_y.tobytes(), where
                    assert dx.tobytes() == want_dx.tobytes(), where

    @pytest.mark.parametrize("op", ["condconv", "conv"])
    def test_shape_mismatches_rejected(self, op):
        """Both conv ops check their inputs in one front end: the same
        malformed input raises the same message from either."""
        # batch 5, T 11, C_in 2, n 3, K 3, C_out 3
        x, alpha, experts = op_inputs("condconv", 5, 11, (3, 2, 3)).values()
        if op == "condconv":
            weights, wrong_rank = experts, Tensor(experts.data[0])
            rank_message = "experts must be (n, K, C_in, C_out), got (3, 2, 3)"

            def call(x, weights, bias=None, alpha=alpha):
                return ad.condconv_temporal(x, alpha, weights, bias=bias)
        else:
            weights, wrong_rank = Tensor(experts.data[0]), experts
            rank_message = "kernel must be (K, C_in, C_out), got (3, 3, 2, 3)"

            def call(x, weights, bias=None):
                return ad.conv_temporal(x, weights, bias=bias)
        cases = [
            (Tensor(x.data[:, :, 0]), weights, None,
             "conv input must be (batch, T, C_in), got (5, 11)"),
            (x, wrong_rank, None, rank_message),
            (Tensor(x.data[:, :, :1]), weights, None,
             "kernel expects 2 input channels, input has 1"),
        ]
        # a bias numpy would broadcast over the output, or fail to
        for shape in [(), (1,), (5, 11, 3), (4,), (3, 1)]:
            cases.append((x, weights, Tensor(np.zeros(shape)), f"bias must be (3,), got {shape}"))
        for bad_x, bad_weights, bias, message in cases:
            with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
                call(bad_x, bad_weights, bias)
        if op == "condconv":
            message = "alpha shape (5, 2) does not match batch 5 and 3 experts"
            with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
                call(x, experts, alpha=Tensor(alpha.data[:, :2]))

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
    def test_backward_holds_one_chunk_of_kernels_and_no_expert_sized_temporary(
            self, monkeypatch):
        """One 384->384, K=5, n=8 op over two chunks of 2 examples: what
        backward allocates on top of the graph stays under one chunk of
        per-example kernels, one chunk's window gradients and a quarter of
        the experts. A fresh kernel gradient per chunk beside an
        (n, K*C_in*C_out) product of alpha and it exceeds that."""
        args = op_inputs("condconv", 4, 8, (5, 384, 384), n=8)
        experts = args["experts"]
        chunk_budget(monkeypatch, 2, (5, 384, 384))
        loss = (call_op("condconv", args, 1, "same")
                * Tensor(np.random.default_rng(41).normal(size=(4, 8, 384)))).sum()
        gc.collect()
        tracemalloc.start()
        try:
            loss.backward()
            transient = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk_kernels = 2 * 8 * experts.data[0].size
        chunk_dcols = 2 * 8 * (8 * 5 * 384)  # 2 examples x T_out x K*C_in
        bound = chunk_kernels + chunk_dcols + experts.data.nbytes / 4
        assert transient < bound, (transient, bound)
