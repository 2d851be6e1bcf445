"""Layer behavior: batch norm statistics, dense/dropout contracts, modes."""

import tracemalloc

import numpy as np
import pytest

from condcnn import autodiff as ad
from condcnn import layers
from condcnn.autodiff import Tensor
from condcnn.errors import ConfigError, ShapeError


@pytest.fixture
def rng():
    return np.random.default_rng(123)


class TestBatchNorm:
    def test_train_output_standardized(self, rng):
        bn = layers.BatchNorm(4)
        x = Tensor(rng.normal(3.0, 2.5, size=(8, 10, 4)))
        out = bn.forward(x)
        np.testing.assert_allclose(out.data.mean(axis=(0, 1)), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.data.var(axis=(0, 1)), 1.0, atol=1e-4)

    def test_affine_rescues_mean_and_std(self, rng):
        bn = layers.BatchNorm(3)
        bn.gamma.data[:] = 2.0
        bn.beta.data[:] = 3.0
        x = Tensor(rng.normal(size=(16, 5, 3)))
        out = bn.forward(x)
        np.testing.assert_allclose(out.data.mean(axis=(0, 1)), 3.0, atol=1e-6)
        np.testing.assert_allclose(out.data.std(axis=(0, 1)), 2.0, atol=1e-3)

    def test_eval_matches_direct_formula(self, rng):
        bn = layers.BatchNorm(3)
        for _ in range(4):
            bn.forward(Tensor(rng.normal(1.0, 2.0, size=(6, 7, 3))))
        bn.training = False
        x = rng.normal(size=(2, 5, 3))
        out = bn.forward(Tensor(x))
        expected = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.epsilon)
        expected = expected * bn.gamma.data + bn.beta.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_eval_ignores_batch_statistics(self, rng):
        bn = layers.BatchNorm(2)
        bn.forward(Tensor(rng.normal(size=(4, 6, 2))))
        bn.training = False
        a = bn.forward(Tensor(np.full((2, 3, 2), 100.0))).data
        b = bn.forward(Tensor(np.full((5, 9, 2), 100.0))).data
        np.testing.assert_allclose(a[0, 0], b[0, 0], atol=1e-12)

    def test_both_modes_call_the_fused_op(self, rng, monkeypatch):
        calls = []
        fused = ad.batch_norm
        monkeypatch.setattr(ad, "batch_norm",
                            lambda *args: calls.append(len(args)) or fused(*args))
        bn = layers.BatchNorm(3)
        bn.forward(Tensor(rng.normal(size=(4, 5, 3))))
        bn.training = False
        bn.forward(Tensor(rng.normal(size=(4, 5, 3))))
        assert calls == [4, 5]  # train mode passes no statistics, eval mode the running ones

    def test_eval_forward_peak_is_one_output_buffer(self, rng):
        bn = layers.BatchNorm(64)
        bn.running_mean = rng.normal(size=64)
        bn.running_var = rng.random(64) + 0.5
        bn.training = False
        x = Tensor(rng.normal(size=(16, 128, 64)))
        with ad.no_grad():
            tracemalloc.start()
            try:
                out = bn.forward(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1.5 * out.data.nbytes

    def test_eval_gradients_treat_running_statistics_as_constants(self, rng):
        bn = layers.BatchNorm(2)
        bn.running_mean = rng.normal(size=2)
        bn.running_var = rng.random(2) + 0.5
        bn.gamma.data = rng.normal(1.0, 0.5, size=2)
        bn.training = False
        probe = Tensor(rng.normal(size=(3, 4, 2)))

        def f(x):
            return (bn.forward(x) * probe).sum()

        x = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
        assert ad.grad_check(f, x, eps=1e-5) < 1e-6
        for t in (x, bn.gamma, bn.beta):
            t.zero_grad()
        f(x).backward()
        std = np.sqrt(bn.running_var + bn.epsilon)
        x_hat = (x.data - bn.running_mean) / std
        np.testing.assert_allclose(x.grad, probe.data * bn.gamma.data / std, rtol=1e-12)
        np.testing.assert_allclose(bn.gamma.grad, (probe.data * x_hat).sum(axis=(0, 1)),
                                   rtol=1e-12)
        np.testing.assert_allclose(bn.beta.grad, probe.data.sum(axis=(0, 1)), rtol=1e-12)

    def test_single_sample_train_rejected(self):
        bn = layers.BatchNorm(2)
        with pytest.raises(ConfigError, match="at least 2"):
            bn.forward(Tensor(np.zeros((1, 1, 2))))

    def test_running_var_stays_nonnegative(self, rng):
        bn = layers.BatchNorm(3)
        for _ in range(10):
            bn.forward(Tensor(rng.normal(size=(4, 4, 3))))
        assert (bn.running_var >= 0).all()

    def test_gradients_through_train_path(self, rng):
        bn = layers.BatchNorm(2)
        probe = Tensor(rng.normal(size=(3, 4, 2)))  # breaks standardization invariance

        def f(x):
            bn.running_mean[:] = 0  # keep f side-effect-free across evals
            bn.running_var[:] = 1
            return (bn.forward(x) * probe).sum()

        x = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
        assert ad.grad_check(f, x, eps=1e-5) < 1e-4


def composed_batch_norm(x, gamma, beta, epsilon):
    """Train-mode batch norm built from elementary ops: the oracle for the
    fused `autodiff.batch_norm`, in the same float operation order."""
    mu = x.mean(axis=(0, 1))
    centered = x - mu
    var = (centered * centered).mean(axis=(0, 1))
    scale = gamma / ad.tsqrt(var + Tensor(epsilon))
    return centered * scale + beta, mu.data, var.data


class TestFusedBatchNorm:
    def _inputs(self, seed, shape=(5, 7, 3)):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(2.0, 3.0, size=shape), requires_grad=True)
        gamma = Tensor(rng.normal(1.0, 0.5, size=shape[2]), requires_grad=True)
        beta = Tensor(rng.normal(size=shape[2]), requires_grad=True)
        probe = Tensor(rng.normal(size=shape))  # breaks standardization invariance
        return x, gamma, beta, probe

    def test_output_and_running_stats_bitwise_equal_composed_ops(self):
        bn = layers.BatchNorm(3)
        ref_mean, ref_var = bn.running_mean.copy(), bn.running_var.copy()
        for seed in range(4):
            x, gamma, beta, _ = self._inputs(seed)
            bn.gamma.data, bn.beta.data = gamma.data.copy(), beta.data.copy()
            out = bn.forward(x)
            expected, mu, var = composed_batch_norm(x, gamma, beta, bn.epsilon)
            ref_mean = (1 - bn.momentum) * ref_mean + bn.momentum * mu
            ref_var = (1 - bn.momentum) * ref_var + bn.momentum * var
            np.testing.assert_array_equal(out.data, expected.data)
            np.testing.assert_array_equal(bn.running_mean, ref_mean)
            np.testing.assert_array_equal(bn.running_var, ref_var)

    @pytest.mark.parametrize("wrt", ["x", "gamma", "beta"])
    def test_finite_differences(self, wrt):
        x, gamma, beta, probe = self._inputs(10, shape=(3, 4, 2))
        args = {"x": x, "gamma": gamma, "beta": beta}

        def f(t):
            call = dict(args, **{wrt: t})
            return (ad.batch_norm(call["x"], call["gamma"], call["beta"], 1e-5)[0]
                    * probe).sum()

        assert ad.grad_check(f, args[wrt], eps=1e-5) < 1e-6

    def test_gradients_match_composed_ops(self):
        for seed in range(3):
            fused = self._inputs(20 + seed, shape=(6, 9, 4))
            composed = self._inputs(20 + seed, shape=(6, 9, 4))
            (ad.batch_norm(*fused[:3], 1e-5)[0] * fused[3]).sum().backward()
            (composed_batch_norm(*composed[:3], 1e-5)[0] * composed[3]).sum().backward()
            for got, want in zip(fused[:3], composed[:3]):
                np.testing.assert_allclose(got.grad, want.grad, rtol=1e-12,
                                           atol=1e-12 * np.abs(want.grad).max())


class TestDense:
    def test_identity_weights(self):
        rng = np.random.default_rng(0)
        layer = layers.Dense(3, 3, rng)
        layer.w.data = np.eye(3)
        layer.b.data[:] = 0.0
        x = rng.normal(size=(4, 3))
        np.testing.assert_array_equal(layer.forward(Tensor(x)).data, x)

    def test_zero_weights_give_bias_rows(self):
        rng = np.random.default_rng(1)
        layer = layers.Dense(3, 2, rng)
        layer.w.data[:] = 0.0
        layer.b.data = np.array([5.0, -1.0])
        out = layer.forward(Tensor(rng.normal(size=(4, 3))))
        np.testing.assert_array_equal(out.data, np.tile([5.0, -1.0], (4, 1)))

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(2)
        layer = layers.Dense(5, 4, rng)
        x = rng.normal(size=(6, 5))
        expected = x @ layer.w.data + layer.b.data
        np.testing.assert_allclose(layer.forward(Tensor(x)).data, expected, atol=1e-12)

    def test_shape_mismatch(self):
        layer = layers.Dense(5, 4, np.random.default_rng(3))
        with pytest.raises(ShapeError):
            layer.forward(Tensor(np.zeros((2, 6))))


class TestDropoutLayer:
    def test_eval_is_bitwise_identity(self):
        layer = layers.Dropout(0.5)
        layer.training = False
        x = Tensor(np.random.default_rng(4).normal(size=(8, 8)))
        assert layer.forward(x) is x

    def test_train_mean_matches_eval(self):
        layer = layers.Dropout(0.5)
        x = Tensor(np.ones((400, 250)))  # 1e5 elements
        out = layer.forward(x, rng=np.random.default_rng(5))
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_train_without_rng_rejected(self):
        layer = layers.Dropout(0.5)
        with pytest.raises(ConfigError):
            layer.forward(Tensor(np.ones((2, 2))))

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigError):
            layers.Dropout(1.0)


class TestModelContainer:
    def _tiny_model(self, seed=0):
        rng = np.random.default_rng(seed)
        return layers.Model([
            layers.TemporalConv(2, 4, 3, rng, name="conv0"),
            layers.BatchNorm(4, name="bn0"),
            layers.ReLU(name="relu0"),
            layers.GlobalAvgPool(name="pool"),
            layers.Dropout(0.5, name="drop"),
            layers.Dense(4, 3, rng, name="fc"),
            layers.Softmax(name="sm"),
        ])

    def test_forward_produces_distribution(self):
        model = self._tiny_model().eval()
        x = np.random.default_rng(6).normal(size=(5, 12, 2))
        probs = model.forward(x).data
        assert probs.shape == (5, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_mode_flags_gate_only_bn_and_dropout(self):
        model = self._tiny_model()
        x = np.random.default_rng(7).normal(size=(4, 12, 2))
        model.eval()
        a = model.forward(x).data
        b = model.forward(x).data
        np.testing.assert_array_equal(a, b)

    def test_named_params_cover_all_layers(self):
        model = self._tiny_model()
        names = set(model.named_params())
        assert names == {"conv0.kernel", "conv0.bias", "bn0.gamma", "bn0.beta",
                         "fc.w", "fc.b"}

    def test_inference_scope_restores_each_layer_mode_also_on_error(self):
        model = self._tiny_model()
        model.layers[1].training = False  # a mixed state comes back as it was
        before = [layer.training for layer in model.layers]
        with pytest.raises(RuntimeError, match="inside"):
            with model.inference():
                assert not any(layer.training for layer in model.layers)
                x = Tensor(np.ones((2, 12, 2)), requires_grad=True)
                assert model.logits(x)._backward is None  # no graph recorded
                raise RuntimeError("inside")
        assert [layer.training for layer in model.layers] == before
        x = Tensor(np.ones((2, 12, 2)), requires_grad=True)
        assert model.logits(x, rng=np.random.default_rng(0)).requires_grad  # graph is back

    def test_model_requires_softmax_tail(self):
        with pytest.raises(ConfigError):
            layers.Model([layers.ReLU()])

    def test_max_pool_defaults(self):
        pool = layers.MaxPool()
        x = Tensor(np.arange(8.0).reshape(1, 8, 1))
        np.testing.assert_array_equal(
            pool.forward(x).data.ravel(), [1.0, 3.0, 5.0, 7.0]
        )
