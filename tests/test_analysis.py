"""Cost accounting and routing-statistics reports."""

import numpy as np
import pytest

from condcnn import analysis, archspec, condconv, training
from condcnn.autodiff import Tensor
from condcnn.condconv import route
from condcnn.errors import ConfigError
from helpers import make_linear_dataset, make_motif_dataset


def build(shorthand="C(4)-C(8)-FC-Sm", t=16, channels=2, classes=3, **kw):
    base = dict(convs_per_block=1, kernel_length=3, pool=None)
    base.update(kw)
    spec = archspec.parse_shorthand(shorthand, **base)
    return archspec.build_model(spec, (t, channels), classes, seed=0)


class TestCountFlops:
    def test_single_pointwise_conv_is_one_mac(self):
        model = build("C(1)-Sm", t=1, channels=1, classes=1,
                      kernel_length=1, condconv_mask=(False,))
        report = analysis.count_flops(model)
        conv = next(c for c in report.per_layer if "conv" in c.name)
        assert conv.multiply_adds == 1

    def test_flops_equal_twice_multiply_adds(self):
        model = build(n_experts=4, head="pointwise-condconv")
        report = analysis.count_flops(model)
        for cost in report.per_layer:
            np.testing.assert_allclose(cost.flops, 2 * cost.multiply_adds)
        np.testing.assert_allclose(report.total_flops, 2 * report.total_multiply_adds)

    def test_expert_increment_formula(self):
        # F(n) - F(1) == (n-1) * (K*C_in*C_out + C_in) MACs per condconv layer
        def total(n):
            return analysis.count_flops(build(n_experts=n)).total_multiply_adds

        k = 3
        per_expert = (k * 2 * 4 + 2) + (k * 4 * 8 + 4)  # both conv layers
        for n in (2, 4, 8):
            np.testing.assert_allclose(total(n) - total(1), (n - 1) * per_expert)

    def test_flops_affine_in_expert_count(self):
        totals = {n: analysis.count_flops(build(n_experts=n)).total_flops
                  for n in (1, 2, 4, 8)}
        assert totals[2] - totals[1] == (totals[4] - totals[2]) / 2
        assert totals[4] - totals[2] == (totals[8] - totals[4]) / 2

    def test_pool_and_stride_shrink_downstream_cost(self):
        no_pool = analysis.count_flops(build(pool=None)).total_flops
        pooled = analysis.count_flops(build(pool=(2, 2))).total_flops
        assert pooled < no_pool


class TestCountParams:
    def test_dense_layer_formula(self):
        model = build("C(4)-FC-Sm", condconv_mask=(False,))
        named = model.named_params()
        assert named["head.w"].size + named["head.b"].size == 4 * 3 + 3

    def test_condconv_minus_standard_is_routing_matrix(self):
        cond = build("C(4)-FC-Sm", n_experts=1)
        plain = build("C(4)-FC-Sm", condconv_mask=(False,))
        # same shapes everywhere; the only extra is R: C_in x 1
        assert analysis.count_params(cond) - analysis.count_params(plain) == 2 * 1

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_expert_scaling_exact(self, n):
        cond = build(n_experts=n)
        plain = build(condconv_mask=(False, False))
        expert_params = 3 * 2 * 4 + 3 * 4 * 8      # sum over layers of |W|
        routing_params = 2 * n + 4 * n             # sum over layers of |R|
        expected = (n - 1) * expert_params + routing_params
        assert analysis.count_params(cond) - analysis.count_params(plain) == expected

    def test_matches_checkpoint_tensor_sizes(self, tmp_path):
        from condcnn import storage

        model = build(n_experts=4, head="pointwise-condconv")
        path = tmp_path / "m.ckpt"
        training.save_checkpoint(path, model)
        arrays, _ = storage.load_container(path)
        from_ckpt = sum(a.size for name, a in arrays.items() if name.startswith("param."))
        assert analysis.count_params(model) == from_ckpt

    def test_one_row_per_model_layer(self):
        model = build(n_experts=2, head="pointwise-condconv", pool=(2, 2))
        report = analysis.count_flops(model)
        assert [c.name for c in report.per_layer] == [l.name for l in model.layers]

    def test_report_params_match_model_params(self):
        model = build(n_experts=2, head="pointwise-condconv")
        report = analysis.count_flops(model)
        assert report.total_params == analysis.count_params(model)


class TestConfusionReport:
    def test_perfect_predictor_is_diagonal(self):
        ds = make_linear_dataset(n_per_class=20, seed=0)
        model = build("C(4)-FC-Sm", t=16, channels=2, classes=2)
        training.train(
            model, ds, ds,
            training.TrainConfig(16, 40, training.StepDecay(1e-3, 0.1, 50), seed=0),
        )
        report = analysis.confusion_matrix_report(model, ds)
        if report.accuracy == 1.0:
            assert report.ranked_confusions == []
            assert np.diag(report.matrix).sum() == report.matrix.sum()

    def test_agrees_with_evaluate(self):
        ds = make_linear_dataset(n_per_class=15, seed=1)
        model = build("C(4)-FC-Sm", t=16, channels=2, classes=2)
        report = analysis.confusion_matrix_report(model, ds)
        result = training.evaluate(model, ds)
        np.testing.assert_array_equal(report.matrix, result.confusion)
        assert report.accuracy == result.accuracy

    def test_ranked_pairs_sorted_by_count(self):
        ds = make_motif_dataset(n_per_class=10, seed=2)
        model = build("C(4)-FC-Sm", t=32, channels=3, classes=4)
        report = analysis.confusion_matrix_report(model, ds)
        counts = [c for _, _, c in report.ranked_confusions]
        assert counts == sorted(counts, reverse=True)


class TestRoutingStats:
    def _model(self, **kw):
        base = dict(t=32, channels=3, classes=4, n_experts=4, head="pointwise-condconv")
        base.update(kw)
        return build("C(4)-C(8)-FC-Sm", **base)

    def test_untrained_model_means_near_half(self):
        ds = make_motif_dataset(n_per_class=20, seed=3)
        stats = analysis.routing_stats(self._model(), ds)
        for layer_stats in stats.per_layer.values():
            means = layer_stats.class_means()
            assert ((means > 0.45) & (means < 0.55)).all()

    def test_single_example_has_zero_std(self):
        ds = make_motif_dataset(n_per_class=10, seed=4).subset(np.array([0]))
        stats = analysis.routing_stats(self._model(), ds)
        layer_stats = next(iter(stats.per_layer.values()))
        picked = layer_stats.class_stds()[int(ds.y[0])]
        np.testing.assert_array_equal(picked, 0.0)

    def test_histogram_mass_counts_every_weight(self):
        ds = make_motif_dataset(n_per_class=10, seed=5)
        model = self._model()
        stats = analysis.routing_stats(model, ds)
        expected = sum(
            len(ds) * s.n_experts for s in stats.per_layer.values()
        )
        assert stats.histogram.sum() == expected

    def test_weights_strictly_in_unit_interval(self):
        ds = make_motif_dataset(n_per_class=10, seed=6)
        stats = analysis.routing_stats(self._model(), ds)
        for layer_stats in stats.per_layer.values():
            assert (layer_stats.alphas > 0).all() and (layer_stats.alphas < 1).all()

    def test_batching_does_not_change_weights(self):
        ds = make_motif_dataset(n_per_class=2, seed=9)  # 8 examples: 3 + 3 + 2
        model = self._model()
        whole = analysis.routing_stats(model, ds)
        batched = analysis.routing_stats(model, ds, batch_size=3)
        assert list(batched.per_layer) == list(whole.per_layer)
        for name, stats in whole.per_layer.items():
            np.testing.assert_array_equal(batched.per_layer[name].alphas, stats.alphas)

    def test_records_no_graph_and_matches_recorded_forward(self, monkeypatch):
        ds = make_motif_dataset(n_per_class=2, seed=10)
        model = self._model()
        alphas = []
        monkeypatch.setattr(analysis, "route",
                            lambda x, layer: alphas.append(route(x, layer)) or alphas[-1])
        stats = analysis.routing_stats(model, ds)
        assert alphas and not any(a.requires_grad for a in alphas)
        model.eval()
        x = Tensor(ds.x)
        for layer in model.layers[:-1]:
            if layer.name in stats.per_layer:
                alpha = route(x, getattr(layer, "conv", layer))
                assert alpha._backward is not None  # this pass recorded the graph
                np.testing.assert_array_equal(stats.per_layer[layer.name].alphas, alpha.data)
            x = layer.forward(x)

    def test_routes_each_layer_once_and_runs_nothing_after_the_last(self, monkeypatch):
        ds = make_motif_dataset(n_per_class=2, seed=11)  # 8 examples: 3 + 3 + 2
        model = self._model(head="dense")
        routed = [l for l in model.layers if isinstance(l, condconv.CondConv)]
        after = model.layers[model.layers.index(routed[-1]) + 1:]
        routes, late = [], []

        def counting(x, layer):
            routes.append(layer.name)
            return route(x, layer)
        monkeypatch.setattr(analysis, "route", counting)
        monkeypatch.setattr(condconv, "route", counting)
        for layer in after:
            monkeypatch.setattr(layer, "forward",
                                lambda x, rng=None, name=layer.name: late.append(name))
        analysis.routing_stats(model, ds, batch_size=3)
        assert routes == [l.name for l in routed] * 3
        assert late == []

    def test_layer_selection_and_no_condconv_error(self):
        ds = make_linear_dataset(n_per_class=5, seed=7)
        plain = build("C(4)-FC-Sm", t=16, channels=2, classes=2,
                      condconv_mask=(False,))
        with pytest.raises(ConfigError, match="CondConv"):
            analysis.routing_stats(plain, ds)

    def test_csv_exports(self, tmp_path):
        ds = make_motif_dataset(n_per_class=8, seed=8)
        stats = analysis.routing_stats(self._model(), ds)
        hist_path = tmp_path / "hist.csv"
        means_path = tmp_path / "means.csv"
        stats.histogram_to_csv(hist_path)
        stats.class_means_to_csv(means_path)
        lines = hist_path.read_text().strip().splitlines()
        assert lines[0] == "bucket_left,bucket_right,count"
        assert len(lines) == 21
        assert means_path.read_text().startswith("layer,class,expert,mean,std")


class TestDepthDivergence:
    def _stats_with_means(self, means_by_layer):
        # craft LayerRoutingStats with controlled class means
        per_layer = {}
        for name, means in means_by_layer.items():
            means = np.asarray(means, dtype=float)
            k, n = means.shape
            alphas = np.repeat(means, 2, axis=0)
            labels = np.repeat(np.arange(k), 2)
            per_layer[name] = analysis.LayerRoutingStats(name, alphas, labels, k)
        return analysis.RoutingStats(per_layer=per_layer)

    def test_identical_means_score_zero(self):
        stats = self._stats_with_means({"l0": [[0.5, 0.5], [0.5, 0.5]]})
        assert analysis.depth_divergence(stats)["l0"] == 0.0

    def test_orthogonal_one_hot_means(self):
        stats = self._stats_with_means({"l0": [[1.0, 0.0], [0.0, 1.0]]})
        np.testing.assert_allclose(
            analysis.depth_divergence(stats)["l0"], np.sqrt(2), atol=1e-12
        )

    def test_matches_brute_force_pair_loop(self):
        rng = np.random.default_rng(9)
        means = rng.random((5, 3))
        stats = self._stats_with_means({"l0": means})
        score = analysis.depth_divergence(stats)["l0"]
        total, pairs = 0.0, 0
        for i in range(5):
            for j in range(i + 1, 5):
                total += np.linalg.norm(means[i] - means[j])
                pairs += 1
        np.testing.assert_allclose(score, total / pairs, atol=1e-12)

    def test_single_class_rejected(self):
        stats = self._stats_with_means({"l0": [[0.5, 0.5]]})
        with pytest.raises(ConfigError):
            analysis.depth_divergence(stats)
