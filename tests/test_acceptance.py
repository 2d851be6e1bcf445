"""Acceptance gate: one test per release criterion, each at its stated
tolerance. The terminal summary prints one line per criterion.

Criterion 8 (scaled-down WISDM run) needs the public raw WISDM file;
point CONDCNN_WISDM_RAW at it to enable that test, otherwise it skips.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from condcnn import analysis, archspec, training
from condcnn import autodiff as ad
from condcnn import condconv as cc
from condcnn import data as dp
from condcnn import layers as ly
from condcnn.autodiff import Tensor
from helpers import make_motif_dataset, split_70_30, stream_from_dataset

GRAD_TOL = 1e-4
GRAD_EPS = 1e-5
EQUIV_RTOL = 1e-10


def _wisdm_spec(n_experts, condconv=True):
    text = (
        __import__("importlib.resources", fromlist=["files"])
        .files("condcnn.configs").joinpath("wisdm.json").read_text()
    )
    model_cfg = json.loads(text)["model"]
    model_cfg["n_experts"] = n_experts
    if not condconv:
        model_cfg["head"] = "dense"
        spec = archspec.spec_from_dict(model_cfg)
        return spec.with_overrides(condconv_mask=(False,) * spec.n_conv_layers())
    return archspec.spec_from_dict(model_cfg)


class TestCriterion01GradientCorrectness:
    """Every layer's reverse-mode gradient matches central differences."""

    def test_all_layers_pass_finite_difference_checks(self):
        started = time.monotonic()
        rng = np.random.default_rng(0)
        checks = []

        w = Tensor(rng.normal(size=(3, 2, 4)))
        x_conv = Tensor(rng.normal(size=(2, 9, 2)), requires_grad=True)
        checks.append(("conv/input", lambda t: (ad.conv_temporal(t, w) ** 2).sum(), x_conv))
        w_p = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        x_fix = Tensor(rng.normal(size=(2, 9, 2)))
        checks.append(("conv/kernel", lambda t: (ad.conv_temporal(x_fix, t) ** 2).sum(), w_p))

        bn = ly.BatchNorm(2)
        # a sum of squares of standardized output is nearly input-invariant
        # (gradients ~1e-5), so probe through fixed random weights instead
        probe = Tensor(rng.normal(size=(3, 5, 2)))

        def bn_train(t):
            bn.training = True
            bn.running_mean[:] = 0.0
            bn.running_var[:] = 1.0
            return (bn.forward(t) * probe).sum()

        def bn_eval(t):
            bn.training = False
            return (bn.forward(t) * probe).sum()

        x_bn = Tensor(rng.normal(size=(3, 5, 2)), requires_grad=True)
        checks.append(("batchnorm/train", bn_train, x_bn))
        x_bn2 = Tensor(rng.normal(size=(3, 5, 2)), requires_grad=True)
        checks.append(("batchnorm/eval", bn_eval, x_bn2))

        def bn_gamma(t):
            bn.training = True
            bn.running_mean[:] = 0.0
            bn.running_var[:] = 1.0
            bn.gamma = t
            return (bn.forward(Tensor(x_bn.data)) * probe).sum()

        gamma = Tensor(rng.normal(size=2) + 1.0, requires_grad=True)
        checks.append(("batchnorm/gamma", bn_gamma, gamma))

        dw = Tensor(rng.normal(size=(4, 3)))
        db = Tensor(rng.normal(size=3))
        x_dense = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        checks.append(("dense/input", lambda t: (ly.dense(t, dw, db) ** 2).sum(), x_dense))
        w_dense = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        checks.append(
            ("dense/weights",
             lambda t: (ly.dense(Tensor(x_dense.data), t, db) ** 2).sum(), w_dense)
        )

        x_pool = Tensor(rng.normal(size=(2, 11, 3)), requires_grad=True)
        checks.append(("maxpool", lambda t: (ad.max_pool_temporal(t, 2, 2) ** 2).sum(), x_pool))

        drop = ly.Dropout(0.5)
        drop.training = False
        x_drop = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        checks.append(("dropout/eval", lambda t: (drop.forward(t) ** 2).sum(), x_drop))

        labels = np.array([0, 2, 1, 0])
        x_sce = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        checks.append(("softmax+ce/fused", lambda t: ad.softmax_cross_entropy(t, labels), x_sce))
        x_ce = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        checks.append(
            ("softmax+ce/composed",
             lambda t: ad.cross_entropy(ad.softmax(t), labels), x_ce)
        )

        cond = cc.CondConv(2, 3, 3, 4, np.random.default_rng(1))
        x_cc = Tensor(rng.normal(size=(2, 8, 2)), requires_grad=True)
        checks.append(("condconv/input", lambda t: (cc.condconv_forward(t, cond) ** 2).sum(), x_cc))

        def cond_experts(t):
            cond.experts = t
            return (cc.condconv_forward(Tensor(x_cc.data), cond) ** 2).sum()

        experts = Tensor(cond.experts.data.copy(), requires_grad=True)
        checks.append(("condconv/experts", cond_experts, experts))

        def cond_routing(t):
            cond.routing = t
            return (cc.condconv_forward(Tensor(x_cc.data), cond) ** 2).sum()

        routing = Tensor(rng.normal(scale=0.3, size=(2, 4)), requires_grad=True)
        checks.append(("condconv/routing", cond_routing, routing))

        failures = []
        for name, f, x in checks:
            err = ad.grad_check(f, x, eps=GRAD_EPS)
            if err >= GRAD_TOL:
                failures.append(f"{name}: {err:.2e}")
        assert not failures, f"gradient checks failed: {failures}"
        assert time.monotonic() - started < 120


class TestCriterion02EquivalenceOfForms:
    """Mix-then-convolve equals convolve-then-mix on random configurations."""

    def test_100_random_configurations(self):
        started = time.monotonic()
        rng = np.random.default_rng(7)
        count = 0
        for n in (1, 2, 4, 8, 16):
            for _ in range(20):
                batch = int(rng.integers(1, 5))
                t = int(rng.integers(4, 20))
                c_in = int(rng.integers(1, 5))
                c_out = int(rng.integers(1, 6))
                k = int(rng.integers(1, min(t, 7) + 1))
                padding = "same" if rng.random() < 0.5 else "valid"
                stride = int(rng.integers(1, 3))
                layer = cc.CondConv(
                    c_in, c_out, k, n, np.random.default_rng(int(rng.integers(1 << 30))),
                    stride=stride, padding=padding,
                )
                x = Tensor(rng.normal(size=(batch, t, c_in)))
                fast = cc.condconv_forward(x, layer)
                oracle = cc.condconv_as_sum(x, layer)
                np.testing.assert_allclose(
                    fast.data, oracle.data, rtol=EQUIV_RTOL, atol=1e-12
                )
                count += 1
        assert count == 100
        assert time.monotonic() - started < 60


class TestCriterion03Degeneracy:
    """Pinned routing with one expert is bitwise a standard CNN."""

    def test_50_random_inputs_bitwise_equal(self):
        base = dict(convs_per_block=2, kernel_length=5, pool=(2, 2), n_experts=1)
        cond_spec = archspec.parse_shorthand("C(6)-C(12)-FC-Sm", pin_routing=True, **base)
        plain_spec = archspec.parse_shorthand(
            "C(6)-C(12)-FC-Sm", condconv_mask=(False,) * 4, **base
        )
        cond_model = archspec.build_model(cond_spec, (24, 3), 4, seed=11).eval()
        plain_model = archspec.build_model(plain_spec, (24, 3), 4, seed=11).eval()
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rng.normal(size=(3, 24, 3))
            a = cond_model.forward(x).data
            b = plain_model.forward(x).data
            np.testing.assert_array_equal(a, b)


class TestCriterion04CostModel:
    """Expert cost is affine; the 8-expert ratio brackets the published one."""

    def test_wisdm_calibration_ratios(self):
        totals = {}
        for n in (1, 2, 4, 8):
            model = archspec.build_model(_wisdm_spec(n), (200, 3), 6, seed=0)
            totals[n] = analysis.count_flops(model).total_flops
        ratio = totals[8] / totals[1]
        assert 1.03 <= ratio <= 1.09, f"FLOPs(8)/FLOPs(1) = {ratio:.4f}"
        d21 = totals[2] - totals[1]
        d42 = totals[4] - totals[2]
        d84 = totals[8] - totals[4]
        assert d42 == 2 * d21 and d84 == 4 * d21, (d21, d42, d84)
        # affine in n: F(n) = F(1) + (n-1) * slope exactly
        slope = d21
        for n in (2, 4, 8):
            assert totals[n] == totals[1] + (n - 1) * slope


class TestCriterion05ParameterAccounting:
    """count_params(cond, n) - count_params(standard) is exactly
    (n-1) * sum|W| + sum|R|."""

    # WISDM architecture channel chain (convs_per_block=2, K=5, head 1x1):
    LAYER_DIMS = [(5, 3, 64), (5, 64, 64), (5, 64, 128), (5, 128, 128),
                  (5, 128, 384), (5, 384, 384), (1, 384, 6)]

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_exact_difference(self, n):
        cond = archspec.build_model(_wisdm_spec(n), (200, 3), 6, seed=0)
        plain = archspec.build_model(
            _wisdm_spec(n, condconv=False), (200, 3), 6, seed=0
        )
        sum_w = sum(k * ci * co for k, ci, co in self.LAYER_DIMS)
        sum_r = sum(ci * n for _, ci, _ in self.LAYER_DIMS)
        expected = (n - 1) * sum_w + sum_r
        diff = analysis.count_params(cond) - analysis.count_params(plain)
        assert diff == expected


class TestCriterion06Windowing:
    """Window counts match naive enumeration; the 20 Hz/10 s profile yields
    81 windows from a 1000-sample stream."""

    def test_1000_random_triples_against_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            length = int(rng.integers(1, 2000))
            t_w = int(rng.integers(1, 300))
            step = int(rng.integers(1, 100))
            naive = 0
            start = 0
            while start + t_w <= length:
                naive += 1
                start += step
            assert dp.window_count(length, t_w, step) == naive, (length, t_w, step)

    def test_wisdm_profile_window_count(self):
        ds = make_motif_dataset(n_per_class=1, t=8, seed=0)  # placeholder shapes
        rng = np.random.default_rng(4)
        stream = dp.SensorStream(
            data=rng.normal(size=(1000, 3)),
            channel_names=["x", "y", "z"],
            sample_rate_hz=20.0,
            labels=np.zeros(1000, dtype=np.int64),
            label_names=["0"],
            subject=np.array(["s"] * 1000, dtype=object),
            session=np.array(["a"] * 1000, dtype=object),
        )
        profile = dp.DatasetProfile(name="wisdm", window_len=200, step=10, classes=6)
        assert len(dp.segment_windows(stream, profile)) == 81
        assert ds.window_len == 8  # keep the helper honest


class TestCriterion07ExpertBenefitTrend:
    """More experts help on a multi-modal synthetic task at desk scale."""

    def _accuracy(self, n_experts, seed, train_ds, test_ds):
        spec = archspec.parse_shorthand(
            "C(6)-C(12)-FC-Sm", convs_per_block=1, kernel_length=7, pool=(2, 2),
            n_experts=n_experts, head="pointwise-condconv", dropout_rate=0.1,
        )
        model = archspec.build_model(spec, (32, 3), 4, seed=seed)
        cfg = training.TrainConfig(
            batch_size=32, epochs=60,
            lr_schedule=training.StepDecay(1e-3, 0.5, 40), seed=seed,
        )
        return training.train(model, train_ds, test_ds, cfg).best_accuracy

    def test_mean_accuracy_increases_with_experts(self):
        started = time.monotonic()
        ds = make_motif_dataset(n_per_class=150, t=32, seed=42)
        train_ds, test_ds = split_70_30(ds, classes=4, seed=0)
        means = {}
        for n in (1, 2, 4):
            accs = [self._accuracy(n, seed, train_ds, test_ds) for seed in (0, 1, 2)]
            means[n] = float(np.mean(accs))
        assert means[1] < means[2] < means[4], means
        assert means[4] - means[1] >= 0.02, means
        assert time.monotonic() - started < 600


RAW_WISDM = os.environ.get("CONDCNN_WISDM_RAW")


class TestCriterion08ScaledWisdmRun:
    """10% stratified subset of the real WISDM data, 60 epochs."""

    @pytest.mark.skipif(
        not RAW_WISDM,
        reason="set CONDCNN_WISDM_RAW to the raw WISDM text file to enable",
    )
    def test_baseline_and_8_experts(self, tmp_path):
        canon = tmp_path / "wisdm.csv"
        dp.convert_wisdm(RAW_WISDM, canon)
        stream = dp.ingest_canonical(canon)
        profile = dp.DatasetProfile(
            name="wisdm", window_len=200, step=10, classes=6,
            normalization="zscore",
            split={"kind": "random", "train_fraction": 0.7},
        )
        windows = dp.segment_windows(stream, profile)
        subset_idx, _ = dp._stratified_indices(windows.y, 0.10, seed=0)
        subset = windows.subset(subset_idx)
        train_ds, test_ds = dp.split(subset, profile, seed=0)
        train_ds, stats = dp.normalize(train_ds, "zscore")
        test_ds, _ = dp.normalize(test_ds, "zscore", stats=stats)

        accs = {}
        for n in (1, 8):
            spec = _wisdm_spec(n)
            model = archspec.build_model(spec, (200, 3), 6, seed=0)
            cfg = training.TrainConfig(
                batch_size=210, epochs=60,
                lr_schedule=training.StepDecay(1e-4, 0.1, 50), seed=0,
            )
            accs[n] = training.train(model, train_ds, test_ds, cfg).best_accuracy
        assert accs[1] >= 0.85, accs
        assert accs[8] >= accs[1], accs


class TestCriterion09Determinism:
    """Identical config + seed produce byte-identical run artifacts."""

    def test_cli_run_twice_bitwise(self, tmp_path):
        ds = make_motif_dataset(n_per_class=20, t=32, seed=5)
        stream = stream_from_dataset(ds)
        csv_path = tmp_path / "synth.csv"
        dp.write_canonical(csv_path, stream)
        config = {
            "dataset": {
                "name": "synth", "canonical_csv": "synth.csv",
                "window_len": 32, "step": 32, "classes": 4,
                "normalization": "zscore",
                "split": {"kind": "random", "train_fraction": 0.7},
            },
            "model": {
                "shorthand": "C(4)-C(8)-FC-Sm", "convs_per_block": 1,
                "kernel_length": 5, "pool": [2, 2], "n_experts": 2,
                "head": "pointwise-condconv", "routing_activation": "sigmoid",
                "dropout_rate": 0.1,
            },
            "train": {
                "batch_size": 16, "epochs": 3,
                "lr_schedule": {"type": "step", "init": 0.001, "factor": 0.1, "every": 50},
            },
            "seed": 0,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        for run in ("r1", "r2"):
            proc = subprocess.run(
                [sys.executable, "-m", "condcnn.cli", "train",
                 "--config", str(config_path), "--out", str(tmp_path / run)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        for name in ("history.csv", "best.ckpt", "last.ckpt", "train.ds", "test.ds"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"


class TestCriterion10RoutingSanity:
    """Near-zero routing init lands near 0.5 and weights stay in (0, 1)."""

    def test_untrained_means_and_range(self):
        ds = make_motif_dataset(n_per_class=25, t=32, seed=6)
        spec = archspec.parse_shorthand(
            "C(6)-C(12)-FC-Sm", convs_per_block=2, kernel_length=5, pool=(2, 2),
            n_experts=4, head="pointwise-condconv",
        )
        model = archspec.build_model(spec, (32, 3), 4, seed=13)
        stats = analysis.routing_stats(model, ds)
        assert len(stats.per_layer) == 5  # 4 block convs + head
        for layer_stats in stats.per_layer.values():
            means = layer_stats.class_means()
            assert ((means >= 0.45) & (means <= 0.55)).all(), means
            assert (layer_stats.alphas > 0).all() and (layer_stats.alphas < 1).all()
