"""Adam, learning-rate schedules, the training loop, and checkpoints."""

import numpy as np
import pytest

from condcnn import archspec, storage, training
from condcnn.autodiff import Tensor
from condcnn.errors import ConfigError, DataError, NumericError
from helpers import make_linear_dataset, split_70_30


def tiny_model(seed=0, n_experts=1, t=16, channels=2, classes=2):
    spec = archspec.parse_shorthand(
        "C(4)-FC-Sm", convs_per_block=1, kernel_length=3,
        n_experts=n_experts, pool=(2, 2), dropout_rate=0.0,
    )
    return archspec.build_model(spec, (t, channels), classes, seed=seed)


def config(**kw):
    base = dict(
        batch_size=16, epochs=3,
        lr_schedule=training.StepDecay(1e-3, 0.1, 50), seed=0,
    )
    base.update(kw)
    return training.TrainConfig(**base)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = training.Adam({"p": p})
        opt.step(0.1)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        assert opt.t == 1

    def test_single_step_closed_form(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        g = 3.7
        p.grad[:] = g
        opt = training.Adam({"p": p})
        lr = 0.05
        opt.step(lr)
        expected = -lr * g / (abs(g) + opt.epsilon)
        np.testing.assert_allclose(p.data, [expected], atol=1e-15)

    def test_descends_quadratic(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = training.Adam({"p": p})
        values = [abs(p.data[0])]
        for _ in range(10):
            p.zero_grad()
            p.grad[:] = 2 * p.data  # d/dx of x^2
            opt.step(0.1)
            values.append(abs(p.data[0]))
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_non_finite_gradient_aborts_before_mutation(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad[:] = np.nan
        opt = training.Adam({"p": p})
        with pytest.raises(NumericError, match="'p'"):
            opt.step(0.1)
        np.testing.assert_array_equal(p.data, [1.0])
        assert opt.t == 0

    def test_in_place_update_is_bitwise_the_reference_formula(self):
        rng = np.random.default_rng(7)
        shapes = {"a": (5, 3), "b": (7,), "c": (2, 2, 2)}
        params = {k: Tensor(rng.normal(size=s), requires_grad=True)
                  for k, s in shapes.items()}
        opt = training.Adam(params)
        m_ids = {k: id(a) for k, a in opt.m.items()}
        v_ids = {k: id(a) for k, a in opt.v.items()}
        ref_p = {k: p.data.copy() for k, p in params.items()}
        ref_m = {k: np.zeros(s) for k, s in shapes.items()}
        ref_v = {k: np.zeros(s) for k, s in shapes.items()}
        b1, b2, eps = opt.beta1, opt.beta2, opt.epsilon
        for t in range(1, 7):
            lr = 1e-3 * t
            for k, p in params.items():
                # gradients spanning 1e-6 to 1e2 in magnitude, both signs
                p.grad[...] = rng.choice([-1.0, 1.0], size=shapes[k]) * 10.0 ** (
                    rng.uniform(-6, 2, size=shapes[k]))
                g = p.grad
                ref_m[k] = b1 * ref_m[k] + (1 - b1) * g
                ref_v[k] = b2 * ref_v[k] + (1 - b2) * g * g
                m_hat = ref_m[k] / (1 - b1 ** t)
                v_hat = ref_v[k] / (1 - b2 ** t)
                ref_p[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            opt.step(lr)
            for k, p in params.items():
                assert p.data.tobytes() == ref_p[k].tobytes()
                assert opt.m[k].tobytes() == ref_m[k].tobytes()
                assert opt.v[k].tobytes() == ref_v[k].tobytes()
        assert {k: id(a) for k, a in opt.m.items()} == m_ids
        assert {k: id(a) for k, a in opt.v.items()} == v_ids


class TestLrSchedules:
    def test_step_decay_boundaries(self):
        cfg = config(epochs=400, lr_schedule=training.StepDecay(1e-4, 0.1, 50))
        assert training.lr_at(cfg, 0) == 1e-4
        assert training.lr_at(cfg, 49) == 1e-4
        np.testing.assert_allclose(training.lr_at(cfg, 50), 1e-5)

    def test_milestones_piecewise(self):
        sched = training.Milestones(((0.125, 0.001), (0.25, 0.0005), (0.625, 0.00001)))
        cfg = config(epochs=400, lr_schedule=sched)
        assert training.lr_at(cfg, 0) == 0.001
        assert training.lr_at(cfg, 100) == 0.0005
        assert training.lr_at(cfg, 300) == 0.00001
        assert training.lr_at(cfg, 399) == 0.00001

    def test_milestone_lrs_must_decrease(self):
        with pytest.raises(ConfigError):
            training.Milestones(((0.1, 0.001), (0.5, 0.01)))

    @pytest.mark.parametrize("init,factor,every,field", [
        (1e-4, 0.1, 0, "every"), (1e-4, 0.1, -5, "every"), (1e-4, 0.1, 2.5, "every"),
        (0.0, 0.1, 50, "init"), (-1e-4, 0.1, 50, "init"), (1e-4, 0.0, 50, "factor"),
        (1e-4, -0.1, 50, "factor"), ("0.001", 0.1, 50, "init"), (1e-4, None, 50, "factor"),
    ])
    def test_step_decay_rejects_bad_fields(self, init, factor, every, field):
        with pytest.raises(ConfigError, match=field):
            training.StepDecay(init, factor, every)

    def test_milestones_need_a_point(self):
        with pytest.raises(ConfigError, match="points"):
            training.schedule_from_dict({"type": "milestones", "points": []})

    @pytest.mark.parametrize("points", [[[0.5]], 5, [["half", 0.001]], [[0.5, "0.001"]]])
    def test_malformed_milestone_points_rejected(self, points):
        with pytest.raises(ConfigError, match="points"):
            training.schedule_from_dict({"type": "milestones", "points": points})

    @pytest.mark.parametrize("schedule", [5, [], "step", None])
    def test_non_dict_schedule_rejected(self, schedule):
        with pytest.raises(ConfigError, match="lr_schedule"):
            training.schedule_from_dict(schedule)


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("batch_size", "32"), ("batch_size", 0), ("batch_size", 32.0), ("batch_size", True),
        ("epochs", "3"), ("epochs", -1), ("epochs", 1.5), ("epochs", False),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            config(**{field: value})

    def test_zero_epochs_accepted(self):
        assert config(epochs=0).epochs == 0


class TestEvaluate:
    def test_perfect_predictor_diagonal(self):
        ds = make_linear_dataset(n_per_class=20, seed=1)
        model = tiny_model(seed=0)
        train_ds, test_ds = split_70_30(ds, classes=2, seed=0)
        training.train(model, train_ds, test_ds, config(epochs=30))
        result = training.evaluate(model, train_ds)
        if result.accuracy == 1.0:  # perfect on train -> diagonal confusion
            assert result.confusion.sum() == np.diag(result.confusion).sum()

    def test_constant_predictor_on_balanced_set(self):
        ds = make_linear_dataset(n_per_class=30, seed=2)
        model = tiny_model(seed=0)
        # force constant prediction: zero out the classifier
        head = model.named_params()
        for name, p in head.items():
            p.data[:] = 0.0
        result = training.evaluate(model, ds)
        np.testing.assert_allclose(result.accuracy, 0.5, atol=1e-12)

    def test_matches_hand_confusion(self):
        ds = make_linear_dataset(n_per_class=5, seed=3)
        model = tiny_model(seed=1)
        result = training.evaluate(model, ds)
        pred = model.eval().logits(Tensor(ds.x)).data.argmax(axis=1)
        expected = np.zeros((2, 2), dtype=int)
        for t, p in zip(ds.y, pred):
            expected[t, p] += 1
        np.testing.assert_array_equal(result.confusion, expected)

    def test_two_calls_identical(self):
        ds = make_linear_dataset(n_per_class=10, seed=4)
        model = tiny_model(seed=2)
        a = training.evaluate(model, ds)
        b = training.evaluate(model, ds)
        assert a.accuracy == b.accuracy
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_records_no_graph_and_matches_recorded_forward(self, monkeypatch):
        ds = make_linear_dataset(n_per_class=6, seed=8)
        model = tiny_model(seed=3, n_experts=4)
        outputs = []
        forward = model.logits
        monkeypatch.setattr(model, "logits", lambda x: outputs.append(forward(x)) or outputs[-1])
        result = training.evaluate(model, ds)
        assert outputs and not any(out.requires_grad for out in outputs)
        model.eval()
        logits = forward(Tensor(ds.x))
        assert logits._backward is not None  # this pass recorded the graph
        expected = np.zeros((2, 2), dtype=np.int64)
        np.add.at(expected, (ds.y, logits.data.argmax(axis=1)), 1)
        np.testing.assert_array_equal(result.confusion, expected)

    def test_empty_dataset_rejected(self):
        ds = make_linear_dataset(n_per_class=4, seed=5).subset(np.array([], dtype=int))
        with pytest.raises(DataError):
            training.evaluate(tiny_model(), ds)


class TestTrainLoop:
    def test_separable_data_reaches_full_train_accuracy(self):
        ds = make_linear_dataset(n_per_class=40, seed=6)
        train_ds, test_ds = split_70_30(ds, classes=2, seed=0)
        model = tiny_model(seed=3)
        training.train(model, train_ds, test_ds, config(epochs=50))
        assert training.evaluate(model, train_ds).accuracy == 1.0

    def test_zero_epochs_is_a_no_op(self):
        ds = make_linear_dataset(n_per_class=10, seed=7)
        train_ds, test_ds = split_70_30(ds, classes=2, seed=0)
        model = tiny_model(seed=4)
        before = {k: v.data.copy() for k, v in model.named_params().items()}
        history = training.train(model, train_ds, test_ds, config(epochs=0))
        assert history.rows == []
        for k, v in model.named_params().items():
            np.testing.assert_array_equal(v.data, before[k])

    def test_non_finite_forward_halts_without_crashing(self):
        ds = make_linear_dataset(n_per_class=10, seed=14)
        train_ds, test_ds = split_70_30(ds, classes=2, seed=0)
        model = tiny_model(seed=15)
        poisoned = next(iter(model.named_params().values()))
        poisoned.data[0] = np.nan
        history = training.train(model, train_ds, test_ds, config(epochs=3))
        assert history.halted
        assert history.rows == []

    def test_fixed_seed_reproduces_loss_curve_bitwise(self):
        ds = make_linear_dataset(n_per_class=20, seed=8)
        train_ds, test_ds = split_70_30(ds, classes=2, seed=0)
        runs = []
        for _ in range(2):
            model = tiny_model(seed=5)
            history = training.train(model, train_ds, test_ds, config(epochs=5, seed=9))
            runs.append(history.rows)
        assert runs[0] == runs[1]

    def test_pinned_single_expert_curves_match_plain_cnn_bitwise(self):
        base = dict(convs_per_block=2, kernel_length=3, pool=(2, 2),
                    n_experts=1, dropout_rate=0.5)
        cond_spec = archspec.parse_shorthand("C(4)-C(8)-FC-Sm", pin_routing=True, **base)
        plain_spec = archspec.parse_shorthand(
            "C(4)-C(8)-FC-Sm", condconv_mask=(False,) * 4, **base
        )
        ds = make_linear_dataset(n_per_class=30, seed=13)
        train_ds, test_ds = split_70_30(ds, classes=2, seed=0)
        rows = []
        for spec in (cond_spec, plain_spec):
            model = archspec.build_model(spec, (16, 2), 2, seed=3)
            history = training.train(
                model, train_ds, test_ds, config(epochs=6, seed=7)
            )
            rows.append(history.rows)
        assert rows[0] == rows[1]

    def test_best_epoch_tracked(self):
        ds = make_linear_dataset(n_per_class=20, seed=10)
        train_ds, test_ds = split_70_30(ds, classes=2, seed=0)
        model = tiny_model(seed=6)
        history = training.train(model, train_ds, test_ds, config(epochs=8))
        accs = [row[3] for row in history.rows]
        assert history.best_accuracy == max(accs)
        assert accs[history.best_epoch] == history.best_accuracy

    def test_validation_selection_option(self):
        ds = make_linear_dataset(n_per_class=30, seed=16)
        train_all, test_ds = split_70_30(ds, classes=2, seed=0)
        # carve a validation set from the training split for selection
        val_ds = train_all.subset(np.arange(0, len(train_all), 3), split_tag="val")
        train_ds = train_all.subset(
            np.array([i for i in range(len(train_all)) if i % 3 != 0])
        )
        model = tiny_model(seed=17)
        history = training.train(
            model, train_ds, test_ds, config(epochs=4), selection_ds=val_ds,
        )
        assert 0 <= history.best_epoch < 4
        # history still logs test accuracy per epoch
        assert all(0.0 <= row[3] <= 1.0 for row in history.rows)


class TestCheckpoints:
    def test_round_trip_restores_parameters(self, tmp_path):
        ds = make_linear_dataset(n_per_class=15, seed=11)
        train_ds, test_ds = split_70_30(ds, classes=2, seed=0)
        model = tiny_model(seed=7)
        training.train(model, train_ds, test_ds, config(epochs=3))
        path = tmp_path / "m.ckpt"
        training.save_checkpoint(path, model)
        loaded, _ = training.load_checkpoint(path)
        for (name, p), (_, q) in zip(
            sorted(model.named_params().items()), sorted(loaded.named_params().items())
        ):
            np.testing.assert_array_equal(p.data, q.data)
        for name, buf in model.named_buffers().items():
            np.testing.assert_array_equal(buf, loaded.named_buffers()[name])
        resaved = tmp_path / "resaved.ckpt"
        training.save_checkpoint(resaved, loaded)
        assert resaved.read_bytes() == path.read_bytes()

    def test_load_draws_no_init_and_keeps_the_loaded_arrays(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        training.save_checkpoint(path, tiny_model(seed=4, n_experts=3))
        returned, original = {}, storage.load_container

        def load_container(p):
            arrays, meta = original(p)
            returned.update(arrays)
            return arrays, meta

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random init")

        monkeypatch.setattr(storage, "load_container", load_container)
        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded, _ = training.load_checkpoint(path)
        assert loaded.meta["seed"] == 4
        for name, p in loaded.named_params().items():
            assert p.data is returned[f"param.{name}"]

    def test_resume_continues_bitwise(self, tmp_path):
        ds = make_linear_dataset(n_per_class=20, seed=12)
        train_ds, test_ds = split_70_30(ds, classes=2, seed=0)

        straight = tiny_model(seed=8)
        full_history = training.train(
            straight, train_ds, test_ds, config(epochs=6, seed=3)
        )

        resumed = tiny_model(seed=8)
        training.train(
            resumed, train_ds, test_ds,
            config(epochs=3, seed=3, checkpoint_dir=str(tmp_path)),
        )
        reloaded, state = training.load_checkpoint(tmp_path / "last.ckpt")
        tail_history = training.train(
            reloaded, train_ds, test_ds, config(epochs=6, seed=3), start_state=state,
        )

        assert tail_history.rows == full_history.rows
        for name, p in straight.named_params().items():
            np.testing.assert_array_equal(p.data, reloaded.named_params()[name].data)

    def test_loaded_parameters_own_separate_memory(self, tmp_path):
        path = tmp_path / "own.ckpt"
        training.save_checkpoint(path, tiny_model(seed=5, n_experts=2))
        loaded, _ = training.load_checkpoint(path)
        params = [p.data for p in loaded.named_params().values()]
        assert all(p.flags.owndata and p.flags.writeable for p in params)
        for i, a in enumerate(params):
            assert not any(np.shares_memory(a, b) for b in params[i + 1:])

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        model = tiny_model(seed=9)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        training.save_checkpoint(a, model)
        training.save_checkpoint(b, model)
        assert a.read_bytes() == b.read_bytes()
