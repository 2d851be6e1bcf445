"""Adam, learning-rate schedules, the training loop, and checkpoints."""

import copy
import os
import re
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from condcnn import analysis, archspec, storage, training
from condcnn import autodiff as ad
from condcnn.autodiff import Tensor
from condcnn.errors import ConfigError, DataError, NumericError, ShapeError
from helpers import (DAMAGED_CHECKPOINTS, make_linear_dataset, split_70_30,
                     write_damaged_checkpoint)


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


@pytest.mark.invariance
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

    # the thread gate, lowered so that small arrays fall on both sides of it
    GATE = 40
    # 1-element, odd and 2-D parameters below, at and above the gate; the
    # last is the largest
    SHAPES = {"one": (1,), "odd": (7,), "below": (39,), "at": (40,), "above": (41,),
              "mat": (13, 7), "cube": (3, 5, 7), "last": (257,)}

    @staticmethod
    def _threads(monkeypatch, workers, splits=None):
        """`workers` threads for a parameter at or above GATE elements, 1
        below it; `splits` collects the element count of each split."""
        monkeypatch.setattr(ad, "_THREAD_MIN_ELEMENTS", TestAdam.GATE)
        monkeypatch.setattr(ad, "_workers",
                            lambda work, least=None: workers if work >= least else 1)
        if splits is not None:
            split = ad._split

            def recording_split(workers, task, m):
                splits.append(m)
                return split(workers, task, m)

            monkeypatch.setattr(ad, "_split", recording_split)

    @staticmethod
    def _steps(steps, seed=3):
        """Adam over SHAPES after `steps` steps of seeded gradients."""
        rng = np.random.default_rng(seed)
        params = {k: Tensor(rng.normal(size=s), requires_grad=True)
                  for k, s in TestAdam.SHAPES.items()}
        opt = training.Adam(params)
        for t in range(1, steps + 1):
            for k, p in params.items():
                p.grad[...] = rng.choice([-1.0, 1.0], size=p.shape) * 10.0 ** (
                    rng.uniform(-6, 2, size=p.shape))
            opt.step(1e-3 * t)
        return opt

    def test_threaded_update_is_bitwise_equal_for_any_worker_count(self, monkeypatch):
        self._threads(monkeypatch, 1)
        serial = self._steps(5)
        for workers in (2, 3):  # 3 is more threads than a 2-core machine has cores
            splits = []
            self._threads(monkeypatch, workers, splits)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # switch threads as often as possible
            try:
                threaded = self._steps(5)
            finally:
                sys.setswitchinterval(interval)
            # only the parameters at or above the gate are split
            big = [s for s in (int(np.prod(s)) for s in self.SHAPES.values()) if s >= self.GATE]
            assert splits == big * 5
            assert threaded.t == serial.t == 5
            for k, p in serial.named_params.items():
                assert threaded.named_params[k].data.tobytes() == p.data.tobytes()
                assert threaded.m[k].tobytes() == serial.m[k].tobytes()
                assert threaded.v[k].tobytes() == serial.v[k].tobytes()

    @pytest.mark.parametrize("bad", ["one", "at", "last"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_gradient_leaves_every_array_unchanged(self, monkeypatch, bad, value):
        self._threads(monkeypatch, 2)
        opt = self._steps(2)
        for p in opt.named_params.values():
            p.grad[...] = 0.5
        opt.named_params[bad].grad.reshape(-1)[-1] = value
        before = [(k, p.data.copy(), opt.m[k].copy(), opt.v[k].copy())
                  for k, p in opt.named_params.items()]
        with pytest.raises(NumericError, match=f"'{bad}'"):
            opt.step(1e-3)
        assert opt.t == 2
        for k, data, m, v in before:
            assert opt.named_params[k].data.tobytes() == data.tobytes()
            assert opt.m[k].tobytes() == m.tobytes()
            assert opt.v[k].tobytes() == v.tobytes()

    def test_helper_thread_exception_reaches_the_caller(self, monkeypatch):
        self._threads(monkeypatch, 2)
        update, raised = training.Adam._update, []

        def fails_off_the_calling_thread(adam, lr, *arrays):
            if threading.current_thread() is not threading.main_thread():
                raised.append(arrays[-1])
                raise RuntimeError("update failed on a helper thread")
            return update(adam, lr, *arrays)

        monkeypatch.setattr(training.Adam, "_update", fails_off_the_calling_thread)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="helper thread"):
            self._steps(1)
        assert raised and all(part.start > 0 for part in raised)
        assert threading.active_count() == threads

    def test_non_contiguous_parameter_is_updated_in_place(self, monkeypatch):
        self._threads(monkeypatch, 2)
        rng = np.random.default_rng(5)
        start, grad = rng.normal(size=(30, 4)), rng.normal(size=(30, 4))
        fortran = Tensor(np.asfortranarray(start), requires_grad=True)
        assert not fortran.data.flags.c_contiguous
        contiguous = Tensor(start.copy(), requires_grad=True)
        opts = [training.Adam({"p": fortran}), training.Adam({"p": contiguous})]
        for opt in opts:
            opt.named_params["p"].grad[...] = grad
            opt.step(1e-2)
        assert not np.array_equal(contiguous.data, start)
        assert np.ascontiguousarray(fortran.data).tobytes() == contiguous.data.tobytes()


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

    def test_eval_batch_does_not_change_the_confusion(self, monkeypatch):
        ds = make_linear_dataset(n_per_class=4, seed=9)  # 8 examples: 3 + 3 + 2
        model = tiny_model(seed=5, n_experts=4)
        whole = training.evaluate(model, ds)
        monkeypatch.setattr(training, "EVAL_BATCH", 3)
        batched = training.evaluate(model, ds)
        np.testing.assert_array_equal(batched.confusion, whole.confusion)
        assert batched.accuracy == whole.accuracy


def relabeled(ds, label):
    y = ds.y.copy()
    y[1] = label
    return replace(ds, y=y)


# datasets a 2-class tiny_model (16-sample, 2-channel windows) cannot score:
# (make the set from a scorable one, the error, its message pattern)
UNSCORABLE = {
    "label -1": (lambda ds: relabeled(ds, -1), DataError,
                 r"labels lie in \[-1, 1\], outside the model's 2 classes \[0, 2\)"),
    "label n_classes": (lambda ds: relabeled(ds, 2), DataError,
                        r"labels lie in \[0, 2\], outside the model's 2 classes \[0, 2\)"),
    "more label names": (lambda ds: replace(ds, label_names=[*ds.label_names, "extra"]),
                         DataError, r"3 label names, more than the model's 2 classes"),
    "shorter windows": (lambda ds: replace(ds, x=ds.x[:, :8]), ShapeError,
                        r"windows are \(8, 2\), the model expects \(16, 2\)"),
    "empty": (lambda ds: ds.subset(np.array([], dtype=int)), DataError, "holds no window"),
}


class TestUnscorableDatasets:
    """`evaluate`, `analysis.routing_stats`, `analysis.confusion_matrix_report`
    and `train` refuse, by `check_dataset`, a dataset the model cannot score."""

    @pytest.mark.parametrize("case", UNSCORABLE)
    @pytest.mark.parametrize("score", [training.evaluate, analysis.routing_stats,
                                       analysis.confusion_matrix_report],
                             ids=["evaluate", "routing_stats", "confusion_matrix_report"])
    def test_scoring_refuses(self, case, score):
        make, error, message = UNSCORABLE[case]
        ds = make(make_linear_dataset(n_per_class=5, seed=10))
        with pytest.raises(error, match="^dataset: |^empty dataset: ") as info:
            score(tiny_model(seed=6), ds)
        assert re.search(message, str(info.value))

    @pytest.mark.parametrize("case", UNSCORABLE)
    @pytest.mark.parametrize("which", ["train", "test"])
    def test_train_refuses_before_any_step(self, case, which):
        make, error, message = UNSCORABLE[case]
        sets = dict(zip(("train", "test"),
                        split_70_30(make_linear_dataset(n_per_class=10, seed=7), classes=2)))
        sets[which] = make(sets[which])
        model = tiny_model(seed=4)
        before = {k: v.data.copy() for k, v in model.named_params().items()}
        buffers = {k: v.copy() for k, v in model.named_buffers().items()}
        with pytest.raises(error, match=f"{which} set") as info:
            training.train(model, sets["train"], sets["test"], config(epochs=2))
        assert re.search(message, str(info.value))
        for k, v in model.named_params().items():
            np.testing.assert_array_equal(v.data, before[k])
        for k, v in model.named_buffers().items():  # no forward ran in train mode
            np.testing.assert_array_equal(v, buffers[k])


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

    def test_empty_test_set_rejected_before_any_step(self):
        ds = make_linear_dataset(n_per_class=10, seed=7)
        train_ds, _ = split_70_30(ds, classes=2, seed=0)
        model = tiny_model(seed=4)
        before = {k: v.data.copy() for k, v in model.named_params().items()}
        with pytest.raises(DataError, match="empty test set"):
            training.train(model, train_ds, ds.subset(np.array([], dtype=int)), config())
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

    def test_best_epoch_is_the_first_of_tied_epochs(self):
        history = training.History()
        assert (history.best_epoch, history.best_accuracy) == (-1, -1.0)
        history.rows = [(0, 1e-3, 0.9, 0.25), (1, 1e-3, 0.8, 0.5), (2, 1e-3, 0.7, 0.5)]
        assert (history.best_epoch, history.best_accuracy) == (1, 0.5)


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

    def test_checkpoints_of_the_older_layout_load_and_resume_bitwise(self, tmp_path):
        """Checkpoints that also record the best epoch and accuracy and the
        model's shorthand, as older versions wrote them, load and resume as
        the current layout does; those keys are ignored."""
        ds = make_linear_dataset(n_per_class=20, seed=12)
        train_ds, test_ds = split_70_30(ds, classes=2, seed=0)
        straight = tiny_model(seed=8)
        full_history = training.train(straight, train_ds, test_ds, config(epochs=6, seed=3))
        history = training.train(tiny_model(seed=8), train_ds, test_ds,
                                 config(epochs=3, seed=3, checkpoint_dir=str(tmp_path)))
        for name in ("best.ckpt", "last.ckpt"):
            path = tmp_path / name
            arrays, meta = storage.load_container(path)
            assert sorted(meta["history"]) == ["rows"] and "shorthand" not in meta["model"]
            meta["history"].update(best_epoch=history.best_epoch,
                                   best_accuracy=history.best_accuracy)
            meta["model"]["shorthand"] = meta["model"]["spec"]["shorthand"]
            os.unlink(path)  # best.ckpt is a link to an older last.ckpt
            storage.save_container(path, arrays, meta)

        _, best = training.load_checkpoint(tmp_path / "best.ckpt")
        assert training.History(best["history"]).best_epoch == history.best_epoch
        reloaded, state = training.load_checkpoint(tmp_path / "last.ckpt")
        tail_history = training.train(
            reloaded, train_ds, test_ds, config(epochs=6, seed=3), start_state=state,
        )
        assert tail_history.rows == full_history.rows
        for name, p in straight.named_params().items():
            np.testing.assert_array_equal(p.data, reloaded.named_params()[name].data)

    def test_resume_leaves_the_start_state_unchanged(self, tmp_path):
        ds = make_linear_dataset(n_per_class=20, seed=12)
        train_ds, test_ds = split_70_30(ds, classes=2, seed=0)
        training.train(tiny_model(seed=8), train_ds, test_ds,
                       config(epochs=2, seed=3, checkpoint_dir=str(tmp_path)))
        reloaded, state = training.load_checkpoint(tmp_path / "last.ckpt")
        before = copy.deepcopy(state)
        training.train(reloaded, train_ds, test_ds, config(epochs=4, seed=3),
                       start_state=state)
        arrays, saved = state.pop("adam_arrays"), before.pop("adam_arrays")
        assert state == before and len(state["history"]) == 2
        assert sorted(arrays) == sorted(saved)
        for name, array in arrays.items():
            assert array.tobytes() == saved[name].tobytes(), name

    def test_halt_leaves_the_last_epoch_boundary_checkpoint(self, tmp_path, monkeypatch):
        ds = make_linear_dataset(n_per_class=20, seed=12)
        train_ds, test_ds = split_70_30(ds, classes=2, seed=0)
        # one step per epoch, so the second step is epoch 1's
        run = dict(batch_size=len(train_ds), seed=3)
        training.train(tiny_model(seed=8), train_ds, test_ds,
                       config(epochs=1, checkpoint_dir=str(tmp_path / "one"), **run))
        straight = tiny_model(seed=8)
        full_history = training.train(straight, train_ds, test_ds, config(epochs=3, **run))

        step, calls = training.Adam.step, []

        def second_step_fails(adam, lr):
            calls.append(lr)
            if len(calls) == 2:
                raise NumericError("non-finite gradient in 'head.w'; step aborted")
            return step(adam, lr)

        monkeypatch.setattr(training.Adam, "step", second_step_fails)
        halted = tmp_path / "halted"
        history = training.train(tiny_model(seed=8), train_ds, test_ds,
                                 config(epochs=3, checkpoint_dir=str(halted), **run))
        assert history.halted and len(history.rows) == 1
        assert (halted / "last.ckpt").read_bytes() == (tmp_path / "one" / "last.ckpt").read_bytes()

        reloaded, state = training.load_checkpoint(halted / "last.ckpt")
        assert state["epoch"] == 1
        tail_history = training.train(reloaded, train_ds, test_ds, config(epochs=3, **run),
                                      start_state=state)
        assert tail_history.rows == full_history.rows
        for name, p in straight.named_params().items():
            np.testing.assert_array_equal(p.data, reloaded.named_params()[name].data)

    def test_checkpoint_of_a_mid_epoch_halt_is_refused(self, tmp_path):
        # older versions wrote `halted: true` into the checkpoint they saved
        # after a mid-epoch halt; it holds part of that epoch's updates
        ds = make_linear_dataset(n_per_class=20, seed=12)
        train_ds, test_ds = split_70_30(ds, classes=2, seed=0)
        path = tmp_path / "last.ckpt"
        training.save_checkpoint(path, tiny_model(seed=8), epoch=1)
        arrays, meta = storage.load_container(path)
        storage.save_container(path, arrays, dict(meta, halted=True))
        reloaded, state = training.load_checkpoint(path)
        with pytest.raises(ConfigError, match="halted in epoch 1"):
            training.train(reloaded, train_ds, test_ds, config(epochs=3), start_state=state)

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

    @staticmethod
    def _run(ckpt_dir, epochs, monkeypatch, scores=(0.5, 0.25)):
        """Train for up to 2 epochs with set test accuracies: by default
        epoch 0 improves and epoch 1 does not."""
        scores = iter(scores)
        monkeypatch.setattr(training, "evaluate",
                            lambda model, ds: training.EvalResult(next(scores), None))
        ds = make_linear_dataset(n_per_class=20, seed=12)
        train_ds, test_ds = split_70_30(ds, classes=2, seed=0)
        return training.train(tiny_model(seed=8), train_ds, test_ds,
                              config(epochs=epochs, seed=3, checkpoint_dir=str(ckpt_dir)))

    def test_best_is_the_last_checkpoint_of_the_best_epoch(self, tmp_path, monkeypatch):
        one, two = tmp_path / "one", tmp_path / "two"
        self._run(one, 1, monkeypatch)
        assert (one / "best.ckpt").read_bytes() == (one / "last.ckpt").read_bytes()
        assert os.path.samefile(one / "best.ckpt", one / "last.ckpt")
        history = self._run(two, 2, monkeypatch)
        assert history.best_epoch == 0
        assert (two / "best.ckpt").read_bytes() == (one / "last.ckpt").read_bytes()
        assert (two / "last.ckpt").read_bytes() != (one / "last.ckpt").read_bytes()
        assert sorted(os.listdir(two)) == ["best.ckpt", "last.ckpt"]

    def test_a_tied_epoch_keeps_the_first_best(self, tmp_path, monkeypatch):
        one, two = tmp_path / "one", tmp_path / "two"
        self._run(one, 1, monkeypatch)
        history = self._run(two, 2, monkeypatch, scores=(0.5, 0.5))
        assert history.best_epoch == 0
        assert (two / "best.ckpt").read_bytes() == (one / "last.ckpt").read_bytes()
        _, state = training.load_checkpoint(two / "best.ckpt")
        assert training.History(state["history"]).best_epoch == 0

    def test_refused_link_copies_the_bytes(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("links not supported")

        monkeypatch.setattr(os, "link", refuse)
        (tmp_path / "best.ckpt.tmp").write_bytes(b"left by a killed run")
        self._run(tmp_path, 1, monkeypatch)
        assert (tmp_path / "best.ckpt").read_bytes() == (tmp_path / "last.ckpt").read_bytes()
        assert not os.path.samefile(tmp_path / "best.ckpt", tmp_path / "last.ckpt")
        assert sorted(os.listdir(tmp_path)) == ["best.ckpt", "last.ckpt"]

    @pytest.mark.parametrize("case", [k for k in DAMAGED_CHECKPOINTS if "adam" in k])
    def test_damaged_adam_state_is_refused(self, tmp_path, case):
        path = tmp_path / "damaged.ckpt"
        write_damaged_checkpoint(path, DAMAGED_CHECKPOINTS[case])
        with pytest.raises(DataError, match=re.escape(str(path))):
            training.load_checkpoint(path)

    @pytest.mark.parametrize("case,key", [
        ("meta-without-epoch", "epoch"), ("meta-without-adam-t", "adam_t"),
        ("meta-without-rng-state", "rng_state"), ("meta-without-history", "history"),
        ("negative-epoch", "epoch"), ("fractional-epoch", "epoch"), ("boolean-epoch", "epoch"),
        ("history-without-rows", "history"), ("history-as-a-list", "history"),
        ("history-row-of-three", "history"), ("history-with-a-text-cell", "history"),
        ("history-with-a-boolean-cell", "history"), ("history-with-a-negative-epoch", "history"),
        ("history-with-a-fractional-epoch", "history"), ("rng-state-without-state", "rng_state"),
        ("rng-state-as-a-list", "rng_state"), ("rng-state-of-mt19937", "rng_state"),
    ])
    def test_damaged_training_state_is_refused(self, tmp_path, case, key):
        path = tmp_path / "damaged.ckpt"
        write_damaged_checkpoint(path, DAMAGED_CHECKPOINTS[case])
        with pytest.raises(DataError, match=f"{re.escape(str(path))}: .*{key}"):
            training.load_checkpoint(path)

    def test_adam_state_and_model_only_checkpoints_load(self, tmp_path):
        path = tmp_path / "intact.ckpt"
        write_damaged_checkpoint(path, lambda arrays, meta: None)  # left intact
        model, state = training.load_checkpoint(path)
        assert state["adam_t"] == 0
        assert sorted(state["adam_arrays"]) == sorted(
            f"adam.{kind}.{name}" for name in model.named_params() for kind in "mv")
        model_only = tmp_path / "model.ckpt"
        training.save_checkpoint(model_only, model)
        _, state = training.load_checkpoint(model_only)
        assert state["adam_t"] is None and state["adam_arrays"] == {}
