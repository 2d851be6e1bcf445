"""Mini-batch supervised training: Adam, learning-rate schedules,
best-checkpoint retention, and evaluation.

One seeded generator drives everything stochastic in a run (epoch
shuffles and dropout masks), so identical config + seed reproduces a run
bitwise on any number of cores. Checkpoints capture parameters, batch
norm statistics, optimizer moments, and the generator state; resuming
from the last checkpoint continues a run bitwise.
"""

import json
import logging
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import archspec
from . import autodiff as ad
from . import storage
from .autodiff import Tensor
from .errors import (ConfigError, DataError, NumericError, ShapeError, check_count,
                     check_dict, check_keys, is_number)

log = logging.getLogger(__name__)

_TRAIN_STREAM = 0x7EA1


@dataclass
class StepDecay:
    """lr = init * factor^floor(epoch / every_n_epochs)."""

    init: float
    factor: float
    every_n_epochs: int

    def __post_init__(self):
        for name, value in (("init", self.init), ("factor", self.factor)):
            if not is_number(value) or not value > 0:
                raise ConfigError(f"step schedule {name} must be a number > 0, got {value!r}")
        check_count("step schedule every", self.every_n_epochs, 1)


@dataclass
class Milestones:
    """Piecewise-constant lr by fraction of total training time.

    points: ordered (fraction, lr) pairs; the lr of the first point whose
    fraction bounds epoch/total applies, and the final lr holds afterwards.
    """

    points: tuple

    def __post_init__(self):
        points = self.points
        if not isinstance(points, (list, tuple)) or not points or not all(
                isinstance(p, (list, tuple)) and len(p) == 2 and all(map(is_number, p))
                for p in points):
            raise ConfigError(f"milestones schedule points must be one or more "
                              f"[fraction, lr] number pairs, got {points!r}")
        self.points = tuple((float(f), float(lr)) for f, lr in points)
        fracs = [f for f, _ in self.points]
        lrs = [lr for _, lr in self.points]
        if sorted(fracs) != list(fracs):
            raise ConfigError("milestone fractions must be non-decreasing")
        if any(lr <= 0 for lr in lrs):
            raise ConfigError("learning rates must be positive")
        if sorted(lrs, reverse=True) != list(lrs):
            raise ConfigError("milestone learning rates must be non-increasing")


@dataclass
class TrainConfig:
    batch_size: int
    epochs: int
    lr_schedule: object
    seed: int = 0
    checkpoint_dir: str | None = None

    def __post_init__(self):
        check_count("batch_size", self.batch_size, 1)
        check_count("epochs", self.epochs, 0)


def schedule_from_dict(d):
    if not isinstance(d, dict):
        raise ConfigError(f"train lr_schedule must be a dict with a type, got {d!r}")
    if d.get("type") == "step":
        check_keys("step schedule", d, ("type", "init", "factor", "every"))
        return StepDecay(d["init"], d["factor"], d["every"])
    if d.get("type") == "milestones":
        check_keys("milestones schedule", d, ("type", "points"))
        return Milestones(d["points"])
    raise ConfigError(f"unknown schedule type {d.get('type')!r}")


def lr_at(config, epoch):
    """Learning rate in effect for a given epoch index."""
    sched = config.lr_schedule
    if isinstance(sched, StepDecay):
        return sched.init * sched.factor ** (epoch // sched.every_n_epochs)
    if isinstance(sched, Milestones):
        frac = epoch / max(config.epochs, 1)
        for boundary, lr in sched.points:
            if frac <= boundary:
                return lr
        return sched.points[-1][1]
    raise ConfigError(f"unknown schedule {type(sched).__name__}")


class Adam:
    """Bias-corrected Adam with the canonical constants.

    Each large parameter's update is split over `autodiff._workers` threads
    by contiguous element ranges. Every Adam operation is elementwise, so
    the results are bitwise the same on any number of threads."""

    beta1, beta2, epsilon = 0.9, 0.999, 1e-8

    def __init__(self, named_params):
        self.named_params = dict(named_params)
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.named_params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.named_params.items()}

    def step(self, lr):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        for name, p in self.named_params.items():
            if not np.all(np.isfinite(p.grad)):
                bad = int((~np.isfinite(p.grad)).sum())
                raise NumericError(
                    f"non-finite gradient in {name!r} ({bad} entries); step aborted"
                )
        self.t += 1
        for name, p in self.named_params.items():
            arrays = (p.grad, self.m[name], self.v[name], p.data)
            # the update's two temporaries, made here so that threads write
            # only into their own ranges of them. Each lives until the next
            # parameter's replaces it, and no reference to one outlives the
            # split: that order sets the step's peak memory.
            tmp = np.empty_like(p.data)
            step = np.empty_like(p.data)
            workers = ad._workers(p.data.size, ad._THREAD_MIN_ELEMENTS)
            # flattening a non-contiguous array would copy it and lose the update
            if workers > 1 and all(a.flags.c_contiguous for a in arrays):
                flat = (a.reshape(-1) for a in (*arrays, tmp, step))
                ad._split(workers, partial(self._update, lr, *flat), p.data.size)
            else:
                self._update(lr, *arrays, tmp, step, ...)

    def _update(self, lr, g, m, v, data, tmp, step, part):
        """Update `data[part]` and its moments in place, in the float
        operation order of
          m = b1 * m + (1 - b1) * g;  v = b2 * v + ((1 - b2) * g) * g
          data -= (lr * (m / (1 - b1^t))) / (sqrt(v / (1 - b2^t)) + eps)
        with `tmp` and `step` as scratch."""
        g, m, v, data, tmp, step = (a[part] for a in (g, m, v, data, tmp, step))
        b1, b2 = self.beta1, self.beta2
        np.multiply(1 - b1, g, out=tmp)
        m *= b1
        m += tmp
        np.multiply(1 - b2, g, out=tmp)
        tmp *= g
        v *= b2
        v += tmp
        np.divide(v, 1 - b2 ** self.t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.epsilon
        np.divide(m, 1 - b1 ** self.t, out=step)
        step *= lr
        step /= tmp
        data -= step

    def state_arrays(self):
        out = {}
        for name in self.named_params:
            out[f"adam.m.{name}"] = self.m[name]
            out[f"adam.v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays, t):
        for name in self.named_params:
            self.m[name] = np.array(arrays[f"adam.m.{name}"])
            self.v[name] = np.array(arrays[f"adam.v.{name}"])
        self.t = int(t)


@dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray  # confusion[i, j] = count(true i, predicted j)


EVAL_BATCH = 256  # windows per forward pass of `evaluate` and `analysis.routing_stats`


def check_dataset(model, ds, what):
    """Return the model's class count if it can score `ds`, named `what` in
    errors: DataError if `ds` is empty, has a label outside [0, n_classes)
    or more label names than classes, ShapeError if its windows are not the
    model's recorded (T, C)."""
    if len(ds) == 0:
        raise DataError(f"empty {what}: it holds no window")
    expected = tuple(model.meta["input_shape"])
    if ds.x.shape[1:] != expected:
        raise ShapeError(f"{what}: windows are {ds.x.shape[1:]}, the model expects {expected}")
    n_classes = model.meta["n_classes"]
    low, high = int(ds.y.min()), int(ds.y.max())
    if low < 0 or high >= n_classes:
        raise DataError(f"{what}: labels lie in [{low}, {high}], outside the model's "
                        f"{n_classes} classes [0, {n_classes})")
    if len(ds.label_names) > n_classes:
        raise DataError(f"{what}: {len(ds.label_names)} label names, more than the "
                        f"model's {n_classes} classes")
    return n_classes


def evaluate(model, ds):
    """Accuracy and confusion matrix in eval mode, `EVAL_BATCH` windows per
    forward pass. By `check_dataset`, an empty `ds` or a label outside the
    model's classes raises DataError, and windows of another shape ShapeError.
    Side-effect-free: the model's mode flags are restored afterwards and
    no statistics are updated. The forward passes record no graph.
    """
    n_classes = check_dataset(model, ds, "dataset")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    with model.inference():
        for start in range(0, len(ds), EVAL_BATCH):
            part = slice(start, start + EVAL_BATCH)
            pred = model.logits(Tensor(ds.x[part])).data.argmax(axis=1)
            np.add.at(confusion, (ds.y[part], pred), 1)
    accuracy = float(np.diag(confusion).sum() / confusion.sum())
    return EvalResult(accuracy, confusion)


@dataclass
class History:
    """Per-epoch training record: (epoch, lr, train_loss, test_acc) rows."""

    rows: list = field(default_factory=list)
    halted: bool = False

    @property
    def best_epoch(self):
        """The first epoch of the highest test accuracy; -1 before any."""
        return max(self.rows, key=lambda row: row[3])[0] if self.rows else -1

    @property
    def best_accuracy(self):
        return max((row[3] for row in self.rows), default=-1.0)

    def to_csv(self, path):
        # a schedule's lr may be an int; the loss and accuracy are floats
        storage.write_text(path, ["epoch,lr,train_loss,test_acc"] + [
            storage.csv_line([epoch, float(lr), loss, acc]) for epoch, lr, loss, acc in self.rows])


def save_checkpoint(path, model, adam=None, rng=None, epoch=0, history=None):
    """Versioned container: model config + parameters + BN statistics +
    optimizer moments + RNG state. Deterministic bytes for fixed content.

    `epoch` is the next epoch to run: `train` saves only at epoch ends, so
    a checkpoint holds whole epochs."""
    arrays = {}
    for name, p in model.named_params().items():
        arrays[f"param.{name}"] = p.data
    for name, buf in model.named_buffers().items():
        arrays[f"buffer.{name}"] = buf
    meta = {
        "kind": "condcnn-checkpoint",
        "format": 1,
        "model": model.meta,
        "epoch": int(epoch),
        "adam_t": None,
        "rng_state": None,
        "history": None,
    }
    if adam is not None:
        arrays.update(adam.state_arrays())
        meta["adam_t"] = adam.t
    if rng is not None:
        meta["rng_state"] = json.loads(json.dumps(rng.bit_generator.state))
    if history is not None:
        rows = [[int(e), float(l), float(t), float(a)] for e, l, t, a in history.rows]
        meta["history"] = {"rows": rows}
    storage.save_container(path, arrays, meta)


def load_checkpoint(path):
    """Rebuild the model a checkpoint describes and return it with the
    saved training state, whose `history` is the saved rows as tuples.

    Every meta key `save_checkpoint` writes is required except `halted`,
    which only older versions wrote; keys it no longer writes are ignored.
    A missing meta key, a `model` that is not a dict of an `input_shape` of
    two integers >= 1, an integer `n_classes` >= 1 and an integer `seed`
    >= 0, an `epoch` that is not an integer >= 0, a `history` that is
    neither null nor rows of such an epoch and 3 numbers, an `rng_state`
    that is neither null nor a PCG64 generator state, a missing array the
    model expects, a parameter or buffer array the model lacks, or an
    array of the wrong shape raises DataError naming the path. One
    that records an Adam step count `adam_t` must record it as an integer
    >= 0 and hold exactly the moments `adam.m.<name>` and `adam.v.<name>`
    of each parameter, in its shape; one that records none (`adam_t` null,
    a model-only checkpoint) is not checked for them."""
    arrays, meta = storage.load_container(path)
    if meta.get("kind") != "condcnn-checkpoint":
        raise DataError(f"{path}: not a checkpoint container")
    try:
        epoch, adam_t, rng_state, history = (
            meta[key] for key in ("epoch", "adam_t", "rng_state", "history"))
        model_meta = check_dict("model", meta["model"])
        input_shape, n_classes, seed = (
            model_meta[key] for key in ("input_shape", "n_classes", "seed"))
        if not (isinstance(input_shape, list) and len(input_shape) == 2):
            raise ConfigError(f"input_shape must be two integers >= 1, got {input_shape!r}")
        for size in input_shape:
            check_count("input_shape", size, 1)
        check_count("n_classes", n_classes, 1)
        check_count("seed", seed, 0)
        spec = archspec.spec_from_dict(model_meta["spec"])
        model = archspec.build_model(
            spec, tuple(input_shape), n_classes, seed=seed, draw_init=False)
    except KeyError as err:
        raise DataError(f"{path}: checkpoint meta is missing key {err}") from None
    except ConfigError as err:
        raise DataError(f"{path}: recorded model is invalid: {err}") from None
    for key, count in (("epoch", epoch), ("adam_t", 0 if adam_t is None else adam_t)):
        if type(count) is not int or count < 0:
            raise DataError(f"{path}: recorded {key} must be an integer >= 0, got {count!r}")
    if rng_state is not None:
        try:
            np.random.PCG64().state = rng_state
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise DataError(f"{path}: recorded rng_state is not a PCG64 state: {err!r}") from None
    rows = history["rows"] if isinstance(history, dict) and "rows" in history else None
    if history is not None and not (isinstance(rows, list) and all(
            isinstance(row, list) and len(row) == 4 and type(row[0]) is int and row[0] >= 0
            and all(map(is_number, row[1:])) for row in rows)):
        raise DataError(f"{path}: recorded history must be null or hold rows of "
                        f"[epoch, lr, train_loss, test_acc], an integer >= 0 and three numbers")
    # every parameter is uninitialized until the set and shape checks below
    # pass and its stored array replaces it
    params = model.named_params()
    expected = {f"param.{name}": p.data for name, p in params.items()}
    expected.update((f"buffer.{name}", buf) for name, buf in model.named_buffers().items())
    kinds = ("param.", "buffer.")
    if adam_t is not None:  # a training checkpoint: one pair of moments per parameter
        kinds += ("adam.",)
        for name, p in params.items():
            expected[f"adam.m.{name}"] = expected[f"adam.v.{name}"] = p.data
    stored = {name for name in arrays if name.startswith(kinds)}
    if stored != set(expected):
        raise DataError(
            f"{path}: checkpoint arrays disagree with the recorded model; missing: "
            f"{sorted(set(expected) - stored)}, unexpected: {sorted(stored - set(expected))}"
        )
    for name, current in expected.items():
        if arrays[name].shape != current.shape:
            raise DataError(
                f"{path}: array {name!r} has shape {arrays[name].shape}, "
                f"model expects {current.shape}"
            )
    for name, p in params.items():
        p.data = arrays[f"param.{name}"]
    model.load_buffers({
        name[len("buffer."):]: arr for name, arr in arrays.items()
        if name.startswith("buffer.")
    })
    state = {
        "epoch": epoch,
        "adam_t": adam_t,
        "adam_arrays": {k: v for k, v in arrays.items() if k.startswith("adam.")},
        "rng_state": rng_state,
        "history": None if history is None else [tuple(row) for row in rows],
        "halted": bool(meta.get("halted", False)),
    }
    return model, state


def train(model, train_ds, test_ds, config, start_state=None):
    """Train with per-epoch shuffling and Adam, selecting the best epoch
    by test accuracy (the benchmark protocol these recipes follow).

    With `config.checkpoint_dir` set, every epoch end writes `last.ckpt`;
    when the test accuracy improves, `best.ckpt` then becomes a hard link
    to it (a copy where links are refused). A non-finite value
    halts the run (`History.halted`) and writes nothing more, so
    `last.ckpt` holds the last completed epoch.

    `start_state` is the state dict from `load_checkpoint` of a previous
    run's last checkpoint, which is left unchanged; training then continues
    bitwise as if it had never stopped. A checkpoint that records
    `halted: true` (written by an older version after a mid-epoch halt)
    holds part of an epoch and raises ConfigError. With `config.epochs > 0`,
    `check_dataset` refuses before any step an empty set or a label outside
    the model's classes (DataError) and windows of another shape (ShapeError).
    """
    if config.epochs > 0:
        check_dataset(model, train_ds, "train set")
        check_dataset(model, test_ds, "test set")

    adam = Adam(model.named_params())
    rng = np.random.default_rng([config.seed, _TRAIN_STREAM])
    history = History()
    start_epoch = 0
    if start_state is not None:
        start_epoch = start_state["epoch"]
        if start_state["halted"]:
            raise ConfigError(
                f"cannot resume from a checkpoint written by a run that halted in "
                f"epoch {start_epoch}: it holds part of that epoch's updates"
            )
        if start_state["adam_t"] is not None:
            adam.load_state_arrays(start_state["adam_arrays"], start_state["adam_t"])
        if start_state["rng_state"] is not None:
            rng.bit_generator.state = start_state["rng_state"]
        if start_state["history"] is not None:
            history.rows = list(start_state["history"])

    ckpt_dir = config.checkpoint_dir
    model.train()
    for epoch in range(start_epoch, config.epochs):
        lr = lr_at(config, epoch)
        perm = rng.permutation(len(train_ds))
        total_loss, seen = 0.0, 0
        for start in range(0, len(perm), config.batch_size):
            idx = perm[start:start + config.batch_size]
            xb = Tensor(train_ds.x[idx])
            yb = train_ds.y[idx]
            model.zero_grad()
            try:
                logits = model.logits(xb, rng=rng)
                loss = ad.softmax_cross_entropy(logits, yb)
                loss.backward()
                adam.step(lr)
            except NumericError as err:
                log.error("epoch %d: %s; halting with last good state", epoch, err)
                history.halted = True
                break
            total_loss += loss.item() * len(idx)
            seen += len(idx)
        if history.halted:
            break

        train_loss = total_loss / max(seen, 1)
        test_acc = evaluate(model, test_ds).accuracy
        improved = test_acc > history.best_accuracy
        history.rows.append((epoch, lr, train_loss, test_acc))
        if ckpt_dir:
            last = os.path.join(ckpt_dir, "last.ckpt")
            save_checkpoint(last, model, adam=adam, rng=rng, epoch=epoch + 1, history=history)
            if improved:
                storage.copy_file(last, os.path.join(ckpt_dir, "best.ckpt"))
    return history

