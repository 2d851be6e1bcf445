"""Mini-batch supervised training: Adam, learning-rate schedules,
best-checkpoint retention, and evaluation.

One seeded generator drives everything stochastic in a run (epoch
shuffles and dropout masks), so identical config + seed reproduces a run
bitwise in single-threaded mode. Checkpoints capture parameters, batch
norm statistics, optimizer moments, and the generator state; resuming
from the last checkpoint continues a run bitwise.
"""

import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from . import archspec
from . import autodiff as ad
from . import storage
from .autodiff import Tensor
from .errors import (ConfigError, DataError, NumericError, check_count, check_keys,
                     is_number)

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
    """Bias-corrected Adam with the canonical defaults."""

    def __init__(self, named_params, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.named_params = dict(named_params)
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
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
        b1, b2 = self.beta1, self.beta2
        for name, p in self.named_params.items():
            # In place, with two temporaries per parameter, in the float
            # operation order of
            #   m = b1 * m + (1 - b1) * g;  v = b2 * v + ((1 - b2) * g) * g
            #   p -= (lr * (m / (1 - b1^t))) / (sqrt(v / (1 - b2^t)) + eps)
            g, m, v = p.grad, self.m[name], self.v[name]
            tmp = np.multiply(1 - b1, g)
            m *= b1
            m += tmp
            np.multiply(1 - b2, g, out=tmp)
            tmp *= g
            v *= b2
            v += tmp
            np.divide(v, 1 - b2 ** self.t, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.epsilon
            step = np.divide(m, 1 - b1 ** self.t)
            step *= lr
            step /= tmp
            p.data -= step

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
    per_class_accuracy: np.ndarray
    confusion: np.ndarray  # confusion[i, j] = count(true i, predicted j)


def evaluate(model, ds, batch_size=256):
    """Accuracy, per-class accuracy, and confusion matrix in eval mode.

    Side-effect-free: the model's mode flags are restored afterwards and
    no statistics are updated. The forward passes record no graph.
    """
    if len(ds) == 0:
        raise DataError("cannot evaluate on an empty dataset")
    n_classes = model.meta.get("n_classes") or int(ds.y.max()) + 1
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    with model.inference():
        for start in range(0, len(ds), batch_size):
            xb = ds.x[start:start + batch_size]
            yb = ds.y[start:start + batch_size]
            logits = model.logits(Tensor(xb))
            pred = logits.data.argmax(axis=1)
            np.add.at(confusion, (yb, pred), 1)
    totals = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        per_class = np.where(totals > 0, np.diag(confusion) / np.maximum(totals, 1), np.nan)
    accuracy = float(np.diag(confusion).sum() / confusion.sum())
    return EvalResult(accuracy, per_class, confusion)


@dataclass
class History:
    """Per-epoch training record: (epoch, lr, train_loss, test_acc) rows."""

    rows: list = field(default_factory=list)
    best_epoch: int = -1
    best_accuracy: float = -1.0
    halted: bool = False

    def to_csv(self, path):
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            fh.write("epoch,lr,train_loss,test_acc\n")
            for epoch, lr, loss, acc in self.rows:
                fh.write(f"{epoch},{repr(float(lr))},{repr(float(loss))},{repr(float(acc))}\n")


def save_checkpoint(path, model, adam=None, rng=None, epoch=0, history=None):
    """Versioned container: model config + parameters + BN statistics +
    optimizer moments + RNG state. Deterministic bytes for fixed content."""
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
        meta["history"] = {
            "rows": [[int(e), float(l), float(t), float(a)] for e, l, t, a in history.rows],
            "best_epoch": history.best_epoch,
            "best_accuracy": history.best_accuracy,
        }
    storage.save_container(path, arrays, meta)


def load_checkpoint(path):
    """Rebuild the model a checkpoint describes and return it with the
    saved training state. A checkpoint that lacks a meta key or an array
    the model expects, holds a parameter or buffer array the model lacks,
    or has an array of the wrong shape raises DataError naming the path."""
    arrays, meta = storage.load_container(path)
    if meta.get("kind") != "condcnn-checkpoint":
        raise DataError(f"{path}: not a checkpoint container")
    try:
        model_meta = meta["model"]
        spec = archspec.spec_from_dict(model_meta["spec"])
        model = archspec.build_model(
            spec, tuple(model_meta["input_shape"]), model_meta["n_classes"],
            seed=model_meta["seed"], draw_init=False,
        )
    except KeyError as err:
        raise DataError(f"{path}: checkpoint meta is missing key {err}") from None
    except ConfigError as err:
        raise DataError(f"{path}: recorded model is invalid: {err}") from None
    # every parameter is uninitialized until the set and shape checks below
    # pass and its stored array replaces it
    expected = {f"param.{name}": p.data for name, p in model.named_params().items()}
    expected.update((f"buffer.{name}", buf) for name, buf in model.named_buffers().items())
    stored = {name for name in arrays if name.startswith(("param.", "buffer."))}
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
    for name, p in model.named_params().items():
        p.data = arrays[f"param.{name}"]
    model.load_buffers({
        name[len("buffer."):]: arr for name, arr in arrays.items()
        if name.startswith("buffer.")
    })
    state = {
        "epoch": meta.get("epoch", 0),
        "adam_t": meta.get("adam_t"),
        "adam_arrays": {k: v for k, v in arrays.items() if k.startswith("adam.")},
        "rng_state": meta.get("rng_state"),
        "history": meta.get("history"),
    }
    return model, state


def _restore_history(state):
    history = History()
    saved = state.get("history")
    if saved:
        history.rows = [tuple(row) for row in saved["rows"]]
        history.best_epoch = saved["best_epoch"]
        history.best_accuracy = saved["best_accuracy"]
    return history


def train(model, train_ds, test_ds, config, start_state=None, selection_ds=None):
    """Train with per-epoch shuffling and Adam; keep the checkpoint of the
    best accuracy; halt (retaining the last good state) if the loss goes
    non-finite.

    Best-epoch selection scores `test_ds` by default (the benchmark
    protocol these recipes follow); pass a held-out `selection_ds` to
    select on validation data instead while still logging test accuracy.

    `start_state` is the state dict from `load_checkpoint` of a previous
    run's last checkpoint; training then continues bitwise as if it had
    never stopped.
    """
    if config.epochs > 0 and len(train_ds) == 0:
        raise DataError("cannot train on an empty dataset")

    adam = Adam(model.named_params())
    rng = np.random.default_rng([config.seed, _TRAIN_STREAM])
    history = History()
    start_epoch = 0
    if start_state is not None:
        if start_state.get("adam_t") is not None:
            adam.load_state_arrays(start_state["adam_arrays"], start_state["adam_t"])
        if start_state.get("rng_state") is not None:
            rng.bit_generator.state = start_state["rng_state"]
        history = _restore_history(start_state)
        start_epoch = int(start_state.get("epoch", 0))

    ckpt_dir = config.checkpoint_dir
    if ckpt_dir:
        os.makedirs(ckpt_dir, exist_ok=True)

    model.train()
    next_epoch = start_epoch
    for epoch in range(start_epoch, config.epochs):
        lr = lr_at(config, epoch)
        perm = rng.permutation(len(train_ds))
        total_loss, seen = 0.0, 0
        halted = False
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
                halted = True
                break
            total_loss += loss.item() * len(idx)
            seen += len(idx)
        if halted:
            break

        train_loss = total_loss / max(seen, 1)
        test_acc = evaluate(model, test_ds).accuracy
        selection_acc = (
            test_acc if selection_ds is None else evaluate(model, selection_ds).accuracy
        )
        history.rows.append((epoch, lr, train_loss, test_acc))
        next_epoch = epoch + 1
        if selection_acc > history.best_accuracy:
            history.best_accuracy = selection_acc
            history.best_epoch = epoch
            if ckpt_dir:
                save_checkpoint(
                    os.path.join(ckpt_dir, "best.ckpt"), model, adam=adam, rng=rng,
                    epoch=epoch + 1, history=history,
                )

    if ckpt_dir:
        save_checkpoint(
            os.path.join(ckpt_dir, "last.ckpt"), model, adam=adam, rng=rng,
            epoch=next_epoch, history=history,
        )
    return history
