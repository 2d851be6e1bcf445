"""Synthetic dataset builders shared by trainer, CLI, and acceptance tests,
and the doubles the invariance tests drive `autodiff` with: a fixed
thread count, a shrunken chunk budget and serial parts."""

import json
import struct

import numpy as np

from condcnn import archspec, storage, training
from condcnn import autodiff as ad
from condcnn.data import DatasetProfile, SensorStream, WindowedDataset, split
from condcnn.storage import MAGIC


def _dataset_from_arrays(x, y, label_names=None):
    n = len(y)
    return WindowedDataset(
        x=np.asarray(x, dtype=np.float64),
        y=np.asarray(y, dtype=np.int64),
        label_names=label_names or [str(i) for i in range(int(np.max(y)) + 1)],
        subject=np.array(["synth"] * n, dtype=object),
        session=np.array(["synth"] * n, dtype=object),
    )


def make_linear_dataset(n_per_class=40, t=16, channels=2, seed=0):
    """Two classes separated by a large per-channel mean shift."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for label in (0, 1):
        shift = -1.0 if label == 0 else 1.0
        for _ in range(n_per_class):
            xs.append(shift + 0.25 * rng.normal(size=(t, channels)))
            ys.append(label)
    order = rng.permutation(len(ys))
    return _dataset_from_arrays(np.array(xs)[order], np.array(ys)[order])


def _motif_bank(length):
    """Four distinct waveform shapes of a given length."""
    u = np.linspace(0.0, 1.0, length)
    return np.stack([
        np.sin(2 * np.pi * u),                     # one sine period
        np.sign(np.sin(2 * np.pi * u)) * 0.8,      # square wave
        2.0 * u - 1.0,                             # rising ramp
        np.exp(-0.5 * ((u - 0.5) / 0.15) ** 2),    # centered bump
    ])


def make_motif_dataset(n_per_class=150, t=32, seed=0, noise=0.4,
                       amplitude=1.5, context_bias=1.0):
    """Four classes, each a mixture of two temporal modes.

    An example carries one waveform (out of four) on its last channel plus
    a context offset on the first two channels. The waveform-to-class
    mapping is permuted between the two contexts, so the temporal shape
    alone never identifies the class: context 0 assigns waveform k to
    class k, context 1 assigns waveform (k+1) mod 4 to class k. Each class
    therefore owns two distinct motif modes, and a single kernel set has
    to split its capacity across both interpretation tables, while
    context-conditioned kernels can specialize.
    """
    rng = np.random.default_rng(seed)
    channels = 3
    motif_len = t // 2
    bank = _motif_bank(motif_len)
    biases = np.array([[context_bias, -context_bias, 0.0],
                       [-context_bias, context_bias, 0.0]])
    xs, ys = [], []
    for label in range(4):
        for _ in range(n_per_class):
            context = int(rng.integers(0, 2))
            waveform = label if context == 0 else (label + 1) % 4
            x = noise * rng.normal(size=(t, channels))
            x += biases[context]
            offset = int(rng.integers(0, t - motif_len + 1))
            x[offset:offset + motif_len, 2] += amplitude * bank[waveform]
            xs.append(x)
            ys.append(label)
    order = rng.permutation(len(ys))
    return _dataset_from_arrays(np.array(xs)[order], np.array(ys)[order])


def split_70_30(ds, classes, seed=0):
    prof = DatasetProfile(
        name="synth", window_len=ds.window_len, step=ds.window_len, classes=classes,
        split={"kind": "random", "train_fraction": 0.7},
    )
    return split(ds, prof, seed=seed)


def stream_from_dataset(ds, rate=20.0):
    """Flatten a windowed dataset back into one labeled stream (windows
    become contiguous runs; labels repeat per sample)."""
    n, t, c = ds.x.shape
    return SensorStream(
        data=ds.x.reshape(n * t, c),
        channel_names=[f"ch{i}" for i in range(c)],
        sample_rate_hz=rate,
        labels=np.repeat(ds.y, t),
        label_names=ds.label_names,
        subject=np.repeat(ds.subject, t),
        session=np.repeat([f"w{i}" for i in range(n)], t),
    )


def container_bytes(header, payload=b""):
    """Container bytes in the documented layout: magic, `<Q` header length,
    header (a dict is dumped as sorted-key compact JSON), then payload."""
    if isinstance(header, dict):
        header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(header)) + header + payload


def _one_array_header(**entry):
    """Header of one 8-byte float64 array; a field given as None is left out."""
    fields = dict(name="w", dtype="<f8", shape=[1], offset=0, nbytes=8)
    fields.update(entry)
    return {"version": 1, "meta": {}, "arrays": [{k: v for k, v in fields.items() if v is not None}]}


# name -> (file bytes, fragment of the DataError message); each breaks the
# container layout in a different place
CORRUPT_CONTAINERS = {
    "magic-plus-2-bytes": (MAGIC + b"\x01\x00", "truncated container header"),
    "header-shorter-than-declared": (
        MAGIC + struct.pack("<Q", 100) + b'{"version":1}', "truncated container header"),
    "header-not-json": (container_bytes(b"{not json"), "not UTF-8 JSON"),
    "header-not-utf8": (container_bytes(b'{"version":1,"x":"\xff"}'), "not UTF-8 JSON"),
    "header-not-an-object": (container_bytes(b"[1,2]"), "not a JSON object"),
    "entry-missing-field": (
        container_bytes(_one_array_header(nbytes=None), bytes(8)), "needs a string name"),
    "entry-unknown-dtype": (
        container_bytes(_one_array_header(dtype="<q9"), bytes(8)), "unknown dtype"),
    "truncated-payload": (container_bytes(_one_array_header(), bytes(5)), "truncated payload"),
    "offset-off-layout": (
        container_bytes(_one_array_header(offset=8), bytes(16)), "disagrees with the layout"),
    "nbytes-off-layout": (
        container_bytes(_one_array_header(nbytes=16), bytes(16)), "disagrees with the layout"),
}


# name -> edit of a saved checkpoint's (arrays, meta) that leaves a valid
# container whose content no longer matches the model it records
DAMAGED_CHECKPOINTS = {
    "missing-param": lambda arrays, meta: arrays.pop("param.b0.bn0.beta"),
    "extra-param": lambda arrays, meta: arrays.update({"param.b0.extra": np.zeros(2)}),
    "missing-buffer": lambda arrays, meta: arrays.pop("buffer.b0.bn0.running_mean"),
    "extra-buffer": lambda arrays, meta: arrays.update({"buffer.b0.extra": np.zeros(2)}),
    "param-of-wrong-shape": lambda arrays, meta: arrays.update({"param.head.bias": np.zeros(2)}),
    "buffer-of-wrong-shape": lambda arrays, meta: arrays.update(
        {"buffer.b0.bn0.running_var": np.ones(3)}),
    "meta-without-model": lambda arrays, meta: meta.pop("model"),
    "model-without-seed": lambda arrays, meta: meta["model"].pop("seed"),
    "model-as-a-list": lambda arrays, meta: meta.update(model=list(meta["model"])),
    "input-shape-as-text": lambda arrays, meta: meta["model"].update(input_shape="ab"),
    "input-shape-of-one": lambda arrays, meta: meta["model"].update(input_shape=[8]),
    "text-n-classes": lambda arrays, meta: meta["model"].update(n_classes="3"),
    "text-seed": lambda arrays, meta: meta["model"].update(seed="x"),
    "negative-seed": lambda arrays, meta: meta["model"].update(seed=-1),
    "spec-without-shorthand": lambda arrays, meta: meta["model"]["spec"].pop("shorthand"),
    "spec-with-unknown-key": lambda arrays, meta: meta["model"]["spec"].update(n_expert=8),
    "missing-adam-moment": lambda arrays, meta: arrays.pop("adam.m.b0.bn0.beta"),
    "extra-adam-moment": lambda arrays, meta: arrays.update({"adam.v.b0.extra": np.zeros(2)}),
    "adam-moment-of-wrong-shape": lambda arrays, meta: arrays.update(
        {"adam.v.head.bias": np.zeros(2)}),
    "negative-adam-t": lambda arrays, meta: meta.update(adam_t=-1),
    "fractional-adam-t": lambda arrays, meta: meta.update(adam_t=1.5),
    "boolean-adam-t": lambda arrays, meta: meta.update(adam_t=True),
    "meta-without-epoch": lambda arrays, meta: meta.pop("epoch"),
    "meta-without-adam-t": lambda arrays, meta: meta.pop("adam_t"),
    "meta-without-rng-state": lambda arrays, meta: meta.pop("rng_state"),
    "meta-without-history": lambda arrays, meta: meta.pop("history"),
    "negative-epoch": lambda arrays, meta: meta.update(epoch=-1),
    "fractional-epoch": lambda arrays, meta: meta.update(epoch=1.5),
    "boolean-epoch": lambda arrays, meta: meta.update(epoch=True),
    "history-without-rows": lambda arrays, meta: meta.update(history={}),
    "history-as-a-list": lambda arrays, meta: meta.update(history=[]),
    "history-row-of-three": lambda arrays, meta: meta.update(history={"rows": [[0, 1e-3, 0.5]]}),
    "history-with-a-text-cell": lambda arrays, meta: meta.update(
        history={"rows": [[0, 0.1, 1.0, "x"]]}),
    "history-with-a-boolean-cell": lambda arrays, meta: meta.update(
        history={"rows": [[0, 0.1, True, 0.5]]}),
    "history-with-a-negative-epoch": lambda arrays, meta: meta.update(
        history={"rows": [[-1, 0.1, 1.0, 0.5]]}),
    "history-with-a-fractional-epoch": lambda arrays, meta: meta.update(
        history={"rows": [[0.5, 0.1, 1.0, 0.5]]}),
    "rng-state-without-state": lambda arrays, meta: meta.update(
        rng_state={"bit_generator": "PCG64"}),
    "rng-state-as-a-list": lambda arrays, meta: meta.update(rng_state=[1, 2]),
    "rng-state-of-mt19937": lambda arrays, meta: meta.update(rng_state=json.loads(
        json.dumps(np.random.MT19937(0).state, default=np.ndarray.tolist))),
}


def write_damaged_checkpoint(path, damage):
    """Save a small two-expert model's checkpoint, with its (fresh) Adam
    state, to `path`, then rewrite it with `damage(arrays, meta)` applied."""
    spec = archspec.parse_shorthand("C(4)-FC-Sm", convs_per_block=1, kernel_length=3,
                                    n_experts=2, head="pointwise-condconv")
    model = archspec.build_model(spec, (8, 2), 3, seed=0)
    training.save_checkpoint(path, model, adam=training.Adam(model.named_params()))
    arrays, meta = storage.load_container(path)
    damage(arrays, meta)
    storage.save_container(path, arrays, meta)


def serial_split(workers, task, m):
    """`autodiff._split` with every part run in turn on the calling thread."""
    for part in ad._parts(m, workers):
        task(part)


def set_workers(monkeypatch, n):
    """Every `autodiff._workers` call, gated or not, returns `n`."""
    monkeypatch.setattr(ad, "_workers", lambda work, least=None: n)


def chunk_budget(monkeypatch, examples, kernel_shape):
    """Shrink the chunk budget so that `examples` examples of a
    `kernel_shape` (K, C_in, C_out) kernel fill a chunk."""
    monkeypatch.setattr(ad, "CONDCONV_CHUNK_BYTES", examples * 8 * int(np.prod(kernel_shape)))
    assert ad.condconv_chunk(kernel_shape) == examples
