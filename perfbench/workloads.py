"""Benchmark workloads and their seeded canonical-CSV inputs.

Each workload runs one bundled recipe (``src/condcnn/configs``) at its
shipped model shape on synthetic sensor data. Only the generated CSV and a
run config derived from the recipe reach the program; the seed fixes both.
Window counts are fixed per workload, so every seed yields the same
tensor shapes and only the values change.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

WISDM_LABELS = ["Downstairs", "Jogging", "Sitting", "Standing", "Upstairs", "Walking"]
PAMAP2_LABELS = [
    "ascending_stairs", "cycling", "descending_stairs", "ironing", "lying",
    "nordic_walking", "rope_jumping", "running", "sitting", "standing",
    "vacuum_cleaning", "walking",
]
PAMAP2_CHANNELS = [
    f"{unit}_{sensor}_{axis}"
    for unit in ("hand", "chest", "ankle")
    for sensor in ("acc", "gyro", "mag")
    for axis in "xyz"
]


@dataclass(frozen=True)
class Workload:
    name: str
    recipe: str                 # bundled config this workload follows
    batch: int                  # training batch of this workload
    shipped_batch: int          # the recipe's own batch, for the memory forecast
    trains: bool                # False: segment -> checkpoint -> evaluate -> routing
    model_overrides: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w for w in (
        Workload("wisdm-n8", "wisdm", batch=32, shipped_batch=210, trains=True),
        Workload("wisdm-cnn", "wisdm", batch=32, shipped_batch=210, trains=True,
                 model_overrides={"n_experts": 1, "pin_routing": True}),
        Workload("pamap2-analyze", "pamap2", batch=16, shipped_batch=204, trains=False),
    )
}


def _bouts(rng, length, labels):
    """Per-sample label ids: every activity once, in seeded order, with
    seeded bout lengths within 40% of an even share."""
    order = rng.permutation(len(labels))
    weights = rng.uniform(0.6, 1.4, size=len(labels))
    sizes = np.floor(weights / weights.sum() * length).astype(int)
    sizes[-1] += length - sizes.sum()
    return np.repeat(order, sizes)


def _signal(rng, label_ids, n_channels, rate_hz):
    """Class-dependent oscillation plus offset and noise on every channel."""
    n_classes = int(label_ids.max()) + 1
    freq = rng.uniform(0.5, 4.0, size=(n_classes, n_channels))
    amp = rng.uniform(0.2, 3.0, size=(n_classes, n_channels))
    offset = rng.normal(0.0, 2.0, size=(n_classes, n_channels))
    t = np.arange(len(label_ids))[:, None] / rate_hz
    clean = offset[label_ids] + amp[label_ids] * np.sin(2 * np.pi * freq[label_ids] * t)
    return clean + rng.normal(0.0, 0.5, size=clean.shape)


def _write_csv(path, rate_hz, channels, sessions):
    """sessions: iterable of (subject, session, label names, values)."""
    fmt = ",".join(["%.4f"] * len(channels))
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(f"# rate_hz={rate_hz}\n")
        fh.write(",".join(["subject", "session", "label"] + channels) + "\n")
        rows = 0
        for subject, session, names, values in sessions:
            prefix = f"{subject},{session},"
            fh.writelines(
                f"{prefix}{name}," + (fmt % tuple(row)) + "\n"
                for name, row in zip(names, values)
            )
            rows += len(values)
    return rows


def _wisdm_sessions(rng):
    # 4 subjects of 23 windows (200 samples, step 10): 92 windows, which the
    # 70/30 split turns into 64 train (2 batches of 32) and 28 test.
    for subject in rng.choice(np.arange(1, 37), size=4, replace=False):
        length = 200 + 22 * 10
        ids = _bouts(rng, length, WISDM_LABELS)
        values = _signal(rng, ids, 3, 20.0)
        yield subject, subject, [WISDM_LABELS[i] for i in ids], values


def _pamap2_sessions(rng):
    # 8 subjects of 10 windows (512 samples at 33.3 Hz, step 113): 80
    # windows, split 56 train / 24 test. Each session holds exactly 3x its
    # decimated length of valid 100 Hz rows plus 1% NaN rows, which ingest
    # drops before decimation keeps every third row.
    for subject in range(101, 109):
        length = 3 * (512 + 9 * 113 + 56)
        ids = _bouts(rng, length, PAMAP2_LABELS)
        values = _signal(rng, ids, len(PAMAP2_CHANNELS), 100.0)
        n_nan = length // 100
        at = np.sort(rng.choice(np.arange(1, length), size=n_nan, replace=False))
        nan_rows = np.zeros((n_nan, values.shape[1]))
        nan_rows[np.arange(n_nan), rng.integers(0, values.shape[1], n_nan)] = np.nan
        values = np.insert(values, at, nan_rows, axis=0)
        ids = np.insert(ids, at, ids[at])
        yield subject, "protocol", [PAMAP2_LABELS[i] for i in ids], values


def make_inputs(workload, seed, src_dir, out_dir):
    """Write data.csv and config.json for `workload` into `out_dir`.

    The config is the bundled recipe with the data path, seed, workload
    batch and model overrides applied and one epoch per `train` call.
    Returns (config path, data rows written).
    """
    rng = np.random.default_rng([seed, 0xBE7C])
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "data.csv")
    if workload.recipe == "wisdm":
        rows = _write_csv(csv_path, 20.0, ["x_accel", "y_accel", "z_accel"],
                          _wisdm_sessions(rng))
    else:
        rows = _write_csv(csv_path, 100.0, PAMAP2_CHANNELS, _pamap2_sessions(rng))

    recipe_path = os.path.join(src_dir, "condcnn", "configs", f"{workload.recipe}.json")
    with open(recipe_path, encoding="utf-8") as fh:
        config = json.load(fh)
    config["dataset"]["canonical_csv"] = "data.csv"
    config["model"].update(workload.model_overrides)
    config["train"]["batch_size"] = workload.batch
    config["train"]["epochs"] = 1
    config["seed"] = seed
    config["output_dir"] = "run"
    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    return config_path, rows
