"""Exactness fingerprints: one seeded training step per bundled recipe.

Each case builds a recipe's model at its channel counts and kernel shapes
on a few short seeded windows, takes one training step (forward, loss,
backward, Adam) and then one eval forward. Its fingerprint holds the
loss, every gradient, every parameter and running statistic after Adam,
and the eval logits, twice over:

- "sha256" of the exact bytes, which holds only on the same numpy, BLAS
  build and CPU features ("stamp"); bit equality across platforms is not
  promised;
- per array, its L1 norm and a fixed weighted sum ("values"), which any
  platform reproduces within `RTOL` of the L1 norm.

`tests/fingerprints.json` holds the recorded fingerprints, and
`tests/test_fingerprint.py` compares this checkout against them. A change
that alters the numbers on purpose re-records them and says so.

    python tests/fingerprint.py            # print this checkout's fingerprints
    python tests/fingerprint.py --write    # re-record tests/fingerprints.json
"""

import hashlib
import json
import os
import platform
import sys
from importlib import resources

import numpy as np

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fingerprints.json")
RTOL = 1e-12
TRAIN_BATCH, EVAL_BATCH, WINDOW = 12, 3, 16

# case -> (recipe, input channels, model overrides)
CASES = {
    "wisdm": ("wisdm", 3, {}),
    "wisdm-n1": ("wisdm", 3, {"n_experts": 1, "pin_routing": True}),
    "pamap2": ("pamap2", 27, {}),
    "unimib": ("unimib", 3, {}),
    "opportunity": ("opportunity", 113, {}),
}


def stamp():
    """What must match for the sha256 level to apply."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 cannot report it
        blas = "unknown"
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    features = ",".join(sorted(k for k, on in __cpu_features__.items() if on))
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine(),
            "cpu_features": hashlib.sha256(features.encode()).hexdigest()[:16]}


def _step(case):
    """The case's named arrays after one training step and one eval."""
    from condcnn import archspec, training
    from condcnn import autodiff as ad

    recipe, channels, overrides = CASES[case]
    config = json.loads(
        resources.files("condcnn.configs").joinpath(f"{recipe}.json").read_text())
    spec = archspec.spec_from_dict({**config["model"], **overrides})
    classes = config["dataset"]["classes"]
    model = archspec.build_model(spec, (WINDOW, channels), classes, seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(TRAIN_BATCH, WINDOW, channels))
    y = rng.integers(0, classes, size=TRAIN_BATCH)
    x_eval = rng.normal(size=(EVAL_BATCH, WINDOW, channels))

    adam = training.Adam(model.named_params())
    model.train()
    model.zero_grad()
    loss = ad.softmax_cross_entropy(model.logits(ad.Tensor(x), rng=rng), y)
    loss.backward()
    arrays = {"loss": loss.data}
    arrays.update((f"grad.{k}", p.grad) for k, p in model.named_params().items())
    adam.step(1e-3)
    arrays.update((f"param.{k}", p.data) for k, p in model.named_params().items())
    arrays.update((f"buffer.{k}", v) for k, v in model.named_buffers().items())
    with model.inference():
        arrays["eval_logits"] = model.logits(ad.Tensor(x_eval)).data
    return arrays


def fingerprint(case):
    arrays = _step(case)
    digest = hashlib.sha256()
    values = {}
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name], dtype=np.float64)
        digest.update(name.encode())
        digest.update(a.tobytes())
        weights = np.arange(a.size) % 7 - 3.0
        values[name] = [float(np.abs(a).sum()), float((a.reshape(-1) * weights).sum())]
    return {"sha256": digest.hexdigest(), "values": values}


def fingerprints():
    return {"stamp": stamp(), "cases": {case: fingerprint(case) for case in CASES}}


if __name__ == "__main__":
    result = fingerprints()
    if sys.argv[1:] == ["--write"]:
        with open(RECORD, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        json.dump(result, sys.stdout, indent=1, sort_keys=True)
        print()
