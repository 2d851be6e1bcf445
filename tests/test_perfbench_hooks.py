"""The benchmark's span tracer patches condcnn from outside; these tests
keep the names it patches in place and check that uninstalling it puts
every original back."""

import importlib.util
import inspect
from pathlib import Path

from condcnn import analysis, archspec, autodiff, condconv, data, layers, storage, training

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODS = {"autodiff": autodiff, "condconv": condconv, "layers": layers, "training": training,
        "archspec": archspec, "data": data, "storage": storage, "analysis": analysis}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    """Every attribute of the condcnn modules and of their classes, plus the
    routing activation table, which the tracer also patches."""
    owners = list(MODS.values())
    for module in MODS.values():
        owners += [c for _, c in inspect.getmembers(module, inspect.isclass)
                   if c.__module__ == module.__name__]
    snap = {(id(o), name): value for o in owners for name, value in vars(o).items()}
    snap["activations"] = dict(condconv.ROUTING_ACTIVATIONS)
    return snap


def test_install_patches_the_guarded_names_and_uninstall_restores_all():
    spans = load_spans()
    guarded = [(condconv, "route"), (condconv, "combine_kernels"),
               (analysis, "count_flops"), (analysis, "routing_stats")]
    for cls in spans.LAYER_CLASSES:
        guarded.append((getattr(condconv, cls, None) or getattr(layers, cls), "forward"))

    before = snapshot()
    originals = [vars(owner)[attr] for owner, attr in guarded]
    tracer = spans.Tracer()
    try:
        tracer.install(MODS, rows_per_ingest=0)
        for (owner, attr), original in zip(guarded, originals):
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr} not patched"
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]
               and after[key] != before[key]]
    assert not changed
