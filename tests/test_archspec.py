"""Shorthand grammar, round-trips, and model building."""

import hashlib
import importlib.resources as resources
import itertools
import json
import threading
import time

import numpy as np
import pytest

from condcnn import archspec
from condcnn.errors import ArchitectureError, ConfigError
from helpers import set_workers

BENCHMARK_STRINGS = [
    "C(64)-C(128)-C(384)-FC-Sm",
    "C(64)-C(128)-C(256)-FC-Sm",
    "C(128)-C(256)-C(384)-FC-Sm",
    "C(64)-C(64)-C(128)-C(128)-C(256)-Fc-Sm",
]


class TestParse:
    def test_three_conv_blocks(self):
        spec = archspec.parse_shorthand("C(64)-C(128)-C(384)-FC-Sm")
        assert spec.filters == (64, 128, 384)

    def test_no_conv_blocks(self):
        assert archspec.parse_shorthand("FC-Sm").filters == ()

    def test_head_not_last_rejected(self):
        with pytest.raises(ConfigError, match="must end in FC-Sm"):
            archspec.parse_shorthand("C(64)-Sm-FC")

    def test_missing_head_rejected(self):
        with pytest.raises(ConfigError, match="must end in FC-Sm"):
            archspec.parse_shorthand("C(64)-FC")

    @pytest.mark.parametrize("text", ["Sm", "C(4)-Sm", "FC-C(4)-Sm", "FC"])
    def test_text_not_ending_in_fc_sm_rejected(self, text):
        with pytest.raises(ConfigError, match="must end in FC-Sm"):
            archspec.parse_shorthand(text)

    def test_fc_among_conv_blocks_rejected(self):
        with pytest.raises(ConfigError, match="unknown block 'FC' at position 5"):
            archspec.parse_shorthand("C(4)-FC-FC-Sm")

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            archspec.parse_shorthand("   ")

    def test_unknown_token_reports_position(self):
        with pytest.raises(ConfigError, match="position 6"):
            archspec.parse_shorthand("C(64)-Q(3)-FC-Sm")

    def test_case_insensitive_fc_and_whitespace(self):
        spec = archspec.parse_shorthand(" C(8) - fc - sm ")
        assert spec.filters == (8,)

    def test_zero_filters_rejected(self):
        with pytest.raises(ConfigError, match="filters must be an integer >= 1, got 0"):
            archspec.parse_shorthand("C(0)-FC-Sm")

    def test_spec_built_directly_checks_its_widths(self):
        with pytest.raises(ConfigError, match="filters must be an integer >= 1, got 0"):
            archspec.ModelSpec(filters=(4, 0))


class TestRoundTrip:
    @pytest.mark.parametrize("text", BENCHMARK_STRINGS)
    def test_benchmark_strings(self, text):
        spec = archspec.parse_shorthand(text)
        canonical = archspec.render_shorthand(spec)
        assert archspec.parse_shorthand(canonical) == spec
        # render o parse canonicalizes: "Fc" becomes "FC", idempotently
        assert archspec.render_shorthand(archspec.parse_shorthand(canonical)) == canonical

    def test_random_specs_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            filters = tuple(int(rng.integers(1, 512)) for _ in range(rng.integers(0, 6)))
            spec = archspec.ModelSpec(filters=filters)
            assert archspec.parse_shorthand(archspec.render_shorthand(spec)) == spec

    def test_spec_dict_round_trip(self):
        spec = archspec.parse_shorthand(
            "C(8)-C(16)-FC-Sm", convs_per_block=3, kernel_length=7, n_experts=4,
            pool=((2, 2), None), head="pointwise-condconv",
            condconv_mask=(True, False, True, True, True, False, True),
            routing_activation="softmax", dropout_rate=0.25, pin_routing=True,
        )
        defaults = archspec.ModelSpec(filters=spec.filters)
        assert all(getattr(spec, f) != getattr(defaults, f) for f in archspec._RECORDED)
        assert archspec.spec_from_dict(archspec.spec_to_dict(spec)) == spec

    @pytest.mark.parametrize("name", ["wisdm", "pamap2", "unimib", "opportunity"])
    def test_bundled_spec_record(self, name):
        text = resources.files("condcnn.configs").joinpath(f"{name}.json").read_text()
        model = json.loads(text)["model"]
        record = archspec.spec_to_dict(archspec.spec_from_dict(model))
        assert record == dict(model, pin_routing=False)

    @pytest.mark.parametrize("record,key", [
        ({"shorthand": "C(8)-FC-Sm", "n_expert": 8}, "n_expert"),
        ({"shorthand": "C(8)-FC-Sm", "blocks": []}, "blocks"),
        ({"n_experts": 8}, "shorthand"),
    ])
    def test_spec_dict_with_unknown_or_missing_key_rejected(self, record, key):
        with pytest.raises(ConfigError, match=key):
            archspec.spec_from_dict(record)


class TestSpecChecks:
    @pytest.mark.parametrize("text", [5, None, ["C(4)", "FC", "Sm"]])
    def test_shorthand_that_is_not_a_string_rejected(self, text):
        with pytest.raises(ConfigError, match="shorthand must be a string"):
            archspec.parse_shorthand(text)

    @pytest.mark.parametrize("field,value,match", [
        ("convs_per_block", 0, "convs_per_block"),
        ("kernel_length", 0, "kernel_length"),
        ("n_experts", 0, "n_experts"),
        ("n_experts", 1.5, "n_experts"),
        ("head", "bogus", "head"),
        ("routing_activation", "swish", "routing activation"),
        ("dropout_rate", 1.0, "dropout_rate"),
        ("dropout_rate", "0.5", "dropout_rate"),
        ("pool", (2, 0), "pool stride"),
        ("pool", ((0, 2), None), "pool size"),
        ("pool", 2, "pair"),
        ("pin_routing", "yes", "pin_routing"),
        ("pin_routing", 1, "pin_routing"),
        ("condconv_mask", 5, "condconv_mask"),
        ("condconv_mask", (1, 0, 1, 0), "condconv_mask"),
    ])
    def test_bad_field_rejected_when_built(self, field, value, match):
        with pytest.raises(ConfigError, match=match):
            archspec.parse_shorthand("C(4)-C(8)-FC-Sm", **{field: value})


class TestBuildModel:
    def test_benchmark_model_output_shape(self):
        spec = archspec.parse_shorthand(
            "C(64)-C(128)-C(384)-FC-Sm", head="pointwise-condconv", n_experts=2,
        )
        model = archspec.build_model(spec, (200, 3), 6, seed=0).eval()
        x = np.random.default_rng(1).normal(size=(2, 200, 3))
        assert model.forward(x).data.shape == (2, 6)

    def test_deep_spec_builds_with_many_classes(self):
        spec = archspec.parse_shorthand(
            "C(4)-C(4)-C(8)-C(8)-C(16)-Fc-Sm", convs_per_block=1, kernel_length=3,
        )
        model = archspec.build_model(spec, (64, 113), 18, seed=0).eval()
        x = np.random.default_rng(2).normal(size=(2, 64, 113))
        assert model.forward(x).data.shape == (2, 18)

    def test_pinned_single_expert_matches_plain_cnn_bitwise(self):
        base = dict(convs_per_block=1, kernel_length=3, n_experts=1)
        cond = archspec.parse_shorthand("C(4)-C(8)-FC-Sm", pin_routing=True, **base)
        plain = archspec.parse_shorthand(
            "C(4)-C(8)-FC-Sm", condconv_mask=(False, False), **base
        )
        m_cond = archspec.build_model(cond, (20, 3), 4, seed=7).eval()
        m_plain = archspec.build_model(plain, (20, 3), 4, seed=7).eval()
        x = np.random.default_rng(3).normal(size=(5, 20, 3))
        np.testing.assert_array_equal(
            m_cond.forward(x).data, m_plain.forward(x).data
        )

    def test_temporal_collapse_names_block(self):
        spec = archspec.parse_shorthand(
            "C(2)-C(2)-C(2)-C(2)-FC-Sm", kernel_length=5, pool=(4, 4), convs_per_block=1,
        )
        with pytest.raises(ArchitectureError, match="block"):
            archspec.build_model(spec, (16, 2), 2, seed=0)

    # the spec checks its shape-independent fields itself, before any build
    def test_mask_length_validated(self):
        with pytest.raises(ConfigError, match="mask"):
            archspec.parse_shorthand("C(4)-FC-Sm", condconv_mask=(True,))

    def test_mask_cannot_turn_off_pointwise_head(self):
        with pytest.raises(ConfigError, match='head.*use head "dense"'):
            archspec.parse_shorthand(
                "C(4)-FC-Sm", head="pointwise-condconv", condconv_mask=(True, True, False),
            )

    @pytest.mark.parametrize("pool", [((2, 2),), ((2, 2), None, None)])
    def test_per_block_pool_length_validated(self, pool):
        with pytest.raises(ConfigError, match="pool has .* 2 conv blocks"):
            archspec.parse_shorthand("C(4)-C(8)-FC-Sm", pool=pool)

    @pytest.mark.parametrize("pool", [(), (2,), ((2,), None)])
    def test_pool_must_be_size_stride_pairs(self, pool):
        with pytest.raises(ConfigError, match="pair"):
            archspec.parse_shorthand("C(4)-C(8)-FC-Sm", pool=pool)

    def test_exactly_one_dropout_before_classifier(self):
        from condcnn.layers import Dropout, Softmax

        for head in ("dense", "pointwise-condconv"):
            spec = archspec.parse_shorthand("C(4)-FC-Sm", head=head)
            model = archspec.build_model(spec, (16, 2), 3, seed=0)
            drops = [i for i, l in enumerate(model.layers) if isinstance(l, Dropout)]
            assert len(drops) == 1
            # dropout feeds the classifier, which feeds softmax
            assert isinstance(model.layers[-1], Softmax)
            assert drops[0] == len(model.layers) - 3

    def test_each_conv_feeds_a_batch_norm_that_applies_relu(self):
        from condcnn.condconv import CondConv
        from condcnn.layers import BatchNorm, ReLU, TemporalConv

        spec = archspec.parse_shorthand("C(4)-C(8)-FC-Sm", convs_per_block=2)
        model = archspec.build_model(spec, (20, 3), 4, seed=0)
        for i, layer in enumerate(model.layers):
            if isinstance(layer, (CondConv, TemporalConv)):
                assert isinstance(model.layers[i + 1], BatchNorm)
                assert model.layers[i + 1].relu
        assert not any(isinstance(layer, ReLU) for layer in model.layers)

    def test_mixed_mask_builds_both_layer_kinds(self):
        from condcnn.condconv import CondConv
        from condcnn.layers import TemporalConv

        spec = archspec.parse_shorthand(
            "C(4)-C(8)-FC-Sm", convs_per_block=1, condconv_mask=(True, False),
        )
        model = archspec.build_model(spec, (16, 2), 3, seed=0)
        kinds = [type(l) for l in model.layers]
        assert CondConv in kinds and TemporalConv in kinds


def _bundled_spec(name, **overrides):
    text = resources.files("condcnn.configs").joinpath(f"{name}.json").read_text()
    return archspec.spec_from_dict({**json.loads(text)["model"], **overrides})


# (recipe, model overrides) -> (T, C, classes) of the recipe's data
INIT_CASES = {
    "wisdm": ({}, (200, 3, 6)),
    "pamap2": ({}, (512, 27, 12)),
    "unimib": ({}, (151, 3, 17)),
    "opportunity": ({}, (64, 113, 18)),
    "wisdm-pinned-one-expert": ({"n_experts": 1, "pin_routing": True}, (200, 3, 6)),
    "wisdm-mixed-mask": ({"condconv_mask": [True, False, False, True, True, False, True]},
                         (200, 3, 6)),
}


def _init_case(case):
    overrides, (t, channels, classes) = INIT_CASES[case]
    return _bundled_spec(case.split("-")[0], **overrides), (t, channels), classes


def _digest(model):
    """Hash of every parameter's shape and bytes, in layer order."""
    digest = hashlib.sha256()
    for layer in model.layers:
        for name, param in sorted(layer.params().items()):
            digest.update(f"{layer.name}.{name}{param.data.shape}".encode())
            digest.update(param.data.tobytes())
    return digest.hexdigest()


def _serial_digest(monkeypatch, spec, input_shape, classes, seed):
    """`_digest` of the model whose i-th randomly initialized layer draws
    each array on the spot with `Generator.normal` from its own stream
    `default_rng([seed, _LAYER_STREAM, i])`, one layer after another on
    the calling thread, leaving the fill nothing to draw."""
    layer = itertools.count()

    class SerialDraws(archspec._Draws):
        def __init__(self):
            super().__init__()
            self.rng = np.random.default_rng([seed, archspec._LAYER_STREAM, next(layer)])

        def normal(self, loc, scale, size):
            return self.rng.normal(loc, scale, size)

    with monkeypatch.context() as patch:
        patch.setattr(archspec, "_Draws", SerialDraws)
        return _digest(archspec.build_model(spec, input_shape, classes, seed=seed))


@pytest.mark.invariance
class TestInitFill:
    @pytest.mark.parametrize("case", list(INIT_CASES))
    def test_bitwise_serial_draws_at_any_worker_count(self, monkeypatch, case):
        spec, input_shape, classes = _init_case(case)
        serial = _serial_digest(monkeypatch, spec, input_shape, classes, seed=3)
        for workers in (1, 2, 3):
            set_workers(monkeypatch, workers)
            model = archspec.build_model(spec, input_shape, classes, seed=3)
            assert _digest(model) == serial, workers

    def test_layers_go_largest_first_to_the_least_loaded_bin(self, monkeypatch):
        spec, input_shape, classes = _init_case("wisdm")
        set_workers(monkeypatch, 2)
        filled = {}
        fill = archspec._Draws.fill

        def record(draws, rng):
            filled.setdefault(threading.get_ident(), []).append(draws.size())
            fill(draws, rng)

        monkeypatch.setattr(archspec._Draws, "fill", record)
        archspec.build_model(spec, input_shape, classes)
        calling, helper = filled.pop(threading.get_ident()), *filled.values()
        # the 5.9 M-value b2.conv1 alone bounds the fill; the rest go to the helper
        assert calling == [8 * 5 * 384 * 384 + 384 * 8]
        assert helper == sorted(helper, reverse=True) and len(helper) == 6

    def test_no_generator_without_the_fill(self, monkeypatch):
        spec, input_shape, classes = _init_case("wisdm")

        def refuse(*args, **kwargs):
            raise AssertionError("a generator was constructed")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        model = archspec.build_model(spec, input_shape, classes, seed=3, draw_init=False)
        assert model.meta["seed"] == 3

    def test_no_thread_outlives_a_build(self, monkeypatch):
        spec, input_shape, classes = _init_case("wisdm")
        set_workers(monkeypatch, 3)
        before = threading.active_count()
        archspec.build_model(spec, input_shape, classes)
        assert threading.active_count() == before

    def test_fill_error_reaches_the_caller_after_every_helper_joined(self, monkeypatch):
        spec, input_shape, classes = _init_case("wisdm")
        set_workers(monkeypatch, 3)
        started, finished = [], []
        failing = threading.Lock()  # the first helper thread to take it fails
        fill = archspec._Draws.fill

        def fill_or_fail(draws, rng):
            started.append(draws)
            if (threading.current_thread() is not threading.main_thread()
                    and failing.acquire(blocking=False)):
                raise RuntimeError("fill failed")
            time.sleep(0.05)
            fill(draws, rng)
            finished.append(draws)

        monkeypatch.setattr(archspec._Draws, "fill", fill_or_fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="fill failed"):
            archspec.build_model(spec, input_shape, classes)
        assert threading.active_count() == before
        assert len(finished) == len(started) - 1
