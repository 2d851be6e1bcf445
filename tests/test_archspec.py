"""Shorthand grammar, round-trips, and model building."""

import importlib.resources as resources
import json

import numpy as np
import pytest

from condcnn import archspec
from condcnn.archspec import ConvBlock, FullyConnected, SoftmaxHead
from condcnn.errors import ArchitectureError, ConfigError

BENCHMARK_STRINGS = [
    "C(64)-C(128)-C(384)-FC-Sm",
    "C(64)-C(128)-C(256)-FC-Sm",
    "C(128)-C(256)-C(384)-FC-Sm",
    "C(64)-C(64)-C(128)-C(128)-C(256)-Fc-Sm",
]


class TestParse:
    def test_three_conv_blocks(self):
        spec = archspec.parse_shorthand("C(64)-C(128)-C(384)-FC-Sm")
        assert spec.blocks == (
            ConvBlock(64), ConvBlock(128), ConvBlock(384), FullyConnected(), SoftmaxHead(),
        )

    def test_head_only_degenerate(self):
        spec = archspec.parse_shorthand("Sm")
        assert spec.blocks == (SoftmaxHead(),)

    def test_head_not_last_rejected(self):
        with pytest.raises(ConfigError, match="last"):
            archspec.parse_shorthand("C(64)-Sm-FC")

    def test_missing_head_rejected(self):
        with pytest.raises(ConfigError, match="exactly one Sm"):
            archspec.parse_shorthand("C(64)-FC")

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            archspec.parse_shorthand("   ")

    def test_unknown_token_reports_position(self):
        with pytest.raises(ConfigError, match="position 6"):
            archspec.parse_shorthand("C(64)-Q(3)-Sm")

    def test_case_insensitive_fc_and_whitespace(self):
        spec = archspec.parse_shorthand(" C(8) - fc - sm ")
        assert spec.blocks == (ConvBlock(8), FullyConnected(), SoftmaxHead())

    def test_zero_filters_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            archspec.parse_shorthand("C(0)-Sm")


class TestRoundTrip:
    @pytest.mark.parametrize("text", BENCHMARK_STRINGS)
    def test_benchmark_strings(self, text):
        spec = archspec.parse_shorthand(text)
        canonical = archspec.render_shorthand(spec)
        assert archspec.parse_shorthand(canonical) == spec
        # render o parse canonicalizes: "Fc" becomes "FC", idempotently
        assert archspec.render_shorthand(archspec.parse_shorthand(canonical)) == canonical

    def test_single_head(self):
        assert archspec.render_shorthand(archspec.parse_shorthand("Sm")) == "Sm"

    def test_random_specs_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            blocks = [ConvBlock(int(rng.integers(1, 512)))
                      for _ in range(rng.integers(0, 6))]
            if rng.random() < 0.8:
                blocks.append(FullyConnected())
            blocks.append(SoftmaxHead())
            spec = archspec.ModelSpec(blocks=tuple(blocks))
            assert archspec.parse_shorthand(archspec.render_shorthand(spec)) == spec

    def test_spec_dict_round_trip(self):
        spec = archspec.parse_shorthand(
            "C(8)-C(16)-FC-Sm", convs_per_block=3, kernel_length=7, n_experts=4,
            pool=((2, 2), None), head="pointwise-condconv",
            condconv_mask=(True, False, True, True, True, False, True),
            routing_activation="softmax", dropout_rate=0.25, pin_routing=True,
        )
        defaults = archspec.ModelSpec(blocks=spec.blocks)
        assert all(getattr(spec, f) != getattr(defaults, f) for f in archspec._RECORDED)
        assert archspec.spec_from_dict(archspec.spec_to_dict(spec)) == spec

    def test_bundled_wisdm_spec_record(self):
        text = resources.files("condcnn.configs").joinpath("wisdm.json").read_text()
        spec = archspec.spec_from_dict(json.loads(text)["model"])
        assert archspec.spec_to_dict(spec) == {
            "shorthand": "C(64)-C(128)-C(384)-FC-Sm",
            "convs_per_block": 2,
            "kernel_length": 5,
            "pool": [[2, 2], None, None],
            "n_experts": 8,
            "condconv_mask": None,
            "head": "pointwise-condconv",
            "routing_activation": "sigmoid",
            "dropout_rate": 0.5,
            "pin_routing": False,
        }

    @pytest.mark.parametrize("record,key", [
        ({"shorthand": "C(8)-FC-Sm", "n_expert": 8}, "n_expert"),
        ({"shorthand": "C(8)-FC-Sm", "blocks": []}, "blocks"),
        ({"n_experts": 8}, "shorthand"),
    ])
    def test_spec_dict_with_unknown_or_missing_key_rejected(self, record, key):
        with pytest.raises(ConfigError, match=key):
            archspec.spec_from_dict(record)


class TestSpecChecks:
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
    ])
    def test_bad_field_rejected_when_built(self, field, value, match):
        with pytest.raises(ConfigError, match=match):
            archspec.parse_shorthand("C(4)-C(8)-FC-Sm", **{field: value})

    def test_fc_placement_checked_without_a_shape(self):
        with pytest.raises(ArchitectureError, match="immediately before Sm"):
            archspec.ModelSpec(blocks=(FullyConnected(), ConvBlock(4), SoftmaxHead()))
        with pytest.raises(ArchitectureError, match="requires an FC block"):
            archspec.parse_shorthand("C(4)-Sm", head="pointwise-condconv")


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
            "C(2)-C(2)-C(2)-C(2)-Sm" + "", kernel_length=5, pool=(4, 4), convs_per_block=1,
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

    def test_bn_sits_between_conv_and_relu(self):
        from condcnn.condconv import CondConv
        from condcnn.layers import BatchNorm, ReLU, TemporalConv

        spec = archspec.parse_shorthand("C(4)-C(8)-FC-Sm", convs_per_block=2)
        model = archspec.build_model(spec, (20, 3), 4, seed=0)
        for i, layer in enumerate(model.layers):
            if isinstance(layer, (CondConv, TemporalConv)):
                assert isinstance(model.layers[i + 1], BatchNorm)
                assert isinstance(model.layers[i + 2], ReLU)

    def test_mixed_mask_builds_both_layer_kinds(self):
        from condcnn.condconv import CondConv
        from condcnn.layers import TemporalConv

        spec = archspec.parse_shorthand(
            "C(4)-C(8)-FC-Sm", convs_per_block=1, condconv_mask=(True, False),
        )
        model = archspec.build_model(spec, (16, 2), 3, seed=0)
        kinds = [type(l) for l in model.layers]
        assert CondConv in kinds and TemporalConv in kinds

    def test_head_only_spec_requires_matching_channels(self):
        spec = archspec.parse_shorthand("Sm")
        model = archspec.build_model(spec, (10, 4), 4, seed=0).eval()
        x = np.random.default_rng(4).normal(size=(3, 10, 4))
        assert model.forward(x).data.shape == (3, 4)
        with pytest.raises(ArchitectureError):
            archspec.build_model(spec, (10, 4), 6, seed=0)
