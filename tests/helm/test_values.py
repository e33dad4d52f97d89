"""Unit tests for values merging, paths, loading and dumping."""

import pytest

from repro.helm import (
    ValuesError,
    deep_merge,
    dump_values,
    get_path,
    load_values,
    set_path,
)


class TestDeepMerge:
    def test_nested_mappings_are_merged(self):
        base = {"service": {"port": 80, "type": "ClusterIP"}}
        override = {"service": {"port": 8080}}
        merged = deep_merge(base, override)
        assert merged == {"service": {"port": 8080, "type": "ClusterIP"}}

    def test_lists_are_replaced_not_merged(self):
        merged = deep_merge({"ports": [80, 443]}, {"ports": [8080]})
        assert merged["ports"] == [8080]

    def test_merge_does_not_mutate_inputs(self):
        base = {"a": {"b": 1}}
        deep_merge(base, {"a": {"c": 2}})
        assert base == {"a": {"b": 1}}

    def test_scalar_replaces_mapping(self):
        assert deep_merge({"a": {"b": 1}}, {"a": 5}) == {"a": 5}

    def test_new_keys_are_added(self):
        assert deep_merge({"a": 1}, {"b": 2}) == {"a": 1, "b": 2}


class TestPaths:
    def test_get_path_nested(self):
        values = {"primary": {"service": {"ports": {"mysql": 3306}}}}
        assert get_path(values, "primary.service.ports.mysql") == 3306

    def test_get_path_missing_returns_default(self):
        assert get_path({}, "a.b.c", default="x") == "x"

    def test_get_path_empty_returns_whole_mapping(self):
        values = {"a": 1}
        assert get_path(values, "") == values

    def test_set_path_creates_intermediate_dicts(self):
        values = {}
        set_path(values, "networkPolicy.enabled", True)
        assert values == {"networkPolicy": {"enabled": True}}

    def test_set_path_overwrites_scalar_intermediate(self):
        values = {"a": 5}
        set_path(values, "a.b", 1)
        assert values == {"a": {"b": 1}}

    def test_set_path_empty_raises(self):
        with pytest.raises(ValuesError):
            set_path({}, "", 1)


class TestLoadDump:
    def test_load_values_parses_yaml(self):
        assert load_values("a:\n  b: 1\n") == {"a": {"b": 1}}

    def test_load_values_empty_document(self):
        assert load_values("") == {}

    def test_load_values_non_mapping_raises(self):
        with pytest.raises(ValuesError):
            load_values("- item\n")

    def test_load_values_invalid_yaml_raises(self):
        with pytest.raises(ValuesError):
            load_values("a: [unclosed")

    def test_dump_values_round_trip(self):
        values = {"b": 2, "a": {"nested": True}}
        assert load_values(dump_values(values)) == values
