"""The package's export list, and the names it no longer has."""

from __future__ import annotations

import dataclasses

import pytest

import dived
from dived import curation, llm_client


def test_every_exported_name_resolves():
    assert len(dived.__all__) == len(set(dived.__all__))
    for name in dived.__all__:
        assert getattr(dived, name) is not None, name


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from dived import *", namespace)
    assert set(dived.__all__) <= set(namespace)


@pytest.mark.parametrize("name", ["curate_definitions", "curate_samples", "expand_definitions"])
def test_single_unit_wrappers_are_gone(name):
    assert name not in dived.__all__
    assert not hasattr(dived, name) and not hasattr(curation, name)


def test_removed_request_and_result_fields_are_gone():
    assert [f.name for f in dataclasses.fields(llm_client.GenRequest)] == ["template_id", "variables"]
    assert not hasattr(llm_client.GenRequest, "resolved_decoding")
    assert [f.name for f in dataclasses.fields(llm_client.GenResponse)] == ["text", "attempts"]
    assert [f.name for f in dataclasses.fields(llm_client.GenFailure)] == ["error", "attempts"]
    assert not hasattr(llm_client.Backend, "name") and not hasattr(llm_client.MockBackend(seed=1), "name")
