"""The same-bytes manifest (``manifest.py``): no output of its corpus has
moved, and a one-byte change in emission, in ``serialize_dsl`` or in the
``check --json`` writer moves that output of every fixture."""

import dataclasses

import pytest

import manifest
from flowspec import dsl, emit, replay


def test_no_output_moved():
    assert manifest.moved(manifest.digests(), manifest.committed()) == []


def _retitled(emit_feature):
    def planted(model, mode="paper_exact"):
        doc = emit_feature(model, mode)
        return dataclasses.replace(doc, title=doc.title + "x")

    return planted


@pytest.mark.parametrize(
    "owner, name, plant, output",
    [
        pytest.param(emit, "emit_feature", _retitled, "feature", id="emission"),
        pytest.param(dsl, "serialize_dsl", lambda f: lambda model: f(model) + "\n", "dsl", id="serialize_dsl"),
        pytest.param(
            replay.CheckReport,
            "to_json_text",
            lambda f: lambda report: f(report).replace(":", " :", 1),
            "check",
            id="json writer",
        ),
    ],
)
def test_a_one_byte_change_moves_keys(monkeypatch, owner, name, plant, output):
    monkeypatch.setattr(owner, name, plant(getattr(owner, name)))
    got = manifest.digests(manifest.fixture_models())
    expected = {key: outs for key, outs in manifest.committed().items() if key in got}
    keys = manifest.moved(got, expected)
    planted = [
        f"{key}: {out}" for key, outs in got.items() for out in outs
        if out.split()[-1] == output
    ]
    assert len(planted) >= 18
    assert set(planted) <= set(keys)
