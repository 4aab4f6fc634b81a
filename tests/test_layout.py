"""Memory layout of the value types: slotted frozen dataclasses that still
pickle, copy and replace to equal values."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import flowspec
from flowspec.emit import emit_feature
from flowspec.replay import check_suite, explore

# Frozen dataclasses that keep a per-instance __dict__: a model must take
# weak references (weakref_slot needs Python 3.11), and a scenario keeps its
# cached_property value in its dict.
KEEP_DICT = {"flowspec.model.ProcessModel", "flowspec.feature.Scenario"}


def _frozen_dataclasses():
    for info in pkgutil.iter_modules(flowspec.__path__, "flowspec."):
        if info.name == "flowspec.__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (
                cls.__module__ == module.__name__
                and dataclasses.is_dataclass(cls)
                and cls.__dataclass_params__.frozen
            ):
                yield f"{cls.__module__}.{cls.__qualname__}", cls


def test_frozen_dataclasses_have_no_instance_dict():
    found = dict(_frozen_dataclasses())
    assert KEEP_DICT <= found.keys()
    assert len(found) > 20
    for name, cls in found.items():
        has_dict = any("__dict__" in vars(c) for c in cls.__mro__)
        assert has_dict == (name in KEEP_DICT), name
        assert ("__slots__" in vars(cls)) == (name not in KEEP_DICT), name


def _values(model):
    strict = emit_feature(model, "strict")
    paper = emit_feature(model, "paper_exact")
    yield model
    yield explore(model, 3)
    yield check_suite(model, strict, "strict")
    yield check_suite(model, paper, "paper_exact")


@pytest.mark.parametrize("name", [f"m{i}" for i in range(1, 10)])
def test_values_survive_pickle_deepcopy_and_replace(fixtures, name):
    for value in _values(fixtures[name]):
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value
        if dataclasses.is_dataclass(value):
            assert dataclasses.replace(value) == value
    model = fixtures[name]
    copied = pickle.loads(pickle.dumps(model))
    assert hash(copied) == hash(model)
    for t in model.transitions:
        assert dataclasses.replace(t, id="other") != t
        assert dataclasses.replace(dataclasses.replace(t, id="other"), id=t.id) == t
    for run in explore(model, 3):
        for step in run:
            assert dataclasses.replace(step) == step
            assert hash(copy.deepcopy(step.after)) == hash(step.after)
