"""Memory layout of the value types: slotted frozen dataclasses that still
pickle, copy and replace to equal values, built by the ``__init__`` that
``flowspec.values.value_type`` installs."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import flowspec
from flowspec.emit import emit_feature
from flowspec.feature import ActionSeq, Scenario, Step, format_feature, parse_feature
from flowspec.generator import GeneratorLimits
from flowspec.replay import check_suite, explore
from flowspec.values import derived, value_type

# Frozen dataclasses that keep a per-instance __dict__: none.
KEEP_DICT: set[str] = set()


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


VALUE_TYPES = dict(sorted(_frozen_dataclasses()))


def test_frozen_dataclasses_have_no_instance_dict():
    found = VALUE_TYPES
    assert KEEP_DICT <= found.keys()
    assert len(found) > 20
    for name, cls in found.items():
        has_dict = any("__dict__" in vars(c) for c in cls.__mro__)
        assert has_dict == (name in KEEP_DICT), name
        assert ("__slots__" in vars(cls)) == (name not in KEEP_DICT), name


def _twin(cls):
    """A class made by plain ``dataclasses.dataclass`` from the fields of
    ``cls``, with the generated ``__init__``."""
    spec = [
        (f.name, f.type, dataclasses.field(default=f.default, init=f.init, compare=f.compare))
        if f.default is not dataclasses.MISSING
        else (f.name, f.type, dataclasses.field(init=f.init, compare=f.compare))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


@pytest.mark.parametrize("cls", VALUE_TYPES.values(), ids=lambda cls: cls.__name__)
def test_value_types_build_like_their_plain_dataclass_twin(cls):
    twin = _twin(cls)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert cls.__init__.__name__ == "__init__"
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    # the fields are stored without object.__setattr__, which the generated
    # __init__ reads as __dataclass_builtins_object__
    code = cls.__init__.__code__
    assert "__dataclass_builtins_object__" not in code.co_names + code.co_freevars
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    required = [None for p in inspect.signature(cls).parameters.values() if p.default is p.empty]
    value = cls(*required)
    assert [getattr(value, n) for n in names] == [getattr(twin(*required), n) for n in names]
    assert value == cls(*required) and hash(value) == hash(cls(*required))
    for n in (f.name for f in dataclasses.fields(cls)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, n, 1)


def test_no_value_type_reads_attributes_through_getattr():
    # a class __getattr__ would slow every attribute read of its instances
    for name, cls in VALUE_TYPES.items():
        assert not any("__getattr__" in vars(c) for c in cls.__mro__ if c is not object), name


TALLIED: list[tuple[int, ...]] = []


@value_type
class _Tally:
    items: tuple[int, ...]
    total: int = derived(lambda tally: TALLIED.append(tally.items) or sum(tally.items))


def test_derived_fields_are_computed_once_per_value_from_its_own_fields():
    TALLIED.clear()
    tally = _Tally((1, 2))
    assert TALLIED == []  # nothing is computed until read
    assert tally.total == 3 and tally.total == 3
    assert TALLIED == [(1, 2)]
    assert dataclasses.replace(tally, items=(5,)).total == 5
    for copied in (dataclasses.replace(tally), pickle.loads(pickle.dumps(tally)), copy.deepcopy(tally)):
        TALLIED.clear()
        assert copied == tally and copied.total == 3
        assert TALLIED == [(1, 2)]  # the copy computed its own
    with pytest.raises(dataclasses.FrozenInstanceError):
        tally.total = 4
    assert tally.total == 3 and "total" not in repr(tally)
    # a scenario's views, the one derived field in the library
    scenario = Scenario("s", (Step("Given", "S1"), Step("When", "e1"), Step("Then", "a1; a2 AND S2")))
    views = scenario.views
    for copied in (dataclasses.replace(scenario), pickle.loads(pickle.dumps(scenario)), copy.deepcopy(scenario)):
        assert copied.views == views and copied.then == (ActionSeq(("a1", "a2")), ActionSeq(("S2",)))


def test_value_types_keep_post_init_and_reject_other_fields():
    with pytest.raises(ValueError, match="max_states must be at least 1"):
        GeneratorLimits(0, 5)
    with pytest.raises(ValueError, match="max_or_arity"):
        dataclasses.replace(GeneratorLimits(), max_or_arity=1)
    with pytest.raises(TypeError, match="not a plain positional field"):

        @value_type
        class Bag:
            items: list = dataclasses.field(default_factory=list)


def _values(model):
    strict = emit_feature(model, "strict")
    paper = emit_feature(model, "paper_exact")
    yield model
    yield explore(model, 3)
    yield check_suite(model, strict, "strict")
    yield check_suite(model, paper, "paper_exact")
    doc = parse_feature(format_feature(strict))
    for scenario in doc.scenarios:
        assert scenario.structured  # its views are built
    yield doc


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
