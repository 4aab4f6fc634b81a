"""The generator: pinned output bytes, checked limits and shared names."""

import dataclasses
import hashlib

import pytest

from flowspec.dsl import serialize_dsl
from flowspec.emit import MAX_CHOICE_BRANCHES, emit_feature
from flowspec.generator import GeneratorLimits, random_model

# sha256 of serialize_dsl(random_model(seed, limits)) for seeds 0-3.  The
# benchmark's inputs and many property tests are built from these models,
# so a change to the generator's draws or names must show up here.
DIGESTS = {
    None: (
        "2a4cf2fdbbce83ed17b7d2abae793cc1d05421067b183dfcbfc2dbbe929ae481",
        "c262c4fd365edaa990a7bc88c40791c8ecd002356fc791a5eff383e867cd7526",
        "e4a1a606eb5d94bc0f3958476ed3e7c2cdd39f497c1abe149db6782b953f69cc",
        "831713093650a6a37045aec734773cabea832d1b1dc309144a0de6eb094dd49c",
    ),
    (22, 20): (
        "aa3ae98be5bb4142e2f2a8559ecf4c89d93c80618e8f45ad0e287f61e6f1e788",
        "9829f29f3472b6abaeb05100fc7f4c82a9aa2e87d47bafe76e5b51867a3fb795",
        "8aa347b0c357e18a01a0ed242649179f301b42fed659c77900e4f804167dbb78",
        "1ceb4806ea335f6ebf8fb7d2ed9dd97f2c8f6806bb3b977d8309b42c72ff11e6",
    ),
    (162, 160): (
        "2416cae7e346cc1154813eab470ba828472da037ee572404472e43a6814467db",
        "97962dd839b9a2441412d89eadbce9fccd7abdebf2d7c19e70328e5cf798894c",
        "98baa6c0ae1787d059c506b0c92fae9370580af6d58cbe0959b414cc84e9f94b",
        "34b2e90a422340597b90fca1aede34a9e4161ba507cc4259bf54fb0b1a6561e4",
    ),
}


@pytest.mark.parametrize(
    "size, seed",
    [(size, seed) for size in DIGESTS for seed in range(4)],
    ids=lambda v: "default" if v is None else str(v),
)
def test_generated_model_bytes_are_pinned(size, seed):
    limits = GeneratorLimits(*size) if size else None
    text = serialize_dsl(random_model(seed, limits))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[size][seed]


@pytest.mark.parametrize(
    "limits, field",
    [
        *(
            pytest.param((3, 3, arity), "max_or_arity", id=str(arity))
            for arity in [-1, 0, 1, MAX_CHOICE_BRANCHES + 1, 12]
        ),
        pytest.param((0, 0), "max_states", id="0,0"),
        pytest.param((-5, -5), "max_states", id="-5,-5"),
        pytest.param((0, 3), "max_states", id="0,3"),
        pytest.param((3, 0), "max_transitions", id="3,0"),
        pytest.param((3, -5), "max_transitions", id="3,-5"),
    ],
)
def test_or_arity_out_of_range_is_rejected(limits, field):
    """Out-of-range arities, and sizes below one state or one transition,
    are rejected with the field's name (below them the generator would still
    build its first state and transition)."""
    with pytest.raises(ValueError, match=field):
        GeneratorLimits(*limits)


def test_narrowest_or_arity_generates():
    for seed in range(20):
        assert random_model(seed, GeneratorLimits(8, 8, 2)).transitions


def test_widest_or_split_still_emits():
    """At the upper bound, an or-split with MAX_CHOICE_BRANCHES guarded
    branches is generated and emission enumerates it."""
    limits = GeneratorLimits(60, 60, MAX_CHOICE_BRANCHES)
    widest = 0
    for seed in range(16):
        model = random_model(seed, limits)
        for t in model.transitions:
            if t.split_kind == "or":
                widest = max(widest, sum(1 for o in t.outputs if o.guard))
        emit_feature(model, "strict")
    assert widest == MAX_CHOICE_BRANCHES


def _strings(value, out):
    """Every string inside ``value``, through dataclass fields and tuples."""
    if isinstance(value, str):
        out.append(value)
    elif isinstance(value, tuple):
        for item in value:
            _strings(item, out)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _strings(getattr(value, f.name), out)
    return out


def test_generated_models_share_names():
    a, b = random_model(0), random_model(1)
    assert a.states[0].name is b.states[0].name
    big = [random_model(seed, GeneratorLimits(42, 40)) for seed in range(6)]
    first: dict[str, str] = {}
    for model in [a, b, *big]:
        for text in _strings((model.states, model.transitions), []):
            assert first.setdefault(text, text) is text, text
    # the walk reached composite children: dotted paths and their local names
    assert any("." in text for text in first)
