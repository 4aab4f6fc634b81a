"""Shared fixtures: the nine pattern models, loaded from tests/data."""

from __future__ import annotations

import pytest

from corpus import (  # noqa: F401  (re-exported: tests import these from conftest)
    DATA_DIR,
    FIXTURE_DSL,
    GUARD_READ_AS_SOURCE,
    JOIN_SPLIT_VARIANTS,
    JOIN_SPLITS,
    M1_DSL,
    OR_FED_JOINS,
    composed_models,
    join_split_model,
    or_fed_join_model,
)
from flowspec.dsl import parse_dsl


@pytest.fixture(scope="session")
def fixtures():
    return {name: parse_dsl(text, f"{name}.pml") for name, text in FIXTURE_DSL.items()}


def _single(name):
    @pytest.fixture(scope="session")
    def fixture(fixtures):
        return fixtures[name]

    fixture.__name__ = name
    return fixture


m1 = _single("m1")
m2 = _single("m2")
m3 = _single("m3")
m4 = _single("m4")
m5 = _single("m5")
m6 = _single("m6")
m7 = _single("m7")
m8 = _single("m8")
m9 = _single("m9")


@pytest.fixture(scope="session")
def generated_models():
    """40 generated models at the default limits, then 8 larger ones."""
    from flowspec.generator import GeneratorLimits, random_model

    large = GeneratorLimits(max_states=82, max_transitions=80)
    return [
        *(random_model(seed) for seed in range(40)),
        *(random_model(seed, large) for seed in range(8)),
    ]
