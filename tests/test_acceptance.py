"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import io
import itertools
import random
import re

import pytest

from flowspec.canon import canonical_form
from flowspec.cli import run as cli_run
from flowspec.dsl import parse_dsl
from flowspec.emit import emit_feature, enumerate_choice_subsets
from flowspec.feature import Scenario, Step, format_feature, parse_feature
from flowspec.generator import random_model
from flowspec.infer import infer_model
from flowspec.model import namespaces
from flowspec.patterns import lint
from flowspec.replay import check_suite, replay_scenario
from flowspec.skeletons import emit_skeletons

from conftest import (
    DATA_DIR,
    GUARD_READ_AS_SOURCE,
    JOIN_SPLIT_VARIANTS,
    JOIN_SPLITS,
    OR_FED_JOINS,
    join_split_model,
    or_fed_join_model,
)
from gwt_texts import PATTERN_GOLDENS, SPECIAL_CASES_GWT, gwt_lines, normalize_block, pattern_lines
from test_dot import assert_well_formed, counts, expected_counts

CORPUS_SIZE = 200


@pytest.fixture(scope="module")
def corpus(fixtures):
    models = list(fixtures.values())
    models.extend(random_model(seed) for seed in range(CORPUS_SIZE))
    models.extend(
        join_split_model(join, split, variant)
        for variant in JOIN_SPLIT_VARIANTS
        for join, split in JOIN_SPLITS
        if variant != "guarded" or (join, split) not in GUARD_READ_AS_SOURCE
    )
    models.extend(or_fed_join_model(join, target) for join, target in OR_FED_JOINS)
    return models


def criterion(n, message):
    """Print one PASS/FAIL line per criterion, then let pytest report."""

    def decorate(fn):
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n} FAIL: {message}")
                raise
            print(f"ACCEPTANCE {n} PASS: {message}")

        return wrapper

    return decorate


@criterion(1, "paper-exact emission reproduces the eight pattern shapes and every special-case row")
def test_criterion_1_golden_reproduction(fixtures):
    for key in sorted(PATTERN_GOLDENS):
        got, want = pattern_lines(fixtures[key], key)
        assert got == want, key
    doc = emit_feature(fixtures["m9"], "paper_exact")
    rows = normalize_block(SPECIAL_CASES_GWT)
    assert gwt_lines(doc) == rows
    assert len(doc.scenarios) * 3 == len(rows)


@criterion(2, "the reference scenario yields the exact step patterns and slugs")
def test_criterion_2_skeleton_fidelity():
    text = (
        "Scenario: server is available\n"
        '  Given there is a resource at "http://localhost:8081/myresource"\n'
        "  When I request this resource as raw\n"
        "  Then the response code is 200\n"
    )
    skeletons = emit_skeletons(parse_feature(text))
    assert [(s.pattern, s.slug) for s in skeletons] == [
        ('Given there is a resource at "(.*)"', "given_there_is_a_resource_at_group1"),
        ("When I request this resource as raw", "when_i_request_this_resource_as_raw"),
        ("Then the response code is 200", "then_the_response_code_is_200"),
    ]


@criterion(3, "strict emit/parse/infer/emit is a fixpoint with isomorphic models on the fixtures, 200 generated models, 30 join-and-split models and 8 or-fed joins")
def test_criterion_3_round_trip(corpus):
    for i, model in enumerate(corpus):
        doc = emit_feature(model, "strict")
        text = format_feature(doc, "gherkin")
        inferred, diags = infer_model(parse_feature(text))
        errors = [d for d in diags if d.severity == "error"]
        assert errors == [], (i, errors)
        assert canonical_form(inferred) == canonical_form(model), i
        again = format_feature(emit_feature(inferred, "strict"), "gherkin")
        assert again == text, i


def _mutate_then(scenario: Scenario, model, rng) -> Scenario:
    then_index, then_step = next(
        (i, s) for i, s in enumerate(scenario.steps) if s.keyword == "Then"
    )
    atoms = re.findall(r"[A-Za-z0-9_.]+", then_step.text)
    victim = atoms[0]
    spaces = namespaces(model)
    states = spaces["state"] - {model.initial_name, model.final_name}
    pool = sorted((spaces["action"] | states) - {victim})
    replacement = pool[rng.randrange(len(pool))]
    mutated = re.sub(rf"\b{re.escape(victim)}\b", replacement, then_step.text, count=1)
    steps = list(scenario.steps)
    steps[then_index] = Step("Then", mutated)
    return Scenario(scenario.name, tuple(steps))


@criterion(4, "strict scenarios replay green with coverage 1.0; every seeded THEN mutation flips to failed")
def test_criterion_4_replay_coherence(corpus):
    rng = random.Random(99)
    mutations = 0
    for i, model in enumerate(corpus):
        doc = emit_feature(model, "strict")
        report = check_suite(model, doc, "strict")
        assert report.passed, (i, [v for v in report.verdicts if not v[1].passed])
        assert report.coverage == 1.0, i
        scenario = doc.scenarios[rng.randrange(len(doc.scenarios))]
        mutated = _mutate_then(scenario, model, rng)
        assert mutated != scenario
        verdict = replay_scenario(model, mutated, "strict")
        assert not verdict.passed, (i, scenario.name)
        mutations += 1


@criterion(5, "or-splits with n guarded branches yield exactly 2^n - 1 scenarios for n in 1..4")
def test_criterion_5_choice_enumeration():
    expected = {1: 1, 2: 3, 3: 7, 4: 15}
    for n, count in expected.items():
        subsets = enumerate_choice_subsets([f"g{i}" for i in range(n)])
        assert len(subsets) == count, n
    assert expected[2] == 3  # a two-guard choice yields exactly three scenarios


def _random_guard_family(rng):
    n_atoms = rng.randint(2, 6)
    atoms = [f"g{i}" for i in range(1, n_atoms + 1)]
    branches = []
    for _ in range(rng.randint(2, 4)):
        picked = rng.sample(atoms, rng.randint(1, min(3, n_atoms)))
        branches.append(tuple((a, rng.random() < 0.5) for a in picked))
    return branches


def _family_model(branches):
    states = "\n".join(f"  state T{i}" for i in range(len(branches)))
    trans = "\n".join(
        "  trans c{i} {{ from S1 if {guard} do x{i} to T{i} }}".format(
            i=i,
            guard=" and ".join(("not " if neg else "") + a for a, neg in guard),
        )
        for i, guard in enumerate(branches)
    )
    text = (
        'process "family" {\n'
        "  state S1\n"
        f"{states}\n"
        "  trans t0 { from alpha on start to S1 }\n"
        f"{trans}\n"
        "}"
    )
    return parse_dsl(text)


def _polarity_overlap(a, b):
    seen = {}
    for atom, neg in list(a) + list(b):
        if seen.setdefault(atom, neg) != neg:
            return False
    return True


@criterion(6, "overlap lint agrees with the valuation oracle on 100 random guard systems; the two-guard fixture is flagged")
def test_criterion_6_lint_overlap(fixtures):
    rng = random.Random(2024)
    for case in range(100):
        branches = _random_guard_family(rng)
        model = _family_model(branches)
        flagged = {
            tuple(sorted(re.findall(r"c\d+", d.message)))
            for d in lint(model)
            if d.code == "OverlappingGuards"
        }
        expected = {
            tuple(sorted((f"c{i}", f"c{j}")))
            for i, j in itertools.combinations(range(len(branches)), 2)
            if _polarity_overlap(branches[i], branches[j])
        }
        assert flagged == expected, (case, branches)
    m4_flags = [d for d in lint(fixtures["m4"]) if d.code == "OverlappingGuards"]
    assert len(m4_flags) == 1
    assert "t2" in m4_flags[0].message and "t3" in m4_flags[0].message


@criterion(7, "DOT output is well formed with exact node and edge counts on all fixtures")
def test_criterion_7_dot_validity(fixtures):
    for name, model in fixtures.items():
        from flowspec.dot import render_dot

        text = render_dot(model)
        assert_well_formed(text)
        assert counts(text) == expected_counts(model), name


@criterion(8, "every CLI subcommand is byte-reproducible across two runs on all fixtures")
def test_criterion_8_cli_determinism():
    special = str(DATA_DIR / "special_cases.feature")
    commands = []
    for path in sorted(DATA_DIR.glob("m[1-9].pml")):
        model = str(path)
        commands.append(("compile", model, "--mode", "paper-exact"))
        commands.append(("compile", model, "--mode", "strict"))
        commands.append(("render", model))
        commands.append(("lint", model))
        commands.append(("check", model, str(DATA_DIR / "golden" / f"{path.stem}.strict.feature"), "--json"))
    commands.append(("reverse", special))
    commands.append(("steps", special))

    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        code = cli_run(list(argv), stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    for argv in commands:
        first = invoke(argv)
        second = invoke(argv)
        assert first == second, argv
        assert first[0] == 0, argv
