"""No public call leaves cyclic garbage.

Every result flowspec builds is freed by reference counting as soon as the
caller drops it; nothing waits for the cyclic collector.  Each call below
runs once to warm any per-process cache, then runs again with the collector
off, and a collection afterwards must find nothing.

Two cycles belong to the standard library and are exempt by name: the
``HelpFormatter`` argparse builds for a usage error, and the encoder that
``json.dumps(indent=...)`` builds inside ``skeletons_to_json`` (the ``steps``
command).  Neither is on a benchmark path.
"""

import argparse
import gc
import io
import json

import pytest

from flowspec import (
    canonical_form,
    check_suite,
    classify,
    emit_feature,
    emit_skeletons,
    enabled,
    explore,
    infer_model,
    initial_configuration,
    isomorphic,
    lint,
    parse_dsl,
    parse_feature,
    parse_xml,
    random_model,
    render_dot,
    replay_scenario,
    serialize_dsl,
    step,
    validate,
)
from flowspec.cli import run
from flowspec.feature import format_feature
from flowspec.replay import firings_for

from conftest import DATA_DIR, FIXTURE_DSL

SEEDS = range(20)


def cyclic_garbage(call, exempt=()):
    """The type names of what only the collector frees after a second
    ``call()``, less each cluster of it (linked either way) that holds an
    instance of an ``exempt`` class."""
    call()
    gc.disable()
    # set aside every object there is now, so that the collection below
    # scans only what the second call made
    gc.freeze()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        call()
        gc.collect()
        found = {id(o): o for o in gc.garbage}
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        gc.unfreeze()
        gc.enable()
    links = {key: set() for key in found}
    for key, obj in found.items():
        for ref in gc.get_referents(obj):
            if id(ref) in found:
                links[key].add(id(ref))
                links[id(ref)].add(key)
    todo = [key for key, obj in found.items() if isinstance(obj, exempt)]
    cleared = set()
    while todo:
        key = todo.pop()
        if key not in cleared:
            cleared.add(key)
            todo += links[key]
    return sorted(type(o).__name__ for key, o in found.items() if key not in cleared)


def library_calls(model, text, xml):
    strict, paper = emit_feature(model, "strict"), emit_feature(model, "paper_exact")
    strict_text = format_feature(strict)
    start = initial_configuration(model)
    first = explore(model, 1)[0][0]
    calls = {
        "parse_dsl": lambda: parse_dsl(text),
        "serialize_dsl": lambda: serialize_dsl(model),
        "render_dot": lambda: render_dot(model),
        "lint": lambda: lint(model),
        "classify": lambda: classify(model),
        "canonical_form": lambda: canonical_form(model),
        "isomorphic": lambda: isomorphic(model, parse_dsl(text)),
        "emit_feature strict": lambda: emit_feature(model, "strict"),
        "emit_feature paper_exact": lambda: emit_feature(model, "paper_exact"),
        "format_feature": lambda: format_feature(strict, "gherkin"),
        "parse_feature": lambda: parse_feature(strict_text),
        "emit_skeletons": lambda: emit_skeletons(paper),
        "infer_model strict": lambda: infer_model(strict),
        "infer_model paper_exact": lambda: infer_model(paper),
        "validate": lambda: validate(model),
        "replay_scenario": lambda: [replay_scenario(model, s) for s in paper.scenarios],
        "check_suite": lambda: check_suite(model, strict),
        "explore": lambda: explore(model, 3),
        "explore from a later start": lambda: explore(model, 2, first.after),
        "step": lambda: step(model, start, first.events, dict(first.valuation)),
        "enabled": lambda: enabled(model, start, first.events, dict(first.valuation)),
        "firings_for": lambda: [
            firings_for(model, t, start, first.events, dict(first.valuation))
            for t in model.transitions
        ],
    }
    if xml is not None:
        calls["parse_xml"] = lambda: parse_xml(xml)
    return calls


def _fixture_inputs():
    for name, text in FIXTURE_DSL.items():
        yield name, text, (DATA_DIR / f"{name}.xml").read_text()


def _generated_inputs():
    for seed in SEEDS:
        yield f"seed {seed}", serialize_dsl(random_model(seed)), None


def test_library_calls_leave_no_cyclic_garbage():
    left = {}
    for name, text, xml in [*_fixture_inputs(), *_generated_inputs()]:
        for call_name, call in library_calls(parse_dsl(text), text, xml).items():
            garbage = cyclic_garbage(call)
            if garbage:
                left[f"{call_name} on {name}"] = garbage
    for seed in SEEDS:
        garbage = cyclic_garbage(lambda: random_model(seed))
        if garbage:
            left[f"random_model({seed})"] = garbage
    assert left == {}


def _invoke(*argv):
    return lambda: run([str(a) for a in argv], io.StringIO(), io.StringIO())


def test_cli_commands_leave_no_cyclic_garbage(tmp_path):
    models = [DATA_DIR / f"{name}.pml" for name in FIXTURE_DSL]
    for seed in SEEDS:
        path = tmp_path / f"seed{seed}.pml"
        path.write_text(serialize_dsl(random_model(seed)))
        models.append(path)
    left = {}
    for path in models:
        feature = tmp_path / f"{path.stem}.feature"
        feature.write_text(format_feature(emit_feature(parse_dsl(path.read_text()), "strict")))
        commands = {
            "compile": _invoke("compile", path),
            "compile strict": _invoke("compile", path, "--mode", "strict"),
            "check": _invoke("check", path, feature),
            "check --json": _invoke("check", path, feature, "--json"),
            "reverse": _invoke("reverse", feature),
            "lint": _invoke("lint", path),
            "render": _invoke("render", path),
        }
        for command, call in commands.items():
            garbage = cyclic_garbage(call)
            if garbage:
                left[f"{command} {path.name}"] = garbage
    assert left == {}


def test_lint_error_paths_leave_no_cyclic_garbage(tmp_path):
    syntax = tmp_path / "syntax.pml"
    syntax.write_text("process {")
    invalid = tmp_path / "invalid.pml"
    invalid.write_text('process "x" { state S1 state S1 }')
    for path, code in [(tmp_path / "missing.pml", 2), (syntax, 2), (invalid, 1)]:
        assert _invoke("lint", path)() == code
        assert cyclic_garbage(_invoke("lint", path)) == [], path.name


@pytest.mark.parametrize(
    "argv, exempt",
    [
        (["no-such-command"], argparse.HelpFormatter),
        (["steps", DATA_DIR / "special_cases.feature"], json.JSONEncoder),
    ],
    ids=["argparse usage error", "steps json.dumps(indent)"],
)
def test_the_exempt_cycles_are_the_stdlib_ones(argv, exempt):
    assert cyclic_garbage(_invoke(*argv)) != []
    assert cyclic_garbage(_invoke(*argv), exempt) == []
