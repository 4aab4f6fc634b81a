"""The benchmark's correctness checks, at a tiny size: each accepts the
program's real outputs and rejects a planted wrong one.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from flowspec import canon, replay  # noqa: E402
from flowspec import model as fmodel  # noqa: E402


def _unknown(findings):
    return [f for f in findings if not f.known]


def _reasons(findings):
    return {f.reason for f in findings}


# -- check -------------------------------------------------------------------


def _check_round(tmp_path):
    wl = workloads.Check(seed=3, models=1, size=40)
    wl.setup(tmp_path)
    outputs = [op() for op in wl.operations()]
    return wl, outputs


def test_check_accepts_real_verdicts(tmp_path):
    wl, outputs = _check_round(tmp_path)
    found = [(i, f) for i, out in enumerate(outputs) for f in wl.verify(i, out)]
    assert not _unknown(f for _, f in found)
    # the paper-exact command meets the known Synchronization fault
    assert {i for i, _ in found} == {1}
    assert _reasons(f for _, f in found) == {checks.KNOWN_SYNC}


def _flip(output, pick):
    code, stdout, stderr = output
    report = json.loads(stdout)
    verdict = next(v for v in report["verdicts"] if pick(v))
    verdict["passed"] = not verdict["passed"]
    return code, json.dumps(report), stderr


def test_check_rejects_a_flipped_self_suite_verdict(tmp_path):
    wl, outputs = _check_round(tmp_path)
    strict = wl.commands[0]
    assert strict.suite == "strict"
    flipped = _flip(outputs[0], lambda v: True)
    found = checks.check_command(flipped, list(strict.rows), "strict")
    assert "strict self-suite row judged FAIL" in _reasons(_unknown(found))


def test_check_rejects_a_mutated_row_judged_pass(tmp_path):
    wl, outputs = _check_round(tmp_path)
    mutated = wl.commands[2]
    assert mutated.suite == "mutated"
    failing = {r.name for r in mutated.rows if r.expected is checks.FAIL}
    assert failing
    flipped = _flip(outputs[2], lambda v: v["scenario"] in failing)
    found = checks.check_command(flipped, list(mutated.rows), "mutated")
    assert "mutated row judged PASS" in _reasons(_unknown(found))


def test_mutate_appends_one_action_to_then():
    text = "Scenario: Sequence t1\nGiven S1\nWhen ev1\nThen a1 AND S2\n"
    assert workloads.mutate(text, {"Sequence t1": "a9"}).splitlines()[3] == "Then a1 AND S2 AND a9"


# -- roundtrip -----------------------------------------------------------------


def _round_trip():
    wl = workloads.Roundtrip(seed=3, models=1, size=40, fixture_repeats=0)
    wl.setup(None)
    source, pml, xml = wl.inputs[0]
    return wl, source, workloads.round_trip(pml, xml)


def test_roundtrip_accepts_real_outputs():
    wl, _, out = _round_trip()
    assert not _unknown(wl.verify(0, out))


def test_isomorphic_rejects_a_model_with_one_action_removed():
    _, source, _ = _round_trip()
    mutant = workloads.without_one_action(source)
    assert mutant != source
    assert canon.isomorphic(mutant, source) is False


def test_roundtrip_rejects_isomorphic_true_for_a_removed_action():
    _, source, out = _round_trip()
    reparse = workloads.dsl.parse_dsl(out.dsl_text)
    found = checks.roundtrip(source, out, out.strict_text, reparse, isomorphic_without_action=True)
    assert "isomorphic accepted a model with one action removed" in _reasons(_unknown(found))


def test_roundtrip_rejects_a_reverse_that_lost_an_action():
    _, source, out = _round_trip()
    planted = dataclasses.replace(out, reversed_model=workloads.without_one_action(out.reversed_model))
    reparse = workloads.dsl.parse_dsl(out.dsl_text)
    found = checks.roundtrip(source, planted, out.strict_text, reparse, False)
    assert "reverse differs from its source structurally" in _reasons(_unknown(found))


# -- explore -------------------------------------------------------------------


def _explored():
    wl = workloads.Explore(seed=3, models=30)
    wl.setup(None)
    outputs = [op() for op in wl.operations()]
    return wl, outputs


def _judge(wl, i, lint_report, runs):
    model = wl.models[i]
    return checks.explore(
        model, wl.depth, lint_report, runs, fmodel.initial_configuration(model),
        lambda c, e, v: replay.step(model, c, e, v),
    )


def test_explore_accepts_real_runs():
    wl, outputs = _explored()
    assert [f for i, out in enumerate(outputs) for f in wl.verify(i, out)] == []


def test_explore_rejects_runs_whose_steps_do_not_chain():
    wl, outputs = _explored()
    i, run = next((i, r) for i, (_, runs) in enumerate(outputs) for r in runs if len(r) >= 3)
    lint_report, runs = outputs[i]
    skipped = (run[0],) + run[2:]
    assert "steps do not chain" in _reasons(_judge(wl, i, lint_report, runs + [skipped]))


def test_explore_rejects_a_run_not_starting_at_the_initial_configuration():
    wl, outputs = _explored()
    i, run = next((i, r) for i, (_, runs) in enumerate(outputs) for r in runs if len(r) >= 2)
    lint_report, runs = outputs[i]
    found = _judge(wl, i, lint_report, runs + [run[1:]])
    assert "run does not start at the initial configuration" in _reasons(found)


def test_explore_rejects_a_repeated_run():
    wl, outputs = _explored()
    lint_report, runs = outputs[0]
    assert "explore listed a run twice" in _reasons(_judge(wl, 0, lint_report, runs + runs[:1]))
