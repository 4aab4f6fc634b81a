"""Command-line behavior: outputs, exit codes, determinism."""

import io
import json
import random
import subprocess
import sys

import pytest

from flowspec.canon import isomorphic
from flowspec.cli import _parser, run
from flowspec.dsl import parse_dsl, serialize_dsl
from flowspec.emit import emit_feature
from flowspec.feature import format_feature
from flowspec.generator import random_model

from conftest import DATA_DIR
from test_dsl import BAD_KINDS, bad_kind_model
from test_xmlio import BAD_XML


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


M1 = str(DATA_DIR / "m1.pml")
M3 = str(DATA_DIR / "m3.pml")
M9 = str(DATA_DIR / "m9.pml")
M9_XML = str(DATA_DIR / "m9.xml")
SPECIAL = str(DATA_DIR / "special_cases.feature")


def test_compile_emits_pattern_lines():
    code, out, err = invoke("compile", M1, "--mode", "paper-exact")
    assert code == 0
    assert "GIVEN S1\nWHEN ev1\nTHEN a1\n" in out
    assert err == ""


def test_compile_strict_gherkin_default():
    code, out, _ = invoke("compile", M1, "--mode", "strict")
    assert code == 0
    assert "Given S1\nWhen ev1\nThen a1 AND S2" in out


def test_compile_style_flag_overrides():
    code, out, _ = invoke("compile", M1, "--mode", "strict", "--style", "upper")
    assert code == 0
    assert "GIVEN S1" in out


def test_style_env_default(monkeypatch):
    monkeypatch.setenv("FLOWSPEC_STYLE", "gherkin")
    code, out, _ = invoke("compile", M1)
    assert code == 0
    assert "Given S1" in out


def test_compile_output_file(tmp_path):
    target = tmp_path / "m1.feature"
    code, out, _ = invoke("compile", M1, "-o", str(target))
    assert code == 0
    assert out == ""
    assert "THEN a1" in target.read_text()


def test_check_passes_with_full_coverage():
    code, out, _ = invoke("check", M9, SPECIAL)
    assert code == 0
    assert "coverage: 1.0000" in out


def test_check_xml_model_input():
    code, out, _ = invoke("check", M9_XML, SPECIAL)
    assert code == 0
    assert "coverage: 1.0000" in out


def test_check_seeded_mutation_fails(tmp_path):
    broken = tmp_path / "broken.feature"
    text = (DATA_DIR / "special_cases.feature").read_text()
    broken.write_text(text.replace("THEN a1 AND a2", "THEN a7 AND a2"))
    report_path = tmp_path / "report.json"
    code, out, _ = invoke("check", M9, str(broken), "--json", str(report_path))
    assert code == 1
    payload = json.loads(report_path.read_text())
    failing = [v for v in payload["verdicts"] if not v["passed"]]
    assert failing and failing[0]["scenario"] == "Sequence t1"


def test_check_json_to_stdout():
    code, out, _ = invoke("check", M9, SPECIAL, "--json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["verdicts", "coverage", "uncovered"]
    assert payload["coverage"] == 1.0
    assert payload["uncovered"] == []


def test_reverse_writes_model_and_dot(tmp_path):
    model_out = tmp_path / "inferred.pml"
    dot_out = tmp_path / "inferred.dot"
    code, out, err = invoke(
        "reverse", SPECIAL, "--model-out", str(model_out), "--dot", str(dot_out)
    )
    assert code == 0
    assert "process" in model_out.read_text()
    assert dot_out.read_text().startswith("digraph process {")


def test_steps_emits_json():
    code, out, _ = invoke("steps", SPECIAL)
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["keyword"] == "Given"
    assert payload[0]["slug"].startswith("given_")


def test_render_produces_dot():
    code, out, _ = invoke("render", M9)
    assert code == 0
    assert out.startswith("digraph process {")
    assert "cluster_S6" in out


def test_lint_reports_overlap_and_exits_zero():
    code, out, _ = invoke("lint", str(DATA_DIR / "m4.pml"))
    assert code == 0
    assert "OverlappingGuards" in out


def test_lint_invalid_model_exits_one(tmp_path):
    bad = tmp_path / "bad.pml"
    bad.write_text('process "x" { state S1 state S1 }')
    code, out, _ = invoke("lint", str(bad))
    assert code == 1
    assert "DuplicateStateName" in out


def test_missing_file_is_input_error():
    code, _out, err = invoke("compile", "no-such-file.pml")
    assert code == 2
    assert "error:" in err


def test_unknown_extension_is_input_error(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text('process "x" { state S1 }')
    code, _out, err = invoke("compile", str(model))
    assert code == 2
    code, out, _ = invoke("compile", str(model), "--format", "dsl")
    assert code == 0


def test_syntax_error_is_input_error(tmp_path):
    bad = tmp_path / "bad.pml"
    bad.write_text("process {")
    code, _out, err = invoke("compile", str(bad))
    assert code == 2


BAD_MODELS = {
    **{f"dsl {clause}": ("pml", bad_kind_model(clause), message) for clause, message in BAD_KINDS.items()},
    **{f"xml {case}": ("xml", text, message) for case, (text, message) in BAD_XML.items()},
}


@pytest.mark.parametrize("case", BAD_MODELS)
def test_malformed_model_is_input_error(tmp_path, case):
    suffix, text, message = BAD_MODELS[case]
    model = tmp_path / f"model.{suffix}"
    model.write_text(text)
    for command in ("compile", "lint"):
        code, out, err = invoke(command, str(model))
        assert (code, out) == (2, ""), command
        assert err.startswith("error: ") and err.rstrip().endswith(message), command
        assert "Traceback" not in err


def test_given_without_a_state_fails_its_scenario(tmp_path):
    suite = tmp_path / "no_state.feature"
    suite.write_text("Scenario: no states\nGIVEN g1\nWHEN _done\nTHEN a1 AND S2\n")
    code, out, err = invoke("check", str(DATA_DIR / "m4.pml"), str(suite))
    assert (code, err) == (1, "")
    assert out.startswith("FAIL no states\n  at no states: expected 'replayable scenario', observed 'GIVEN names no states'\n")


def test_byte_order_mark_at_the_start_is_skipped(tmp_path, monkeypatch):
    names = ["m1.pml", "m9.pml", "m9.xml", "special_cases.feature"]
    commands = [
        ("lint", "m1.pml"),
        ("compile", "m9.pml", "--mode", "strict"),
        ("compile", "m9.xml"),
        ("check", "m9.pml", "special_cases.feature"),
        ("check", "m9.xml", "special_cases.feature", "--json"),
    ]
    outputs = {}
    for prefix in ("", "\ufeff"):
        folder = tmp_path / ("bom" if prefix else "plain")
        folder.mkdir()
        for name in names:
            (folder / name).write_text(prefix + (DATA_DIR / name).read_text(), encoding="utf-8")
        monkeypatch.chdir(folder)
        outputs[prefix] = [invoke(*argv) for argv in commands]
    assert outputs["\ufeff"] == outputs[""]
    assert [code for code, _, _ in outputs[""]] == [0, 0, 0, 0, 0]


def test_byte_order_mark_elsewhere_is_a_stray_character(tmp_path):
    text = (DATA_DIR / "m1.pml").read_text()
    bad = {"twice.pml": "\ufeff\ufeff" + text, "inside.pml": text.replace("state S1", "state \ufeffS1")}
    errors = {}
    for name, content in bad.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
        code, _out, errors[name] = invoke("lint", str(tmp_path / name))
        assert code == 2
        assert "stray character " + repr("\ufeff") in errors[name]
    assert "twice.pml:1:1:" in errors["twice.pml"]


def test_unknown_flag_exits_two(capsys):
    # with no streams given, run writes to sys.stdout and sys.stderr
    code = run(["compile", M1, "--bogus"])
    assert code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err


def test_argparse_output_goes_to_the_given_streams(capsys):
    code, out, err = invoke("check")
    assert code == 2
    assert out == "" and "usage:" in err
    code, out, err = invoke("--help")
    assert code == 0
    assert "usage:" in out and "replay feature files against a model" in out and err == ""
    assert capsys.readouterr() == ("", "")


def test_one_parser_serves_every_run(tmp_path, monkeypatch):
    monkeypatch.delenv("FLOWSPEC_STYLE", raising=False)
    strict, paper = tmp_path / "m3.strict.feature", tmp_path / "m3.paper.feature"
    assert invoke("compile", M3, "--mode", "strict", "-o", str(strict))[0] == 0
    assert invoke("compile", M3, "-o", str(paper))[0] == 0
    target = tmp_path / "out.feature"
    argvs = [
        ("check", M3, str(strict), "--mode", "strict", "--json"),
        ("check", M3, str(paper)),  # mode from the file's hint
        ("compile", M3, "--bogus"),
        ("--help",),
        ("compile", M3, "-o", str(target)),
        ("lint", M3),
    ]

    def results(order):
        out = {}
        for argv in order:
            out[argv] = invoke(*argv)
            if target.exists():
                out[argv] += (target.read_text(),)
                target.unlink()
        return out

    forwards = results(argvs)
    assert results(argvs[::-1]) == forwards
    # the paper-exact suite fails only on its Synchronization rows
    assert forwards[argvs[1]][0] == 1 and forwards[argvs[1]][1].count("FAIL Synchronization") == 2
    assert [forwards[argv][0] for argv in argvs] == [0, 1, 2, 0, 0, 0]
    assert _parser() is _parser()


def test_every_subcommand_is_byte_reproducible():
    fixture_models = sorted(str(p) for p in DATA_DIR.glob("m[1-9].pml"))
    commands = []
    for model in fixture_models:
        commands.append(("compile", model, "--mode", "paper-exact"))
        commands.append(("compile", model, "--mode", "strict"))
        commands.append(("render", model))
        commands.append(("lint", model))
    commands.append(("check", M9, SPECIAL, "--json"))
    commands.append(("reverse", SPECIAL))
    commands.append(("steps", SPECIAL))
    for argv in commands:
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second, argv


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "flowspec", "compile", M1],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "THEN a1" in proc.stdout


def test_check_several_feature_files(tmp_path):
    m3 = str(DATA_DIR / "m3.pml")
    strict_text = (DATA_DIR / "golden" / "m3.strict.feature").read_text()
    mutated_text = strict_text.replace("Then a1; a2; a3 AND S3", "Then a2; a1; a3 AND S3")
    assert mutated_text != strict_text
    suites = {
        "strict": strict_text,
        "paper": (DATA_DIR / "golden" / "m3.paper.feature").read_text(),
        "mutated": mutated_text,
    }
    paths = []
    for name, text in suites.items():
        path = tmp_path / f"m3.{name}.feature"
        path.write_text(text)
        paths.append(str(path))

    single = [json.loads(invoke("check", m3, p, "--json")[1]) for p in paths]
    code, out, _ = invoke("check", m3, *paths, "--json")
    assert code == 1
    report = json.loads(out)
    # verdicts follow file order
    assert report["verdicts"] == [v for r in single for v in r["verdicts"]]
    # coverage is the union over passing verdicts of every file
    assert [r["coverage"] for r in single] == [1.0, 0.5, 0.5]
    assert report["coverage"] == 1.0 and report["uncovered"] == []
    covered = {t for v in report["verdicts"] if v["passed"] for t in v["fired"]}
    assert covered == {"t1", "t2"}

    code_text, text, _ = invoke("check", m3, *paths)
    assert code_text == code
    expected = []
    for v in report["verdicts"]:
        expected.append(("PASS " if v["passed"] else "FAIL ") + v["scenario"])
        for mm in v["mismatches"]:
            expected.append(
                f"  at {mm['position']}: expected {mm['expected']!r}, observed {mm['observed']!r}"
            )
    expected.append(f"coverage: {report['coverage']:.4f}")
    assert text.splitlines() == expected


def test_reverse_of_unrunnable_join_exits_one(tmp_path):
    feature = tmp_path / "found.feature"
    feature.write_text(
        "# flowspec: mode=strict\n"
        "Feature: found\n\n"
        "Scenario: Synchronization t1\n"
        "Given ev1 AND S1.y AND S1.x\n"
        "When _done\n"
        "Then S3; _done; g1\n"
    )
    code, out, err = invoke("reverse", str(feature))
    assert code == 1
    # _done is dropped from the THEN, not read as an action
    assert err.splitlines() == [
        "error[ReservedName] at Synchronization t1: THEN names the completion event _done, "
        "which is not an action; dropped",
        "warning[SyntheticTarget] at Synchronization t1: no resulting state; synthesized _after_Synchronization_t1",
        "warning[AmbiguousInitialChild] at S1: never entered from outside; defaulting to S1.y",
        "error[UnsatisfiableJoin] at t1: and-join inputs S1.y and S1.x are different children of S1, "
        "never active together",
    ]
    assert "    do S3, g1\n" in out


def test_reverse_keeps_every_target_of_a_row(tmp_path):
    # a strict row names every resulting state; one of them being the
    # initial pseudostate makes the reversed model invalid
    feature = tmp_path / "alpha.feature"
    feature.write_text(
        "# flowspec: mode=strict\n"
        "Feature: alpha\n\n"
        "Scenario: SynchronizeMerge t2 2\n"
        "GIVEN S3\n"
        "WHEN e3\n"
        "THEN a4 AND S3 AND alpha\n"
    )
    code, _, err = invoke("reverse", str(feature))
    assert code == 1
    assert "error[TransitionToInitial] at t2" in err


def nested_states(depth):
    """A model whose states nest ``depth`` levels deep: A0 holds A1, which
    holds A2..."""
    inner = f"state A{depth - 1}"
    for level in range(depth - 2, -1, -1):
        inner = f"state A{level} {{ initial A{level + 1} {inner} }}"
    leaf = ".".join(f"A{level}" for level in range(depth))
    return (
        f'process "deep" {{\n  {inner}\n'
        f"  trans t1 {{ from alpha on e1 to A0 }}\n"
        f"  trans t2 {{ from {leaf} on e2 to Beta }}\n}}\n"
    )


def test_deeply_nested_states_run_end_to_end(tmp_path):
    # every walk over the state tree keeps its own stack: one frame a level
    # would exhaust the default recursion limit of 1,000 here
    source = tmp_path / "deep.pml"
    source.write_text(nested_states(1500))
    code, _, err = invoke("lint", str(source))
    assert (code, err) == (0, "")
    feature = tmp_path / "deep.feature"
    code, _, err = invoke("compile", str(source), "--mode", "paper-exact")
    assert (code, err) == (0, "")
    code, _, err = invoke("compile", str(source), "--mode", "strict", "-o", str(feature))
    assert (code, err) == (0, "")
    code, _, err = invoke("check", str(source), str(feature))
    assert (code, err) == (0, "")
    code, out, err = invoke("reverse", str(feature))
    assert (code, err) == (0, "")
    assert isomorphic(parse_dsl(out), parse_dsl(source.read_text()))
    code, out, err = invoke("render", str(source))
    assert (code, err) == (0, "")
    assert out.count("subgraph cluster_") == 1499


def test_check_unknown_mode_hint_is_input_error(tmp_path):
    suite = tmp_path / "bogus.feature"
    text = (DATA_DIR / "special_cases.feature").read_text()
    suite.write_text(text.replace("mode=paper-exact", "mode=bogus"))
    code, out, err = invoke("check", M9, str(suite))
    assert code == 2
    assert out == ""
    assert f"error: {suite}: unknown mode 'bogus'" in err


def test_reverse_of_name_hinted_in_two_roles_is_input_error(tmp_path):
    feature = tmp_path / "clash.feature"
    feature.write_text(
        "# states: S1, x\n# guards: x\nScenario: one\nGiven S1 AND x\nWhen e1\nThen a1 AND S2\n"
    )
    code, out, err = invoke("reverse", str(feature))
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {feature}: MalformedClause at {feature}:2:1: "
        "x hinted as both states and guards\n"
    )


def test_check_accepts_underscore_mode_stamp(tmp_path):
    suite = tmp_path / "underscore.feature"
    text = (DATA_DIR / "special_cases.feature").read_text()
    assert "mode=paper-exact" in text
    suite.write_text(text.replace("mode=paper-exact", "mode=paper_exact"))
    assert invoke("check", M9, str(suite)) == invoke("check", M9, SPECIAL)


def test_reverse_reads_both_mode_stamp_spellings_alike(tmp_path):
    _, text, _ = invoke("compile", M1, "--mode", "paper-exact")
    suite = tmp_path / "underscore.feature"
    suite.write_text(text.replace("mode=paper-exact", "mode=paper_exact"))
    dashed = tmp_path / "dashed.feature"
    dashed.write_text(text)
    assert invoke("reverse", str(suite)) == invoke("reverse", str(dashed))


def test_check_reports_whole_unknown_mode_word(tmp_path):
    suite = tmp_path / "strictly.feature"
    text = (DATA_DIR / "special_cases.feature").read_text()
    suite.write_text(text.replace("mode=paper-exact", "mode=strictly"))
    code, out, err = invoke("check", M9, str(suite))
    assert (code, out) == (2, "")
    assert f"error: {suite}: unknown mode 'strictly'" in err


# -- seeded fuzz: no input makes the CLI fail internally --------------------

# pieces a mutant may gain: brackets, quotes, escapes and the keywords of
# both languages
_FUZZ_PIECES = [
    "{", "}", ",", '"', "\\", "\n", "#", " and ", " not ", " join and", " split or",
    " mandatory", "state S1 ", "trans t9 { from alpha to S1 } ", "GIVEN ", "WHEN ", "THEN ",
    " AND ", "NOT ", "; ", "Scenario: x\n", "# states: S1\n", "# events: S1\n", "_done",
]


def _fuzzed(text, rng):
    """`text` after one to four splice, insert or delete edits."""
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 12))
        edit = rng.randrange(3)
        if edit == 0:  # splice: a piece of the text copied elsewhere
            k = rng.randrange(len(text) + 1)
            text = text[:k] + text[i:j] + text[k:]
        elif edit == 1:
            text = text[:i] + rng.choice(_FUZZ_PIECES) + text[i:]
        else:
            text = text[:i] + text[j:]
    return text


def test_mutated_inputs_never_exit_internal_error(tmp_path):
    rng = random.Random(1)
    pml, feature = tmp_path / "m.pml", tmp_path / "m.feature"
    model_commands = (
        ["compile", str(pml), "--mode", "strict"],
        ["compile", str(pml)],
        ["render", str(pml)],
        ["lint", str(pml)],
        ["check", str(pml), str(feature)],
    )
    feature_commands = (
        ["reverse", str(feature)],
        ["steps", str(feature)],
        ["check", str(pml), str(feature), "--json"],
    )
    codes = []
    for seed in range(16):
        model = random_model(seed)
        model_text = serialize_dsl(model)
        for mode, style in (("strict", "gherkin"), ("paper_exact", "paper_upper")):
            feature_text = format_feature(emit_feature(model, mode), style)
            for _ in range(8):
                # each side is mutated with the other intact, so check replays
                for mutate_model, commands in ((True, model_commands), (False, feature_commands)):
                    pml.write_text(_fuzzed(model_text, rng) if mutate_model else model_text)
                    feature.write_text(feature_text if mutate_model else _fuzzed(feature_text, rng))
                    for argv in commands:
                        code, _, err = invoke(*argv)
                        assert code != 3, (argv, pml.read_text(), feature.read_text(), err)
                        codes.append(code)
    assert {0, 1, 2} <= set(codes)
