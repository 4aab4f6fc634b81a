"""Command-line behavior: outputs, exit codes, determinism."""

import io
import json
import subprocess
import sys

from flowspec.cli import run

from conftest import DATA_DIR


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


M1 = str(DATA_DIR / "m1.pml")
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


def test_unknown_flag_exits_two(capsys):
    code, _out, _err = invoke("compile", M1, "--bogus")
    assert code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err


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
    code, _, err = invoke("reverse", str(feature))
    assert code == 1
    assert "error[UnsatisfiableJoin] at t1" in err
    assert "error[ReservedName] at _done" in err


def test_check_unknown_mode_hint_is_input_error(tmp_path):
    suite = tmp_path / "bogus.feature"
    text = (DATA_DIR / "special_cases.feature").read_text()
    suite.write_text(text.replace("mode=paper-exact", "mode=bogus"))
    code, out, err = invoke("check", M9, str(suite))
    assert code == 2
    assert out == ""
    assert f"error: {suite}: unknown mode 'bogus'" in err
