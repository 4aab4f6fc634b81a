"""Command-line interface with stable exit codes for CI use.

Exit codes: 0 success, 1 check or lint failures, 2 input errors, 3 internal
errors.  Model files are detected by extension (``.pml`` for the DSL,
``.xml`` for the XML format) with ``--format`` as the override.  The
``FLOWSPEC_STYLE`` environment variable picks the default rendering style
(``upper`` or ``gherkin``); paper-exact output defaults to upper case,
strict output to Gherkin casing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .dot import render_dot
from .dsl import parse_dsl, serialize_dsl
from .emit import emit_feature
from .errors import (
    FeatureSyntaxError,
    FlowspecError,
    ModelSyntaxError,
    SemanticError,
    XmlError,
)
from .feature import format_feature, parse_feature
from .infer import infer_model
from .model import normalize_mode
from .patterns import lint as lint_model
from .replay import check_suite, report_for
from .skeletons import emit_skeletons, skeletons_to_json
from .xmlio import parse_xml

OK, CHECK_FAILED, INPUT_ERROR, INTERNAL_ERROR = 0, 1, 2, 3

_STYLES = {"upper": "paper_upper", "gherkin": "gherkin"}


class _InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


def _load_model(path: str, fmt: str | None):
    text = _read(path)
    kind = fmt
    if kind is None:
        suffix = Path(path).suffix.lower()
        if suffix == ".pml":
            kind = "dsl"
        elif suffix == ".xml":
            kind = "xml"
        else:
            raise _InputError(
                f"cannot detect the format of {path}; pass --format dsl|xml"
            )
    try:
        if kind == "xml":
            return parse_xml(text)
        return parse_dsl(text, path)
    except (ModelSyntaxError, SemanticError, XmlError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _load_feature(path: str):
    try:
        return parse_feature(_read(path), path)
    except FeatureSyntaxError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _write(path: str | None, payload: str, stdout) -> None:
    if path:
        Path(path).write_text(payload, encoding="utf-8")
    else:
        stdout.write(payload)


def _style_for(args, mode: str) -> str:
    if getattr(args, "style", None):
        return _STYLES[args.style]
    env = os.environ.get("FLOWSPEC_STYLE")
    if env in _STYLES:
        return _STYLES[env]
    return "paper_upper" if mode == "paper-exact" else "gherkin"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowspec",
        description="Compile process models to Given-When-Then features and back.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p):
        p.add_argument("model", help="model file (.pml or .xml)")
        p.add_argument("--format", choices=("dsl", "xml"), default=None)

    p = sub.add_parser("compile", help="emit a feature file from a model")
    add_model(p)
    p.add_argument("--mode", choices=("paper-exact", "strict"), default="paper-exact")
    p.add_argument("--style", choices=("upper", "gherkin"), default=None)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("reverse", help="infer a model from a feature file")
    p.add_argument("feature")
    p.add_argument("--dot", default=None, help="write a diagram of the inferred model")
    p.add_argument("--model-out", default=None, help="write the inferred model as DSL")

    p = sub.add_parser("check", help="replay feature files against a model")
    add_model(p)
    p.add_argument("features", nargs="+", help="feature files to replay")
    p.add_argument("--mode", choices=("paper-exact", "strict"), default=None)
    p.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="REPORT",
        help="emit a JSON report (to REPORT, or stdout when bare)",
    )

    p = sub.add_parser("steps", help="generate step-definition skeletons")
    p.add_argument("feature")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("render", help="render a model as a DOT diagram")
    add_model(p)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("lint", help="validate a model and report hazards")
    add_model(p)
    return parser


def _cmd_compile(args, stdout, stderr) -> int:
    model = _load_model(args.model, args.format)
    doc = emit_feature(model, args.mode.replace("-", "_"))
    text = format_feature(doc, _style_for(args, args.mode))
    _write(args.output, text, stdout)
    return OK


def _cmd_reverse(args, stdout, stderr) -> int:
    doc = _load_feature(args.feature)
    model, diags = infer_model(doc)
    for diag in diags:
        stderr.write(f"{diag}\n")
    wrote = False
    if args.model_out:
        _write(args.model_out, serialize_dsl(model), stdout)
        wrote = True
    if args.dot:
        _write(args.dot, render_dot(model), stdout)
        wrote = True
    if not wrote:
        stdout.write(serialize_dsl(model))
    return CHECK_FAILED if any(d.severity == "error" for d in diags) else OK


def _cmd_check(args, stdout, stderr) -> int:
    model = _load_model(args.model, args.format)
    verdicts = []
    for path in args.features:
        doc = _load_feature(path)
        try:
            mode = normalize_mode(args.mode or doc.mode_hint or "strict")
        except ValueError as exc:
            raise _InputError(f"{path}: {exc}") from exc
        verdicts.extend(check_suite(model, doc, mode).verdicts)
    report = report_for(model, verdicts)
    if args.json is not None:
        text = json.dumps(report.to_json(), indent=2) + "\n"
        if args.json == "-":
            stdout.write(text)
        else:
            Path(args.json).write_text(text, encoding="utf-8")
    else:
        for name, verdict in report.verdicts:
            if verdict.passed:
                stdout.write(f"PASS {name}\n")
            else:
                stdout.write(f"FAIL {name}\n")
                for expected, observed, position in verdict.mismatches:
                    stdout.write(
                        f"  at {position}: expected {expected!r}, observed {observed!r}\n"
                    )
        stdout.write(f"coverage: {report.coverage:.4f}\n")
        if report.uncovered:
            stdout.write("uncovered: " + ", ".join(report.uncovered) + "\n")
    return OK if report.passed else CHECK_FAILED


def _cmd_steps(args, stdout, stderr) -> int:
    doc = _load_feature(args.feature)
    _write(args.output, skeletons_to_json(emit_skeletons(doc)), stdout)
    return OK


def _cmd_render(args, stdout, stderr) -> int:
    model = _load_model(args.model, args.format)
    _write(args.output, render_dot(model), stdout)
    return OK


def _cmd_lint(args, stdout, stderr) -> int:
    try:
        model = _load_model(args.model, args.format)
    except _InputError as exc:
        cause = exc.__cause__
        if isinstance(cause, SemanticError):
            for diag in cause.diagnostics:
                stdout.write(f"{diag}\n")
            return CHECK_FAILED
        raise
    for diag in lint_model(model):
        stdout.write(f"{diag}\n")
    return OK


_COMMANDS = {
    "compile": _cmd_compile,
    "reverse": _cmd_reverse,
    "check": _cmd_check,
    "steps": _cmd_steps,
    "render": _cmd_render,
    "lint": _cmd_lint,
}


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints usage itself; normalize the code
        return INPUT_ERROR if exc.code not in (0, None) else OK
    try:
        return _COMMANDS[args.command](args, stdout, stderr)
    except _InputError as exc:
        stderr.write(f"error: {exc}\n")
        return INPUT_ERROR
    except FlowspecError as exc:
        stderr.write(f"error: {exc}\n")
        return INPUT_ERROR
    except OSError as exc:
        stderr.write(f"error: {exc}\n")
        return INPUT_ERROR
    except Exception as exc:  # pragma: no cover - defensive
        stderr.write(f"internal error: {exc}\n")
        return INTERNAL_ERROR


def main() -> None:
    sys.exit(run())
