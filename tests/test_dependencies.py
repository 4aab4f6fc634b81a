"""The package imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "flowspec").glob("*.py"))


def absolute_imports(path):
    """(line, module) for each module ``path`` imports by absolute name."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            yield node.lineno, name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_flowspec(path):
    outside = []
    for line, name in absolute_imports(path):
        top = name.split(".")[0]
        if top != "flowspec" and top not in sys.stdlib_module_names:
            outside.append(f"line {line}: {name}")
    assert outside == []


def test_no_module_imports_gc():
    """Results are freed by reference counting, and flowspec never changes
    the collector's settings (tests/test_garbage.py checks the first)."""
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line, name in absolute_imports(path)
        if name.split(".")[0] == "gc"
    ]
    assert found == []


# Module -> flowspec modules it must not import.  Each transition's pattern
# is decided on the model index, so only lint, classify and the CLI read
# ``patterns``; the generator takes the choice cap from ``model``.
LAYERS = {
    "emit": {"patterns"},
    "canon": {"patterns"},
    "replay": {"patterns"},
    "infer": {"patterns"},
    "generator": {"emit"},
}


def flowspec_imports(path) -> set[str]:
    """The flowspec modules ``path`` imports, by module name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            dotted = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # ``from .x import y`` names x; ``from . import y`` names y
            found.update([node.module] if node.module else [a.name for a in node.names])
            continue
        else:
            continue
        for name in dotted:
            parts = name.split(".")
            if parts[0] == "flowspec" and len(parts) > 1:
                found.add(parts[1])
    return found


def test_flowspec_imports_sees_every_import_form(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import flowspec.a\nfrom flowspec import b\nfrom flowspec.c import x\n"
        "from . import d\nfrom .e import y\nfrom .. import f\n"
    )
    assert flowspec_imports(source) == set("abcdef")
    assert "patterns" in flowspec_imports(SOURCES[0].with_name("cli.py"))


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_layering(module):
    path = SOURCES[0].with_name(f"{module}.py")
    assert flowspec_imports(path) & LAYERS[module] == set()
