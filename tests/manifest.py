"""The same-bytes manifest: a digest of each output of each model in a fixed
corpus, so that one test shows every output a change moves.

    PYTHONPATH=src python tests/manifest.py          # print the moved keys
    PYTHONPATH=src python tests/manifest.py --write  # rewrite the manifest

The models are m1-m9 read from ``.pml`` and from ``.xml``, ``random_model``
seeds 0-299, the n=160 rung (``GeneratorLimits(162, 160)``) at seeds 0-3,
the join x split models and the or-fed join models.  Each model's outputs
are its ``serialize_dsl`` text; then in each mode its emission, the
reverse of that text (model and diagnostics), ``check --json``'s report of
that text replayed in that mode and its ``steps`` JSON; then its ``lint``,
``classify``, ``canonical_form``, ``explore(model, 3)`` and ``render_dot``.
Each digest is the first 16 hex digits of the output's sha256.  Only a
change that moves outputs on purpose rewrites the manifest, and it names
the moved keys.
"""

from __future__ import annotations

import hashlib
import json
import sys

from corpus import DATA_DIR, FIXTURE_DSL, composed_models
from flowspec import canon, dot, dsl, emit, feature, generator, infer, patterns, replay, skeletons, xmlio

MANIFEST = DATA_DIR / "manifest.json"

# each mode's emission in the style the CLI writes it in
STYLES = {"strict": "gherkin", "paper_exact": "paper_upper"}


def fixture_models():
    """(key, model) for m1-m9, each read from its ``.pml`` and its ``.xml``."""
    for name, text in FIXTURE_DSL.items():
        yield f"{name}.pml", dsl.parse_dsl(text, f"{name}.pml")
        yield f"{name}.xml", xmlio.parse_xml((DATA_DIR / f"{name}.xml").read_text())


def models():
    """(key, model) for the whole corpus, in manifest order."""
    yield from fixture_models()
    for seed in range(300):
        yield f"random {seed}", generator.random_model(seed)
    rung = generator.GeneratorLimits(162, 160)
    for seed in range(4):
        yield f"n=160 {seed}", generator.random_model(seed, rung)
    yield from composed_models()


def _reverse(doc) -> str:
    model, diags = infer.infer_model(doc)
    return dsl.serialize_dsl(model) + "".join(f"{d}\n" for d in diags)


def outputs(model) -> dict[str, str]:
    """Output name -> the text of that output of ``model``."""
    out = {"dsl": dsl.serialize_dsl(model)}
    for mode, style in STYLES.items():
        text = out[f"{mode} feature"] = feature.format_feature(emit.emit_feature(model, mode), style)
        doc = feature.parse_feature(text)
        out[f"{mode} reverse"] = _reverse(doc)
        out[f"{mode} check"] = replay.check_suite(model, doc, mode).to_json_text() + "\n"
        out[f"{mode} steps"] = skeletons.skeletons_to_json(skeletons.emit_skeletons(doc))
    out["lint"] = "".join(f"{d}\n" for d in patterns.lint(model))
    out["classify"] = repr(patterns.classify(model))
    out["canonical_form"] = repr(canon.canonical_form(model))
    out["explore 3"] = repr(replay.explore(model, 3))
    out["dot"] = dot.render_dot(model)
    return out


def digests(corpus=None) -> dict[str, dict[str, str]]:
    """Model key -> output name -> digest, over ``corpus`` (default: ``models()``)."""
    return {
        key: {name: hashlib.sha256(text.encode()).hexdigest()[:16] for name, text in outputs(model).items()}
        for key, model in (models() if corpus is None else corpus)
    }


def moved(got, expected) -> list[str]:
    """``model key: output`` for each output whose digest differs between the
    two tables, or that only one of them has."""
    keys = {(k, name) for table in (got, expected) for k, outs in table.items() for name in outs}
    return sorted(
        f"{k}: {name}" for k, name in keys
        if got.get(k, {}).get(name) != expected.get(k, {}).get(name)
    )


def committed() -> dict[str, dict[str, str]]:
    return json.loads(MANIFEST.read_text())


def main(argv) -> int:
    if argv not in ([], ["--write"]):
        print("usage: manifest.py [--write]", file=sys.stderr)
        return 2
    table = digests()
    if argv:
        MANIFEST.write_text(json.dumps(table, indent=1) + "\n")
        return 0
    keys = moved(table, committed())
    print("\n".join(keys) or "no key moved")
    return 1 if keys else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
