"""Step-definition skeletons: a match pattern plus a function-name slug.

Every double-quoted substring of a step becomes a ``(.*)`` capture group in
the pattern and a ``groupN`` token in the slug; everything else is kept
literal, so bare numerals stay as they are.
"""

from __future__ import annotations

import json
import re

from .errors import UnbalancedQuotes
from .feature import KEYWORDS, FeatureDoc
from .values import value_type

_QUOTED = re.compile(r'"[^"]*"')
_SLUG_JUNK = re.compile(r"[^a-z0-9]+")


@value_type
class StepSkeleton:
    keyword: str
    pattern: str
    slug: str

    def to_json(self) -> dict:
        return {"keyword": self.keyword, "pattern": self.pattern, "slug": self.slug}


def extract_skeleton(keyword: str, step_text: str) -> StepSkeleton:
    """Build the skeleton for one step.

    Raises UnbalancedQuotes when the text has an odd number of quotes.
    """
    keyword = keyword.capitalize()
    if keyword not in KEYWORDS:
        raise ValueError(f"unknown step keyword {keyword!r}")
    if not step_text:
        raise ValueError("step text is empty")
    if step_text.count('"') % 2 != 0:
        raise UnbalancedQuotes(f"odd number of quotes in {step_text!r}")

    # the text between quoted spans, so len(pieces) - 1 spans
    pieces = _QUOTED.split(step_text)
    pattern_text = '"(.*)"'.join(pieces)
    slug_source = pieces[0]
    for n, piece in enumerate(pieces[1:], 1):
        slug_source += f" group{n} {piece}"
    slug = _SLUG_JUNK.sub("_", f"{keyword} {slug_source}".lower()).strip("_")
    return StepSkeleton(
        keyword=keyword,
        pattern=f"{keyword} {pattern_text}",
        slug=slug,
    )


def emit_skeletons(doc: FeatureDoc) -> list[StepSkeleton]:
    """One skeleton per unique (keyword, pattern) pair, in first-occurrence
    order; colliding slugs get numeric suffixes."""
    skeletons: list[StepSkeleton] = []
    seen: set[tuple[str, str]] = set()
    used_slugs: dict[str, int] = {}
    for scenario in doc.scenarios:
        for step in scenario.steps:
            skeleton = extract_skeleton(step.keyword, step.text)
            key = (skeleton.keyword, skeleton.pattern)
            if key in seen:
                continue
            seen.add(key)
            count = used_slugs.get(skeleton.slug, 0) + 1
            used_slugs[skeleton.slug] = count
            if count > 1:
                skeleton = StepSkeleton(
                    skeleton.keyword, skeleton.pattern, f"{skeleton.slug}_{count}"
                )
            skeletons.append(skeleton)
    return skeletons


def skeletons_to_json(skeletons: list[StepSkeleton]) -> str:
    """UTF-8 JSON array with stable key order (keyword, pattern, slug)."""
    return json.dumps([s.to_json() for s in skeletons], indent=2) + "\n"
