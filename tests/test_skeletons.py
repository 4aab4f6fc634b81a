"""Step skeleton extraction and deduplication."""

import json
import re

import pytest
from hypothesis import given, strategies as st

from flowspec.errors import UnbalancedQuotes
from flowspec.feature import parse_feature
from flowspec.skeletons import (
    emit_skeletons,
    extract_skeleton,
    skeletons_to_json,
)

RESOURCE_TEXT = """\
Scenario: server is available
  Given there is a resource at "http://localhost:8081/myresource"
  When I request this resource as raw
  Then the response code is 200
"""


def test_quoted_string_becomes_capture_group():
    s = extract_skeleton(
        "Given", 'there is a resource at "http://localhost:8081/myresource"'
    )
    assert s.pattern == 'Given there is a resource at "(.*)"'
    assert s.slug == "given_there_is_a_resource_at_group1"


def test_bare_number_stays_literal():
    s = extract_skeleton("Then", "the response code is 200")
    assert s.pattern == "Then the response code is 200"
    assert s.slug == "then_the_response_code_is_200"


def test_single_token_step():
    s = extract_skeleton("When", "X")
    assert s.pattern == "When X"
    assert s.slug == "when_x"


def test_unknown_keyword_rejected():
    with pytest.raises(ValueError, match=r"^unknown step keyword 'Suppose'$"):
        extract_skeleton("suppose", "X")


def test_empty_step_text_rejected():
    with pytest.raises(ValueError, match=r"^step text is empty$"):
        extract_skeleton("Given", "")


def test_unbalanced_quotes_rejected():
    with pytest.raises(UnbalancedQuotes):
        extract_skeleton("Given", 'a "broken step')


def test_multiple_groups_numbered():
    s = extract_skeleton("When", 'I move "here" to "there"')
    assert s.pattern == 'When I move "(.*)" to "(.*)"'
    assert s.slug == "when_i_move_group1_to_group2"


def test_reference_scenario_yields_three_skeletons():
    doc = parse_feature(RESOURCE_TEXT)
    skeletons = emit_skeletons(doc)
    assert [(s.keyword, s.pattern, s.slug) for s in skeletons] == [
        ("Given", 'Given there is a resource at "(.*)"', "given_there_is_a_resource_at_group1"),
        ("When", "When I request this resource as raw", "when_i_request_this_resource_as_raw"),
        ("Then", "Then the response code is 200", "then_the_response_code_is_200"),
    ]


def test_repeated_steps_deduplicated():
    blocks = "\n\n".join(
        f"Scenario: s{i}\nGIVEN S1\nWHEN ev{i}\nTHEN a{i}" for i in range(4)
    )
    doc = parse_feature(blocks)
    skeletons = emit_skeletons(doc)
    given = [s for s in skeletons if s.keyword == "Given"]
    assert len(given) == 1
    assert given[0].pattern == "Given S1"


def test_steps_differing_only_in_quoted_content_collapse():
    text = (
        'Scenario: a\nGiven a file "x.txt"\nWhen read\nThen ok\n\n'
        'Scenario: b\nGiven a file "y.txt"\nWhen read\nThen ok\n'
    )
    doc = parse_feature(text)
    given = [s for s in emit_skeletons(doc) if s.keyword == "Given"]
    assert len(given) == 1
    assert given[0].pattern == 'Given a file "(.*)"'


def test_slug_collisions_get_numeric_suffixes():
    text = (
        "Scenario: a\nGiven run x\nWhen go\nThen done\n\n"
        "Scenario: b\nGiven run-x\nWhen go\nThen done\n"
    )
    doc = parse_feature(text)
    given = [s for s in emit_skeletons(doc) if s.keyword == "Given"]
    assert [s.slug for s in given] == ["given_run_x", "given_run_x_2"]


def test_emission_is_idempotent_and_deterministic():
    doc = parse_feature(RESOURCE_TEXT)
    once = skeletons_to_json(emit_skeletons(doc))
    assert once == skeletons_to_json(emit_skeletons(doc))
    payload = json.loads(once)
    assert list(payload[0]) == ["keyword", "pattern", "slug"]


@given(
    st.lists(
        st.text(
            alphabet=st.characters(blacklist_characters='"\n', min_codepoint=32, max_codepoint=126),
            min_size=1,
            max_size=12,
        ),
        min_size=1,
        max_size=4,
    ),
    st.booleans(),
)
def test_pattern_matches_originating_text(words, quote_one):
    text = " ".join(words).strip() or "x"
    if quote_one:
        text = f'{text} "payload"'
    skeleton = extract_skeleton("Given", text)
    # the pattern, read as a regex whose only wildcards are its (.*) groups,
    # matches the step it came from
    regex = "(.*)".join(re.escape(p) for p in skeleton.pattern.split("(.*)"))
    assert re.fullmatch(regex, f"Given {text}")
    assert skeleton.slug[0].isalpha()
    assert re.fullmatch(r"[a-z][a-z0-9_]*", skeleton.slug)


def test_group_marker_text_in_the_step_is_kept():
    s = extract_skeleton("Given", "mail to user@group1@example")
    assert s.pattern == "Given mail to user@group1@example"
    assert s.slug == "given_mail_to_user_group1_example"
    s = extract_skeleton("Given", 'mail "x" to user@group1@example')
    assert s.pattern == 'Given mail "(.*)" to user@group1@example'
    assert s.slug == "given_mail_group1_to_user_group1_example"
    regex = "(.*)".join(re.escape(p) for p in s.pattern.split("(.*)"))
    assert re.fullmatch(regex, 'Given mail "x" to user@group1@example')


def _tagged_skeleton(keyword, text):
    """Skeleton built the earlier way: tag each quoted span with an
    ``@groupN@`` marker, then strip the markers."""
    counter = 0

    def replace(match):
        nonlocal counter
        counter += 1
        return f'"(.*)"@group{counter}@'

    tagged = re.sub(r'"[^"]*"', replace, text)
    pattern_text = re.sub(r"@group\d+@", "", tagged)
    slug_source = re.sub(r'"\(\.\*\)"@(group\d+)@', r" \1 ", tagged)
    slug = re.sub(r"[^a-z0-9]+", "_", f"{keyword} {slug_source}".lower()).strip("_")
    return f"{keyword} {pattern_text}", slug


def test_split_skeleton_matches_tagging_on_marker_free_text():
    import random

    rng = random.Random(5)
    pieces = ['"', '"', "a", "Z", "7", " ", "@", "group", "(.*)", "_", "-", "."]
    compared = 0
    for _ in range(3000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(1, 12)))
        if text.count('"') % 2 or re.search(r"@group\d+@", text):
            continue
        s = extract_skeleton("When", text)
        assert (s.pattern, s.slug) == _tagged_skeleton("When", text), text
        compared += 1
    assert compared > 1000
