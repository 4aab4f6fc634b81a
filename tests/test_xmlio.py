"""XML model format: equivalence with the DSL and error behavior."""

import pytest

from flowspec.dsl import parse_dsl, serialize_dsl
from flowspec.errors import ModelSyntaxError, SemanticError, XmlError
from flowspec.model import validate
from flowspec.xmlio import parse_xml

from conftest import DATA_DIR


def test_m1_xml_equals_dsl_parse(m1):
    model = parse_xml((DATA_DIR / "m1.xml").read_text())
    assert model == m1


def test_every_fixture_has_an_equal_xml_form(fixtures):
    for name, model in fixtures.items():
        xml_model = parse_xml((DATA_DIR / f"{name}.xml").read_text())
        assert xml_model == model, name


def test_m9_xml_equals_dsl_parse(m9):
    model = parse_xml((DATA_DIR / "m9.xml").read_text())
    assert model == m9
    assert validate(model) == []
    composite = next(s for s in model.states if s.path == "S6")
    assert len(composite.children) == 3


def test_missing_target_attribute_is_xml_error():
    text = """\
<process title="x">
  <state id="S1"/>
  <trans id="t1">
    <in src="alpha" event="go"/>
    <out/>
  </trans>
</process>
"""
    with pytest.raises(XmlError) as exc:
        parse_xml(text)
    assert "target" in str(exc.value)


def test_second_initial_child_is_xml_error():
    text = """\
<process title="x">
  <state id="P">
    <initial id="A"/>
    <initial id="B"/>
    <state id="A"/>
    <state id="B"/>
  </state>
  <trans id="t1">
    <in src="alpha" event="go"/>
    <out target="P"/>
  </trans>
</process>
"""
    with pytest.raises(XmlError) as exc:
        parse_xml(text)
    assert "initial child of 'P' declared twice" in str(exc.value)
    # the DSL rejects the same model
    with pytest.raises(ModelSyntaxError) as exc:
        parse_dsl(
            'process "x" {\n  state P {\n    initial A\n    initial B\n'
            "    state A\n    state B\n  }\n  trans t1 { from alpha on go to P }\n}\n"
        )
    assert "initial child declared twice" in str(exc.value)


def test_malformed_xml_is_xml_error():
    with pytest.raises(XmlError):
        parse_xml("<process title='x'>")


def test_wrong_root_rejected():
    with pytest.raises(XmlError):
        parse_xml("<model/>")


def test_semantic_errors_surface():
    text = """\
<process title="x">
  <state id="S1"/>
  <state id="S1"/>
</process>
"""
    with pytest.raises(SemanticError) as exc:
        parse_xml(text)
    assert any(d.code == "DuplicateStateName" for d in exc.value.diagnostics)


def test_renamed_pseudostates():
    text = """\
<process title="x">
  <initial id="start"/>
  <final id="stop"/>
  <state id="S1"/>
  <trans id="t1">
    <in src="start" event="go"/>
    <out target="S1"/>
  </trans>
</process>
"""
    model = parse_xml(text)
    assert model.initial_name == "start"
    assert model.final_name == "stop"


def test_condition_attribute_parses_guard():
    text = """\
<process title="x">
  <state id="S1"/>
  <state id="S2"/>
  <trans id="t1">
    <in src="alpha" event="go"/>
    <out target="S1"/>
  </trans>
  <trans id="t2" cond="g1 and not g2" do="a1 a2">
    <in src="S1" event="ev"/>
    <out target="S2"/>
  </trans>
</process>
"""
    model = parse_xml(text)
    t2 = model.transitions[1]
    assert t2.shared_guard.literals == (("g1", False), ("g2", True))
    assert t2.shared_actions == ("a1", "a2")


def _cond_model(cond):
    return f"""\
<process title="x">
  <state id="S1"/>
  <state id="S2"/>
  <trans id="t1">
    <in src="alpha" event="go"/>
    <out target="S1"/>
  </trans>
  <trans id="t2" cond="{cond}">
    <in src="S1" event="ev"/>
    <out target="S2" cond="{cond}"/>
  </trans>
</process>
"""


BAD_CONDS = ["g1 g2", "g3 and", "not", "and g1", "g1 and not", "g1, g2", "ready#1", "g1 # and not g2"]


@pytest.mark.parametrize("cond", BAD_CONDS)
def test_condition_outside_the_guard_grammar_is_xml_error(cond):
    with pytest.raises(XmlError) as exc:
        parse_xml(_cond_model(cond))
    assert repr(cond) in str(exc.value)


# Elements the format does not allow where they stand, with the message each gets.
BAD_XML = {
    "process child": (
        '<process><state id="S1"/><bogus/></process>',
        "unexpected <bogus> inside <process>",
    ),
    "state child": (
        '<process><state id="S1"><bogus/></state></process>',
        "unexpected <bogus> inside <state>",
    ),
    "trans child": (
        '<process><state id="S1"/><trans id="t1"><in src="alpha"/><out target="S1"/><bogus/></trans></process>',
        "unexpected <bogus> inside <trans>",
    ),
    "dotted id outside its nesting": (
        '<process><state id="P"><initial id="a"/><state id="Q.a"/></state></process>',
        "dotted state id 'Q.a' does not match its nesting",
    ),
    "dotted id at the top": (
        '<process><state id="P.a"/></process>',
        "dotted state id 'P.a' does not match its nesting",
    ),
}


@pytest.mark.parametrize("case", BAD_XML)
def test_misplaced_element_is_xml_error(case):
    text, message = BAD_XML[case]
    with pytest.raises(XmlError) as exc:
        parse_xml(text)
    assert str(exc.value) == message


def test_empty_condition_means_no_guard():
    t2 = parse_xml(_cond_model("")).transitions[1]
    assert t2.shared_guard is None
    assert t2.outputs[0].guard is None


def test_deeply_nested_states_parse_like_the_dsl():
    # nesting costs the parser no stack frames: one a level would exhaust
    # the default recursion limit of 1,000 here
    depth = 1500
    xml = dsl = f"A{depth - 1}"
    xml = f'<state id="{xml}"/>'
    dsl = f"state {dsl}"
    for level in range(depth - 2, -1, -1):
        xml = f'<state id="A{level}"><initial id="A{level + 1}"/>{xml}</state>'
        dsl = f"state A{level} {{ initial A{level + 1} {dsl} }}"
    leaf = ".".join(f"A{level}" for level in range(depth))
    model = parse_xml(
        f'<process title="deep">{xml}'
        '<trans id="t1"><in src="alpha" event="e1"/><out target="A0"/></trans>'
        f'<trans id="t2"><in src="{leaf}" event="e2"/><out target="Beta"/></trans></process>'
    )
    expected = parse_dsl(
        f'process "deep" {{ {dsl} trans t1 {{ from alpha on e1 to A0 }} '
        f"trans t2 {{ from {leaf} on e2 to Beta }} }}"
    )
    assert serialize_dsl(model) == serialize_dsl(expected)
    assert serialize_dsl(model).count("initial A") == depth - 1
