import json
import re

import pytest

from machina.dot import export_dot
from machina.errors import SchemaError
from machina.harness import builtin_machine
from machina.json_extract import JsonSyntaxError
from machina.machine_io import (
    load_machine,
    machine_to_value,
    parse_machine,
    serialize_machine,
)
from machina.model import GUARD_ACTION, ActionSpec, ParameterSpec, State, StateMachine
from helpers import MINIMAL_DOC, machine_from, state


class TestParse:
    def test_minimal_machine(self):
        sm = parse_machine(json.dumps(MINIMAL_DOC))
        assert sm.name == "m"
        assert len(sm.states) == 1
        assert sm.states[0].tags == frozenset({"start", "end"})
        assert sm.transitions == ()

    def test_routing_fixture_counts(self):
        sm = builtin_machine("routing")
        assert len(sm.states) == 5
        assert len(sm.transitions) == 5

    def test_unknown_top_level_key_pointer(self):
        doc = {"name": "m", "stats": [], "transitions": []}
        with pytest.raises(SchemaError) as err:
            parse_machine(json.dumps(doc))
        assert err.value.pointer == "/stats"

    def test_unknown_nested_key_pointer(self):
        doc = {
            "name": "m",
            "states": [{"name": "a", "description": "", "tagz": []}],
            "transitions": [],
        }
        with pytest.raises(SchemaError) as err:
            parse_machine(json.dumps(doc))
        assert err.value.pointer == "/states/0/tagz"

    def test_missing_description(self):
        doc = {"name": "m", "states": [{"name": "a"}], "transitions": []}
        with pytest.raises(SchemaError):
            parse_machine(json.dumps(doc))

    def test_initial_without_substates(self):
        doc = {
            "name": "m",
            "states": [{**state("a", tags=["start", "end"]), "initial": "x"}],
            "transitions": [],
        }
        with pytest.raises(SchemaError) as err:
            parse_machine(json.dumps(doc))
        assert "initial" in str(err.value)

    def test_bad_tag(self):
        doc = {"name": "m", "states": [state("a", tags=["begin"])], "transitions": []}
        with pytest.raises(SchemaError):
            parse_machine(json.dumps(doc))

    def test_duplicate_param_names(self):
        doc = {
            "name": "m",
            "states": [
                {
                    **state("a", tags=["start", "end"]),
                    "entry": {
                        "name": "note",
                        "params": [
                            {"name": "x", "source": "external", "datatype": "string"},
                            {"name": "x", "source": "external", "datatype": "string"},
                        ],
                    },
                }
            ],
            "transitions": [],
        }
        with pytest.raises(SchemaError):
            parse_machine(json.dumps(doc))

    def test_source_key_only_internal(self):
        doc = {
            "name": "m",
            "states": [
                {
                    **state("a", tags=["start", "end"]),
                    "entry": {
                        "name": "note",
                        "params": [
                            {
                                "name": "x",
                                "source": "external",
                                "datatype": "string",
                                "source_key": "y",
                            }
                        ],
                    },
                }
            ],
            "transitions": [],
        }
        with pytest.raises(SchemaError):
            parse_machine(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value, pointer",
        [
            ("source", "belief", "/states/0/entry/params/0/source"),
            ("datatype", "integer", "/states/0/entry/params/0/datatype"),
        ],
    )
    def test_bad_parameter_field(self, field, value, pointer):
        param = {"name": "text", "source": "external", "datatype": "string", field: value}
        entry = {"name": "note", "params": [param]}
        doc = {
            "name": "m",
            "states": [{**state("a", tags=["start", "end"]), "entry": entry}],
            "transitions": [],
        }
        with pytest.raises(SchemaError) as err:
            parse_machine(json.dumps(doc))
        assert err.value.pointer == pointer

    def test_repeated_tags(self):
        doc = {
            "name": "m",
            "states": [state("a", tags=["start", "end", "start"])],
            "transitions": [],
        }
        with pytest.raises(SchemaError, match="tags must be unique") as err:
            parse_machine(json.dumps(doc))
        assert err.value.pointer == "/states/0/tags"

    def test_guard_needs_exactly_one_kind(self):
        base = {
            "name": "m",
            "states": [state("a", tags=["start"]), state("b", tags=["end"])],
        }
        both = {
            **base,
            "transitions": [
                {
                    "source": "a",
                    "target": "b",
                    "event": "go",
                    "guard": {"expr": "x", "action": "note"},
                }
            ],
        }
        with pytest.raises(SchemaError):
            parse_machine(json.dumps(both))

    def test_invalid_json_gives_position(self):
        with pytest.raises(JsonSyntaxError) as err:
            parse_machine('{"name": "m",\n  "states": }')
        assert err.value.line == 2

    def test_invalid_utf8_bytes(self):
        with pytest.raises(JsonSyntaxError):
            parse_machine(b'\xff\xfe{"name"}')

    def test_non_identifier_event(self):
        doc = {
            "name": "m",
            "states": [state("a", tags=["start"]), state("b", tags=["end"])],
            "transitions": [{"source": "a", "target": "b", "event": "go go"}],
        }
        with pytest.raises(SchemaError):
            parse_machine(json.dumps(doc))

    def test_name_with_a_trailing_newline_is_not_an_identifier(self):
        doc = {
            "name": "m",
            "states": [state("a\n", tags=["start", "end"])],
            "transitions": [],
        }
        with pytest.raises(SchemaError, match="is not an identifier"):
            parse_machine(json.dumps(doc))
        entry = {"name": "x", "output_key": "out\n"}
        doc["states"] = [{**state("a", tags=["start", "end"]), "entry": entry}]
        with pytest.raises(SchemaError, match="is not an identifier"):
            parse_machine(json.dumps(doc))


class TestRoundTrip:
    def test_minimal_fixpoint(self):
        text1 = serialize_machine(parse_machine(json.dumps(MINIMAL_DOC)))
        text2 = serialize_machine(parse_machine(text1))
        assert text1 == text2

    @pytest.mark.parametrize(
        "name", ["routing", "react", "planning", "h3", "test_driven", "agent_coder", "class_name"]
    )
    def test_bundled_fixtures_round_trip(self, name):
        sm = builtin_machine(name)
        again = parse_machine(serialize_machine(sm))
        assert again == sm
        assert serialize_machine(again) == serialize_machine(sm)

    def test_guard_action_reemitted(self):
        doc = {
            "name": "m",
            "states": [state("a", tags=["start"]), state("b", tags=["end"])],
            "transitions": [
                {"source": "a", "target": "b", "event": "go", "guard": {"action": "note"}}
            ],
        }
        sm = parse_machine(json.dumps(doc))
        assert sm.transitions[0].guard.kind == GUARD_ACTION
        value = machine_to_value(sm)
        assert value["transitions"][0]["guard"] == {"action": "note"}

    def test_guard_expression_text_preserved(self):
        doc = {
            "name": "m",
            "states": [state("a", tags=["start"]), state("b", tags=["end"])],
            "transitions": [
                {
                    "source": "a",
                    "target": "b",
                    "event": "go",
                    "guard": {"expr": "retries < 2 and not done"},
                }
            ],
        }
        sm = parse_machine(json.dumps(doc))
        assert parse_machine(serialize_machine(sm)) == sm

    def test_keys_equal_to_the_name_are_dropped(self):
        action = {
            "name": "countObjects",
            "output_key": "countObjects",
            "params": [
                {"name": "ids", "source": "internal", "datatype": "json", "source_key": "ids"}
            ],
        }
        doc = {
            "name": "m",
            "states": [{**state("a", tags=["start", "end"]), "entry": action}],
            "transitions": [],
        }
        sm = parse_machine(json.dumps(doc))
        spec = sm.states[0].entry_action
        assert spec.output_key is None and spec.params[0].source_key is None
        text = serialize_machine(sm)
        assert "output_key" not in text and "source_key" not in text
        assert serialize_machine(parse_machine(text)) == text

    def test_keys_equal_to_the_name_built_in_python_are_not_written(self):
        spec = ActionSpec(
            "note",
            output_key="note",
            params=(ParameterSpec("text", "internal", "string", source_key="text"),),
        )
        only = State("a", tags=frozenset({"start", "end"}), entry_action=spec)
        sm = StateMachine("m", (only,), ())
        text = serialize_machine(sm)
        assert "output_key" not in text and "source_key" not in text
        assert serialize_machine(parse_machine(text)) == text

    def test_serialize_uses_schema_key_order(self):
        text = serialize_machine(builtin_machine("routing"))
        doc = json.loads(text)
        assert list(doc) == ["name", "states", "transitions"]
        assert list(doc["states"][1])[:2] == ["name", "description"]
        assert text.startswith('{\n  "name"')


class TestDot:
    def test_minimal_has_start_point_and_node(self):
        out = export_dot(machine_from(MINIMAL_DOC))
        assert out.startswith("digraph")
        assert "__start [shape=point]" in out
        assert '"a" [shape=doublecircle]' in out

    def test_routing_flat_edges(self):
        out = export_dot(builtin_machine("routing"))
        assert "subgraph cluster_" not in out
        assert out.count("label=") == 5  # one label per transition
        assert '"End" [shape=doublecircle]' in out

    def test_h3_nested_clusters(self):
        out = export_dot(builtin_machine("h3"))
        assert out.count("subgraph cluster_") == 2
        top = out.index("cluster_Top")
        mid = out.index("cluster_Mid")
        assert top < mid  # Mid nests inside Top

    def test_guard_in_edge_label(self):
        doc = {
            "name": "m",
            "states": [state("a", tags=["start"]), state("b", tags=["end"])],
            "transitions": [
                {"source": "a", "target": "b", "event": "go", "guard": {"expr": "x > 1"}}
            ],
        }
        out = export_dot(machine_from(doc))
        assert 'label="go [x > 1]"' in out

    def test_action_guard_in_edge_label(self):
        doc = {
            "name": "m",
            "states": [state("a", tags=["start"]), state("b", tags=["end"])],
            "transitions": [
                {"source": "a", "target": "b", "event": "go", "guard": {"action": "x"}}
            ],
        }
        machine = machine_from(doc)
        assert machine.transitions[0].guard.describe() == "action:x"
        assert 'label="go [action:x]"' in export_dot(machine)


# A DOT tokenizer: enough of the grammar to tell a well-formed attribute list
# from one that a stray quote has broken apart.
DOT_TOKEN = re.compile(
    r'\s+|(?P<string>"(?:[^"\\\n]|\\.)*")|(?P<id>[A-Za-z_][A-Za-z0-9_]*)'
    r"|(?P<edge>->)|(?P<punct>[{}\[\];,=])"
)


def dot_tokens(text: str) -> list[tuple[str, str]]:
    """(kind, value) pairs; string values come back unescaped."""
    tokens, pos = [], 0
    while pos < len(text):
        m = DOT_TOKEN.match(text, pos)
        assert m, f"not DOT at {text[pos:pos + 30]!r}"
        pos = m.end()
        if m.lastgroup == "string":
            body = m.group()[1:-1]
            value = re.sub(r"\\(.)", lambda e: "\n" if e.group(1) == "n" else e.group(1), body)
            tokens.append(("string", value))
        elif m.lastgroup:
            tokens.append((m.lastgroup, m.group()))
    return tokens


def dot_attributes(text: str) -> list[tuple[str, str]]:
    """Every ``name=value`` pair, asserting that brackets balance and that
    each value is one token followed by a separator."""
    tokens = dot_tokens(text)
    depth = {"{": 0, "[": 0}
    closers = {"}": "{", "]": "["}
    attrs = []
    for i, (_, value) in enumerate(tokens):
        if value in depth:
            depth[value] += 1
        elif value in closers:
            depth[closers[value]] -= 1
            assert depth[closers[value]] >= 0
        elif value == "=":
            assert tokens[i - 1][0] == "id"
            assert tokens[i + 1][0] in ("string", "id")
            assert tokens[i + 2][1] in (",", "]", ";")
            attrs.append((tokens[i - 1][1], tokens[i + 1][1]))
    assert depth == {"{": 0, "[": 0}
    return attrs


def guarded_edge_doc(expr: str) -> dict:
    return {
        "name": "m",
        "states": [state("a", tags=["start"]), state("b", tags=["end"])],
        "transitions": [
            {"source": "a", "target": "b", "event": "go", "guard": {"expr": expr}}
        ],
    }


class TestDotQuoting:
    @pytest.mark.parametrize(
        "expr",
        ['answer == "yes"', 'answer == "a\\\\b"', 'answer ==\n"yes"', "answer == 'it\\'s'"],
    )
    def test_guard_text_round_trips_through_the_label(self, expr):
        out = export_dot(machine_from(guarded_edge_doc(expr)))
        assert ("label", f"go [{expr}]") in dot_attributes(out)

    @pytest.mark.parametrize(
        "name", ["routing", "react", "planning", "h3", "class_name", "test_driven", "agent_coder"]
    )
    def test_builtin_machines_tokenize(self, name):
        sm = builtin_machine(name)
        attrs = dot_attributes(export_dot(sm))
        labels = [v for k, v in attrs if k == "label"]
        assert len(labels) == len(sm.transitions) + _composite_count(sm.states)


def _composite_count(states) -> int:
    return sum(st.is_composite + _composite_count(st.substates) for st in states)


class TestFiles:
    def test_save_then_load(self, tmp_path):
        sm = builtin_machine("routing")
        path = tmp_path / "copy.sm.json"
        path.write_text(serialize_machine(sm), encoding="utf-8")
        assert load_machine(path) == sm


class TestDotComposites:
    def test_end_tagged_composite_double_bordered(self):
        doc = {
            "name": "m",
            "states": [
                state("a", tags=["start"]),
                {
                    **state("W", tags=["end"]),
                    "substates": [state("w1")],
                    "initial": "w1",
                },
            ],
            "transitions": [
                {"source": "a", "target": "W", "event": "go", "trigger": "external"}
            ],
        }
        out = export_dot(machine_from(doc))
        assert "peripheries=2;" in out
        assert "lhead=cluster_W" in out
