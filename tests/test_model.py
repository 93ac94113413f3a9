import random
from collections import Counter

import pytest

from machina.actions import builtin_registry
from machina.harness import builtin_machine
from machina.model import (
    UnknownState,
    _walk_with_parents,
    enabled_transitions,
    initial_entry_path,
    is_identifier,
    parent_chain,
    start_state,
    validate_machine,
)
from helpers import MINIMAL_DOC, machine_from, state

BUILTINS = builtin_registry().names()


def classes(report):
    return Counter(v.cls for v in report)


class TestValidate:
    def test_two_start_states(self):
        sm = machine_from(
            {
                "name": "m",
                "states": [state("a", tags=["start"]), state("b", tags=["start", "end"])],
                "transitions": [],
            }
        )
        assert classes(validate_machine(sm, BUILTINS)) == Counter({"MultipleStart": 1})

    def test_dangling_target(self):
        sm = machine_from(
            {
                "name": "m",
                "states": [state("a", tags=["start"]), state("b", tags=["end"])],
                "transitions": [
                    {"source": "a", "target": "Zz", "event": "go"},
                    {"source": "a", "target": "b", "event": "ok"},
                ],
            }
        )
        assert classes(validate_machine(sm, BUILTINS)) == Counter({"DanglingTransition": 1})

    def test_routing_fixture_is_clean(self):
        report = validate_machine(builtin_machine("routing"), BUILTINS)
        assert list(report) == []

    def test_bundled_machines_have_no_errors(self):
        for name in ("routing", "react", "planning", "h3", "test_driven", "agent_coder", "class_name"):
            report = validate_machine(builtin_machine(name), BUILTINS)
            assert report.ok, f"{name}: {[str(v) for v in report]}"

    def test_end_with_outgoing(self):
        sm = machine_from(
            {
                "name": "m",
                "states": [state("a", tags=["start"]), state("b", tags=["end"])],
                "transitions": [{"source": "b", "target": "a", "event": "back"}],
            }
        )
        assert "EndHasOutgoing" in classes(validate_machine(sm, BUILTINS))

    def test_missing_start_and_end(self):
        sm = machine_from({"name": "m", "states": [state("a")], "transitions": []})
        got = classes(validate_machine(sm, BUILTINS))
        assert got["MissingStart"] == 1 and got["MissingEnd"] == 1

    def test_nested_start_tag_rejected(self):
        sm = machine_from(
            {
                "name": "m",
                "states": [
                    state(
                        "outer",
                        tags=["start"],
                        substates=[state("inner", tags=["start"])],
                        initial="inner",
                    ),
                    state("done", tags=["end"]),
                ],
                "transitions": [],
            }
        )
        assert "MultipleStart" in classes(validate_machine(sm, BUILTINS))

    def test_duplicate_state_names(self):
        sm = machine_from(
            {
                "name": "m",
                "states": [
                    state("a", tags=["start"], substates=[state("b")], initial="b"),
                    state("b", tags=["end"]),
                ],
                "transitions": [],
            }
        )
        assert "DuplicateState" in classes(validate_machine(sm, BUILTINS))

    def test_composite_initial_not_a_child(self):
        sm = machine_from(
            {
                "name": "m",
                "states": [
                    state("a", tags=["start"], substates=[state("x")], initial="y"),
                    state("b", tags=["end"]),
                ],
                "transitions": [],
            }
        )
        assert "CompositeWithoutInitial" in classes(validate_machine(sm, BUILTINS))

    def test_unknown_action(self):
        sm = machine_from(
            {
                "name": "m",
                "states": [
                    {**state("a", tags=["start"]), "entry": {"name": "frobnicate"}},
                    state("b", tags=["end"]),
                ],
                "transitions": [],
            }
        )
        assert "UnknownAction" in classes(validate_machine(sm, BUILTINS))

    def test_bad_guard_expression(self):
        sm = machine_from(
            {
                "name": "m",
                "states": [state("a", tags=["start"]), state("b", tags=["end"])],
                "transitions": [
                    {"source": "a", "target": "b", "event": "go", "guard": {"expr": "a == "}}
                ],
            }
        )
        assert "BadGuard" in classes(validate_machine(sm, BUILTINS))

    def test_unreachable_state_is_warning_only(self):
        sm = machine_from(
            {
                "name": "m",
                "states": [state("a", tags=["start", "end"]), state("island")],
                "transitions": [],
            }
        )
        report = validate_machine(sm, BUILTINS)
        assert report.ok
        assert [v.cls for v in report.warnings] == ["UnreachableState"]

    def test_order_independent_violation_multiset(self):
        doc = {
            "name": "m",
            "states": [
                state("a", tags=["start"]),
                state("b", tags=["start"]),
                state("c"),
            ],
            "transitions": [
                {"source": "a", "target": "zz", "event": "go"},
                {"source": "c", "target": "a", "event": "back"},
            ],
        }
        baseline = classes(validate_machine(machine_from(doc), BUILTINS))
        rnd = random.Random(3)
        for _ in range(5):
            shuffled = {
                "name": "m",
                "states": rnd.sample(doc["states"], len(doc["states"])),
                "transitions": rnd.sample(doc["transitions"], len(doc["transitions"])),
            }
            assert classes(validate_machine(machine_from(shuffled), BUILTINS)) == baseline

    def test_idempotent(self):
        sm = machine_from(MINIMAL_DOC)
        first = validate_machine(sm, BUILTINS)
        second = validate_machine(sm, BUILTINS)
        assert first == second


class TestQueries:
    def test_start_state_routing(self):
        assert start_state(builtin_machine("routing")) == "Start"

    def test_start_state_minimal(self):
        assert start_state(machine_from(MINIMAL_DOC)) == "a"

    def test_start_state_h3(self):
        assert start_state(builtin_machine("h3")) == "Top"

    def test_parent_chain_top_level(self):
        assert parent_chain(builtin_machine("routing"), "Start") == []

    def test_parent_chain_h3(self):
        h3 = builtin_machine("h3")
        assert parent_chain(h3, "Leaf") == ["Mid", "Top"]
        assert parent_chain(h3, "Mid") == ["Top"]

    def test_parent_chain_unknown(self):
        with pytest.raises(UnknownState):
            parent_chain(builtin_machine("h3"), "Nope")

    def test_enabled_transitions_h3_own_first(self):
        h3 = builtin_machine("h3")
        events = [t.event for t in enabled_transitions(h3, "Leaf")]
        assert events == ["e1", "e2", "e3"]

    def test_enabled_transitions_end_state(self):
        assert enabled_transitions(builtin_machine("h3"), "Done") == []

    def test_enabled_transitions_routing_classification(self):
        routing = builtin_machine("routing")
        events = [t.event for t in enabled_transitions(routing, "QuestionClassification")]
        assert events == ["count", "judge", "query"]

    def test_enabled_transitions_each_exactly_once(self):
        for name in ("routing", "react", "planning", "h3"):
            sm = builtin_machine(name)
            for st, _ in _walk_with_parents(sm.states):
                enabled = enabled_transitions(sm, st.name)
                assert len(enabled) == len({id(t) for t in enabled})

    def test_initial_entry_path(self):
        h3 = builtin_machine("h3")
        assert initial_entry_path(h3, "Leaf") == ["Leaf"]
        assert initial_entry_path(h3, "Mid") == ["Mid", "Leaf"]
        assert initial_entry_path(h3, "Top") == ["Top", "Mid", "Leaf"]

    def test_initial_entry_path_ends_at_leaf(self):
        h3 = builtin_machine("h3")
        for st, _ in _walk_with_parents(h3.states):
            leaf = initial_entry_path(h3, st.name)[-1]
            assert not h3.state(leaf).is_composite

    @pytest.mark.parametrize(
        "text, expected",
        [("abc", True), ("_a1", True), ("abc\n", False), ("\nabc", False), ("a b", False),
         ("", False), ("1a", False), ("a.b", False)],
    )
    def test_is_identifier_matches_the_whole_text(self, text, expected):
        assert is_identifier(text) is expected

    def test_is_end(self):
        routing = builtin_machine("routing")
        assert routing.state("End").is_end
        assert not routing.state("Start").is_end
        assert not builtin_machine("h3").state("Mid").is_end
