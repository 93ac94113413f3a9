import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from machina.actions import builtin_registry
from machina.engine import dispatch, run, start
from machina.errors import MachinaError
from machina.harness import builtin_machine
from machina.model import (
    EventInstance,
    UnknownState,
    _walk_with_parents,
    enabled_transitions,
    initial_entry_path,
    is_identifier,
    parent_chain,
    start_state,
    validate_machine,
)
from helpers import MINIMAL_DOC, agent_for, machine_from, state

BUILTINS = builtin_registry().names()

# the reference definition of an identifier that is_identifier must match
IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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
            # nor warnings: CI's package smoke step requires "ok (0 warnings)"
            assert report.warnings == (), f"{name}: {[str(v) for v in report]}"

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

    @staticmethod
    def shadow_report(first: dict, second: dict, on_parent: bool = False, leaves: int = 1):
        """Validate ``a`` (start) with two ``go`` transitions, to ``b`` and
        ``c`` (both end), declared in that order on ``a`` or, with
        ``on_parent``, the second on ``a``'s parent ``p``. With two
        ``leaves``, ``p`` holds a second leaf ``a2``, which ``a`` reaches by
        ``next`` and which declares no ``go``."""
        go = {"source": "a", "target": "b", "event": "go", **first}
        later = {"source": "p" if on_parent else "a", "target": "c", "event": "go", **second}
        substates = [state("a"), state("a2")][:leaves]
        transitions = [go, later]
        if leaves > 1:
            transitions.append({"source": "a", "target": "a2", "event": "next"})
        doc = {
            "name": "m",
            "states": [
                state("p", tags=["start"], initial="a", substates=substates),
                state("b", tags=["end"]),
                state("c", tags=["end"]),
            ],
            "transitions": transitions,
        }
        report = validate_machine(machine_from(doc), BUILTINS)
        assert report.ok
        return [str(v) for v in report.warnings]

    @pytest.mark.parametrize(
        "first, second",
        [
            ({}, {}),
            ({}, {"trigger": "external"}),
            ({"trigger": "external"}, {"trigger": "external"}),
            ({}, {"guard": {"expr": "x == 1"}}),
        ],
        ids=["internal-internal", "internal-external", "external-external", "guarded-later"],
    )
    def test_a_transition_after_an_unguarded_one_with_its_event_is_shadowed(self, first, second):
        assert self.shadow_report(first, second) == [
            "[warning] ShadowedTransition: transition a--go-->c can never fire: "
            "the earlier transition a--go-->b has the same event and no guard"
        ]

    @pytest.mark.parametrize(
        "first, second",
        [
            ({}, {}),
            ({}, {"trigger": "external"}),
            ({"trigger": "external"}, {"trigger": "external"}),
            ({}, {"guard": {"expr": "x == 1"}}),
        ],
        ids=["ancestor", "ancestor-external", "ancestor-external-external", "ancestor-guarded"],
    )
    def test_an_ancestor_transition_every_leaf_shadows_is_shadowed(self, first, second):
        # p's only leaf a declares go itself, so a decision and dispatch by
        # name both take a's go before p's
        assert self.shadow_report(first, second, on_parent=True) == [
            "[warning] ShadowedTransition: transition p--go-->c can never fire in a run: "
            "at every leaf beneath 'p' a run has ended or an earlier transition has the same "
            "event and no guard"
        ]

    # p holds a and the end leaf e: at a, a's go comes first; at e a run has ended
    END_LEAF_DOC = {
        "name": "m",
        "states": [
            state("p", tags=["start"], initial="a", substates=[state("a"), state("e", tags=["end"])]),
            state("c", tags=["end"]),
        ],
        "transitions": [
            {"source": "a", "target": "e", "event": "go"},
            {"source": "p", "target": "c", "event": "go"},
        ],
    }

    def test_an_end_leaf_beneath_the_source_counts_as_shadowing(self):
        report = validate_machine(machine_from(self.END_LEAF_DOC), BUILTINS)
        assert report.ok
        assert [str(v) for v in report.warnings] == [
            "[warning] ShadowedTransition: transition p--go-->c can never fire in a run: "
            "at every leaf beneath 'p' a run has ended or an earlier transition has the same "
            "event and no guard"
        ]

    def test_the_end_leaf_shadowing_holds_for_runs_not_for_dispatch(self):
        # run stops at e, so p's go never fires in a run; dispatch called
        # directly at e still fires it, as the warning's wording allows
        result = run(agent_for(self.END_LEAF_DOC), EventInstance("go"))
        assert (result.status, result.belief_snapshot.current_state) == ("completed", "e")
        agent = agent_for(self.END_LEAF_DOC)
        start(agent)
        assert dispatch(agent, EventInstance("go")).target_leaf == "e"
        assert dispatch(agent, EventInstance("go")).transition.source == "p"
        assert agent.belief.current_state == "c"

    @pytest.mark.parametrize(
        "first, second, on_parent, leaves",
        [
            ({"guard": {"expr": "x == 1"}}, {}, False, 1),
            ({"trigger": "external"}, {}, False, 1),
            ({}, {}, True, 2),
            ({"guard": {"expr": "x == 1"}}, {}, True, 1),
            ({"trigger": "external"}, {}, True, 1),
        ],
        ids=[
            "guarded-earlier",
            "external-then-internal",
            "ancestor-with-a-leaf-without-go",
            "ancestor-guarded-earlier",
            "ancestor-external-then-internal",
        ],
    )
    def test_no_shadow_where_the_later_transition_can_still_fire(
        self, first, second, on_parent, leaves
    ):
        # a decision chooses the internal go past an external one; the parent's
        # go fires at leaves that do not declare go themselves
        assert self.shadow_report(first, second, on_parent, leaves) == []

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

    @pytest.mark.parametrize("initial", ["A", "B"], ids=["itself", "its-parent"])
    def test_initial_entry_path_refuses_an_initial_that_is_not_a_child(self, initial):
        """An ``initial`` naming the composite itself or an ancestor would walk
        a cycle; the walk stops there with a typed error instead."""
        sm = machine_from(
            {
                "name": "m",
                "states": [
                    state(
                        "A",
                        tags=["start"],
                        substates=[state("B", substates=[state("C", tags=["end"])], initial=initial)],
                        initial="B",
                    )
                ],
                "transitions": [],
            }
        )
        with pytest.raises(MachinaError, match="is not among its children"):
            initial_entry_path(sm, "A")

    @pytest.mark.parametrize(
        "text, expected",
        [("abc", True), ("_a1", True), ("abc\n", False), ("\nabc", False), ("a b", False),
         ("", False), ("1a", False), ("a.b", False)],
    )
    def test_is_identifier_matches_the_whole_text(self, text, expected):
        assert is_identifier(text) is expected
        assert (IDENTIFIER_RE.fullmatch(text) is not None) is expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.text()
        | st.text(alphabet="aZ_09é\n")
        | st.from_regex(IDENTIFIER_RE, fullmatch=True)
    )
    @example("é")
    @example("ǅ")
    @example("١")
    @example("a١")
    @example("a\n")
    @example("")
    @example("class")
    @example("_")
    def test_is_identifier_agrees_with_the_regex(self, text):
        assert is_identifier(text) is (IDENTIFIER_RE.fullmatch(text) is not None)

    @pytest.mark.parametrize("value", [None, 1, b"abc", ["abc"]])
    def test_is_identifier_rejects_non_strings(self, value):
        assert is_identifier(value) is False

    def test_is_end(self):
        routing = builtin_machine("routing")
        assert routing.state("End").is_end
        assert not routing.state("Start").is_end
        assert not builtin_machine("h3").state("Mid").is_end
