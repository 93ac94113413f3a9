import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import machina.belief as belief_module
import machina.json_extract as json_extract
from machina.actions import ActionContext
from machina.belief import (
    ActionRecord,
    Belief,
    NotJsonValue,
    StepOutOfOrder,
    TransitionRecord,
    belief_to_trace,
    copy_json,
    estimate_tokens,
    kv_get,
    kv_set,
    new_belief,
    parsed_input,
    record_action,
    record_transition,
    render_history,
    snapshot,
)
from machina.engine import RunResult, StepOutcome
from machina.errors import MachinaError
from machina.keypath import ABSENT
from machina.model import ActionSpec, EventInstance, Transition
from machina.providers import CallStats, ScriptedProvider
from machina.scene import scene_to_json_value
from helpers import Unhashable, s1_scene
from copy_json_reference import reference_copy_json
from history_reference import reference_render_history
from snapshot_reference import reference_snapshot


def transition(step, source="a", target="b", event="go", payload=None):
    return TransitionRecord(step, source, target, event, payload)


def action(step, name="note", output="x", phase="entry"):
    return ActionRecord(step, name, {}, output, phase)


class TestStores:
    def test_new_belief_empty(self):
        b = new_belief()
        assert b.task_context == []
        assert b.trajectory == [] and b.execution_log == []
        assert b.kv == {} and b.current_state is None

    def test_task_context_order(self):
        b = new_belief([("user", "one"), ("system", "two")])
        assert b.task_context == [("user", "one"), ("system", "two")]

    def test_task_context_role_checked(self):
        with pytest.raises(MachinaError):
            new_belief([("assistant", "nope")])

    def test_first_transition(self):
        b = new_belief()
        record_transition(b, transition(1))
        assert len(b.trajectory) == 1
        assert b.current_state == "b"

    def test_step_out_of_order(self):
        b = new_belief()
        record_transition(b, transition(1))
        with pytest.raises(StepOutOfOrder):
            record_transition(b, transition(3))

    def test_action_after_step_leaves_trajectory_alone(self):
        b = new_belief()
        record_transition(b, transition(1))
        record_transition(b, transition(2, source="b", target="c"))
        record_action(b, action(2))
        assert len(b.trajectory) == 2
        assert len(b.execution_log) == 1

    def test_action_step_zero_allowed(self):
        b = new_belief()
        record_action(b, action(0))
        assert b.execution_log[0].step == 0

    def test_action_step_beyond_in_flight_rejected(self):
        b = new_belief()
        with pytest.raises(StepOutOfOrder):
            record_action(b, action(2))

    def test_action_phase_checked(self):
        b = new_belief()
        with pytest.raises(MachinaError):
            record_action(b, action(0, phase="during"))


class TestKv:
    def test_set_then_get(self):
        b = new_belief()
        kv_set(b, "answer", 3)
        assert kv_get(b, "answer") == 3

    def test_overwrite(self):
        b = new_belief()
        kv_set(b, "k", 1)
        kv_set(b, "k", 2)
        assert kv_get(b, "k") == 2

    def test_nested_scene_lookup(self):
        b = new_belief()
        kv_set(b, "scene", scene_to_json_value(s1_scene()))
        assert kv_get(b, "scene.objects.0.color") == "gray"

    def test_missing_is_absent_not_error(self):
        b = new_belief()
        assert kv_get(b, "nope") is ABSENT
        assert kv_get(b, "nope.deeper") is ABSENT

    def test_path_past_a_list_or_into_a_scalar_is_absent(self):
        b = new_belief()
        kv_set(b, "items", [1, 2])
        kv_set(b, "n", 3)
        assert kv_get(b, "items.1") == 2
        assert kv_get(b, "items.2") is ABSENT
        assert kv_get(b, "n.0") is ABSENT
        assert kv_get(b, "items.0.x") is ABSENT

    def test_key_must_be_identifier(self):
        with pytest.raises(MachinaError):
            kv_set(new_belief(), "bad key", 1)
        with pytest.raises(MachinaError, match="must be an identifier"):
            kv_set(new_belief(), "out\n", 1)

    @settings(max_examples=150, deadline=None)
    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=8),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=3),
                st.dictionaries(st.text(max_size=4), children, max_size=3),
            ),
            max_leaves=8,
        )
    )
    def test_set_get_identity(self, value):
        b = new_belief()
        kv_set(b, "slot", value)
        assert kv_get(b, "slot") == value


def filled_belief(n_steps: int, with_payloads: bool = False) -> "Belief":
    b = new_belief()
    for i in range(1, n_steps + 1):
        payload = {"i": i} if with_payloads else None
        record_transition(b, transition(i, source=f"s{i - 1}", target=f"s{i}", payload=payload))
        record_action(b, action(i, output=f"out{i}"))
    return b


class TestRenderHistory:
    def test_empty(self):
        assert render_history(new_belief(), 100) == ""

    def test_budget_selects_exact_suffix(self):
        b = filled_belief(10)
        lines = render_history(b, 10_000).split("\n")
        assert len(lines) == 20  # transition + action per step
        tail = lines[-3:]
        budget = sum(estimate_tokens(line + "\n") for line in tail)
        rendered = render_history(b, budget)
        assert rendered.split("\n") == tail

    def test_single_long_record_truncated(self):
        b = new_belief()
        record_action(b, action(0, output="x" * 400))
        out = render_history(b, 1)
        assert out.startswith("...")
        assert len(out.encode()) <= 3 + 4  # marker plus one token's worth

    def test_rendered_is_suffix_and_fits_budget(self):
        rnd = random.Random(11)
        for _ in range(40):
            b = filled_belief(rnd.randint(1, 12), with_payloads=True)
            budget = rnd.randint(1, 400)
            full = render_history(b, 10_000).split("\n")
            out = render_history(b, budget)
            if out.startswith("..."):
                assert estimate_tokens(out) <= budget + len("...")
                continue
            lines = out.split("\n") if out else []
            assert estimate_tokens(out) <= budget
            if lines:
                assert full[-len(lines):] == lines

    def test_interleaving_order(self):
        b = new_belief()
        record_action(b, action(0, output="boot"))
        record_transition(b, transition(1))
        record_action(b, action(1, output="after"))
        lines = render_history(b, 1000).split("\n")
        assert "boot" in lines[0]
        assert "transition" in lines[1]
        assert "after" in lines[2]


JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=12),  # multi-byte characters included
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=6,
)
# ("transition", payload) appends the next step; ("action", step, output)
# records an action at ``step`` clamped to what record_action accepts: step 0,
# an earlier step (out of order), the newest step, or the step in flight.
HISTORY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("transition"), st.one_of(st.none(), st.just({}), JSON_VALUES)),
        st.tuples(st.just("action"), st.integers(0, 12), JSON_VALUES),
    ),
    max_size=24,
)


def belief_from_ops(ops) -> "Belief":
    b = new_belief()
    for op in ops:
        n = len(b.trajectory)
        if op[0] == "transition":
            record_transition(b, transition(n + 1, source=f"s{n}", target=f"s{n + 1}", payload=op[1]))
        else:
            step = min(op[1], n + 1)
            record_action(b, ActionRecord(step, f"a{len(b.execution_log)}", {"k": op[2]}, op[2], "transition"))
    return b


def counting_formatters(monkeypatch) -> list:
    """Count the records render_history formats."""
    formatted = []
    for name in ("_action_line", "_transition_line"):
        original = getattr(belief_module, name)
        monkeypatch.setattr(
            belief_module, name, lambda rec, original=original: formatted.append(rec) or original(rec)
        )
    return formatted


class TestNewestFirstHistory:
    """render_history walks the records newest first; its text must equal the
    oldest-first reference that formats every record."""

    @settings(max_examples=200, deadline=None)
    @given(HISTORY_OPS, st.data())
    def test_matches_the_reference(self, ops, data):
        b = belief_from_ops(ops)
        full = reference_render_history(b, 10**9)
        full_tokens = sum(estimate_tokens(line + "\n") for line in full.split("\n")) if full else 0
        budget = data.draw(st.integers(1, full_tokens + 20), label="budget")
        assert render_history(b, budget) == reference_render_history(b, budget)

    def test_out_of_order_and_in_flight_steps(self):
        b = new_belief()
        record_action(b, action(0, output="boot"))
        record_action(b, action(1, output="in-flight-1"))
        record_transition(b, transition(1))
        record_action(b, action(2, output="in-flight-2"))
        record_transition(b, transition(2, payload={"p": "é"}))
        record_action(b, action(1, output="late-for-1"))
        record_action(b, action(0, output="late-boot"))
        record_action(b, action(3, output="in-flight-3"))
        for budget in range(1, 200):
            assert render_history(b, budget) == reference_render_history(b, budget)
        outputs = [line.rsplit("output=", 1)[-1] for line in render_history(b, 10**6).split("\n")]
        assert outputs[:2] == ['"boot"', '"late-boot"']
        assert outputs[3:5] == ['"in-flight-1"', '"late-for-1"']

    def test_without_the_c_encoder(self, monkeypatch):
        b = filled_belief(3, with_payloads=True)
        record_action(b, action(3, output={"é": [1.5, None, True, "a\nb"], "a": -0.0}))
        expected = reference_render_history(b, 10**6)
        assert render_history(b, 10**6) == expected
        monkeypatch.setattr(json_extract, "c_make_encoder", None)
        writer = json_extract.json_writer(sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        monkeypatch.setattr(belief_module, "_dump", writer)
        assert render_history(b, 10**6) == expected

    def test_truncated_newest_record(self):
        b = filled_belief(3)
        record_action(b, action(3, output="é" * 500))
        for budget in (1, 2, 7, 100):
            out = render_history(b, budget)
            assert out.startswith("...")
            assert out == reference_render_history(b, budget)

    def test_records_formatted_stop_growing_once_the_window_is_full(self, monkeypatch):
        formatted = counting_formatters(monkeypatch)
        for steps in (100, 1000, 5000):
            formatted.clear()
            out = render_history(filled_belief(steps, with_payloads=True), 300)
            # the lines shown, plus the one that did not fit
            assert len(formatted) == out.count("\n") + 2 < 40


class TestTrace:
    def test_schema_keys(self):
        b = filled_belief(2)
        kv_set(b, "k", 1)
        trace = belief_to_trace(b)
        assert set(trace) == {
            "task_context",
            "inputs",
            "trajectory",
            "execution_log",
            "kv",
            "current_state",
        }
        assert json.dumps(trace)  # JSON-serializable
        assert trace["trajectory"][0]["step"] == 1
        assert trace["current_state"] == "s2"


def hot_records():
    """One of each named-tuple type the engine builds per step or run."""
    snap = snapshot(new_belief())
    return [
        transition(1),
        action(1),
        ActionContext(ScriptedProvider.from_replies([]), ActionSpec("note")),
        StepOutcome(EventInstance("go"), Transition("a", "b", "go"), "a", "b", ()),
        RunResult("completed", None, snap, CallStats()),
    ]


class TestSnapshot:
    def test_records_are_frozen(self):
        for record in hot_records():
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], "changed")
            with pytest.raises(AttributeError):
                record.extra = 1

    def test_field_order_and_defaults_are_pinned(self):
        # the engine builds these positionally, so a reorder must show here
        assert {type(r).__name__: (r._fields, r._field_defaults) for r in hot_records()} == {
            "TransitionRecord": (
                ("step", "source", "target", "event", "event_payload"),
                {"event_payload": None},
            ),
            "ActionRecord": (("step", "action", "inputs", "output", "phase"), {}),
            "ActionContext": (("provider", "spec"), {}),
            "StepOutcome": (
                ("event", "transition", "source_leaf", "target_leaf", "records"),
                {},
            ),
            "RunResult": (
                ("status", "output", "belief_snapshot", "stats", "reason"),
                {"reason": None},
            ),
        }

    def test_shares_records_and_copies_the_rest(self):
        b = filled_belief(3, with_payloads=True)
        kv_set(b, "items", [{"n": 1}])
        snap = snapshot(b)
        assert all(s is r for s, r in zip(snap.trajectory, b.trajectory))
        assert all(s is r for s, r in zip(snap.execution_log, b.execution_log))
        record_transition(b, transition(4, source="s3", target="s4"))
        b.kv["items"][0]["n"] = 2
        b.task_context.append(("user", "later"))
        assert len(snap.trajectory) == 3 and snap.current_state == "s3"
        assert snap.kv == {"items": [{"n": 1}]}
        assert snap.task_context == []


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)
# JSON values mixed with what copy_json must reject: subclasses of str, int
# and float, bytes, sets, tuples and keys that are not strings
MIXED_VALUES = st.recursive(
    st.one_of(
        JSON_LEAVES,
        st.text().map(_Str),
        st.integers().map(_Int),
        st.floats(allow_nan=False).map(_Float),
        st.binary(max_size=4),
        st.sets(st.integers(), max_size=3),
        st.builds(Unhashable),
    ),
    lambda children: st.lists(children)
    | st.dictionaries(st.text(), children)
    | st.dictionaries(st.one_of(st.text(), st.integers(), st.none()), children)
    | st.lists(children).map(tuple),
    max_leaves=20,
)


def outcome(copier, value) -> tuple:
    """``copier(value)``, or the type and message of what it raised."""
    try:
        return "copied", copier(value)
    except NotJsonValue as exc:
        return type(exc), str(exc)


@pytest.fixture
def int_digit_limit():
    """Sets the interpreter's limit on an int's digits for one test."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no limit on an int's digits")
    kept = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(kept)


def placed(value) -> list:
    """``value`` alone, as a dict member and as a list member."""
    return [value, {"k": value}, ["s", value]]


class TestCopyJson:
    @pytest.mark.parametrize("limit", [640, 700, 4300])
    def test_an_int_is_copied_only_when_str_writes_it(self, int_digit_limit, limit):
        int_digit_limit(limit)
        for sign in (1, -1):
            longest, too_long = sign * (10**limit - 1), sign * 10**limit
            for value in placed(longest) + placed(sign * 10**639):
                assert copy_json(value) == value
                assert outcome(copy_json, value) == outcome(reference_copy_json, value)
            for value in placed(too_long):
                with pytest.raises(NotJsonValue, match=f"more than {limit} digits"):
                    copy_json(value)
                assert outcome(copy_json, value) == outcome(reference_copy_json, value)

    def test_without_a_limit_every_int_is_copied(self, int_digit_limit):
        int_digit_limit(0)
        for value in placed(10**5000):
            assert copy_json(value) == value

    def test_copies_nested_containers(self):
        value = {"a": [1, {"b": None}], "c": "s", "d": 1.5, "e": True}
        copied = copy_json(value)
        assert copied == value
        assert copied is not value and copied["a"] is not value["a"]
        assert copied["a"][1] is not value["a"][1]

    def test_other_values_raise_not_json_value(self):
        with pytest.raises(NotJsonValue, match="a tuple is not a JSON value") as info:
            copy_json({"t": ([1], "x")})
        assert isinstance(info.value, MachinaError)

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(),
            ),
            lambda children: st.lists(children) | st.dictionaries(st.text(), children),
        )
    )
    def test_copy_is_equal_and_shares_no_container(self, value):
        copied = copy_json(value)
        assert copied == value
        assert not containers(copied) & containers(value)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(JSON_VALUES, MIXED_VALUES))
    def test_matches_the_reference_copier(self, value):
        assert outcome(copy_json, value) == outcome(reference_copy_json, value)


def members(value) -> list:
    """A JSON value and every value nested in it."""
    found, stack = [], [value]
    while stack:
        v = stack.pop()
        found.append(v)
        if type(v) is dict:
            stack.extend(v.values())
        elif type(v) is list:
            stack.extend(v)
    return found


def containers(value) -> set[int]:
    """Identities of every dict and list in a JSON value."""
    return {id(v) for v in members(value) if type(v) in (dict, list)}


IDENTIFIERS = st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True)
# what strict JSON can write: no NaN or infinity
STRICT_JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(),
    ),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)
JSON_STORES = st.dictionaries(st.text(max_size=4), STRICT_JSON, max_size=5)
MIXED_STORES = st.dictionaries(
    st.text(max_size=4), st.one_of(JSON_VALUES, MIXED_VALUES), max_size=4
)


def record_lists(record):
    """Empty, short and long lists of ``record(step)``, some given as tuples."""
    lists = st.one_of(
        st.just([]),
        st.lists(st.integers(0, 9).map(record), max_size=4),
        st.integers(50, 200).map(lambda n: [record(i) for i in range(1, n + 1)]),
    )
    return st.tuples(lists, st.booleans()).map(
        lambda drawn: tuple(drawn[0]) if drawn[1] else drawn[0]
    )


@st.composite
def random_beliefs(draw, stores=JSON_STORES):
    """Beliefs with nested stores, record lists of every length (lists or
    tuples) and task inputs, some of them parsed through the memo."""
    inputs = draw(st.dictionaries(IDENTIFIERS, STRICT_JSON, max_size=3))
    b = Belief(
        task_context=draw(record_lists(lambda i: ("user", f"text {i}"))),
        trajectory=draw(record_lists(transition)),
        execution_log=draw(record_lists(action)),
        kv=draw(stores),
        current_state=draw(st.none() | IDENTIFIERS),
        inputs=inputs,
    )
    for key in inputs:
        if draw(st.booleans()):
            parsed_input(b, key, repr)
    return b


def edit_in_place(b: Belief) -> None:
    """Change every list and dict the belief holds, except its read-only
    inputs and memo, without replacing any of them."""
    for v in members(b.kv):
        if type(v) is dict:
            v["edited"] = True
        elif type(v) is list:
            v.append("edited")
    for records in (b.task_context, b.trajectory, b.execution_log):
        if type(records) is list:
            records.append(records[0] if records else ("user", "edited"))
    b.current_state = "edited"


class TestSnapshotAgainstReference:
    """``snapshot`` builds its copy slot by slot; the reference builds it
    through ``Belief.__init__``."""

    @settings(max_examples=100, deadline=None)
    @given(random_beliefs(MIXED_STORES))
    def test_matches_the_reference_or_raises_what_it_raises(self, b):
        # a store value that is not JSON raises NotJsonValue with the same message
        assert outcome(snapshot, b) == outcome(reference_snapshot, b)

    @settings(max_examples=100, deadline=None)
    @given(random_beliefs())
    def test_owns_its_lists_and_store_and_shares_inputs_and_memo(self, b):
        snap, ref = snapshot(b), reference_snapshot(b)
        assert type(snap) is Belief
        assert [getattr(snap, name) for name in Belief._fields] == [
            getattr(ref, name) for name in Belief._fields
        ]
        for name in ("task_context", "trajectory", "execution_log"):
            own, held = getattr(snap, name), getattr(b, name)
            assert type(own) is list and own is not held
            assert all(s is r for s, r in zip(own, held))
        assert snap.inputs is b.inputs and snap._parsed is b._parsed
        assert not containers(snap.kv) & containers(b.kv)
        edit_in_place(b)
        assert snap == ref and snap._parsed is ref._parsed


class TestEdges:
    def test_budget_must_be_positive(self):
        with pytest.raises(MachinaError):
            render_history(new_belief(), 0)

    def test_bad_dotted_path(self):
        from machina.keypath import BadPath

        with pytest.raises(BadPath):
            kv_get(new_belief(), "a..b")
        with pytest.raises(BadPath):
            kv_get(new_belief(), "")
