import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machina.guards import (
    And,
    Compare,
    Exists,
    GuardSyntaxError,
    GuardTypeError,
    Literal,
    Not,
    Or,
    Path,
    evaluate,
    evaluate_text,
    guard_to_text,
    parse_guard,
)


class TestParse:
    def test_and_with_not(self):
        ast = parse_guard("score >= 3 and not done")
        assert ast == And(
            (
                Compare(Path(("score",)), ">=", Literal(3)),
                Not(Path(("done",))),
            )
        )

    def test_or_with_exists(self):
        ast = parse_guard("exists answer or retries < 2")
        assert ast == Or(
            (
                Exists(Path(("answer",))),
                Compare(Path(("retries",)), "<", Literal(2)),
            )
        )

    def test_incomplete_comparison_position(self):
        with pytest.raises(GuardSyntaxError) as err:
            parse_guard("a == ")
        assert err.value.position == 5

    def test_and_binds_tighter_than_or(self):
        ast = parse_guard("a or b and c")
        assert isinstance(ast, Or)
        assert isinstance(ast.operands[1], And)

    def test_parentheses(self):
        ast = parse_guard("(a or b) and c")
        assert isinstance(ast, And)
        assert isinstance(ast.operands[0], Or)

    @pytest.mark.parametrize(
        "text,value",
        [
            ("3", 3),
            ("-2", -2),
            ("1.5", 1.5),
            ("'single'", "single"),
            ('"double"', "double"),
            ("true", True),
            ("false", False),
            ("null", None),
        ],
    )
    def test_literals(self, text, value):
        assert parse_guard(text) == Literal(value)

    def test_string_escapes(self):
        assert parse_guard(r"'it\'s'") == Literal("it's")
        assert parse_guard(r'"a\"b\\c"') == Literal('a"b\\c')

    def test_dotted_path_with_index(self):
        assert parse_guard("scene.objects.0.color") == Path(("scene", "objects", "0", "color"))

    def test_contains_operator(self):
        ast = parse_guard("tags contains 'start'")
        assert ast == Compare(Path(("tags",)), "contains", Literal("start"))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(GuardSyntaxError):
            parse_guard("a == 1 b")

    def test_empty_input_rejected(self):
        with pytest.raises(GuardSyntaxError):
            parse_guard("")

    def test_keyword_cannot_be_operand(self):
        with pytest.raises(GuardSyntaxError):
            parse_guard("and")

    def test_deep_nesting_rejected_not_crash(self):
        with pytest.raises(GuardSyntaxError):
            parse_guard("not " * 50_000 + "x")

    def test_integer_longer_than_int_converts_rejected_at_its_offset(self):
        with pytest.raises(GuardSyntaxError) as err:
            parse_guard("x == " + "9" * 5000)
        assert err.value.position == 5
        assert len(str(err.value)) < 200


class TestRender:
    @pytest.mark.parametrize(
        "text",
        [
            "score >= 3 and not done",
            "exists answer or retries < 2",
            "(a or b) and c",
            "not (a or b)",
            "a == 'x' or b != 2.5 and not exists c.d",
            "tags contains 'end'",
            "not a == b",
            "kv.question_type == 'counting'",
        ],
    )
    def test_round_trip(self, text):
        ast = parse_guard(text)
        assert parse_guard(guard_to_text(ast)) == ast


class TestEvaluate:
    def test_compare_numbers(self):
        assert evaluate_text("retries < 2", {"retries": 1})
        assert not evaluate_text("retries < 2", {"retries": 2})

    def test_exists_missing(self):
        assert not evaluate_text("exists answer", {})
        assert evaluate_text("exists answer", {"answer": None})

    def test_bare_path_truthiness(self):
        assert evaluate_text("flag", {"flag": True})
        assert not evaluate_text("flag", {"flag": False})
        assert not evaluate_text("flag", {"flag": None})
        assert not evaluate_text("flag", {"flag": ""})
        assert evaluate_text("flag", {"flag": 0})  # only null/false/"" are falsy
        assert not evaluate_text("missing", {})

    def test_absent_comparison_semantics(self):
        assert not evaluate_text("missing == 1", {})
        assert not evaluate_text("missing < 1", {})
        assert evaluate_text("missing != 1", {})
        assert evaluate_text("missing != other_missing", {})

    def test_kv_alias_prefix(self):
        kv = {"question_type": "counting"}
        assert evaluate_text("kv.question_type == 'counting'", kv)
        assert evaluate_text("question_type == 'counting'", kv)

    def test_kv_alias_only_with_more_segments(self):
        assert evaluate_text("exists kv", {"kv": 1})
        assert not evaluate_text("exists kv", {})

    def test_nested_path(self):
        kv = {"scene": {"objects": [{"color": "red"}]}}
        assert evaluate_text("scene.objects.0.color == 'red'", kv)

    def test_string_number_ordering_is_error(self):
        with pytest.raises(GuardTypeError):
            evaluate_text("name < 3", {"name": "abc"})

    def test_string_string_ordering(self):
        assert evaluate_text("a < b", {"a": "abc", "b": "abd"})

    def test_bool_ordering_is_error(self):
        with pytest.raises(GuardTypeError):
            evaluate_text("a < 1", {"a": True})

    def test_equality_across_types_is_false_not_error(self):
        assert not evaluate_text("a == 3", {"a": "3"})
        assert evaluate_text("a != 3", {"a": "3"})
        assert not evaluate_text("a == true", {"a": 1})

    def test_contains(self):
        assert evaluate_text("text contains 'bc'", {"text": "abcd"})
        assert evaluate_text("items contains 2", {"items": [1, 2]})
        assert evaluate_text("obj contains 'k'", {"obj": {"k": 1}})
        assert not evaluate_text("items contains 5", {"items": [1, 2]})
        with pytest.raises(GuardTypeError):
            evaluate_text("n contains 1", {"n": 4})

    def test_not_and_or(self):
        kv = {"a": 1, "b": 0}
        assert evaluate_text("a == 1 and not b == 1", kv)
        assert evaluate_text("a == 2 or b == 0", kv)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=60))
    def test_parser_total_and_round_trips(self, text):
        try:
            ast = parse_guard(text)
        except GuardSyntaxError as exc:
            assert 0 <= exc.position <= len(text)
            return
        assert parse_guard(guard_to_text(ast)) == ast

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                ["a", "b.c", "and", "or", "not", "exists", "==", "<", "3", "'s'", "(", ")"]
            ),
            max_size=12,
        )
    )
    def test_token_soup(self, tokens):
        text = " ".join(tokens)
        try:
            ast = parse_guard(text)
        except GuardSyntaxError:
            return
        assert parse_guard(guard_to_text(ast)) == ast

    @settings(max_examples=100, deadline=None)
    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(min_value=-10, max_value=10),
                st.text(max_size=5),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=3),
                st.dictionaries(st.text(max_size=3), children, max_size=3),
            ),
            max_leaves=6,
        )
    )
    def test_equality_never_raises(self, value):
        assert evaluate(Compare(Literal(value), "==", Literal(value)), {})
