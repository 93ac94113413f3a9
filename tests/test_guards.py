import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machina.errors import MachinaError
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
    guard_to_text,
    parse_guard,
)


def holds(text, kv):
    return evaluate(parse_guard(text), kv)


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

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_decimal_past_the_float_range_rejected_at_its_offset(self, sign):
        # float() would give inf, which renders as the path ``inf``
        with pytest.raises(GuardSyntaxError) as err:
            parse_guard("x < " + sign + "9" * 400 + ".5")
        assert err.value.position == 4
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

    @pytest.mark.parametrize(
        "text, rendered",
        [
            ("x < 0.0000001", "x < 0.0000001"),
            ("x < 100000000000000000000.5", "x < 100000000000000000000.0"),
            ("x < -0.00000123", "x < -0.00000123"),
            ("x < 12345678901234567.25", "x < 12345678901234568.0"),
        ],
    )
    def test_float_renders_without_exponent(self, text, rendered):
        assert guard_to_text(parse_guard(text)) == rendered

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_finite_float_literal_round_trips(self, value):
        for ast in (Literal(value), Compare(Path(("x",)), "<", Literal(value))):
            assert parse_guard(guard_to_text(ast)) == ast

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_literal_has_no_text(self, value):
        with pytest.raises(MachinaError):
            guard_to_text(Compare(Path(("x",)), "<", Literal(value)))


class TestEvaluate:
    def test_compare_numbers(self):
        assert holds("retries < 2", {"retries": 1})
        assert not holds("retries < 2", {"retries": 2})

    def test_exists_missing(self):
        assert not holds("exists answer", {})
        assert holds("exists answer", {"answer": None})

    def test_bare_path_truthiness(self):
        assert holds("flag", {"flag": True})
        assert not holds("flag", {"flag": False})
        assert not holds("flag", {"flag": None})
        assert not holds("flag", {"flag": ""})
        assert holds("flag", {"flag": 0})  # only null/false/"" are falsy
        assert not holds("missing", {})

    def test_absent_comparison_semantics(self):
        assert not holds("missing == 1", {})
        assert not holds("missing < 1", {})
        assert holds("missing != 1", {})
        assert holds("missing != other_missing", {})

    def test_kv_alias_prefix(self):
        kv = {"question_type": "counting"}
        assert holds("kv.question_type == 'counting'", kv)
        assert holds("question_type == 'counting'", kv)

    def test_kv_alias_only_with_more_segments(self):
        assert holds("exists kv", {"kv": 1})
        assert not holds("exists kv", {})

    def test_nested_path(self):
        kv = {"scene": {"objects": [{"color": "red"}]}}
        assert holds("scene.objects.0.color == 'red'", kv)

    def test_string_number_ordering_is_error(self):
        with pytest.raises(GuardTypeError):
            holds("name < 3", {"name": "abc"})

    def test_string_string_ordering(self):
        assert holds("a < b", {"a": "abc", "b": "abd"})

    def test_bool_ordering_is_error(self):
        with pytest.raises(GuardTypeError):
            holds("a < 1", {"a": True})

    def test_equality_across_types_is_false_not_error(self):
        assert not holds("a == 3", {"a": "3"})
        assert holds("a != 3", {"a": "3"})
        assert not holds("a == true", {"a": 1})

    def test_contains(self):
        assert holds("text contains 'bc'", {"text": "abcd"})
        assert holds("items contains 2", {"items": [1, 2]})
        assert holds("obj contains 'k'", {"obj": {"k": 1}})
        assert not holds("items contains 5", {"items": [1, 2]})
        with pytest.raises(GuardTypeError):
            holds("n contains 1", {"n": 4})

    def test_not_and_or(self):
        kv = {"a": 1, "b": 0}
        assert holds("a == 1 and not b == 1", kv)
        assert holds("a == 2 or b == 0", kv)


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
