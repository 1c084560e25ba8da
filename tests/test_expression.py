import random

import pytest

from conftest import random_expression
from orya import expr as expr_mod
from orya.errors import ExpressionSyntaxError
from orya.expr import (
    MAX_NESTING,
    And,
    Compare,
    Exists,
    Not,
    Or,
    conjunction,
    parse_expression,
    print_expression,
)
from orya.values import Size, Version


class TestParser:
    def test_precedence_not_and_or(self):
        e = parse_expression('not a = 1 and b = 2 or c = 3')
        # ((not (a=1)) and (b=2)) or (c=3)
        assert isinstance(e, Or)
        assert isinstance(e.left, And)
        assert isinstance(e.left.left, Not)
        assert e.right == Compare("c", "=", 3)

    def test_left_associativity(self):
        e = parse_expression("a = 1 or b = 2 or c = 3")
        assert e == Or(Or(Compare("a", "=", 1), Compare("b", "=", 2)), Compare("c", "=", 3))

    def test_parens_override(self):
        e = parse_expression("a = 1 and (b = 2 or c = 3)")
        assert isinstance(e, And)
        assert isinstance(e.right, Or)

    def test_exists(self):
        assert parse_expression("exists(disk.free)") == Exists("disk.free")

    def test_literals(self):
        assert parse_expression('n = "tex\\"t"') == Compare("n", "=", 'tex"t')
        assert parse_expression("n = 42") == Compare("n", "=", 42)
        assert parse_expression("n = true") == Compare("n", "=", True)
        assert parse_expression("n != false") == Compare("n", "!=", False)
        assert parse_expression("n >= 1.2.3") == Compare("n", ">=", Version((1, 2, 3)))
        assert parse_expression("n < 10MB") == Compare("n", "<", Size(10**7))
        assert parse_expression("n < 7B") == Compare("n", "<", Size(7))

    def test_double_not(self):
        assert parse_expression("not not a = 1") == Not(Not(Compare("a", "=", 1)))

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "a =",
            "= 1",
            "a = 1 and",
            "(a = 1",
            "a = 1)",
            "exists a",
            "exists()",
            "a == 1",
            "a = 1 2",
            "and a = 1",
            'a = "unterminated',
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression(bad)

    def test_error_carries_offset_and_expected(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression("os = ")
        assert exc.value.offset == 5
        assert "literal" in exc.value.expected

    def test_keywords_not_identifiers(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("and = 1")


def chain(op, terms):
    return f" {op} ".join(["a = 1"] * terms)


def nth_operator_offset(text, op, n):
    """Offset of the n-th (1-based) ``op`` keyword in ``text``."""
    offset = -1
    for _ in range(n):
        offset = text.index(f" {op} ", offset + 1) + 1
    return offset


class TestNestingCap:
    @pytest.mark.parametrize(
        "text",
        [
            "(" * MAX_NESTING + "a = 1" + ")" * MAX_NESTING,
            "not " * MAX_NESTING + "a = 1",
            "not (" * (MAX_NESTING // 2) + "a = 1" + ")" * (MAX_NESTING // 2),
            chain("and", MAX_NESTING + 1),
            chain("or", MAX_NESTING + 1),
            "(" + chain("and", MAX_NESTING // 2 + 1) + ") and " + chain("and", MAX_NESTING // 2),
        ],
        ids=["parens", "not", "mixed", "and-chain", "or-chain", "grouped-chains"],
    )
    def test_at_cap_parses_and_round_trips(self, text):
        e = parse_expression(text)
        assert parse_expression(print_expression(e)) == e

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("(" * (MAX_NESTING + 1) + "a = 1" + ")" * (MAX_NESTING + 1), MAX_NESTING),
            ("not " * (MAX_NESTING + 1) + "a = 1", 4 * MAX_NESTING),
            ("(" * 5000 + "a = 1" + ")" * 5000, MAX_NESTING),
            ("not " * 5000 + "a = 1", 4 * MAX_NESTING),
        ],
        ids=["parens", "not", "parens-5000", "not-5000"],
    )
    def test_past_cap_is_syntax_error_at_offending_token(self, text, offset):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression(text)
        assert info.value.code == "SYNTAX"
        assert info.value.offset == offset

    @pytest.mark.parametrize(
        "text, op, n",
        [
            (chain("and", MAX_NESTING + 2), "and", MAX_NESTING + 1),
            (chain("or", MAX_NESTING + 2), "or", MAX_NESTING + 1),
            (chain("and", 5000), "and", MAX_NESTING + 1),
            # Each group is within the cap; the tree they build together is not.
            ("(" + chain("or", MAX_NESTING // 2 + 1) + ") or " + chain("or", MAX_NESTING // 2 + 1),
             "or", MAX_NESTING + 1),
            ("not " * (MAX_NESTING // 2) + chain("and", MAX_NESTING // 2 + 2), "and",
             MAX_NESTING // 2 + 1),
        ],
        ids=["and", "or", "and-5000", "grouped-chains", "not-then-chain"],
    )
    def test_chain_past_cap_is_syntax_error_at_operator(self, text, op, n):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression(text)
        assert info.value.code == "SYNTAX"
        assert info.value.offset == nth_operator_offset(text, op, n)

    def test_exists_paren_is_not_nesting(self):
        text = "(" * MAX_NESTING + "exists(a)" + ")" * MAX_NESTING
        assert parse_expression(text) == Exists("a")


class TestCanonicalPrinter:
    def test_minimal_parens(self):
        e = parse_expression("a = 1 and (b = 2 or c = 3)")
        assert print_expression(e) == "a = 1 and (b = 2 or c = 3)"
        e = parse_expression("(a = 1 and b = 2) or c = 3")
        assert print_expression(e) == "a = 1 and b = 2 or c = 3"

    def test_right_child_parens_preserve_shape(self):
        left = Or(Or(Compare("a", "=", 1), Compare("b", "=", 2)), Compare("c", "=", 3))
        right = Or(Compare("a", "=", 1), Or(Compare("b", "=", 2), Compare("c", "=", 3)))
        assert print_expression(left) == "a = 1 or b = 2 or c = 3"
        assert print_expression(right) == "a = 1 or (b = 2 or c = 3)"
        assert parse_expression(print_expression(right)) == right

    def test_single_part_version_prints_unambiguously(self):
        e = Compare("v", "=", Version((2,)))
        text = print_expression(e)
        assert text == "v = 2.0"
        back = parse_expression(text)
        assert back.literal == Version((2,))  # 2.0 equals 2 component-wise

    def test_round_trip_random_asts(self):
        rng = random.Random(42)
        for _ in range(1000):
            e = random_expression(rng, depth=5)
            text = print_expression(e)
            reparsed = parse_expression(text)
            # Version equality is padded, so literal normalization is invisible
            assert reparsed == e
            assert print_expression(reparsed) == text

    def test_quoting_round_trip(self):
        for s in ['a"b', "a\\b", 'q\\"w', ""]:
            e = Compare("n", "=", s)
            assert parse_expression(print_expression(e)) == e


class TestConjunction:
    def test_fold(self):
        a, b, c = (Compare(n, "=", 1) for n in "abc")
        assert conjunction([]) is None
        assert conjunction([a]) == a
        assert conjunction([a, b, c]) == And(And(a, b), c)


class TestParseTable:
    def test_one_tree_per_text(self):
        assert expr_mod.parse_once("tier >= 2") is expr_mod.parse_once("tier >= 2")
        assert expr_mod.parse_once("tier >= 2") == parse_expression("tier >= 2")

    def test_text_that_fails_is_not_kept(self):
        with pytest.raises(ExpressionSyntaxError):
            expr_mod.parse_once("os =")
        assert "os =" not in expr_mod._parsed

    def test_distinct_texts_past_the_cap_evict_the_oldest(self):
        for i in range(expr_mod.MAX_PARSED + 50):
            expr_mod.parse_once(f"n = {i}")
        assert len(expr_mod._parsed) == expr_mod.MAX_PARSED
        assert "n = 0" not in expr_mod._parsed
        assert f"n = {expr_mod.MAX_PARSED + 49}" in expr_mod._parsed
