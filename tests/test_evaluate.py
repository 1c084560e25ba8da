import random

from conftest import random_expression, random_properties
from orya.expr import (
    And,
    Compare,
    Exists,
    Not,
    Or,
    Status,
    check_standing,
    evaluate,
    parse_expression,
    print_expression,
)
from orya.model import Machine, MachineKind
from orya.values import Size, Version, kind_of

# ---------------------------------------------------------------------------
# Independent leaf-substitution oracle: evaluates each leaf against the
# property set, then folds with the documented three-valued tables.

S, V, U = "S", "V", "U"


def _leaf(expr, props):
    if isinstance(expr, Exists):
        if expr.name in props:
            return S, [], set()
        return V, [(print_expression(expr), "FALSE_CLAUSE")], set()
    assert isinstance(expr, Compare)
    if expr.name not in props:
        return U, [], {expr.name}
    actual = props[expr.name]
    clause = print_expression(expr)
    if kind_of(actual) != kind_of(expr.literal):
        return V, [(clause, "TYPE_MISMATCH")], set()
    lit = expr.literal
    holds = {
        "=": actual == lit,
        "!=": actual != lit,
        "<": actual < lit,
        "<=": actual <= lit,
        ">": actual > lit,
        ">=": actual >= lit,
    }[expr.op]
    if holds:
        return S, [], set()
    return V, [(clause, "FALSE_CLAUSE")], set()


def oracle(expr, props):
    if isinstance(expr, (Exists, Compare)):
        return _leaf(expr, props)
    if isinstance(expr, Not):
        status, reasons, missing = oracle(expr.operand, props)
        if status == U:
            return U, [], missing
        if status == V:
            return S, [], set()
        return V, [(print_expression(expr), "FALSE_CLAUSE")], set()
    ls, lr, lm = oracle(expr.left, props)
    rs, rr, rm = oracle(expr.right, props)
    if isinstance(expr, And):
        if V in (ls, rs):
            return V, lr + rr, set()
        if U in (ls, rs):
            return U, [], lm | rm
        return S, [], set()
    assert isinstance(expr, Or)
    if S in (ls, rs):
        return S, [], set()
    if U in (ls, rs):
        return U, [], lm | rm
    return V, lr + rr, set()


def _dedupe(pairs):
    seen, out = set(), []
    for p in pairs:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


STATUS_MAP = {S: Status.SATISFIED, V: Status.VIOLATED, U: Status.UNKNOWN}


def assert_matches_oracle(expr, props):
    status, reasons, missing = oracle(expr, props)
    outcome = evaluate(expr, props)
    assert outcome.status is STATUS_MAP[status], print_expression(expr)
    assert [(r.clause, r.code) for r in outcome.reasons] == _dedupe(reasons)
    assert outcome.missing == frozenset(missing)


class TestEvaluator:
    def test_random_equivalence(self):
        rng = random.Random(1234)
        for _ in range(1000):
            expr = random_expression(rng, depth=5)
            props = random_properties(rng)
            assert_matches_oracle(expr, props)

    def test_missing_property_is_unknown_not_violated(self):
        out = evaluate(parse_expression("ghost = 1"), {})
        assert out.status is Status.UNKNOWN
        assert out.missing == frozenset({"ghost"})

    def test_exists_missing_is_violated(self):
        out = evaluate(parse_expression("exists(ghost)"), {})
        assert out.status is Status.VIOLATED
        assert out.reasons[0].code == "FALSE_CLAUSE"

    def test_type_mismatch(self):
        out = evaluate(parse_expression("ram >= 4"), {"ram": Size.parse("4GB")})
        assert out.status is Status.VIOLATED
        assert out.reasons[0].code == "TYPE_MISMATCH"
        # strict: no coercion even between int and bool
        out = evaluate(parse_expression("flag = true"), {"flag": 1})
        assert out.reasons[0].code == "TYPE_MISMATCH"

    def test_tables(self):
        props = {"a": 1}
        sat, vio, unk = "a = 1", "a = 2", "z = 1"
        table = [
            (f"{vio} and {sat}", Status.VIOLATED),
            (f"{unk} and {sat}", Status.UNKNOWN),
            (f"{unk} and {vio}", Status.VIOLATED),
            (f"{sat} or {vio}", Status.SATISFIED),
            (f"{unk} or {vio}", Status.UNKNOWN),
            (f"{unk} or {sat}", Status.SATISFIED),
            (f"not {unk}", Status.UNKNOWN),
            (f"not {sat}", Status.VIOLATED),
            (f"not {vio}", Status.SATISFIED),
        ]
        for text, expected in table:
            assert evaluate(parse_expression(text), props).status is expected, text

    def test_de_morgan_status_level(self):
        rng = random.Random(99)
        for _ in range(300):
            a = random_expression(rng, depth=3)
            b = random_expression(rng, depth=3)
            props = random_properties(rng)
            lhs = evaluate(Not(And(a, b)), props)
            rhs = evaluate(Or(Not(a), Not(b)), props)
            assert lhs.status is rhs.status
            if lhs.status is Status.UNKNOWN:
                assert lhs.missing == rhs.missing

    def test_version_compare_padded(self):
        out = evaluate(parse_expression("v >= 1.2"), {"v": Version.parse("1.2.0")})
        assert out.status is Status.SATISFIED


def _site(properties, standing_constraints):
    return Machine("site", MachineKind.CLIENT_SITE, properties, standing_constraints)


class TestStandingConstraints:
    def test_disk_free_reduced_by_delta(self):
        site = _site({"disk.free": Size.parse("2GB")}, ("disk.free >= 1GB",))
        ok = check_standing(site, Size.parse("500MB"))
        assert ok[0].outcome.status is Status.SATISFIED
        bad = check_standing(site, Size.parse("1500MB"))
        assert bad[0].outcome.status is Status.VIOLATED

    def test_floor_at_zero(self):
        site = _site({"disk.free": Size.parse("1GB")}, ("disk.free >= 0B",))
        out = check_standing(site, Size.parse("5GB"))
        assert out[0].outcome.status is Status.SATISFIED  # floored, not negative

    def test_negative_delta_credits_space(self):
        site = _site({"disk.free": Size.parse("1GB")}, ("disk.free >= 2GB",))
        out = check_standing(site, -(10**9) - (10**9))
        assert out[0].outcome.status is Status.SATISFIED

    def test_missing_disk_property_untouched(self):
        site = _site({"os": "linux"}, ("os = \"linux\"",))
        out = check_standing(site, Size.parse("1GB"))
        assert out[0].outcome.status is Status.SATISFIED
