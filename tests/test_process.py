import itertools
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orya.errors import IllegalTransitionError, StepFailure
from orya.expr import conjunction, parse_expression, print_expression
from orya.process import (
    MAX_PROGRESS_POINTS,
    Activity,
    ActivityKind,
    ExecutionContext,
    LifecycleState,
    Par,
    ProcessDef,
    Seq,
    StepOutcome,
    TraceStatus,
    activities,
    default_process_for,
    execute,
    process_digest,
    process_from_json,
    process_to_json,
    progress_points,
    transition,
    validate_process,
)
from conftest import make_unit, random_expression

# ---------------------------------------------------------------------------
# Builders


def act(kind, **params):
    return Activity.make(ActivityKind(kind), **params)


def proc(root, pid="p"):
    return ProcessDef(id=pid, root=root)


NEUTRAL_KINDS = ["copy", "configure", "verify"]


def random_tree(rng: random.Random, budget: int):
    """Random step tree with ``budget`` leaf activities, no uninstall."""
    if budget == 1:
        kind = rng.choice(NEUTRAL_KINDS)
        if kind == "copy":
            return act("copy", **{"from": "a", "to": "b"})
        if kind == "configure":
            return act("configure", params={"k": "v"})
        return act("verify")
    cut = rng.randrange(1, budget)
    left = random_tree(rng, cut)
    right = random_tree(rng, budget - cut)
    cls = Seq if rng.random() < 0.6 else Par
    return cls((left, right))


ALL_KINDS = [k.value for k in ActivityKind]


def leaf(kind):
    if kind == "transfer":
        return act("transfer", resource="r")
    if kind == "copy":
        return act("copy", **{"from": "a", "to": "b"})
    if kind == "configure":
        return act("configure", params={"k": "v"})
    if kind == "update":
        return act("update", unit="u2")
    return act(kind)


# Modest trees over every activity kind, empty seq/par children included.
trees = st.recursive(
    st.sampled_from(ALL_KINDS).map(leaf),
    lambda children: st.builds(Seq, st.lists(children, max_size=3).map(tuple))
    | st.builds(Par, st.lists(children, max_size=3).map(tuple)),
    max_leaves=6,
)

# Kinds that no state runs twice in a row: a tree holding such a pair in one
# seq runs it back to back in some interleaving, so it is feasible from no
# start (a start that gets that far fails on the second of the pair).
TWICE_ILLEGAL = ["install", "activate", "deactivate", "uninstall"]


@st.composite
def infeasible_trees(draw):
    """A drawn tree made infeasible by construction: a seq of a twice-illegal
    pair put before, after or beside it, unless the tree holds one already."""
    tree = draw(trees)
    pair = Seq((leaf(draw(st.sampled_from(TWICE_ILLEGAL))),) * 2)
    join = draw(st.sampled_from(["none", "before", "after", "beside"]))
    if join == "none" and not oracle_feasible(tree) and any(True for _ in activities(tree)):
        return tree
    if join == "before":
        return Seq((pair, tree))
    if join == "beside":
        return Par((tree, pair))
    return Seq((tree, pair))


# ---------------------------------------------------------------------------
# Brute-force oracle: list every interleaving, run each from each start.


def oracle_lins(step, path="root"):
    """Every interleaving of ``step`` as a list of (path, kind)."""
    if isinstance(step, Activity):
        return [[(path, step.kind)]]
    if isinstance(step, Seq):
        outs = [[]]
        for i, child in enumerate(step.steps):
            outs = [a + b for a in outs for b in oracle_lins(child, f"{path}.{i}")]
        return outs
    # Par: all order-preserving merges of the branch linearizations
    outs = [[]]
    for i, child in enumerate(step.branches):
        merged = []
        for a in outs:
            for b in oracle_lins(child, f"{path}.{i}"):
                for pick in itertools.combinations(range(len(a) + len(b)), len(a)):
                    slots = [None] * (len(a) + len(b))
                    ai = iter(a)
                    bi = iter(b)
                    for j in range(len(slots)):
                        slots[j] = next(ai) if j in pick else next(bi)
                    merged.append(slots)
        outs = merged
    return outs


def oracle_feasible(tree):
    feasible = []
    for start in (
        LifecycleState.ABSENT,
        LifecycleState.STAGED,
        LifecycleState.INSTALLED,
        LifecycleState.ACTIVE,
    ):
        ok = True
        for lin in oracle_lins(tree):
            state = start
            try:
                for _, kind in lin:
                    state = transition(state, kind)
            except IllegalTransitionError:
                ok = False
                break
        if ok:
            feasible.append(start)
    return feasible


def count_expanded(monkeypatch):
    """The (progress, state) pairs validation expands, one entry each."""
    from orya import process as process_mod

    expanded = []
    moves = process_mod._moves

    def counting(step, progress, path):
        if path == "root":
            expanded.append(progress)
        return moves(step, progress, path)

    monkeypatch.setattr(process_mod, "_moves", counting)
    return expanded


def oracle_reaches(tree, path, state, kind, start):
    """Some interleaving, run legally from ``start``, reaches the activity at
    ``path`` in ``state``, where ``kind`` is illegal."""
    for lin in oracle_lins(tree):
        current = start
        for step_path, step_kind in lin:
            if step_path == path:
                if (current, step_kind) == (state, kind):
                    try:
                        transition(current, step_kind)
                    except IllegalTransitionError:
                        return True
                break
            try:
                current = transition(current, step_kind)
            except IllegalTransitionError:
                break
    return False


# ---------------------------------------------------------------------------
# Codec and digest


class TestCodec:
    def test_round_trip(self):
        p = proc(
            Seq(
                (
                    act("transfer", resource="bin"),
                    Par((act("copy", **{"from": "x", "to": "y"}), act("verify", expr="a = 1"))),
                    act("install"),
                )
            )
        )
        assert process_from_json(process_to_json(p)) == p

    def test_digest_canonical(self):
        p1 = proc(Seq((act("install"), act("activate"))))
        p2 = process_from_json(process_to_json(p1))
        assert process_digest(p1) == process_digest(p2)
        p3 = proc(Seq((act("install"), act("verify"))))
        assert process_digest(p1) != process_digest(p3)


# ---------------------------------------------------------------------------
# Validation


class TestValidation:
    def test_default_template_valid_from_absent(self):
        unit = make_unit(
            "u", resources=[("r1", 10, "d1"), ("r2", 5, "d2")], constraints=["os = \"linux\""]
        )
        p = default_process_for(unit)
        report = validate_process(p)
        assert report.ok
        assert LifecycleState.ABSENT in report.feasible_starts

    def test_resourceless_default_template_valid(self):
        report = validate_process(default_process_for(make_unit("u")))
        assert report.ok

    def test_empty_process(self):
        report = validate_process(proc(Seq(())))
        assert any(v.code == "EMPTY_PROCESS" for v in report.violations)

    def test_missing_param(self):
        report = validate_process(proc(Seq((act("transfer"),))))
        assert any(v.code == "MISSING_PARAM" for v in report.violations)

    def test_bad_verify_expr(self):
        report = validate_process(proc(Seq((act("verify", expr="os =="),))))
        assert any(v.code == "BAD_EXPR" for v in report.violations)

    def test_illegal_sequence_with_witness(self):
        report = validate_process(proc(Seq((act("activate"), act("activate")))))
        bad = [v for v in report.violations if v.code == "ILLEGAL_SEQUENCE"]
        assert bad and "activate" in bad[0].detail

    def test_parallel_branch_needs_all_interleavings_legal(self):
        # install ∥ activate: every order is illegal from some interleaving
        report = validate_process(proc(Par((act("install"), act("activate")))))
        assert not report.ok
        # two parallel transfers are fine from ABSENT or STAGED
        report = validate_process(
            proc(Par((act("transfer", resource="a"), act("transfer", resource="b"))))
        )
        assert report.ok
        assert set(report.feasible_starts) == {
            LifecycleState.ABSENT,
            LifecycleState.STAGED,
        }

    def test_feasible_starts_match_brute_force_oracle(self):
        rng = random.Random(21)
        kinds = ["transfer", "install", "activate", "deactivate", "copy", "verify"]

        def rand_lifecycle_tree(budget):
            if budget == 1:
                k = rng.choice(kinds)
                if k == "transfer":
                    return act("transfer", resource="r")
                if k == "copy":
                    return act("copy", **{"from": "a", "to": "b"})
                return act(k)
            cut = rng.randrange(1, budget)
            cls = Seq if rng.random() < 0.7 else Par
            return cls((rand_lifecycle_tree(cut), rand_lifecycle_tree(budget - cut)))

        for _ in range(60):
            tree = rand_lifecycle_tree(rng.randrange(1, 5))
            report = validate_process(proc(tree))
            expected = oracle_feasible(tree)
            assert list(report.feasible_starts) == expected
            assert report.ok == bool(expected)

    @settings(max_examples=300, deadline=None)
    @given(trees)
    def test_feasible_starts_match_oracle_on_random_trees(self, tree):
        assume(any(True for _ in activities(tree)))
        report = validate_process(proc(tree))
        expected = oracle_feasible(tree)
        assert list(report.feasible_starts) == expected
        assert report.ok == bool(expected)

    @settings(max_examples=300, deadline=None)
    @given(infeasible_trees())
    def test_illegal_sequence_witness_is_reached_by_an_interleaving(self, tree):
        assert any(True for _ in activities(tree))
        assert not oracle_feasible(tree)
        (violation,) = validate_process(proc(tree)).violations
        assert violation.code == "ILLEGAL_SEQUENCE"
        kind, state, start = re.fullmatch(
            r"(\w+) from (\w+) \(start (\w+)\)", violation.detail
        ).groups()
        assert oracle_reaches(
            tree,
            violation.path,
            LifecycleState(state),
            ActivityKind(kind),
            LifecycleState(start),
        )

    def test_witness_names_the_start_that_gets_furthest(self):
        report = validate_process(proc(Seq((act("activate"), act("activate")))))
        (violation,) = report.violations
        assert (violation.path, violation.detail) == (
            "root.1",
            "activate from ACTIVE (start INSTALLED)",
        )

    def test_wide_par_validates_in_polynomial_time(self, monkeypatch):
        # 4 branches of 5 verifies: 20!/(5!)^4, about 1.2e10, interleavings,
        # but only 6^4 = 1296 progress points per start state.
        tree = Par(tuple(Seq(tuple(act("verify") for _ in range(5))) for _ in range(4)))
        expanded = count_expanded(monkeypatch)
        report = validate_process(proc(tree))
        assert report.feasible_starts == (
            LifecycleState.STAGED,
            LifecycleState.INSTALLED,
            LifecycleState.ACTIVE,
        )
        assert 3 * (6**4 - 1) <= len(expanded) <= 4 * 6**4

    def test_long_seq_validates_in_linear_time(self, monkeypatch):
        tree = Seq((act("install"),) + tuple(act("verify") for _ in range(5000)))
        expanded = count_expanded(monkeypatch)
        report = validate_process(proc(tree))
        assert report.ok
        assert len(expanded) <= 4 * 5001

    def test_verify_expression_is_parsed_once_per_activity(self, monkeypatch):
        from orya import expr as expr_mod

        texts = []
        parse = expr_mod.parse_expression
        monkeypatch.setattr(expr_mod, "parse_expression", lambda t: texts.append(t) or parse(t))
        verify = act("verify", expr='os = "linux"')
        p = proc(Seq((act("install"), verify)))
        validate_process(p)
        validate_process(p)
        assert verify.expression == parse('os = "linux"')
        assert texts == ['os = "linux"']


def searched_points(tree):
    """The distinct progress points validation expands for ``tree``."""
    with pytest.MonkeyPatch.context() as mp:
        expanded = count_expanded(mp)
        validate_process(proc(tree))
    return set(expanded)


def verifies(n):
    return Seq(tuple(act("verify") for _ in range(n)))


class TestSizeCap:
    @settings(max_examples=300, deadline=None)
    @given(trees)
    def test_bound_covers_every_progress_point_searched(self, tree):
        # The finished point (None) is reached but never expanded.
        assert len(searched_points(tree)) + 1 <= progress_points(tree)

    def test_bound_is_exact_when_every_interleaving_runs(self):
        rng = random.Random(11)
        for _ in range(40):
            tree = random_tree(rng, rng.randrange(1, 9))  # neutral kinds only
            assert len(searched_points(tree)) + 1 == progress_points(tree)

    def test_bound_by_shape(self):
        assert progress_points(act("verify")) == 2
        assert progress_points(verifies(5)) == 6
        assert progress_points(Par((verifies(2), verifies(3)))) == 3 * 4
        assert progress_points(Seq((verifies(2), Par((act("copy"), act("copy")))))) == 1 + 2 + 3
        assert progress_points(Seq(())) == progress_points(Par(())) == 1

    def test_bound_saturates_past_the_cap(self):
        wide = Par(tuple(verifies(2) for _ in range(500)))  # 3^500 points
        assert progress_points(wide) == MAX_PROGRESS_POINTS + 1
        assert progress_points(Seq((wide, wide))) == MAX_PROGRESS_POINTS + 1

    def test_at_the_cap_is_searched(self, monkeypatch):
        tree = Par(tuple(verifies(9) for _ in range(4)))
        assert progress_points(tree) == MAX_PROGRESS_POINTS == 10**4
        expanded = count_expanded(monkeypatch)
        report = validate_process(proc(tree))
        assert report.ok and expanded

    def test_one_over_the_cap_is_refused_without_a_search(self, monkeypatch):
        over = Seq((Par(tuple(verifies(9) for _ in range(4))), act("verify")))
        wide = Par(tuple(verifies(6) for _ in range(6)))  # 3.1 s to search before the cap
        assert progress_points(over) == MAX_PROGRESS_POINTS + 1
        expanded = count_expanded(monkeypatch)
        for tree in (over, wide):
            (violation,) = validate_process(proc(tree)).violations
            assert (violation.code, violation.path) == ("PROCESS_TOO_LARGE", "root")
        assert expanded == []


class TestDefaultTemplate:
    def test_verify_text_is_the_printed_conjunction(self):
        rng = random.Random(5)
        for _ in range(200):
            exprs = [random_expression(rng, 3) for _ in range(rng.randrange(0, 6))]
            unit = make_unit("u", constraints=[print_expression(e) for e in exprs])
            verify = default_process_for(unit).root.steps[-2]
            conj = conjunction(unit.parsed_constraints)
            expected = None if conj is None else print_expression(conj)
            assert verify.param("expr") == expected

    def test_long_constraint_list_prints_without_recursion(self):
        unit = make_unit("u", constraints=['os = "linux"'] * 5000)
        verify = default_process_for(unit).root.steps[-2]
        assert verify.param("expr") == " and ".join(['os = "linux"'] * 5000)
        report = validate_process(default_process_for(unit))
        assert [v.code for v in report.violations] == ["BAD_EXPR"]

    def test_digests_pinned(self):
        unit = make_unit(
            "u",
            resources=[("r1", 10, "d1")],
            constraints=['os = "linux"', "a = 1 or b = 2", "not exists(x)"],
        )
        p = default_process_for(unit)
        text = p.root.steps[2].param("expr")
        assert text == 'os = "linux" and (a = 1 or b = 2) and not exists(x)'
        assert parse_expression(text) == conjunction(unit.parsed_constraints)
        assert process_digest(p) == "d6d093f7f796cade69c881f0f10abeb73efa00402a465f361de944dbd9da02bd"
        assert (
            process_digest(default_process_for(make_unit("v")))
            == "efbe99133a2218e87030055c0fe03e27b1e06a6463ccb315e737426a24216ecd"
        )


# ---------------------------------------------------------------------------
# Execution and compensation


class DictExecutor:
    """Toy site: state is a dict; each step writes a key, compensation erases it.

    ``fail_at`` is the 0-based index of the step call that raises.
    """

    def __init__(self, fail_at=None):
        self.state = {}
        self.calls = 0
        self.fail_at = fail_at
        self.compensated = []

    def run(self, path, activity, ctx):
        if self.calls == self.fail_at:
            self.calls += 1
            raise StepFailure("scripted failure")
        self.calls += 1
        self.state[path] = activity.kind.value
        return path

    def compensate(self, path, activity, token, ctx):
        del self.state[token]
        self.compensated.append(path)


class TestExecution:
    def test_success_trace(self):
        p = proc(Seq((act("verify"), act("copy", **{"from": "a", "to": "b"}))))
        ex = DictExecutor()
        trace = execute(p, ExecutionContext("d1"), ex)
        assert trace.status is TraceStatus.SUCCESS
        assert [e.outcome for e in trace.events] == [StepOutcome.OK, StepOutcome.OK]
        assert trace.process_digest == process_digest(p)
        assert len(ex.state) == 2

    def test_single_fault_sweep_restores_state(self):
        rng = random.Random(17)
        for _ in range(50):
            tree = random_tree(rng, rng.randrange(1, 7))
            p = proc(tree)
            total = len(list(activities(tree)))
            for fail_at in range(total):
                ex = DictExecutor(fail_at=fail_at)
                before = dict(ex.state)
                trace = execute(p, ExecutionContext("d"), ex)
                assert trace.status is TraceStatus.ROLLED_BACK
                assert ex.state == before  # bit-identical after compensation

    def test_trace_well_formedness_on_failure(self):
        p = proc(Seq((act("verify"), act("verify"), act("verify"), act("verify"))))
        ex = DictExecutor(fail_at=2)
        trace = execute(p, ExecutionContext("d"), ex)
        outcomes = [e.outcome for e in trace.events]
        assert outcomes == [
            StepOutcome.OK,
            StepOutcome.OK,
            StepOutcome.FAILED,
            StepOutcome.SKIPPED,
            StepOutcome.COMPENSATED,
            StepOutcome.COMPENSATED,
        ]
        # reverse chronological compensation
        assert ex.compensated == ["root.1", "root.0"]
        starts = [e.start for e in trace.events]
        assert starts == sorted(starts)

    def test_uninstall_is_non_compensable_pivot(self):
        p = proc(Seq((act("copy", **{"from": "a", "to": "b"}), act("uninstall"), act("verify"))))
        ex = DictExecutor(fail_at=2)
        trace = execute(p, ExecutionContext("d"), ex)
        assert trace.status is TraceStatus.PARTIALLY_ROLLED_BACK
        kinds = {(e.kind, e.outcome) for e in trace.events}
        assert ("uninstall", StepOutcome.NON_COMPENSABLE) in kinds
        # the copy before the pivot still compensates
        assert ex.compensated == ["root.0"]

    def test_parallel_round_robin_deterministic(self):
        p = proc(
            Par(
                (
                    Seq((act("verify"), act("verify"))),
                    Seq((act("copy", **{"from": "a", "to": "b"}), act("verify"))),
                )
            )
        )
        t1 = execute(p, ExecutionContext("d"), DictExecutor())
        t2 = execute(p, ExecutionContext("d"), DictExecutor())
        assert [e.path for e in t1.events] == [e.path for e in t2.events]
        # round-robin: one primitive per branch per turn
        assert [e.path for e in t1.events] == ["root.0.0", "root.1.0", "root.0.1", "root.1.1"]

    def test_skipped_cancellation_in_parallel(self):
        p = proc(Par((act("verify"), act("verify"), act("verify"))))
        ex = DictExecutor(fail_at=0)
        trace = execute(p, ExecutionContext("d"), ex)
        outcomes = [e.outcome for e in trace.events]
        assert outcomes == [StepOutcome.FAILED, StepOutcome.SKIPPED, StepOutcome.SKIPPED]
