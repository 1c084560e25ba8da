"""Deployment processes: step trees, the unit lifecycle, and the interpreter.

A process is a finite tree of sequential/parallel steps over nine primitive
activities. Execution is saga-style: on the first failed step the interpreter
cancels pending sibling work at the next step boundary and compensates every
completed step in reverse chronological order. Uninstall is the pivot: it
cannot be compensated, so a failure after a completed uninstall can only be
partially rolled back.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Protocol

from . import expr as expr_mod
from .errors import IllegalTransitionError, StepFailure
from .values import canonical_json, expect, expect_items

# ---------------------------------------------------------------------------
# Lifecycle


class LifecycleState(str, Enum):
    ABSENT = "ABSENT"
    STAGED = "STAGED"
    INSTALLED = "INSTALLED"
    ACTIVE = "ACTIVE"
    REMOVED = "REMOVED"


# The states in which a unit is present on its site.
PRESENT = (LifecycleState.INSTALLED, LifecycleState.ACTIVE)


class ActivityKind(str, Enum):
    TRANSFER = "transfer"
    COPY = "copy"
    INSTALL = "install"
    CONFIGURE = "configure"
    ACTIVATE = "activate"
    DEACTIVATE = "deactivate"
    UPDATE = "update"
    UNINSTALL = "uninstall"
    VERIFY = "verify"


# State-preserving activities, legal while the unit is materialized on site.
_NEUTRAL = (ActivityKind.COPY, ActivityKind.CONFIGURE, ActivityKind.VERIFY)
_NEUTRAL_STATES = (LifecycleState.STAGED, LifecycleState.INSTALLED, LifecycleState.ACTIVE)

_TRANSITIONS: dict[tuple[LifecycleState, ActivityKind], LifecycleState] = {
    (LifecycleState.ABSENT, ActivityKind.TRANSFER): LifecycleState.STAGED,
    # Staging more resources keeps the unit staged; a unit that ships no
    # resources installs straight from absent. Both are needed so the
    # canonical install template is executable for any resource count.
    (LifecycleState.STAGED, ActivityKind.TRANSFER): LifecycleState.STAGED,
    (LifecycleState.ABSENT, ActivityKind.INSTALL): LifecycleState.INSTALLED,
    (LifecycleState.STAGED, ActivityKind.INSTALL): LifecycleState.INSTALLED,
    (LifecycleState.INSTALLED, ActivityKind.ACTIVATE): LifecycleState.ACTIVE,
    (LifecycleState.ACTIVE, ActivityKind.DEACTIVATE): LifecycleState.INSTALLED,
    (LifecycleState.INSTALLED, ActivityKind.UPDATE): LifecycleState.INSTALLED,
    (LifecycleState.INSTALLED, ActivityKind.UNINSTALL): LifecycleState.REMOVED,
}
for _state in _NEUTRAL_STATES:
    for _kind in _NEUTRAL:
        _TRANSITIONS[(_state, _kind)] = _state


def transition(state: LifecycleState, activity: ActivityKind) -> LifecycleState:
    """Apply the lifecycle transition table; illegal pairs raise, and so does
    a ``state`` that is not a lifecycle state, named as given."""
    try:
        return _TRANSITIONS[(state, activity)]
    except KeyError:
        name = state.value if isinstance(state, LifecycleState) else state
        raise IllegalTransitionError(name, activity.value) from None


# ---------------------------------------------------------------------------
# Process trees


@dataclass(frozen=True)
class Activity:
    kind: ActivityKind
    params: tuple[tuple[str, object], ...] = ()

    @classmethod
    def make(cls, kind: ActivityKind, **params) -> "Activity":
        return cls(kind, tuple(sorted(params.items())))

    def param(self, name: str, default=None):
        for k, v in self.params:
            if k == name:
                return v
        return default

    @cached_property
    def expression(self) -> expr_mod.Expression | None:
        """The tree of a verify's ``expr`` (None when absent), from the shared
        parse table."""
        text = self.param("expr")
        return None if text is None else expr_mod.parse_once(text)


@dataclass(frozen=True)
class Seq:
    steps: tuple["Step", ...]


@dataclass(frozen=True)
class Par:
    branches: tuple["Step", ...]


Step = Activity | Seq | Par


@dataclass(frozen=True)
class ProcessDef:
    id: str
    root: Step

    @cached_property
    def digest(self) -> str:
        """``process_digest`` of this process, computed once and kept."""
        return process_digest(self)


_REQUIRED_PARAMS = {
    ActivityKind.TRANSFER: ("resource",),
    ActivityKind.COPY: ("from", "to"),
    ActivityKind.CONFIGURE: ("params",),
    ActivityKind.UPDATE: ("unit",),
    ActivityKind.VERIFY: (),  # "expr" optional: absent means vacuous OK
}

# The JSON type of each named parameter, whichever activity carries it.
_PARAM_TYPES = {"expr": str, "resource": str, "unit": str, "from": str, "to": str, "params": dict}


# ---------------------------------------------------------------------------
# JSON codec: {"seq": [...]}, {"par": [...]}, {"act": "<kind>", ...params}


def step_from_json(node) -> Step:
    if not isinstance(node, dict):
        raise ValueError(f"process node must be an object: {node!r}")
    if "seq" in node:
        return Seq(tuple(step_from_json(c) for c in expect(node["seq"], list, "seq")))
    if "par" in node:
        return Par(tuple(step_from_json(c) for c in expect(node["par"], list, "par")))
    if "act" in node:
        kind = ActivityKind(node["act"])
        params = {k: v for k, v in node.items() if k != "act"}
        for name, shape in _PARAM_TYPES.items():
            if name in params:
                expect(params[name], shape, f"{kind.value} parameter {name!r}")
        activity = Activity.make(kind, **params)
        if kind is ActivityKind.VERIFY:
            activity.expression  # SYNTAX here, not at every deploy
        return activity
    raise ValueError(f"process node needs 'seq', 'par' or 'act': {node!r}")


def step_to_json(step: Step) -> dict:
    if isinstance(step, Seq):
        return {"seq": [step_to_json(c) for c in step.steps]}
    if isinstance(step, Par):
        return {"par": [step_to_json(c) for c in step.branches]}
    out = {"act": step.kind.value}
    out.update({k: v for k, v in step.params})
    return out


def process_from_json(doc, default_id: str = "process") -> ProcessDef:
    if isinstance(doc, dict) and "root" in doc:
        return ProcessDef(id=doc.get("id", default_id), root=step_from_json(doc["root"]))
    return ProcessDef(id=default_id, root=step_from_json(doc))


def process_to_json(p: ProcessDef) -> dict:
    return {"id": p.id, "root": step_to_json(p.root)}


def process_digest(p: ProcessDef) -> str:
    return hashlib.sha256(canonical_json(process_to_json(p)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Validation

START_STATES = (
    LifecycleState.ABSENT,
    LifecycleState.STAGED,
    LifecycleState.INSTALLED,
    LifecycleState.ACTIVE,
)


# Validation costs the number of progress points it visits; a process whose
# bound is past this is refused at publish and never searched.
MAX_PROGRESS_POINTS = 10_000


def progress_points(step: Step) -> int:
    """An upper bound on the progress points ``_deepest_illegal`` can visit:
    2 for an activity, 1 + the sum of (child - 1) for a seq, and the product of
    the children for a par. One pass; the result is capped at
    ``MAX_PROGRESS_POINTS + 1``, so a wide tree builds no huge integer."""
    cap = MAX_PROGRESS_POINTS + 1
    if isinstance(step, Activity):
        return 2
    if isinstance(step, Seq):
        return min(cap, 1 + sum(progress_points(child) - 1 for child in step.steps))
    total = 1
    for branch in step.branches:
        total = min(cap, total * progress_points(branch))
    return total


@dataclass(frozen=True)
class ProcessViolation:
    code: str  # MISSING_PARAM | BAD_EXPR | EMPTY_PROCESS | PROCESS_TOO_LARGE | ILLEGAL_SEQUENCE
    path: str
    detail: str = ""


@dataclass(frozen=True)
class ProcessReport:
    violations: tuple[ProcessViolation, ...] = ()
    feasible_starts: tuple[LifecycleState, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def activities(step: Step, path: str = "root"):
    """Yield (path, activity) pairs in tree order."""
    if isinstance(step, Activity):
        yield path, step
    elif isinstance(step, Seq):
        for i, child in enumerate(step.steps):
            yield from activities(child, f"{path}.{i}")
    else:
        for i, child in enumerate(step.branches):
            yield from activities(child, f"{path}.{i}")


def validate_process(p: ProcessDef) -> ProcessReport:
    """Structural and lifecycle-plausibility validation.

    A process is lifecycle-plausible when some start state makes every
    interleaving of its parallel branches legal under the transition table.
    That is decided by reachability over (progress, lifecycle state) pairs,
    each visited at most once per start state, never by listing the
    interleavings. A process with more than ``MAX_PROGRESS_POINTS`` progress
    points is reported too large and not searched.
    """
    violations: list[ProcessViolation] = []
    acts = list(activities(p.root))
    if not acts:
        violations.append(ProcessViolation("EMPTY_PROCESS", "root", "no activities"))
    if progress_points(p.root) > MAX_PROGRESS_POINTS:
        violations.append(
            ProcessViolation(
                "PROCESS_TOO_LARGE", "root", f"over {MAX_PROGRESS_POINTS} progress points"
            )
        )

    for path, act in acts:
        for name in _REQUIRED_PARAMS.get(act.kind, ()):
            if act.param(name) is None:
                violations.append(
                    ProcessViolation("MISSING_PARAM", path, f"{act.kind.value} needs {name!r}")
                )
        if act.kind is ActivityKind.VERIFY:
            try:
                act.expression  # parsed once, then reused by every execution
            except expr_mod.ExpressionSyntaxError as err:
                violations.append(ProcessViolation("BAD_EXPR", path, err.message))

    feasible: list[LifecycleState] = []
    if acts and not violations:
        witness = None
        for start in START_STATES:
            illegal = _deepest_illegal(p.root, start)
            if illegal is None:
                feasible.append(start)
            elif witness is None or illegal[0] > witness[0][0]:
                witness = (illegal, start)
        if not feasible:
            (_, path, state, kind), start = witness
            violations.append(
                ProcessViolation(
                    "ILLEGAL_SEQUENCE",
                    path,
                    f"{kind.value} from {state.value} (start {start.value})",
                )
            )

    return ProcessReport(tuple(violations), tuple(feasible))


# Progress through a step tree: 0 for an activity not yet run, (child index,
# child progress) for a seq, a tuple of branch progresses for a par, and None
# once the step has run in full. Equal progress means the same activities
# have completed.


def _initial(step: Step):
    if isinstance(step, Activity):
        return 0
    if isinstance(step, Seq):
        return _next_child(step, 0)
    progress = tuple(_initial(b) for b in step.branches)
    return None if all(q is None for q in progress) else progress


def _next_child(seq: Seq, k: int):
    """Progress at the first child from ``k`` on that has work left."""
    for i in range(k, len(seq.steps)):
        progress = _initial(seq.steps[i])
        if progress is not None:
            return (i, progress)
    return None


def _moves(step: Step, progress, path: str):
    """Each activity that may run next, as (path, kind, progress after it)."""
    if isinstance(step, Activity):
        yield path, step.kind, None
    elif isinstance(step, Seq):
        k, inner = progress
        for leaf, kind, after in _moves(step.steps[k], inner, f"{path}.{k}"):
            yield leaf, kind, _next_child(step, k + 1) if after is None else (k, after)
    else:
        for i, inner in enumerate(progress):
            if inner is None:
                continue
            for leaf, kind, after in _moves(step.branches[i], inner, f"{path}.{i}"):
                new = progress[:i] + (after,) + progress[i + 1 :]
                yield leaf, kind, None if all(q is None for q in new) else new


def _deepest_illegal(root: Step, start: LifecycleState):
    """Breadth-first over the (progress, state) pairs reachable from ``start``.

    Layer n holds the pairs after n completed activities, so each pair is
    visited once. Returns the illegal step reached after the most completed
    activities, as (depth, path, state, kind), or None when every
    interleaving is legal from ``start``.
    """
    layer = {(_initial(root), start): None}
    deepest = None
    depth = 0
    while layer:
        found = None
        following = {}
        for progress, state in layer:
            if progress is None:
                continue
            for path, kind, after in _moves(root, progress, "root"):
                new_state = _TRANSITIONS.get((state, kind))
                if new_state is None:
                    found = found or (depth, path, state, kind)
                else:
                    following[(after, new_state)] = None
        deepest = found or deepest
        layer = following
        depth += 1
    return deepest


# ---------------------------------------------------------------------------
# Execution


class StepOutcome(str, Enum):
    OK = "OK"
    FAILED = "FAILED"
    SKIPPED = "SKIPPED"
    COMPENSATED = "COMPENSATED"
    NON_COMPENSABLE = "NON_COMPENSABLE"


class TraceStatus(str, Enum):
    SUCCESS = "SUCCESS"
    ROLLED_BACK = "ROLLED_BACK"
    PARTIALLY_ROLLED_BACK = "PARTIALLY_ROLLED_BACK"


@dataclass(frozen=True)
class StepEvent:
    path: str
    kind: str
    outcome: StepOutcome
    start: int
    end: int
    detail: str = ""


@dataclass(frozen=True)
class ExecutionTrace:
    deployment_id: str
    process_digest: str
    events: tuple[StepEvent, ...]
    status: TraceStatus

    def to_json(self) -> dict:
        return {
            "deployment": self.deployment_id,
            "process_digest": self.process_digest,
            "status": self.status.value,
            "events": [
                {
                    "path": e.path,
                    "kind": e.kind,
                    "outcome": e.outcome.value,
                    "start": e.start,
                    "end": e.end,
                    "detail": e.detail,
                }
                for e in self.events
            ],
        }


_STATUSES = {s.value: s for s in TraceStatus}
_OUTCOMES = {o.value: o for o in StepOutcome}


def _decode(members: dict, value, enum: type[Enum]):
    """The member of ``enum`` named by ``value``, looked up in ``members``;
    anything else raises ValueError, as calling the Enum does."""
    try:
        return members[value]
    except (KeyError, TypeError):  # TypeError: an unhashable JSON value
        raise ValueError(f"{value!r} is not a valid {enum.__name__}") from None


def trace_from_json(doc: dict, shared: dict[tuple, StepEvent]) -> ExecutionTrace:
    """Decode a trace. ``shared`` holds the events decoded so far, so equal
    events share one ``StepEvent``; callers keep it for one store open. Only an
    event whose clock ticks are ints and whose other fields are strings is
    shared, so its key never matches an event that differs by JSON type (a
    ``start`` of ``true`` is not ``1``)."""
    expect(doc, dict, "trace")
    deployment_id, digest = doc["deployment"], doc["process_digest"]
    status = _decode(_STATUSES, doc["status"], TraceStatus)
    events = []
    for e in expect_items(doc["events"], dict, "trace events"):
        path, kind = e["path"], e["kind"]
        outcome = _decode(_OUTCOMES, e["outcome"], StepOutcome)
        start, end, detail = e["start"], e["end"], e.get("detail", "")
        if type(start) is int and type(end) is int and type(path) is type(kind) is type(detail) is str:
            key = (path, kind, outcome, start, end, detail)
            event = shared.get(key)
            if event is None:
                event = shared[key] = StepEvent(path, kind, outcome, start, end, detail)
        else:
            event = StepEvent(path, kind, outcome, start, end, detail)
        events.append(event)
    return ExecutionTrace(deployment_id, digest, tuple(events), status)


@dataclass
class ExecutionContext:
    deployment_id: str
    unit: object = None
    params: dict = field(default_factory=dict)
    clock: Callable[[], int] | None = None


class PrimitiveExecutor(Protocol):
    """Runs primitives against one site; each call is atomic.

    ``run`` returns an opaque undo token consumed by ``compensate``.
    Failures are signalled by raising :class:`StepFailure`.
    """

    def run(self, path: str, activity: Activity, ctx: ExecutionContext) -> object: ...

    def compensate(self, path: str, activity: Activity, token: object, ctx: ExecutionContext) -> None: ...


def _schedule(step: Step, path: str = "root"):
    """Deterministic interleaving: parallel branches advance round-robin,
    one primitive per turn."""
    if isinstance(step, Activity):
        yield path, step
        return
    if isinstance(step, Seq):
        for i, child in enumerate(step.steps):
            yield from _schedule(child, f"{path}.{i}")
        return
    iters = [_schedule(child, f"{path}.{i}") for i, child in enumerate(step.branches)]
    while iters:
        remaining = []
        for it in iters:
            item = next(it, None)
            if item is not None:
                yield item
                remaining.append(it)
        iters = remaining


def execute(p: ProcessDef, ctx: ExecutionContext, executor: PrimitiveExecutor) -> ExecutionTrace:
    """Interpret a validated process; compensate on first failure."""
    counter = itertools.count()
    clock = ctx.clock or (lambda: next(counter))
    events: list[StepEvent] = []
    completed: list[tuple[str, Activity, object]] = []  # chronological OK steps
    failure: str | None = None

    steps = list(_schedule(p.root))
    pos = 0
    for pos, (path, act) in enumerate(steps):
        start = clock()
        try:
            token = executor.run(path, act, ctx)
        except StepFailure as err:
            events.append(StepEvent(path, act.kind.value, StepOutcome.FAILED, start, clock(), err.message))
            failure = path
            break
        events.append(StepEvent(path, act.kind.value, StepOutcome.OK, start, clock()))
        completed.append((path, act, token))

    if failure is None:
        return ExecutionTrace(ctx.deployment_id, p.digest, tuple(events), TraceStatus.SUCCESS)

    # Pending sibling work cancels at its next step boundary.
    for path, act in steps[pos + 1 :]:
        tick = clock()
        events.append(StepEvent(path, act.kind.value, StepOutcome.SKIPPED, tick, tick))

    partially = False
    for path, act, token in reversed(completed):
        tick = clock()
        if act.kind is ActivityKind.UNINSTALL:
            # Pivot: removal cannot be undone.
            partially = True
            events.append(StepEvent(path, act.kind.value, StepOutcome.NON_COMPENSABLE, tick, tick))
            continue
        executor.compensate(path, act, token, ctx)
        events.append(StepEvent(path, act.kind.value, StepOutcome.COMPENSATED, tick, clock()))

    status = TraceStatus.PARTIALLY_ROLLED_BACK if partially else TraceStatus.ROLLED_BACK
    return ExecutionTrace(ctx.deployment_id, p.digest, tuple(events), status)


# ---------------------------------------------------------------------------
# Helpers


def default_process_for(unit) -> ProcessDef:
    """Canonical install template when a manifest omits its process:
    transfer each resource in manifest order, install, verify the unit's
    constraints, activate."""
    steps: list[Step] = [
        Activity.make(ActivityKind.TRANSFER, resource=r.name) for r in unit.resources
    ]
    steps.append(Activity.make(ActivityKind.INSTALL))
    steps.append(default_verify(unit))
    steps.append(Activity.make(ActivityKind.ACTIVATE))
    return ProcessDef(id=f"{unit.id}.install", root=Seq(tuple(steps)))


def default_verify(unit) -> Activity:
    """The template's verify step: the unit's constraints joined by "and"."""
    text = expr_mod.print_conjunction(unit.parsed_constraints)
    if text is None:
        return Activity.make(ActivityKind.VERIFY)
    return Activity.make(ActivityKind.VERIFY, expr=text)
