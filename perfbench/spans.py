"""In-memory spans and counts at the program's layer boundaries.

``install`` wraps public functions of the ``orya`` modules and rebinds each
wrapper at every module (and class) where the original is bound, so calls
through ``from .x import f`` are seen as well as calls through ``x.f``. A
span is a name, a start, an end and the index of its parent span; spans are
kept in flat arrays and written out once, when the process ends. Nothing
here changes what the wrapped functions return.

``Summary`` reads the written files back: per span name the number of
calls, the total time and the self time (total minus the time of direct
child spans).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from array import array
from pathlib import Path

# (module, attribute, span name, options). "collapse" folds a recursive call
# into the span of its outermost call.
SPANS = (
    ("orya.expr", "parse_expression", "expr.parse", {}),
    ("orya.expr", "evaluate", "expr.evaluate", {"collapse": True}),
    ("orya.selection", "select_package", "selection.select", {"after": "selection"}),
    ("orya.safety", "check_safety", "safety.check", {}),
    ("orya.process", "validate_process", "process.validate", {}),
    ("orya.process", "execute", "process.execute", {"after": "steps"}),
    ("orya.simharness", "build_fleet", "simharness.build_fleet", {}),
    ("orya.simharness", "SimulatedSite.get_state", "simharness.get_state", {}),
    ("orya.simharness", "sync_properties", "simharness.sync", {}),
    ("orya.orchestrator", "push_deploy", "orchestrator.push", {}),
    ("orya.orchestrator", "on_property_change", "orchestrator.plan", {}),
    ("orya.universe", "open_universe", "universe.open", {}),
    ("orya.universe", "universe_digest", "universe.digest", {}),
    ("orya.universe", "query_status", "universe.query", {}),
    ("orya.service", "LocalEngine.handle", "service.handle", {}),
)
STAT_SPAN = "trace.stat"  # the store walks around a save; a child, so not in any self time


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counts: dict[str, int] = {}
        self._local = threading.local()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, span: str, fn, collapse: bool = False, after=None):
        nid = self._ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if collapse and stack and self.name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0)
            self.end.append(0)
            stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter_ns()
                self.start[idx] = t0
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        return traced

    def dump(self, path: str, **extra) -> None:
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "counts": self.counts,
            **extra,
        }
        Path(path).write_text(json.dumps(doc, separators=(",", ":")))


def _after_selection(tracer: Tracer, report) -> None:
    tracer.count("selection.candidates", len(report.candidates))
    tracer.count("selection.admissible", sum(1 for c in report.candidates if c.admissible))


def _after_steps(tracer: Tracer, trace) -> None:
    tracer.count("process.steps_run", sum(1 for e in trace.events if e.outcome.value in ("OK", "FAILED")))


_AFTER = {"selection": _after_selection, "steps": _after_steps}


def _snapshot(root: Path) -> dict[str, tuple[int, int, int]]:
    """(inode, mtime, size) of every file under the store."""
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            st = os.stat(os.path.join(dirpath, name))
            out[os.path.join(dirpath, name)] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


def _traced_save(tracer: Tracer, fn):
    traced = tracer.wrap("universe.save", fn)
    snapshot = tracer.wrap(STAT_SPAN, _snapshot)

    @functools.wraps(fn)
    def save(u, path=None, *args, **kwargs):
        root = Path(path) if path is not None else u.root
        before = snapshot(root) if root is not None and root.is_dir() else {}
        result = traced(u, path, *args, **kwargs)
        after = snapshot(root)
        written = [k for k, v in after.items() if before.get(k) != v]
        tracer.count("universe.docs_written", len(written))
        tracer.count("universe.bytes_written", sum(after[k][2] for k in written))
        return result

    return save


def _counted(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)

    return counted


def _rebind(original, wrapper) -> None:
    """Replace ``original`` wherever an ``orya`` module or class binds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "orya" or mod_name.startswith("orya.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
            elif isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        setattr(value, cattr, wrapper)


def install(tracer: Tracer) -> None:
    import orya.service  # noqa: F401  (loads every module the spans name)
    import orya.universe

    for mod_name, attr, span, opts in SPANS:
        owner = sys.modules[mod_name]
        for part in attr.split(".")[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, attr.split(".")[-1])
        after = _AFTER.get(opts.get("after"))
        _rebind(original, tracer.wrap(span, original, opts.get("collapse", False), after))
    _rebind(orya.universe.save_universe, _traced_save(tracer, orya.universe.save_universe))
    _rebind(
        orya.universe.record_from_json,
        _counted(tracer, "universe.records_loaded", orya.universe.record_from_json),
    )


# ---------------------------------------------------------------------------
# Reading spans back


class Summary:
    """Calls, total and self time per span name, over one or more span files."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.import_ms: list[float] = []

    def add_file(self, path: Path) -> None:
        doc = json.loads(Path(path).read_text())
        names, name, start, end, parent = (doc[k] for k in ("names", "name", "start", "end", "parent"))
        child_ns = [0] * len(name)
        for i, p in enumerate(parent):
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        for i, nid in enumerate(name):
            span = names[nid]
            dur = end[i] - start[i]
            self.calls[span] = self.calls.get(span, 0) + 1
            self.total_ns[span] = self.total_ns.get(span, 0) + dur
            self.self_ns[span] = self.self_ns.get(span, 0) + dur - child_ns[i]
        for key, n in doc["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + n
        self.import_ms.append(doc["import_ms"])

    def self_ms(self, span: str) -> float:
        return self.self_ns.get(span, 0) / 1e6

    def total_ms(self, span: str) -> float:
        return self.total_ns.get(span, 0) / 1e6
