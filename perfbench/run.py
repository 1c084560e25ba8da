"""The orya benchmark: one command runs one workload and prints its metrics.

    python3 perfbench/run.py --workload fleet_push --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each was chosen):

- ``fleet_push``: group pushes of one product with 20 candidates to 1000
  sites, each on a fresh copy of the same published store.
- ``site_ops``: a 300-site store whose history of 2160 records is built by
  eight group pushes; the last product's manifests carry a process with a
  ``par`` of 3 x 3 ``configure`` steps, so its push is dominated by process
  validation.

Both then run the same closed loop on their store (the first pushed copy, or
the built history) for ``--seconds``: single-site status, deactivate and
activate, set-prop, digest and cold status processes, in three segments,
each on a freshly started service. fleet_push pushes again on a throwaway
copy between segments. So both workloads report every end-to-end metric.
Every answer is checked against ``predict.py``, outside the timed regions; a
wrong answer counts as a failed operation, and a store on disk that disagrees
with the ledger makes ``correct`` false.

With ``--trace 1`` the run pairs two equal stores, one served untraced and
one traced (``spans.py``), and does a fixed amount of work on both,
alternating step by step. It prints the per-layer metrics of the traced side
and the tracing overhead (site_ops also traces its history build). The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import copy
import json
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import predict
from harness import BENCH_DIR, ROOT, Service, ServiceError, bare_interpreter_s, cold_cli
from spans import Summary

SHAPES = {
    "fleet_push": gen.Shape(sites=1000, groups=10, products=1, candidates=20, full_share=0.15),
    "site_ops": gen.Shape(sites=300, groups=6, products=8, candidates=4, full_share=0.10, par_products=1),
}
SEGMENTS = 3  # the closed loop runs in segments; fleet_push pushes before each
STARTS_PER_SEGMENT = 2  # service start-ups before each segment, for setup_s
COLD_EVERY = 2  # a cold status process after every second round of the loop
TRACED_ROUNDS = 12  # closed-loop rounds on each side of a traced run
WORK = BENCH_DIR / "_work"


@dataclass
class Side:
    """A store, the ledger of what was sent to it and the service on it.

    A traced run pairs an untraced and a traced side with equal stores and
    ledgers; both draw the same choices from equally seeded generators.
    """

    store: Path
    model: predict.Model
    traced: bool
    rng: random.Random
    svc: Service | None = None
    sites: list = field(default_factory=list)  # every deployed site, in order
    pairs: list = field(default_factory=list)  # (site, unit) in toggle order
    cursor: int = 0


def alternate(sides: list[Side], i: int) -> list[Side]:
    """The sides in turn order for step ``i``: ABBA, so neither always goes first."""
    return sides if i % 2 == 0 else sides[::-1]


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, shape=None, work=None):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.inputs = gen.generate(shape or SHAPES[workload], seed)
        self.work = work or WORK / workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.samples: dict[str, list[float]] = {}
        # Service starts, round trips and cold process wall time of the
        # untraced (False) and traced (True) sides, for the tracing overhead.
        self.timed_s = {False: 0.0, True: 0.0}
        self.push_sites = 0  # target sites of every push, and
        self.push_s = 0.0  # the round trips of those pushes
        self.live: list[Service] = []
        self.serve_spans: list[Path] = []
        self.cold_spans: list[Path] = []
        self.serve_rtt_ns: list[int] = []
        self._n = 0

    # -- bookkeeping --------------------------------------------------------

    def _name(self, stem: str) -> str:
        self._n += 1
        return f"{stem}{self._n}"

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def tally(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"FAILED {what}: " + "; ".join(errors[:3]), file=sys.stderr)

    def service(self, store: Path, traced: bool) -> tuple[Service, float]:
        """Start a service on ``store``; seconds until it answered a ping."""
        name = self._name("svc")
        span_file = self.work / f"{name}.spans.json" if traced else None
        svc = Service(store, str((self.work / f"{name}.sock").relative_to(ROOT)), self.work / f"{name}.log", span_file)
        self.live.append(svc)
        if traced:
            self.serve_spans.append(span_file)
        elapsed = svc.start()
        self.timed_s[traced] += elapsed
        return svc, elapsed

    def stop(self, svc: Service) -> None:
        svc.stop()
        self.live.remove(svc)
        if svc.span_file is not None:
            self.serve_rtt_ns.extend(svc.rtt_ns)

    def call(self, svc: Service, req: dict) -> tuple[dict, float]:
        resp, rtt = svc.request(req)
        self.timed_s[svc.span_file is not None] += rtt
        return resp, rtt

    def cold(self, args: list[str], traced: bool) -> tuple[dict, float]:
        span_file = self.work / f"{self._name('cold')}.spans.json" if traced else None
        resp, wall = cold_cli(args, span_file)
        self.timed_s[traced] += wall
        if traced:
            self.cold_spans.append(span_file)
        return resp, wall

    # -- stores -------------------------------------------------------------

    def published_store(self) -> Path:
        """A store holding the generated enterprise and every unit manifest."""
        store = self.work / "published"
        ent = self.work / "enterprise.json"
        ent.write_text(json.dumps(self.inputs.enterprise))
        resp, _ = cold_cli(["--universe", str(store), "init", "--enterprise", str(ent)])
        if not resp.get("ok"):
            raise ServiceError(f"init failed: {resp}")
        svc, _ = self.service(store, False)
        for unit in self.inputs.units.values():
            resp, _ = svc.request({"op": "publish", "server": unit.server, "manifest": unit.manifest})
            if not resp.get("ok"):
                raise ServiceError(f"publish {unit.id} failed: {resp}")
        self.stop(svc)
        return store

    def fresh_copy(self, template: Path) -> Path:
        dest = self.work / self._name("store")
        shutil.copytree(template, dest)
        return dest

    def side(self, store: Path, model: predict.Model, traced: bool) -> Side:
        return Side(store, model, traced, random.Random(f"{self.seed}-loop"))

    def check_store(self, side: Side) -> None:
        """The store as a whole, read from disk, agrees with the ledger."""
        errors = predict.check_store(side.store, side.model)
        if errors:
            self.correct = False
            print("WRONG store contents: " + "; ".join(errors[:3]), file=sys.stderr)

    # -- operations ---------------------------------------------------------

    def push(self, svc: Service, model: predict.Model, product: str) -> None:
        resp, rtt = self.call(svc, {"op": "deploy", "product": product, "group": gen.TOP_GROUP})
        expected = model.push(product)
        if resp.get("ok"):
            errors = predict.check_push(resp["report"]["entries"], expected)
        else:
            errors = [f"error answer {resp.get('error')}"]
        self.tally(f"push {product}", errors)
        self.push_sites += len(expected)
        self.push_s += rtt

    def status(self, side: Side, site: str) -> dict:
        resp, rtt = self.call(side.svc, {"op": "status", "site": site})
        self.tally(f"status {site}", predict.check_status(resp, side.model.status(site)))
        self.sample("status_ms", rtt * 1000)
        return resp

    def toggle(self, side: Side, site: str, unit: str) -> None:
        op, expected = side.model.toggle(site, unit)
        resp, rtt = self.call(side.svc, {"op": op, "site": site, "unit": unit})
        self.tally(f"{op} {site}/{unit}", predict.check_entry(resp, expected))
        self.sample("write_ms", rtt * 1000)

    def set_prop(self, side: Side, site: str) -> None:
        current = side.model.props[site]["ram"]
        value = side.rng.choice([g * gen.GB for g in gen.RAM_GB if g * gen.GB != current])
        expected = side.model.set_prop(site, "ram", value)
        req = {"op": "set_prop", "site": site, "name": "ram", "value": gen.size_text(value), "apply": False}
        resp, rtt = self.call(side.svc, req)
        self.tally(f"set_prop {site}", predict.check_plan(resp, expected))
        self.sample("set_prop_ms", rtt * 1000)

    def digest(self, side: Side) -> str | None:
        resp, rtt = self.call(side.svc, {"op": "digest"})
        digest = resp.get("digest")
        ok = isinstance(digest, str) and len(digest) == 64
        self.tally("digest", [] if ok else [f"bad digest answer {resp}"])
        self.sample("digest_ms", rtt * 1000)
        return digest

    def checkpoint(self, side: Side) -> None:
        """The warm digest equals the digest a cold process computes."""
        warm = self.digest(side)
        cold, _ = self.cold(["--universe", str(side.store), "digest"], side.traced)
        self.tally("cold digest", [] if cold.get("digest") == warm else [f"cold {cold} != warm {warm}"])

    def cold_status(self, side: Side, site: str) -> None:
        """A cold status process, then the same status from the warm service."""
        cold, wall = self.cold(["--universe", str(side.store), "status", "--site", site], side.traced)
        errors = predict.check_status(cold, side.model.status(site))
        warm = self.status(side, site)
        if cold != warm:
            errors.append(f"cold answer {cold} differs from warm {warm}")
        self.tally(f"cold status {site}", errors)
        self.sample("cold_status_ms", wall * 1000)

    def site_round(self, side: Side, cold: bool) -> None:
        """One round of the closed loop: two statuses of random sites, one
        unit deactivated and activated again (each followed by a status of its
        site), a digest, a set-prop, a digest and, if ``cold``, a cold status."""
        for _ in range(2):
            self.status(side, side.rng.choice(side.sites))
        site, unit = side.pairs[side.cursor % len(side.pairs)]
        side.cursor += 1
        for _ in range(2):
            self.toggle(side, site, unit)
            self.status(side, site)
        self.digest(side)
        self.set_prop(side, side.rng.choice(side.sites))
        self.digest(side)
        if cold:
            self.cold_status(side, side.rng.choice(side.sites))

    # -- workloads ----------------------------------------------------------

    def loop_phase(self, sides: list[Side], rounds: int | None, between=None) -> None:
        """The closed loop on each side's store, in SEGMENTS segments.

        Each segment starts the services afresh STARTS_PER_SEGMENT times and
        runs its share of ``rounds`` rounds, or whole rounds for its share of
        --seconds when None. ``between`` runs between segments, while no
        service is up. The warm digest is checked against a cold one before
        the first segment and after the last. With two sides every step
        alternates between them. Starts, cold processes and (on fleet_push)
        pushes are spread over the run like the loop's requests, so a slow
        stretch of the host weighs alike on every metric.
        """
        for side in sides:
            side.sites = side.model.deployed_sites()
            side.pairs = [(site, uid) for site in side.sites for uid in sorted(side.model.placed[site])]
            side.rng.shuffle(side.pairs)
        done = 0
        for segment in range(SEGMENTS):
            if segment and between is not None:
                between()
            for i in range(STARTS_PER_SEGMENT):
                for side in alternate(sides, i):
                    if side.svc is not None:
                        self.stop(side.svc)
                    side.svc, elapsed = self.service(side.store, side.traced)
                    self.sample("setup_s", elapsed)
            if segment == 0:
                for side in sides:
                    self.checkpoint(side)
            n, t0 = 0, time.perf_counter()
            while n < rounds // SEGMENTS if rounds is not None else time.perf_counter() - t0 < self.seconds / SEGMENTS:
                for side in alternate(sides, done):
                    self.site_round(side, cold=done % COLD_EVERY == COLD_EVERY - 1)
                done, n = done + 1, n + 1
            for side in sides:
                if segment == SEGMENTS - 1:
                    self.checkpoint(side)
                self.sample("peak_rss_mb", side.svc.peak_rss_mb())
                self.stop(side.svc)
                side.svc = None
        for side in sides:
            self.check_store(side)

    def pushed_store(self, template: Path, product: str, traced: bool) -> Side:
        """A fresh copy of the published store, pushed to by a fresh service."""
        side = self.side(self.fresh_copy(template), predict.Model(self.inputs), traced)
        svc, _ = self.service(side.store, traced)
        self.push(svc, side.model, product)
        self.sample("peak_rss_mb", svc.peak_rss_mb())
        self.stop(svc)
        self.check_store(side)
        return side

    def run_push(self) -> None:
        template = self.published_store()
        product = self.inputs.products[0]
        if self.trace:
            sides = [self.pushed_store(template, product, traced) for traced in (False, True)]
            self.loop_phase(sides, TRACED_ROUNDS)
            return
        # One push per segment: the first pushed copy holds the loop; the
        # later ones are pushed between segments and thrown away.
        side = self.pushed_store(template, product, False)
        self.loop_phase([side], None, lambda: shutil.rmtree(self.pushed_store(template, product, False).store))

    def build_history(self, template: Path, traced: bool) -> Side:
        """Group pushes of every product, through one service."""
        side = self.side(self.fresh_copy(template), predict.Model(self.inputs), traced)
        svc, _ = self.service(side.store, traced)
        for product in self.inputs.products:
            self.push(svc, side.model, product)
        self.sample("peak_rss_mb", svc.peak_rss_mb())
        self.stop(svc)
        self.check_store(side)
        return side

    def run_site_ops(self) -> None:
        built = self.build_history(self.published_store(), self.trace)
        if not self.trace:
            self.loop_phase([built], None)
            return
        # The history is built once, traced; its spans count, but the overhead
        # is taken only over the paired closed loop on an untraced copy and it.
        self.timed_s = {False: 0.0, True: 0.0}
        twin = self.side(self.fresh_copy(built.store), copy.deepcopy(built.model), False)
        self.loop_phase([twin, built], TRACED_ROUNDS)

    def execute(self) -> None:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        try:
            if self.workload == "site_ops":
                self.run_site_ops()
            else:
                self.run_push()
        finally:
            for svc in list(self.live):
                svc.stop()

    # -- results ------------------------------------------------------------

    def end_to_end(self) -> dict:
        mid = {k: interquartile_mean(v) for k, v in self.samples.items()}
        metrics = {
            "setup_s": (mid["setup_s"], "s"),
            "peak_rss_mb": (max(self.samples["peak_rss_mb"]), "MB"),
            # Over every push of the run: site_ops pushes to a growing store.
            "push_sites_per_s": (self.push_sites / self.push_s, "1/s"),
        }
        for name in ("status_ms", "write_ms", "set_prop_ms", "digest_ms", "cold_status_ms"):
            metrics[name] = (mid[name], "ms")
        return metrics


def interquartile_mean(values: list[float]) -> float:
    """The mean of the middle half of ``values``.

    The service's cyclic garbage collector lands a full collection on some
    requests and not others, so a request type's latencies fall in two
    modes, and which of them holds the median can change from run to run.
    The mean of the middle half moves smoothly with their shares, and like
    the median it ignores the few requests a stall of the host hits.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def per_layer(run: Run) -> dict:
    """Per-layer metrics of the traced side: totals over its fixed work."""
    every, served = Summary(), Summary()
    for path in run.serve_spans:
        every.add_file(path)
        served.add_file(path)
    cold_open_ms, import_ms = [], []
    for path in run.cold_spans:
        every.add_file(path)
        one = Summary()
        one.add_file(path)
        cold_open_ms.append(one.total_ms("universe.open"))
        import_ms.extend(one.import_ms)
    c = every.counts
    ms = {
        "expr.parse_ms": every.self_ms("expr.parse"),
        "expr.evaluate_ms": every.self_ms("expr.evaluate"),
        "selection.select_ms": every.self_ms("selection.select"),
        "safety.check_ms": every.self_ms("safety.check"),
        "process.validate_ms": every.self_ms("process.validate"),
        "process.execute_ms": every.self_ms("process.execute"),
        "simharness.build_fleet_ms": every.self_ms("simharness.build_fleet"),
        "simharness.get_state_ms": every.self_ms("simharness.get_state"),
        "simharness.sync_ms": every.self_ms("simharness.sync"),
        "orchestrator.push_ms": every.self_ms("orchestrator.push"),
        "orchestrator.plan_ms": every.self_ms("orchestrator.plan"),
        "universe.open_ms": every.self_ms("universe.open"),
        "universe.cold_open_ms": statistics.median(cold_open_ms),
        "universe.save_ms": every.self_ms("universe.save"),
        "universe.digest_ms": every.self_ms("universe.digest"),
        "universe.query_ms": every.self_ms("universe.query"),
        "service.handle_ms": served.self_ms("service.handle"),
        "service.transport_ms": sum(run.serve_rtt_ns) / 1e6 - served.total_ms("service.handle"),
        "cli.interpreter_ms": statistics.median(bare_interpreter_s() for _ in range(5)) * 1000,
        "cli.import_ms": statistics.median(import_ms),
        "trace.overhead_pct": (run.timed_s[True] / run.timed_s[False] - 1) * 100,
    }
    counts = {
        "expr.parse_calls": every.calls.get("expr.parse", 0),
        "selection.select_calls": every.calls.get("selection.select", 0),
        "process.validate_calls": every.calls.get("process.validate", 0),
        "process.steps_run": c.get("process.steps_run", 0),
        "simharness.get_state_calls": every.calls.get("simharness.get_state", 0),
        "universe.records_loaded": c.get("universe.records_loaded", 0),
        "universe.docs_written": c.get("universe.docs_written", 0),
        "universe.bytes_written": c.get("universe.bytes_written", 0),
    }
    metrics = {name: (value, "%" if name.endswith("_pct") else "ms") for name, value in ms.items()}
    metrics.update({name: (value, "B" if name.endswith("bytes_written") else "count") for name, value in counts.items()})
    # The loop phase selects only when a set-prop breaks a constraint.
    examined = c.get("selection.candidates", 0)
    metrics["selection.admissible_ratio"] = (c.get("selection.admissible", 0) / examined if examined else 0.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src" / "orya"
    if not (src / "cli.py").is_file():
        print(f"perfbench: no program at {src}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(src), quiet=1)

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
    except (ServiceError, OSError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    metrics = per_layer(run) if args.trace else run.end_to_end()
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
