"""End-to-end acceptance gate.

Each test exercises one headline guarantee of the engine at its stated
tolerance and prints a single PASS/FAIL line with the elapsed time.
"""

import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import make_enterprise, make_unit, random_expression, random_properties
from orya import orchestrator as orch
from orya.errors import IllegalTransitionError, StoreLockedError
from orya.process import (
    ActivityKind,
    ExecutionContext,
    LifecycleState,
    TraceStatus,
    activities,
    execute,
    transition,
)
from orya.simharness import build_fleet, run_scenario
from orya.universe import (
    Store,
    cross_validate,
    empty_universe,
    init_universe,
    open_universe,
    publish_unit,
    record_deployment,
    remove_unit,
    store_lock,
    universe_digest,
)

from test_evaluate import assert_matches_oracle
from test_lifecycle import EXPECTED as LIFECYCLE_TABLE
from test_process import DictExecutor, proc, random_tree
from test_selection import oracle_choose, random_instance
from test_universe import make_record
from orya.selection import select_package

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def criterion(number, name, limit_s, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number} ({name}): FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({name}): PASS ({elapsed:.2f}s)")
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s ({elapsed:.2f}s)"


def test_1_selection_matches_bruteforce_oracle():
    def body():
        rng = random.Random(7001)
        for _ in range(1000):
            units, site, state, policy = random_instance(rng)
            report = select_package("p", units, site, state, policy=policy)
            assert report.chosen == oracle_choose(units, site, state, policy)

    criterion(1, "selection oracle equivalence", 10, body)


def test_2_evaluator_matches_substitution_oracle():
    def body():
        rng = random.Random(7002)
        for _ in range(1000):
            expr = random_expression(rng, 5)
            props = random_properties(rng)
            assert_matches_oracle(expr, props)

    criterion(2, "three-valued evaluator equivalence", 5, body)


def test_3_compensation_restores_state_exactly():
    def body():
        rng = random.Random(7003)
        for _ in range(50):
            tree = random_tree(rng, rng.randrange(1, 7))
            total = len(list(activities(tree)))
            for fail_at in range(total):
                ex = DictExecutor(fail_at=fail_at)
                before = dict(ex.state)
                trace = execute(proc(tree), ExecutionContext("d"), ex)
                assert trace.status is TraceStatus.ROLLED_BACK
                assert ex.state == before

    criterion(3, "compensation atomicity", 20, body)


def test_4_lifecycle_table_is_exhaustive():
    def body():
        for state in LifecycleState:
            for activity in ActivityKind:
                expected = LIFECYCLE_TABLE[state].get(activity.value)
                if expected is None:
                    with pytest.raises(IllegalTransitionError):
                        transition(state, activity)
                else:
                    assert transition(state, activity) is expected

    criterion(4, "lifecycle legality", 1, body)


def test_5_constrained_push_partitions_mixed_fleet():
    def body():
        sites = {}
        for i in range(4):
            sites[f"lin{i}"] = ({"os": "linux", "disk.free": "10GB"}, ())
            sites[f"win{i}"] = ({"os": "win", "disk.free": "10GB"}, ())
        u = replace(empty_universe(), enterprise=make_enterprise(sites))
        unit = make_unit(
            "ed-1.0", product="editor", constraints=['os = "linux"'],
            footprint=10**6, resources=[("bin", 10**6, "x")],
        )
        u = publish_unit(u, "srv1", unit)
        fleet = build_fleet(u)
        request = orch.DeployRequest(target="all", product_id="editor")
        u, report = orch.push_deploy(u, request, fleet)
        assert report.summary == {"DEPLOYED": 4, "SKIPPED": 4}
        for entry in report.entries:
            if entry.outcome == "SKIPPED":
                assert entry.site_id.startswith("win")
                cand = entry.selection.candidates[0]
                assert any(
                    r.code == "FALSE_CLAUSE" for r in cand.constraint_outcome.reasons
                )
            else:
                assert entry.site_id.startswith("lin")

    criterion(5, "success-property fleet partition", 2, body)


def test_6_shared_component_safety_scenario():
    def body():
        report = run_scenario(SCENARIO_DIR / "shared_component.json")
        assert report.passed, [r.to_json() for r in report.results if not r.passed]

    criterion(6, "shared-component safety", 2, body)


def test_7_property_removal_drives_reconfiguration():
    def body():
        u = replace(
            empty_universe(),
            enterprise=make_enterprise({"s1": ({"os": "linux", "disk.free": "10GB"}, ())}),
        )
        os_bound = make_unit(
            "ed-os-1.1", product="editor", version="1.1",
            constraints=['os = "linux"'], resources=[("bin", 1, "x")],
        )
        portable = make_unit(
            "ed-any-1.0", product="editor", version="1.0", resources=[("bin", 1, "y")]
        )
        free_tool = make_unit("tool-1.0", product="tool", resources=[("t", 1, "z")])
        for unit in (os_bound, portable, free_tool):
            u = publish_unit(u, "srv1", unit)
        fleet = build_fleet(u)
        u, _ = orch.push_deploy(u, orch.DeployRequest(target=("s1",), product_id="editor"), fleet)
        u, _ = orch.push_deploy(u, orch.DeployRequest(target=("s1",), product_id="tool"), fleet)

        event = fleet.sites["s1"].set_property("os", remove=True)
        plan = orch.on_property_change(u, "s1", event, fleet)
        assert not plan.empty
        assert [a.unit_id for a in plan.actions] == ["ed-os-1.1"]
        assert plan.actions[0].action == "RESELECT"
        assert plan.actions[0].replacement == "ed-any-1.0"

        u, report = orch.apply_reconfiguration(u, plan, fleet)
        assert report.entries[0].outcome == "RECONFIGURED"
        states = {du.unit_id: du.state for du in u.site_states["s1"].deployed_units}
        assert states["ed-any-1.0"] == "ACTIVE"
        assert "ed-os-1.1" not in states
        modes = [r.mode.value for r in u.deployments.values()]
        assert "RECONFIGURE" in modes

    criterion(7, "retained-link reconfiguration", 2, body)


def test_8_determinism_and_dry_run_purity():
    def body():
        for name in ("basic_push.json", "pull_update.json"):
            first = run_scenario(SCENARIO_DIR / name)
            second = run_scenario(SCENARIO_DIR / name)
            assert first.passed and second.passed
            assert first.universe_digest == second.universe_digest

        u = replace(
            empty_universe(),
            enterprise=make_enterprise({"s1": ({"os": "linux", "disk.free": "10GB"}, ())}),
        )
        u = publish_unit(
            u, "srv1", make_unit("ed-1.0", product="editor", resources=[("bin", 1, "x")])
        )
        fleet = build_fleet(u)
        before = universe_digest(u)
        request = orch.DeployRequest(target=("s1",), product_id="editor", dry_run=True)
        u2, report = orch.push_deploy(u, request, fleet)
        assert report.entries[0].outcome == "WOULD_DEPLOY"
        assert universe_digest(u2) == before

    criterion(8, "determinism and dry-run purity", 5, body)


def test_9_store_survives_random_operation_sequences(tmp_path, short_lock_wait):
    def body():
        rng = random.Random(7009)
        root = tmp_path / "universe"
        sites = {f"s{i}": ({"os": "linux", "disk.free": "100GB"}, ()) for i in range(3)}
        init_universe(root, make_enterprise(sites))
        store = Store(root)
        u = store.universe
        counter = 0
        for _ in range(500):
            op = rng.choice(("publish", "remove", "deploy", "record"))
            published = [unit for unit in u.catalog.get("srv1", ())]
            if op == "publish":
                counter += 1
                unit = make_unit(
                    f"u{counter:03d}",
                    product=f"p{rng.randrange(5)}",
                    version=f"{rng.randrange(1, 4)}.{rng.randrange(4)}",
                    footprint=rng.randrange(0, 10**6),
                    resources=[("bin", 1, f"d{counter}")],
                )
                u = publish_unit(u, "srv1", unit)
            elif op == "remove" and published:
                u = remove_unit(u, "srv1", rng.choice(published).id)
            elif op == "deploy" and published:
                product = rng.choice(published).product_id
                fleet = build_fleet(u)
                site = rng.choice(sorted(sites))
                request = orch.DeployRequest(target=(site,), product_id=product)
                u, _ = orch.push_deploy(u, request, fleet)
            elif op == "record":
                site = rng.choice(sorted(sites))
                u = record_deployment(u, make_record(u.next_deployment_id(), site=site))
            store.commit(u)
            reloaded = open_universe(root)
            cross_validate(reloaded)
            assert universe_digest(reloaded) == universe_digest(u)
            u = reloaded

        with store_lock(root, "other-writer"):
            with pytest.raises(StoreLockedError) as exc:
                store.commit(u)
            assert exc.value.holder == "other-writer"

    criterion(9, "store integrity under churn", 15, body)
