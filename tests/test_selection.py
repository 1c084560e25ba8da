import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_unit
from orya.expr import EvalMemo, Status, evaluate, parse_expression
from orya.model import ClientSiteState, DeployedUnit, Machine, MachineKind
from orya.safety import SafetyPolicy, blocking_conflicts, check_safety
from orya.selection import select_package
from orya.values import Size, Version


def make_site(properties=None, standing_constraints=()):
    return Machine("s", MachineKind.CLIENT_SITE, properties or {}, standing_constraints)


def empty_state():
    return ClientSiteState(machine_id="s")


# ---------------------------------------------------------------------------
# Brute-force oracle: re-derives admissibility and the ranking from scratch.


def oracle_admissible(unit, site, state, policy, filters=(), freed=0):
    for f in filters:
        if evaluate(parse_expression(f), unit.descriptive_properties).status is not Status.SATISFIED:
            return False
    for text in unit.constraints:
        if evaluate(parse_expression(text), site.properties).status is not Status.SATISFIED:
            return False
    props = dict(site.properties)
    free = props.get("disk.free")
    delta = unit.footprint.count - freed
    if delta and isinstance(free, Size):
        props["disk.free"] = Size(max(0, free.count - delta))
    for text in site.standing_constraints:
        if evaluate(parse_expression(text), props).status is not Status.SATISFIED:
            return False
    installed = list(state.deployed_units) if state else []
    if blocking_conflicts(check_safety(installed, unit, policy)):
        return False
    return True


def oracle_choose(candidates, site, state, policy, filters=()):
    admissible = [
        u for u in candidates if oracle_admissible(u, site, state, policy, filters)
    ]
    if not admissible:
        return None
    admissible.sort(key=lambda u: u.id)
    admissible.sort(key=lambda u: u.footprint.count)
    admissible.sort(key=lambda u: u.product_version, reverse=True)
    return admissible[0].id


# ---------------------------------------------------------------------------


def random_instance(rng: random.Random):
    props = {"os": rng.choice(["linux", "win"]), "disk.free": Size(rng.randrange(0, 4 * 10**9))}
    for name in ("ram", "tier"):
        if rng.random() < 0.7:
            props[name] = rng.randrange(0, 32) if name == "ram" else rng.choice(["a", "b"])
    site = make_site(
        properties=props,
        standing_constraints=tuple(
            rng.sample(
                [
                    f"disk.free >= {rng.randrange(0, 3)}GB",
                    'os = "linux" or os = "win"',
                    "ram >= 4",
                ],
                rng.randrange(0, 4),
            )
        ),
    )
    pools = [
        'os = "linux"',
        "ram >= 8",
        "disk.free > 1GB",
        'tier = "a"',
        "exists(ram)",
        "missing = 1",
    ]
    units = []
    for i in range(rng.randrange(1, 7)):
        units.append(
            make_unit(
                f"u{i:02d}-{rng.randrange(10)}",
                product="p",
                version=f"{rng.randrange(1, 4)}.{rng.randrange(0, 4)}",
                constraints=rng.sample(pools, rng.randrange(0, 3)),
                footprint=rng.randrange(0, 2 * 10**9),
                provides=[("comp", f"1.{rng.randrange(3)}")] if rng.random() < 0.5 else [],
                requires=[("dep", "1.0")] if rng.random() < 0.2 else [],
            )
        )
    installed = []
    if rng.random() < 0.5:
        installed.append(
            DeployedUnit(
                unit_id="base",
                product_id="other",
                version=Version.parse("1.0"),
                state="INSTALLED",
                provides=(("comp", Version.parse(f"1.{rng.randrange(3)}")),)
                if rng.random() < 0.7
                else (("dep", Version.parse("1.0")),),
            )
        )
    state = ClientSiteState(machine_id="s", deployed_units=tuple(installed))
    policy = rng.choice(list(SafetyPolicy))
    return units, site, state, policy


class TestSelectionOracle:
    def test_1000_random_instances_match(self):
        rng = random.Random(2024)
        for _ in range(1000):
            units, site, state, policy = random_instance(rng)
            report = select_package("p", units, site, state, policy=policy)
            assert report.chosen == oracle_choose(units, site, state, policy)

    def test_permutation_invariance(self):
        rng = random.Random(31)
        units, site, state, policy = random_instance(rng)
        while len(units) < 3:
            units, site, state, policy = random_instance(rng)
        baseline = select_package("p", units, site, state, policy=policy)
        for _ in range(10):
            rng.shuffle(units)
            report = select_package("p", units, site, state, policy=policy)
            assert report.chosen == baseline.chosen
            assert report.candidates == baseline.candidates  # sorted by unit id


class TestRanking:
    def test_highest_version_wins(self):
        units = [make_unit("a", version="1.0"), make_unit("b", version="2.0")]
        assert select_package("prod", units, make_site(), empty_state()).chosen == "b"

    def test_footprint_breaks_version_tie(self):
        units = [make_unit("a", version="1.0", footprint=100), make_unit("b", version="1.0", footprint=50)]
        assert select_package("prod", units, make_site(), empty_state()).chosen == "b"

    def test_id_breaks_full_tie(self):
        units = [make_unit("bbb"), make_unit("aaa")]
        assert select_package("prod", units, make_site(), empty_state()).chosen == "aaa"

    @pytest.mark.parametrize("short, long", [(100, 50), (50, 100)])
    def test_footprint_breaks_tie_between_padded_equal_versions(self, short, long):
        """``1`` and ``1.0.0`` are one version, so the smaller footprint wins."""
        units = [make_unit("a", version="1", footprint=short), make_unit("b", version="1.0.0", footprint=long)]
        chosen = select_package("prod", units, make_site(), empty_state()).chosen
        assert chosen == ("a" if short < long else "b")


class TestReasons:
    def test_unknown_distinct_from_violated(self):
        site = make_site(properties={"os": "linux"})
        units = [
            make_unit("violated", constraints=['os = "win"']),
            make_unit("unknown", constraints=["ram >= 8"]),
        ]
        report = select_package("prod", units, site, empty_state())
        by_id = {c.unit_id: c for c in report.candidates}
        assert by_id["violated"].reasons == ("CONSTRAINT_VIOLATED",)
        assert by_id["unknown"].reasons == ("CONSTRAINT_UNKNOWN",)
        assert report.chosen is None

    def test_standing_violated(self):
        site = make_site(
            properties={"disk.free": Size.parse("1GB")},
            standing_constraints=("disk.free >= 1GB",),
        )
        report = select_package("prod", [make_unit("u", footprint=1)], site, empty_state())
        assert report.candidates[0].reasons == ("STANDING_VIOLATED",)

    def test_safety_conflict_reason(self):
        state = ClientSiteState(
            machine_id="s",
            deployed_units=(
                DeployedUnit("old", "other", Version.parse("1.0"), "INSTALLED",
                             provides=(("comp", Version.parse("1.0")),)),
            ),
        )
        unit = make_unit("new", provides=[("comp", "2.0")])
        report = select_package("prod", [unit], make_site(), state)
        assert report.candidates[0].reasons == ("SAFETY_CONFLICT",)

    def test_filters_rule_out_first(self):
        units = [
            make_unit("stable", properties={"channel": "stable"}),
            make_unit("beta", properties={"channel": "beta"}),
        ]
        report = select_package(
            "prod", units, make_site(), empty_state(),
            extra_filters=('channel = "stable"',),
        )
        assert report.chosen == "stable"
        by_id = {c.unit_id: c for c in report.candidates}
        assert "FILTERED" in by_id["beta"].reasons


class TestReplacing:
    def test_replacing_excludes_old_unit_from_safety(self):
        old = DeployedUnit(
            "old", "prod", Version.parse("1.0"), "ACTIVE",
            footprint=Size.parse("1GB"),
            provides=(("comp", Version.parse("1.0")),),
        )
        state = ClientSiteState(machine_id="s", deployed_units=(old,))
        new = make_unit("new", version="2.0", provides=[("comp", "2.0")])
        blocked = select_package("prod", [new], make_site(), state)
        assert blocked.chosen is None
        allowed = select_package("prod", [new], make_site(), state, replacing=old)
        assert allowed.chosen == "new"

    def test_replacing_credits_footprint(self):
        old = DeployedUnit(
            "old", "prod", Version.parse("1.0"), "ACTIVE", footprint=Size.parse("2GB")
        )
        state = ClientSiteState(machine_id="s", deployed_units=(old,))
        site = make_site(
            properties={"disk.free": Size.parse("1GB")},
            standing_constraints=("disk.free >= 500MB",),
        )
        new = make_unit("new", version="2.0", footprint="2GB")
        assert select_package("prod", [new], site, state).chosen is None
        assert select_package("prod", [new], site, state, replacing=old).chosen == "new"


def test_product_mismatch_raises():
    with pytest.raises(ValueError):
        select_package("prod", [make_unit("u", product="other")], make_site(), empty_state())


# ---------------------------------------------------------------------------
# One memo per push: sites that share a projection share outcomes, and
# nothing else does.


def shared_and_fresh(units, sites, filters=()):
    """Each site's report from one memo shared by every site, checked against
    a fresh memo per site."""
    memo = EvalMemo()
    reports = []
    for site in sites:
        shared = select_package("p", units, site, empty_state(), extra_filters=filters, memo=memo)
        fresh = select_package("p", units, site, empty_state(), extra_filters=filters)
        assert shared.to_json() == fresh.to_json()
        reports.append({c.unit_id: c for c in shared.candidates})
    return reports


def outcome_json(candidate):
    return candidate.constraint_outcome.to_json()


class TestMemoKeys:
    def test_integer_and_boolean_never_share(self):
        units = [
            make_unit("one", product="p", constraints=["tier = 1"]),
            make_unit("true", product="p", constraints=["tier = true"]),
        ]
        values = (1, True, True, 1)
        reports = shared_and_fresh(units, [make_site({"tier": v}) for v in values])
        for report, value in zip(reports, values):
            ok, bad = ("one", "true") if type(value) is int else ("true", "one")
            assert report[ok].constraint_outcome.is_satisfied
            clause = {"one": "tier = 1", "true": "tier = true"}[bad]
            assert outcome_json(report[bad]) == {
                "status": "VIOLATED",
                "reasons": [{"clause": clause, "code": "TYPE_MISMATCH"}],
            }

    def test_padded_equal_versions_print_their_own_reason(self):
        units = [
            make_unit("short", product="p", constraints=["v >= 1.0"]),
            make_unit("long", product="p", constraints=["v >= 1.0.0"]),
        ]
        sites = [make_site({"v": Version.parse(t)}) for t in ("0.9", "1.0", "1.0.0", "0.9.0")]
        reports = shared_and_fresh(units, sites)
        for report in (reports[0], reports[3]):
            assert outcome_json(report["short"])["reasons"] == [
                {"clause": "v >= 1.0", "code": "FALSE_CLAUSE"}
            ]
            assert outcome_json(report["long"])["reasons"] == [
                {"clause": "v >= 1.0.0", "code": "FALSE_CLAUSE"}
            ]
        for report in reports[1:3]:
            assert all(c.admissible for c in report.values())

    def test_exists_tells_missing_from_present(self):
        units = [make_unit("u", product="p", constraints=["exists(x)"])]
        sites = [make_site({"x": 1}), make_site({}), make_site({"x": "y"}), make_site({})]
        statuses = [r["u"].constraint_outcome.status for r in shared_and_fresh(units, sites)]
        assert statuses == [Status.SATISFIED, Status.VIOLATED, Status.SATISFIED, Status.VIOLATED]

    def test_two_footprints_on_one_site_get_their_own_standing(self):
        units = [
            make_unit("small", product="p", footprint="500MB"),
            make_unit("large", product="p", footprint="1500MB"),
        ]
        site = make_site({"disk.free": Size.parse("2GB")}, ("disk.free >= 1GB",))
        (report,) = shared_and_fresh(units, [site])
        assert report["small"].standing[0].outcome.is_satisfied
        assert report["large"].standing[0].outcome.status is Status.VIOLATED
        assert report["large"].reasons == ("STANDING_VIOLATED",)

    def test_shared_fragments_are_one_object(self):
        units = [make_unit(f"u{i}", product="p", constraints=['os = "linux"']) for i in range(3)]
        sites = [make_site({"os": "linux", "disk.free": Size(10**9)}, ("disk.free >= 1MB",))] * 2
        reports = shared_and_fresh(units, sites)
        fragments = [outcome_json(r[uid]) for r in reports for uid in r]
        standing = [r[uid].standing[0].to_json() for r in reports for uid in r]
        assert all(f is fragments[0] for f in fragments)
        assert all(s is standing[0] for s in standing)
        for uid in reports[0]:
            assert reports[0][uid] is reports[1][uid]
            assert reports[0][uid].to_json() is reports[1][uid].to_json()

    def test_equal_outcomes_of_different_inputs_are_one_object(self):
        """Sites whose ``disk.free`` differs get equal checks; equal values are
        one object, so their candidates share one report."""
        units = [make_unit("u", product="p", constraints=["ram >= 1GB"], footprint="1MB")]
        sites = [
            make_site({"ram": Size.parse(ram), "disk.free": Size.parse(free)}, ("disk.free >= 1GB",))
            for ram, free in (("2GB", "10GB"), ("4GB", "20GB"), ("8GB", "30GB"))
        ]
        reports = [r["u"] for r in shared_and_fresh(units, sites)]
        assert all(r is reports[0] for r in reports)
        assert reports[0].admissible

    def test_conflicts_that_print_apart_never_share_a_report(self):
        """Installed ``lib`` 1.0 and 1 are equal Versions but print apart, so
        the candidate's OVERWRITE conflicts, and its reports, differ."""
        units = [make_unit("u", product="p", provides=[("lib", "2.0")])]
        site = make_site()
        memo = EvalMemo()
        reports = []
        for installed in ("1.0", "1", "1.0", "1"):
            provides = (("lib", Version.parse(installed)),)
            lib = DeployedUnit("old", "q", Version.parse("1.0"), "ACTIVE", provides=provides)
            state = ClientSiteState("s", (lib,), ("q",))
            shared = select_package("p", units, site, state, memo=memo)
            assert shared.to_json() == select_package("p", units, site, state).to_json()
            (candidate,) = shared.candidates
            assert candidate.to_json()["conflicts"][0]["installed"] == installed
            reports.append(candidate)
        assert reports[0] is reports[2] and reports[1] is reports[3]
        assert reports[0] is not reports[1]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_sites=st.integers(1, 8))
def test_a_push_wide_memo_reports_as_a_fresh_memo_per_site(seed, n_sites):
    rng = random.Random(seed)
    units, _, _, _ = random_instance(rng)
    sites = [random_instance(rng)[1] for _ in range(n_sites)]
    filters = tuple(rng.sample(['channel = "stable"', "exists(channel)", "tier = 1"], rng.randrange(3)))
    shared_and_fresh(units, sites, filters)
