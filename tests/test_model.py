import random
from dataclasses import replace

import pytest

from conftest import make_enterprise
from orya.errors import PropertyTypeChangeError, UnknownTargetError
from orya.model import (
    DeployedUnit,
    EnterpriseModel,
    Group,
    Machine,
    MachineKind,
    User,
    apply_property_change,
    derive_products,
    enterprise_from_json,
    enterprise_to_json,
    lookup_machine,
    resolve_targets,
    site_state_from_json,
    site_state_to_json,
    validate_enterprise,
)
from orya.values import Size, Version, canonical_json


def _machine(mid, kind=MachineKind.CLIENT_SITE, **kw):
    return Machine(id=mid, kind=kind, **kw)


class TestValidation:
    def test_valid_model(self):
        model = make_enterprise({"s1": ({"os": "linux"}, ())})
        assert validate_enterprise(model).ok

    def test_duplicate_ids(self):
        model = EnterpriseModel(
            id="e", machines=(_machine("m"), _machine("m")), roles=("r",)
        )
        assert "DUP_ID" in validate_enterprise(model).codes()

    def test_group_cycle(self):
        model = EnterpriseModel(
            id="e",
            groups=(Group(id="a", parent="b"), Group(id="b", parent="a")),
        )
        assert "GROUP_CYCLE" in validate_enterprise(model).codes()

    def test_self_parent(self):
        model = EnterpriseModel(id="e", groups=(Group(id="a", parent="a"),))
        assert "GROUP_CYCLE" in validate_enterprise(model).codes()

    def test_dangling_refs(self):
        model = EnterpriseModel(
            id="e",
            groups=(Group(id="g", members=("ghost",), subgroups=("nope",)),),
            machines=(_machine("m", group_ids=("missing",)),),
            users=(User(id="u", roles=("r",), machine_ids=("gone",)),),
        )
        report = validate_enterprise(model)
        assert "DANGLING_REF" in report.codes()
        subjects = {v.subject for v in report.violations if v.code == "DANGLING_REF"}
        assert subjects == {"g", "m", "u"}

    def test_user_without_role(self):
        model = EnterpriseModel(id="e", users=(User(id="u"),))
        assert "NO_ROLE" in validate_enterprise(model).codes()

    def test_bad_standing_constraint(self):
        model = EnterpriseModel(
            id="e", machines=(_machine("m", standing_constraints=("os ==",)),)
        )
        assert "BAD_CONSTRAINT" in validate_enterprise(model).codes()

    def test_report_permutation_invariant(self):
        rng = random.Random(5)
        machines = [_machine("m"), _machine("m"), _machine("x", group_ids=("nope",))]
        users = [User(id="u"), User(id="v", roles=("r",), machine_ids=("ghost",))]
        baseline = None
        for _ in range(10):
            rng.shuffle(machines)
            rng.shuffle(users)
            model = EnterpriseModel(id="e", machines=tuple(machines), users=tuple(users))
            report = validate_enterprise(model)
            if baseline is None:
                baseline = report.violations
            assert report.violations == baseline


class TestTargetResolution:
    def _model(self):
        return EnterpriseModel(
            id="e",
            groups=(
                Group(id="root", members=("srv", "a"), subgroups=("mid",)),
                Group(id="mid", parent="root", members=("b",), subgroups=("leaf",)),
                Group(id="leaf", parent="mid", members=("c", "d")),
                Group(id="other", members=("e",)),
            ),
            machines=(
                _machine("srv", MachineKind.APP_SERVER),
                _machine("a"),
                _machine("b"),
                _machine("c"),
                _machine("d"),
                _machine("e"),
            ),
        )

    def test_transitive_expansion_matches_dfs_oracle(self):
        model = self._model()
        groups = {g.id: g for g in model.groups}
        kinds = {m.id: m.kind for m in model.machines}

        def dfs(gid, seen):
            if gid in seen:
                return set()
            seen.add(gid)
            out = set(groups[gid].members)
            for sub in groups[gid].subgroups:
                out |= dfs(sub, seen)
            return out

        for gid in groups:
            expected = {
                m for m in dfs(gid, set()) if kinds[m] is MachineKind.CLIENT_SITE
            }
            assert resolve_targets(model, gid) == expected

    def test_explicit_list_filters_servers(self):
        model = self._model()
        assert resolve_targets(model, ["a", "srv", "c"]) == {"a", "c"}

    def test_unknown_targets_raise(self):
        model = self._model()
        with pytest.raises(UnknownTargetError):
            resolve_targets(model, "ghost-group")
        with pytest.raises(UnknownTargetError):
            resolve_targets(model, ["ghost-machine"])
        with pytest.raises(UnknownTargetError):
            lookup_machine(model, "nobody")


class TestPropertyChange:
    def test_set_new(self):
        m = _machine("m")
        updated, event = apply_property_change(m, "os", "linux")
        assert updated.properties["os"] == "linux"
        assert (event.old, event.new, event.noop) == (None, "linux", False)

    def test_equal_value_is_noop(self):
        m = _machine("m", properties={"os": "linux"})
        updated, event = apply_property_change(m, "os", "linux")
        assert event.noop and updated.properties == m.properties

    def test_kind_change_rejected(self):
        m = _machine("m", properties={"ram": Size.parse("4GB")})
        with pytest.raises(PropertyTypeChangeError):
            apply_property_change(m, "ram", 4)
        # bool vs int is also a kind change
        m2 = _machine("m", properties={"n": 1})
        with pytest.raises(PropertyTypeChangeError):
            apply_property_change(m2, "n", True)

    def test_remove(self):
        m = _machine("m", properties={"os": "linux"})
        updated, event = apply_property_change(m, "os", remove=True)
        assert "os" not in updated.properties
        assert event.removed and not event.noop
        _, again = apply_property_change(updated, "os", remove=True)
        assert again.noop

    def test_remove_then_retype_allowed(self):
        m = _machine("m", properties={"ram": Size.parse("4GB")})
        m, _ = apply_property_change(m, "ram", remove=True)
        m, _ = apply_property_change(m, "ram", 4)
        assert m.properties["ram"] == 4

    def test_invalid_name(self):
        with pytest.raises(ValueError):
            apply_property_change(_machine("m"), "not a name", 1)


class TestCodecs:
    def test_enterprise_round_trip(self):
        model = make_enterprise(
            {"s1": ({"os": "linux", "disk.free": "4GB"}, ("disk.free >= 1GB",))}
        )
        doc = enterprise_to_json(model)
        assert enterprise_from_json(doc) == model

    def test_enterprise_text_is_the_canonical_json_of_its_document(self):
        """The text joined from cached group and machine texts is byte for
        byte the one ``sort_keys`` gives, before and after a property change."""
        props = {"os": "linux", "tier": 1, "beta": True, "v": Version.parse("1.0")}
        model = EnterpriseModel(
            id="e\u00e9",
            groups=(
                Group("top", members=("s1",), subgroups=("sub",), description="na\u00efve \"q\""),
                Group("sub", parent="top", members=("s2", "srv")),
            ),
            machines=(
                _machine("s1", properties=props, standing_constraints=("disk.free >= 1GB",),
                         group_ids=("top",)),
                _machine("s2", properties={"disk.free": Size.parse("4GB")}, group_ids=("sub",)),
                _machine("srv", kind=MachineKind.APP_SERVER),
            ),
            users=(User("ops", roles=("admin",), machine_ids=("s1", "s2")), User("\u00fc")),
            roles=("admin", "viewer"),
        )
        assert model.canonical_json == canonical_json(enterprise_to_json(model))
        s1, _ = apply_property_change(model.machines[0], "ram", Size.parse("8GB"))
        changed = replace(model, machines=(s1,) + model.machines[1:])
        assert changed.canonical_json == canonical_json(enterprise_to_json(changed))
        assert EnterpriseModel("empty").canonical_json == canonical_json(
            enterprise_to_json(EnterpriseModel("empty"))
        )

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError):
            enterprise_from_json({"id": "e", "bogus": []})

    def test_site_state_round_trip(self):
        du = DeployedUnit(
            unit_id="u-1",
            product_id="p",
            version=Version.parse("1.2"),
            state="ACTIVE",
            footprint=Size.parse("3MB"),
            provides=(("lib", Version.parse("1.0")),),
            requires=(("core", Version.parse("2.0")),),
            constraints=("os = \"linux\"",),
            config=(("k", "v"),),
        )
        state = site_state_from_json(site_state_to_json(_state_of(du)))
        assert state.deployed_units == (du,)
        assert state.products == ("p",)

    def test_derive_products(self):
        units = (
            DeployedUnit("a", "p1", Version.parse("1.0"), "ACTIVE"),
            DeployedUnit("b", "p2", Version.parse("1.0"), "STAGED"),
            DeployedUnit("c", "p3", Version.parse("1.0"), "INSTALLED"),
        )
        assert derive_products(units) == ("p1", "p3")


def _state_of(du):
    from orya.model import ClientSiteState

    return ClientSiteState(machine_id="site", deployed_units=(du,), products=("p",))
