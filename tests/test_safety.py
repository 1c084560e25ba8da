import pytest

from conftest import make_unit
from orya.errors import UnknownUnitError
from orya.safety import (
    ConflictKind,
    SafetyPolicy,
    blocking_conflicts,
    check_removal_safety,
    check_safety,
)


def lib(version, unit_id=None):
    return make_unit(
        unit_id or f"libz-{version}",
        product="zlib",
        version=version,
        provides=[("libz", version)],
    )


def app(min_version, unit_id="app-b", requires_name="libz"):
    return make_unit(
        unit_id, product="appb", version="1.0", requires=[(requires_name, min_version)]
    )


class TestOverwrite:
    def test_same_name_different_version_blocks_under_reject(self):
        conflicts = check_safety([lib("1.1")], lib("1.2"), SafetyPolicy.REJECT)
        assert len(conflicts) == 1
        c = conflicts[0]
        assert c.kind is ConflictKind.OVERWRITE
        assert (str(c.installed_version), str(c.candidate_version)) == ("1.1", "1.2")
        assert c.blocking

    def test_same_version_is_no_conflict(self):
        assert check_safety([lib("1.1")], lib("1.1", "other-id"), SafetyPolicy.REJECT) == []

    def test_different_component_names_no_conflict(self):
        other = make_unit("x", product="zlib", version="2.0", provides=[("libq", "2.0")])
        assert check_safety([lib("1.1")], other, SafetyPolicy.REJECT) == []

    def test_force_downgrades_to_warning(self):
        conflicts = check_safety([lib("1.1")], lib("1.2"), SafetyPolicy.FORCE)
        assert conflicts and not conflicts[0].blocking
        assert blocking_conflicts(conflicts) == []

    def test_shared_highest_warns_when_all_requirers_satisfied(self):
        installed = [lib("1.1"), app("1.1")]
        conflicts = check_safety(installed, lib("1.2"), SafetyPolicy.SHARED_HIGHEST)
        assert conflicts[0].kind is ConflictKind.OVERWRITE
        assert not conflicts[0].blocking

    def test_shared_highest_blocks_when_some_requirer_unsatisfied(self):
        # requirer pins min 1.5 but max(1.1, 1.2) = 1.2 < 1.5
        installed = [lib("1.1"), app("1.5")]
        conflicts = check_safety(installed, lib("1.2"), SafetyPolicy.SHARED_HIGHEST)
        assert conflicts[0].blocking

    def test_shared_highest_uses_higher_of_the_pair(self):
        # downgrade candidate: max is the installed version, requirers stay fine
        installed = [lib("1.4"), app("1.3")]
        conflicts = check_safety(installed, lib("1.2"), SafetyPolicy.SHARED_HIGHEST)
        assert not conflicts[0].blocking


class TestMissingRequirement:
    def test_unsatisfied_requirement_blocks(self):
        conflicts = check_safety([], app("1.1"), SafetyPolicy.REJECT)
        assert conflicts[0].kind is ConflictKind.MISSING_REQ
        assert conflicts[0].blocking
        assert str(conflicts[0].min_version) == "1.1"

    def test_installed_provider_satisfies(self):
        assert check_safety([lib("1.1")], app("1.1"), SafetyPolicy.REJECT) == []

    def test_older_provider_does_not_satisfy(self):
        conflicts = check_safety([lib("1.0")], app("1.1"), SafetyPolicy.REJECT)
        assert conflicts[0].kind is ConflictKind.MISSING_REQ

    def test_self_provides_satisfy(self):
        bundled = make_unit(
            "bundle",
            product="appb",
            version="1.0",
            provides=[("libz", "1.2")],
            requires=[("libz", "1.1")],
        )
        assert check_safety([], bundled, SafetyPolicy.REJECT) == []

    def test_force_downgrades_missing_req(self):
        conflicts = check_safety([], app("1.1"), SafetyPolicy.FORCE)
        assert conflicts and not conflicts[0].blocking


class TestRemoval:
    def test_still_required_blocks(self):
        installed = [lib("1.1"), app("1.1")]
        conflicts = check_removal_safety(installed, "libz-1.1")
        assert len(conflicts) == 1
        assert conflicts[0].kind is ConflictKind.STILL_REQUIRED
        assert conflicts[0].name == "libz"
        assert conflicts[0].blocking

    def test_alternate_provider_unblocks(self):
        installed = [lib("1.1"), lib("1.2"), app("1.1")]
        assert check_removal_safety(installed, "libz-1.1") == []

    def test_removing_the_requirer_is_safe(self):
        installed = [lib("1.1"), app("1.1")]
        assert check_removal_safety(installed, "app-b") == []

    def test_requirement_never_satisfied_not_flagged(self):
        # the requirement was already broken before the removal
        installed = [lib("1.0"), app("1.1")]
        assert check_removal_safety(installed, "libz-1.0") == []

    def test_deduped_per_component(self):
        installed = [lib("1.1"), app("1.1", unit_id="app-b"), app("1.1", unit_id="app-c")]
        conflicts = check_removal_safety(installed, "libz-1.1")
        assert len(conflicts) == 1

    def test_unknown_unit_raises(self):
        with pytest.raises(UnknownUnitError):
            check_removal_safety([lib("1.1")], "ghost")
