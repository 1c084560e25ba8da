"""Full enumeration of the unit lifecycle against an independent transcription."""

import pytest

from orya.errors import IllegalTransitionError
from orya.process import ActivityKind, LifecycleState, transition

A, S, I, C, R = (
    LifecycleState.ABSENT,
    LifecycleState.STAGED,
    LifecycleState.INSTALLED,
    LifecycleState.ACTIVE,
    LifecycleState.REMOVED,
)

# Transcribed by hand, cell by cell; None marks an illegal pair.
# Columns: transfer, copy, install, configure, activate, deactivate,
#          update, uninstall, verify.
EXPECTED = {
    A: {"transfer": S, "install": I},
    S: {"transfer": S, "copy": S, "install": I, "configure": S, "verify": S},
    I: {"copy": I, "configure": I, "activate": C, "update": I, "uninstall": R, "verify": I},
    C: {"copy": C, "configure": C, "deactivate": I, "verify": C},
    R: {},
}


def test_full_enumeration():
    checked = 0
    for state in LifecycleState:
        for activity in ActivityKind:
            expected = EXPECTED[state].get(activity.value)
            if expected is None:
                with pytest.raises(IllegalTransitionError) as exc:
                    transition(state, activity)
                assert exc.value.state == state.value
                assert exc.value.activity == activity.value
            else:
                assert transition(state, activity) is expected
            checked += 1
    assert checked == 5 * 9


def test_removed_is_terminal():
    for activity in ActivityKind:
        with pytest.raises(IllegalTransitionError):
            transition(R, activity)


def test_happy_path():
    state = A
    for activity in (
        ActivityKind.TRANSFER,
        ActivityKind.TRANSFER,  # extra resources keep it staged
        ActivityKind.INSTALL,
        ActivityKind.VERIFY,
        ActivityKind.ACTIVATE,
        ActivityKind.DEACTIVATE,
        ActivityKind.UPDATE,
        ActivityKind.UNINSTALL,
    ):
        state = transition(state, activity)
    assert state is R


def test_a_state_outside_the_enum_is_illegal_and_named():
    with pytest.raises(IllegalTransitionError) as exc:
        transition("BOGUS", ActivityKind.ACTIVATE)
    assert exc.value.state == "BOGUS"
    assert "BOGUS" in exc.value.message
