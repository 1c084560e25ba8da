"""Shared builders for the test suite: enterprises, units, random expressions."""

from __future__ import annotations

import random

import pytest

from orya import expr as expr_mod
from orya import universe as universe_mod
from orya.expr import And, Compare, Exists, Not, Or
from orya.model import EnterpriseModel, Group, Machine, MachineKind, User
from orya.units import PackagedUnit, Resource
from orya.values import Size, Version, parse_property_map


@pytest.fixture(autouse=True)
def fresh_parse_table(monkeypatch):
    """Each test starts with an empty shared parse table, so what a test sees
    parsed does not depend on the tests before it."""
    monkeypatch.setattr(expr_mod, "_parsed", {})


@pytest.fixture
def short_lock_wait(monkeypatch):
    """For a test that holds the lock on purpose: a writer that finds it
    held answers LOCKED after 20 ms, not the real ``LOCK_WAIT_SECONDS``."""
    monkeypatch.setattr(universe_mod, "LOCK_WAIT_SECONDS", 0.02)


def make_unit(
    unit_id,
    product="prod",
    version="1.0",
    constraints=(),
    footprint=0,
    resources=(),
    provides=(),
    requires=(),
    properties=None,
    process=None,
):
    return PackagedUnit(
        id=unit_id,
        product_id=product,
        product_version=Version.parse(version),
        descriptive_properties=dict(properties or {}),
        constraints=tuple(constraints),
        footprint=Size(footprint) if isinstance(footprint, int) else Size.parse(footprint),
        resources=tuple(Resource(n, Size(s), d) for n, s, d in resources),
        provides=tuple((n, Version.parse(v)) for n, v in provides),
        requires=tuple((n, Version.parse(v)) for n, v in requires),
        process=process,
    )


def make_enterprise(sites, servers=("srv1",), groups=None, users=None):
    """``sites`` maps site id -> (properties dict, standing constraint texts)."""
    machines = [
        Machine(id=s, kind=MachineKind.APP_SERVER, group_ids=("all",)) for s in servers
    ]
    for site_id, (props, standing) in sites.items():
        machines.append(
            Machine(
                id=site_id,
                kind=MachineKind.CLIENT_SITE,
                properties=parse_property_map(dict(props)),
                standing_constraints=tuple(standing),
                group_ids=("all",),
            )
        )
    all_ids = tuple(m.id for m in machines)
    return EnterpriseModel(
        id="test",
        groups=groups or (Group(id="all", members=all_ids),),
        machines=tuple(machines),
        users=users or (User(id="ops", roles=("admin",), machine_ids=all_ids),),
        roles=("admin",),
    )


# ---------------------------------------------------------------------------
# Random expression generation (shared by parser round-trip and evaluator tests)

NAMES = ["os", "ram", "disk.free", "region", "tier", "arch", "beta", "rel"]

LITERAL_MAKERS = [
    lambda rng: rng.choice(["linux", "win", "eu", "us", 'quo"te', "back\\slash"]),
    lambda rng: rng.randrange(-5, 100),
    lambda rng: rng.choice([True, False]),
    lambda rng: Version(tuple(rng.randrange(0, 9) for _ in range(rng.randrange(1, 4)))),
    lambda rng: Size(rng.choice([0, 1, 512, 10**3, 5 * 10**6, 2 * 10**9])),
]

OPS = ["=", "!=", "<", "<=", ">", ">="]


def random_expression(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.2:
            return Exists(rng.choice(NAMES))
        literal = rng.choice(LITERAL_MAKERS)(rng)
        if isinstance(literal, int) and not isinstance(literal, bool) and literal < 0:
            literal = -literal  # the grammar has no negative literals
        return Compare(rng.choice(NAMES), rng.choice(OPS), literal)
    roll = rng.random()
    if roll < 0.25:
        return Not(random_expression(rng, depth - 1))
    cls = And if roll < 0.625 else Or
    return cls(random_expression(rng, depth - 1), random_expression(rng, depth - 1))


def random_properties(rng: random.Random, max_props: int = 8):
    props = {}
    for name in rng.sample(NAMES, rng.randrange(0, max_props + 1)):
        props[name] = rng.choice(LITERAL_MAKERS)(rng)
        if isinstance(props[name], int) and not isinstance(props[name], bool):
            props[name] = abs(props[name])
    return props
