"""Seeded input generator for the benchmark workloads.

Everything the program sees (the enterprise document and the unit manifests)
comes from here, and nothing else: the same seed gives byte-identical inputs.
Every constraint is kept twice, as the text the program parses and as a
Python predicate over the generated properties, so that outcomes can be
predicted without the program (see ``predict.py``).

Property values on the Python side are plain: ``os``, ``region`` are text,
``tier`` is an integer, and ``ram`` and ``disk.free`` are byte counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

GB = 10**9
MB = 10**6

OS = ("linux", "windows", "macos")
REGIONS = ("eu", "us", "ap", "sa")
RAM_GB = (2, 4, 8, 16, 32, 64)
VERSIONS = ("2.3", "2.2", "2.1", "2.0")
FOOTPRINTS_MB = (100, 200, 300, 500, 800, 1000)
RESERVES_GB = (1, 2, 3, 5)
SERVERS = ("srv-a", "srv-b")
TOP_GROUP = "fleet"
SIZE_PROPS = ("ram", "disk.free")


@dataclass(frozen=True)
class Constraint:
    text: str
    holds: object  # props -> bool; every generated site has every property


# Unit constraints: each constrained candidate carries one or two of these.
UNIT_CONSTRAINTS = (
    Constraint('os = "linux"', lambda p: p["os"] == "linux"),
    Constraint('os != "windows"', lambda p: p["os"] != "windows"),
    Constraint("ram >= 8GB", lambda p: p["ram"] >= 8 * GB),
    Constraint("ram >= 16GB", lambda p: p["ram"] >= 16 * GB),
    Constraint('region = "eu" or region = "us"', lambda p: p["region"] in ("eu", "us")),
    Constraint("tier >= 2", lambda p: p["tier"] >= 2),
    Constraint("not (tier = 3)", lambda p: p["tier"] != 3),
    Constraint(
        'os = "windows" and ram >= 4GB', lambda p: p["os"] == "windows" and p["ram"] >= 4 * GB
    ),
    Constraint('region != "ap"', lambda p: p["region"] != "ap"),
    Constraint("exists(tier) and tier <= 2", lambda p: p["tier"] <= 2),
)

# The fallback candidate of each product admits every generated site.
BASE_CONSTRAINT = Constraint("ram >= 1GB", lambda p: p["ram"] >= 1 * GB)

# Second standing constraint of a site; every generated site satisfies each.
STANDING_EXTRA = (
    Constraint("ram >= 2GB", lambda p: p["ram"] >= 2 * GB),
    Constraint("tier <= 3", lambda p: p["tier"] <= 3),
    Constraint('os != "plan9"', lambda p: p["os"] != "plan9"),
    Constraint('not (region = "mars")', lambda p: p["region"] != "mars"),
    Constraint('tier >= 1 or os = "linux"', lambda p: p["tier"] >= 1 or p["os"] == "linux"),
)


def reserve_constraint(gb: int) -> Constraint:
    return Constraint(f"disk.free >= {gb}GB", lambda p, n=gb * GB: p["disk.free"] >= n)


@dataclass(frozen=True)
class Shape:
    """Size and make-up of one workload's fleet and catalog."""

    sites: int
    groups: int
    products: int
    candidates: int  # per product, the fallback candidate included
    full_share: float  # share of sites whose disk admits no candidate
    par_products: int = 0  # the last this many products install with a par of 3 x 3 configure steps


@dataclass
class Unit:
    id: str
    server: str
    product: str
    version: tuple[int, ...]
    footprint: int
    constraints: tuple[Constraint, ...]
    manifest: dict
    activity_paths: tuple[str, ...] = ()  # of the manifest's own process, if any
    config: dict = field(default_factory=dict)  # every configure parameter


@dataclass
class Site:
    id: str
    group: str
    props: dict
    standing: tuple[Constraint, ...]


@dataclass
class Inputs:
    enterprise: dict
    sites: dict[str, Site]
    units: dict[str, Unit]
    products: tuple[str, ...]


def _version(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split("."))


def _par_process(unit_id: str, verify_expr: str) -> tuple[dict, tuple[str, ...], dict]:
    """Install with a par of three branches of three configure steps."""
    branches = []
    config = {}
    for b in range(3):
        steps = []
        for s in range(3):
            key, value = f"b{b}.s{s}", f"{unit_id}:{b}{s}"
            config[key] = value
            steps.append({"act": "configure", "params": {key: value}})
        branches.append({"seq": steps})
    root = {
        "seq": [
            {"act": "transfer", "resource": "r0"},
            {"act": "transfer", "resource": "r1"},
            {"act": "install"},
            {"par": branches},
            {"act": "verify", "expr": verify_expr},
            {"act": "activate"},
        ]
    }
    paths = ["root.0", "root.1", "root.2"]
    paths += [f"root.3.{b}.{s}" for b in range(3) for s in range(3)]
    paths += ["root.4", "root.5"]
    return {"id": f"{unit_id}.install", "root": root}, tuple(paths), config


def _make_unit(rng, product, index, server, constraints, par_process) -> Unit:
    if constraints is None:  # the fallback candidate
        unit_id = f"{product}-base"
        version, footprint_mb, constraints = "1.0", 100, (BASE_CONSTRAINT,)
    else:
        unit_id = f"{product}-{index:02d}"
        version = rng.choice(VERSIONS)
        footprint_mb = rng.choice(FOOTPRINTS_MB)
    manifest = {
        "id": unit_id,
        "product": product,
        "version": version,
        "properties": {"vendor": "bench", "channel": rng.choice(("stable", "lts"))},
        "constraints": [c.text for c in constraints],
        "footprint": f"{footprint_mb}MB",
        "resources": [
            {"name": f"r{i}", "size": f"{rng.randint(1, 50)}MB", "digest": f"{rng.getrandbits(64):016x}"}
            for i in range(2)
        ],
        "provides": [{"name": f"{product}.core", "version": version}],
        "requires": [],
    }
    paths, config = (), {}
    if par_process:
        verify_expr = " and ".join(f"({c.text})" for c in constraints)
        manifest["process"], paths, config = _par_process(unit_id, verify_expr)
    return Unit(
        id=unit_id,
        server=server,
        product=product,
        version=_version(version),
        footprint=footprint_mb * MB,
        constraints=constraints,
        manifest=manifest,
        activity_paths=paths,
        config=config,
    )


def _constraint_sets(rng, count: int) -> list[tuple[Constraint, ...]]:
    """Constraints of ``count`` candidates, one or two each.

    The slots are whole copies of the pool, about 1.5 per candidate, so every
    seed deals the same multiset of constraints (when there are candidates
    enough); the seed decides who gets which.
    """
    copies = max(1, round(1.5 * count / len(UNIT_CONSTRAINTS)))
    slots = (list(UNIT_CONSTRAINTS) * copies)[: 2 * count]
    pairs = len(slots) - count
    while True:
        rng.shuffle(slots)
        sets = [(a, b) for a, b in zip(slots[:pairs], slots[count:])]
        sets += [(a,) for a in slots[pairs:count]]
        if all(len(set(c)) == len(c) for c in sets):
            return sets


def generate(shape: Shape, seed: int) -> Inputs:
    rng = random.Random(seed)
    products = tuple(f"p{k}" for k in range(shape.products))
    constrained = iter(_constraint_sets(rng, shape.products * (shape.candidates - 1)))
    units: dict[str, Unit] = {}
    for product in products:
        for i in range(shape.candidates):
            constraints = next(constrained) if i < shape.candidates - 1 else None
            par = product in products[len(products) - shape.par_products :]
            unit = _make_unit(rng, product, i, SERVERS[i % 2], constraints, par)
            units[unit.id] = unit

    site_ids = [f"s{i:04d}" for i in range(shape.sites)]
    full = set(rng.sample(site_ids, round(shape.full_share * shape.sites)))
    order = site_ids[:]
    rng.shuffle(order)
    group_of = {sid: f"g{k % shape.groups:02d}" for k, sid in enumerate(order)}

    extra = list(STANDING_EXTRA) * -(-shape.sites // len(STANDING_EXTRA))
    rng.shuffle(extra)
    sites: dict[str, Site] = {}
    for sid, second in zip(site_ids, extra):
        reserve = rng.choice(RESERVES_GB)
        props = {
            "os": rng.choice(OS),
            "ram": rng.choice(RAM_GB) * GB,
            "region": rng.choice(REGIONS),
            "tier": rng.randint(1, 3),
            # A full disk is 50MB over its reserve: smaller than any footprint.
            "disk.free": reserve * GB + 50 * MB if sid in full else rng.randint(20, 80) * GB,
        }
        standing = (reserve_constraint(reserve), second)
        sites[sid] = Site(sid, group_of[sid], props, standing)

    return Inputs(_enterprise(sites, shape.groups), sites, units, products)


def size_text(count: int) -> str:
    for unit, mult in (("GB", GB), ("MB", MB)):
        if count % mult == 0:
            return f"{count // mult}{unit}"
    return f"{count}B"


def prop_json(name: str, value):
    return size_text(value) if name in SIZE_PROPS else value


def _enterprise(sites: dict[str, Site], groups: int) -> dict:
    group_ids = [f"g{k:02d}" for k in range(groups)]
    machines = [
        {"id": s, "kind": "app-server", "properties": {}, "constraints": [], "groups": [TOP_GROUP]}
        for s in SERVERS
    ]
    for site in sites.values():
        machines.append(
            {
                "id": site.id,
                "kind": "client-site",
                "properties": {k: prop_json(k, v) for k, v in sorted(site.props.items())},
                "constraints": [c.text for c in site.standing],
                "groups": [site.group],
            }
        )
    group_docs = [{"id": TOP_GROUP, "members": list(SERVERS), "subgroups": group_ids}]
    for gid in group_ids:
        members = [s.id for s in sites.values() if s.group == gid]
        group_docs.append({"id": gid, "parent": TOP_GROUP, "members": members})
    return {
        "id": "bench",
        "groups": group_docs,
        "machines": machines,
        "users": [{"id": "ops", "roles": ["admin"], "machines": []}],
        "roles": ["admin"],
    }
