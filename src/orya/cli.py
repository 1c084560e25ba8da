"""Operator command line: every universe and orchestrator operation.

Exit codes: 0 success, 1 domain refusal (nothing deployed, unsafe removal,
illegal transition, invalid model, failed expects), 2 usage or store errors.
Only ``--format json`` output is contract-stable; text output is for humans.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .engine import USAGE_ERROR_CODES, LocalEngine
from .errors import OryaError
from .units import unit_from_json
from .universe import ENV_UNIVERSE, init_universe, read_document
from .values import value_from_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orya", description="deployment orchestration over a universe store"
    )
    parser.add_argument(
        "--universe",
        default=os.environ.get(ENV_UNIVERSE),
        help=f"store path (default: ${ENV_UNIVERSE})",
    )
    parser.add_argument("--remote", default=None, help="service address (host:port or socket path)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create an empty universe store")
    p.add_argument("--enterprise", help="seed enterprise model document")

    p = sub.add_parser("model", help="inspect the enterprise model")
    p.add_argument("action", choices=("validate", "show"))

    p = sub.add_parser("publish", help="publish a unit manifest to an app server")
    p.add_argument("server")
    p.add_argument("manifest")

    p = sub.add_parser("unpublish", help="remove a unit from an app server")
    p.add_argument("server")
    p.add_argument("unit")

    p = sub.add_parser("deploy", help="push a product to a group or explicit sites")
    p.add_argument("--product", required=True)
    p.add_argument("--group")
    p.add_argument("--site", action="append", default=[])
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--policy", choices=("reject", "force", "shared-highest"), default="reject")
    p.add_argument("--filter", action="append", default=[], help="extra candidate filter expression")

    p = sub.add_parser("pull", help="user-requested update of one product on one site")
    p.add_argument("--site", required=True)
    p.add_argument("--product", required=True)

    p = sub.add_parser("undeploy", help="remove a deployed unit from a site")
    p.add_argument("--site", required=True)
    p.add_argument("--unit", required=True)
    p.add_argument("--force", action="store_true")

    for name in ("activate", "deactivate"):
        p = sub.add_parser(name, help=f"{name} a deployed unit")
        p.add_argument("--site", required=True)
        p.add_argument("--unit", required=True)

    p = sub.add_parser("set-prop", help="change a site property (name=value, or --remove)")
    p.add_argument("--site", required=True)
    p.add_argument("assignment", nargs="?", help="name=value")
    p.add_argument("--remove", metavar="NAME", help="remove the named property")
    p.add_argument("--apply-reconfig", action="store_true")

    p = sub.add_parser("status", help="list deployment records")
    p.add_argument("--site")
    p.add_argument("--product")
    p.add_argument("--outcome")
    p.add_argument("--mode")

    sub.add_parser("digest", help="print the canonical digest of the universe")

    p = sub.add_parser("simulate", help="run a scenario file")
    p.add_argument("scenario")

    p = sub.add_parser("serve", help="run the NDJSON service on a local socket")
    p.add_argument("--listen", default="127.0.0.1:7733")

    return parser


def _request_for(args: argparse.Namespace) -> dict:
    """Translate parsed flags into one protocol request object."""
    cmd = args.command
    if cmd == "model":
        return {"op": f"model_{args.action}"}
    if cmd == "publish":
        manifest = read_document(args.manifest, args.manifest, _checked_manifest)
        return {"op": "publish", "server": args.server, "manifest": manifest}
    if cmd == "unpublish":
        return {"op": "unpublish", "server": args.server, "unit": args.unit}
    if cmd == "deploy":
        if bool(args.group) == bool(args.site):
            raise _Usage("deploy needs exactly one of --group or --site")
        req = {
            "op": "deploy",
            "product": args.product,
            "policy": args.policy,
            "dry_run": args.dry_run,
            "filters": args.filter,
        }
        if args.group:
            req["group"] = args.group
        else:
            req["sites"] = args.site
        return req
    if cmd == "pull":
        return {"op": "pull", "site": args.site, "product": args.product}
    if cmd == "undeploy":
        return {"op": "undeploy", "site": args.site, "unit": args.unit, "force": args.force}
    if cmd in ("activate", "deactivate"):
        return {"op": cmd, "site": args.site, "unit": args.unit}
    if cmd == "set-prop":
        req = {"op": "set_prop", "site": args.site, "apply": args.apply_reconfig}
        if args.remove:
            req.update({"name": args.remove, "remove": True})
        elif args.assignment and "=" in args.assignment:
            name, _, raw = args.assignment.partition("=")
            value_from_json(_coerce(raw))  # validate early
            req.update({"name": name, "value": _coerce(raw)})
        else:
            raise _Usage("set-prop needs name=value or --remove NAME")
        return req
    if cmd == "digest":
        return {"op": "digest"}
    if cmd == "status":
        req = {"op": "status"}
        for key in ("site", "product", "outcome", "mode"):
            if getattr(args, key):
                req[key] = getattr(args, key)
        return req
    raise _Usage(f"unknown command {cmd!r}")


def _checked_manifest(doc: dict) -> dict:
    """A manifest document, once it decodes as a unit: an ill-shaped file is
    CORRUPT naming it, as a model or scenario file is."""
    unit_from_json(doc)
    return doc


def _coerce(raw: str):
    """CLI value text to a JSON property scalar: bool/int pass through,
    sizes and versions stay strings (decoded downstream), rest is text."""
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        return raw


class _Usage(Exception):
    pass


def _emit(response: dict, fmt: str) -> int:
    if fmt == "json":
        _print_json(response)
    else:
        _emit_text(response)
    if not response.get("ok", False):
        code = response.get("error", {}).get("code", "ERROR")
        return 2 if code in USAGE_ERROR_CODES else 1
    return 1 if response.get("refusal") else 0


# Encoded chunks per write. The indented encoder yields a chunk per token,
# so writing each one (as ``json.dump`` does) doubled the time of a 17 MB
# answer; joining them all (as ``json.dumps`` does) held the whole text.
_JSON_CHUNKS = 256


def _print_json(response: dict) -> None:
    """Print ``response`` as ``json.dumps(response, sort_keys=True,
    indent=2)`` and a newline, written as it is encoded, so the whole text is
    never built."""
    part = []
    for chunk in json.JSONEncoder(sort_keys=True, indent=2).iterencode(response):
        part.append(chunk)
        if len(part) == _JSON_CHUNKS:
            sys.stdout.write("".join(part))
            part.clear()
    part.append("\n")
    sys.stdout.write("".join(part))


def _emit_text(response: dict) -> None:
    if not response.get("ok", False):
        err = response.get("error", {})
        print(f"error [{err.get('code')}]: {err.get('message')}", file=sys.stderr)
        return
    if "report" in response and isinstance(response["report"], dict):
        report = response["report"]
        if "entries" in report:
            for entry in report["entries"]:
                parts = [entry.get("site", "-"), entry.get("outcome", "-")]
                if entry.get("unit"):
                    parts.append(entry["unit"])
                if entry.get("reason"):
                    parts.append(f"({entry['reason']})")
                print("  ".join(parts))
            summary = report.get("summary", {})
            if summary:
                print("summary: " + ", ".join(f"{k}={v}" for k, v in summary.items()))
            return
        if "violations" in report:
            if report.get("ok"):
                print("model valid")
            for v in report["violations"]:
                print(f"{v['code']}  {v['subject']}  {v['detail']}")
            return
    if "plan" in response:
        plan = response["plan"]
        if not plan["actions"]:
            print("no reconfiguration needed")
        for action in plan["actions"]:
            line = f"{action['unit']}  {action['action']}"
            if action.get("replacement"):
                line += f" -> {action['replacement']}"
            print(line)
        return
    for key in ("model", "published", "removed", "digest", "pong"):
        if key in response:
            print(json.dumps(response[key], sort_keys=True, indent=2)
                  if isinstance(response[key], dict) else response[key])
            return
    print("ok")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "init":
            if not args.universe:
                parser.error("--universe (or $ORYA_UNIVERSE) is required")
            enterprise = None
            if args.enterprise:  # decoded before anything is created
                from .model import enterprise_from_json

                enterprise = read_document(args.enterprise, args.enterprise, enterprise_from_json)
            init_universe(args.universe, enterprise)
            return _emit({"ok": True, "initialized": str(args.universe)}, args.format)

        # The simulated fleet and the socket transport are imported only by
        # the commands that use them, so a cold read process never loads them.
        if args.command == "simulate":
            from .simharness import run_scenario

            report = run_scenario(args.scenario)
            response = {"ok": True, "refusal": not report.passed}
            response.update(report.to_json())
            return _emit(response, args.format)

        if args.command == "serve":
            if not args.universe:
                parser.error("--universe (or $ORYA_UNIVERSE) is required")
            from .service import ServiceServer

            server = ServiceServer(args.universe, args.listen)
            print(f"listening on {server.address}", file=sys.stderr)
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                server.shutdown()
            return 0

        req = _request_for(args)
        if args.remote:
            from .service import request

            response = request(args.remote, req)
        else:
            if not args.universe:
                parser.error("--universe (or $ORYA_UNIVERSE) is required")
            response = LocalEngine(args.universe).handle(req)
        return _emit(response, args.format)

    except _Usage as err:
        parser.print_usage(sys.stderr)
        print(f"orya: {err}", file=sys.stderr)
        return 2
    except OryaError as err:
        print(f"error [{err.code}]: {err.message}", file=sys.stderr)
        return 2 if err.code in USAGE_ERROR_CODES else 1
    except (OSError, ValueError) as err:
        print(f"orya: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
