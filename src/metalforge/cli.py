"""Operator and tenant command-line client.

Every client command is a thin 1:1 mapping onto the JSON API: one row of
``COMMANDS`` per row of ``api.ROUTES``. ``--api`` selects the endpoint: an
``http://`` URL talks to a served stack, anything else is treated as a
persistence root opened in-process (the default mode for single-host use
and for the benchmark harness).
"""

import argparse
import base64
import json
import os
import sys
import urllib.error
import urllib.request

from .api import ApiServer, serve_http
from .bench import SCENARIOS, BenchSpec, run_bench
from .errors import RootBusy
from .orchestrator import Orchestrator, StackConfig


class LocalClient:
    """In-process stack rooted at a directory."""

    def __init__(self, root: str, token: str | None):
        self.svc = Orchestrator.open(root)
        self.api = ApiServer(self.svc)
        self.token = token

    def request(self, method: str, path: str, body: dict | None = None):
        return self.api.handle(method, path, body, self.token)

    def close(self):
        self.svc.close()


class HttpClient:
    def __init__(self, base: str, token: str | None):
        self.base = base.rstrip("/")
        self.token = token

    def request(self, method: str, path: str, body: dict | None = None):
        data = json.dumps(body or {}).encode("utf-8")
        req = urllib.request.Request(self.base + path, data=data, method=method)
        req.add_header("Content-Type", "application/json")
        if self.token:
            req.add_header("Authorization", f"Bearer {self.token}")
        try:
            with urllib.request.urlopen(req) as resp:
                return resp.status, json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read().decode("utf-8"))

    def close(self):
        pass


def make_client(args) -> LocalClient | HttpClient:
    api = args.api or os.environ.get("METALFORGE_API") or os.environ.get("METALFORGE_ROOT")
    if not api:
        raise SystemExit("no API endpoint: pass --api or set METALFORGE_ROOT")
    if api.startswith("http://") or api.startswith("https://"):
        return HttpClient(api, args.token)
    return LocalClient(api, args.token)


# -- client commands ----------------------------------------------------------


def _say(template: str):
    """Print one line filled from the reply and the command's arguments."""
    return lambda args, payload: print(template.format_map({**vars(args), **payload}))


def _each(key: str, template: str):
    """Print one line per record of the reply's ``key`` list."""
    def show(args, payload):
        for rec in payload[key]:
            print(template.format_map(rec))
    return show


def _show_nodes(args, payload):
    for n in payload["nodes"]:
        owner = n["tenant"] or "-"
        print(f"{n['id']}  mac={n['mac']}  {n['pool_state']}  "
              f"health={n['health']}  tenant={owner}")


_GROUPS = {"image": "image management", "node": "node pool"}
_KEY = ("--key", {"dest": "idempotency_key", "metavar": "KEY", "help": "idempotency key"})

# One row per API endpoint: words, help, method, API path ("{arg}" is filled
# from the argument of that name), arguments (a name or flag, alone or with
# its add_argument options), and the printer of a reply. Every argument
# that is neither a path segment nor ``file`` is sent as the body field of its
# name; ``file`` is read into ``content_b64`` on upload and written from it on
# download.
COMMANDS = [
    (("image", "upload"), None, "POST", "/v1/images", ["name", "file"],
     _say("image {id} name={name} size={virtual_size}")),
    (("image", "list"), None, "GET", "/v1/images", [],
     _each("images", "{id}  {name}  kind={kind} size={virtual_size} children={child_count}")),
    (("image", "share"), None, "POST", "/v1/images/{name}/share", ["name", "grantee"],
     _say("shared")),
    (("image", "rename"), None, "POST", "/v1/images/{name}/rename", ["name", "new_name"],
     _say("renamed")),
    (("image", "download"), None, "GET", "/v1/images/{name}/content", ["name", "file"],
     _say("wrote {file}")),
    (("node", "list"), None, "GET", "/v1/nodes", [], _show_nodes),
    (("node", "register"), None, "POST", "/v1/nodes", ["mac"], _say("registered {node}")),
    (("provision",), "stand a node up from an image", "PUT", "/v1/provision",
     [("--image", {"required": True}), "--node", _KEY],
     _say("node {node} state={state} clone={clone_image} target={target}")),
    (("deprovision",), "tear a node down", "DELETE", "/v1/provision/{node}",
     ["node", ("--keep-image", {"action": "store_true"}), _KEY], _say("deprovisioned {node}")),
    (("snapshot",), "freeze a node's disk as an image", "PUT", "/v1/snapshot/{node}",
     ["node", "name"], _say("snapshot image {image}")),
    (("recover",), "re-export a failed node's disk", "PUT", "/v1/recover/{node}",
     ["node", "--new-node"], _say("recovered onto {node} state={state}")),
    (("traffic",), "gateway counters for a node", "GET", "/v1/traffic/{node}", ["node"],
     _say("read={bytes_read}B/{read_ops}ops write={bytes_written}B/{write_ops}ops")),
    (("provisions",), "list live provision records", "GET", "/v1/provisions", [],
     _each("provisions", "{node}  state={state}  clone={clone_image} target={target}")),
]


def run_command(args, client) -> int:
    method, path, show = args.request
    body = {key: getattr(args, key) for key in args.fields if getattr(args, key) is not None}
    if args.tenant:
        body["tenant"] = args.tenant
    if "file" in args and method == "POST":
        with open(args.file, "rb") as fh:
            body["content_b64"] = base64.b64encode(fh.read()).decode("ascii")
    status, payload = client.request(method, path.format_map(vars(args)), body)
    if status != 200:
        code = payload.get("code", "InternalError")
        step = payload.get("failing_step")
        detail = f" (failing step: {step})" if step else ""
        print(f"error {code}: {payload.get('message', '')}{detail}", file=sys.stderr)
        return 1
    if "file" in args and method == "GET":
        with open(args.file, "wb") as fh:
            fh.write(base64.b64decode(payload["content_b64"]))
        payload = {"name": payload["name"], "path": args.file}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        show(args, payload)
    return 0


def cmd_bench(args) -> int:
    params = {}
    for item in args.param or []:
        key, _, value = item.partition("=")
        if not _:
            raise SystemExit(f"bad --param {item!r}, expected key=value")
        params[key] = _coerce(value)
    if args.root:
        params["root"] = args.root
    spec = BenchSpec(scenario=args.scenario, params=params, seed=args.seed,
                     output_path=args.out)
    result = run_bench(spec)
    print(result.summary)
    if args.out:
        print(f"csv written to {args.out}")
    else:
        sys.stdout.write(result.csv_text)
    return 0


def cmd_serve(args) -> int:
    tenants = None
    if args.tenant_token:
        tenants = {}
        for item in args.tenant_token:
            tenant, _, token = item.partition("=")
            if not _:
                raise SystemExit(f"bad --tenant-token {item!r}, expected tenant=token")
            tenants[tenant] = token
    root = args.root or os.environ.get("METALFORGE_ROOT")
    if not root:
        raise SystemExit("serve needs --root or METALFORGE_ROOT")
    svc = Orchestrator.open(root, StackConfig(tenants=tenants,
                                              admin_token=args.admin_token))
    server = serve_http(ApiServer(svc), args.host, args.port)
    print(f"serving {root} on http://{args.host}:{args.port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        svc.close()
    return 0


def _coerce(value: str):
    if "," in value:
        return [_coerce(v) for v in value.split(",") if v]
    for caster in (int, float):
        try:
            return caster(value)
        except ValueError:
            continue
    return value


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metalforge",
        description="diskless bare-metal provisioning client")
    parser.add_argument("--api", help="http(s) URL of a served stack, or a "
                                      "persistence root to open in-process")
    parser.add_argument("--tenant", help="tenant id for this call")
    parser.add_argument("--token", help="API token")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {group: sub.add_parser(group, help=text).add_subparsers(
        dest=f"{group}_cmd", required=True) for group, text in _GROUPS.items()}
    for words, help_text, method, path, arguments, show in COMMANDS:
        parent = groups[words[0]] if len(words) == 2 else sub
        # argparse lists a subcommand's help line only when help is passed
        cmd = parent.add_parser(words[-1], **({"help": help_text} if help_text else {}))
        fields = []
        for arg in arguments:
            flag, options = (arg, {}) if isinstance(arg, str) else arg
            dest = cmd.add_argument(flag, **options).dest
            if dest != "file" and "{" + dest + "}" not in path:
                fields.append(dest)
        cmd.set_defaults(request=(method, path, show), fields=fields)

    bench = sub.add_parser("bench", help="run a benchmark scenario")
    bench.add_argument("scenario", choices=SCENARIOS)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", help="CSV output path")
    bench.add_argument("--param", action="append", help="scenario param key=value")
    bench.add_argument("--root", help="run in this (empty) directory")

    serve = sub.add_parser("serve", help="serve a stack over HTTP")
    serve.add_argument("--root")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7420)
    serve.add_argument("--tenant-token", action="append",
                       help="tenant=token (repeatable); enables auth")
    serve.add_argument("--admin-token")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "bench":
        return cmd_bench(args)
    try:
        if args.command == "serve":
            return cmd_serve(args)
        client = make_client(args)
    except RootBusy as exc:  # one process owns a root; others use its API
        print(f"error RootBusy: {exc}; reach a served root with --api http://HOST:PORT",
              file=sys.stderr)
        return 1
    try:
        return run_command(args, client)
    finally:
        client.close()


if __name__ == "__main__":
    sys.exit(main())
