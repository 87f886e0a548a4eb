"""HTTP-style JSON API over the orchestrator.

The dispatcher is transport-independent: ``handle(method, path, body,
token)`` returns ``(status, payload)``. A thin standard-library HTTP server
wraps it for real network use; the CLI's local mode calls it in-process.

``ROUTES`` is the whole surface: one row per endpoint with its method, its
path under ``/v1`` (a ``<name>`` segment is passed to the handler), who may
call it, and the JSON type of each body field it reads. Every tenant row
also reads an optional ``tenant`` field, which must match the token's
tenant and is required when auth is disabled. Over HTTP, query parameters
are merged into the body as string fields only, so a ``bool`` field such
as ``keep_image`` must come in a JSON body.

Errors are returned as {code, message, failing_step?}.
"""

import base64
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .errors import (
    AccessDenied,
    InvalidRequest,
    MetalforgeError,
    NotFound,
    RollbackReport,
)
from .orchestrator import Orchestrator

_HTTP_STATUS = {
    "NotFound": 404,
    "TargetGone": 404,
    "NoConfig": 404,
    "AccessDenied": 403,
    "WrongTenant": 403,
    "InvalidSize": 400,
    "InvalidRequest": 400,
    "OutOfBounds": 400,
    "RollbackReport": 500,
    "StorageFailure": 500,
    "InternalError": 500,
}
_CONFLICT = 409  # default for state conflicts (duplicates, busy, exhausted)


class ApiServer:
    """Routes requests to the orchestrator and normalizes errors."""

    def __init__(self, svc: Orchestrator):
        self.svc = svc

    def handle(self, method: str, path: str, body: dict | None = None,
               token: str | None = None) -> tuple[int, dict]:
        body = body or {}
        try:
            who, kinds, handler, params = _match(method.upper(), path)
            if who == "admin":
                caller = self._require_admin(token)
            else:
                caller = self._tenant_for(token, body)
            fields = {key: _field(body, key, kind) for key, kind in kinds.items()}
            reply = handler(self, caller, *params, **fields)
            return 200, {"ok": True} if reply is None else reply
        except RollbackReport as exc:
            return _HTTP_STATUS["RollbackReport"], {
                "code": exc.code,
                "message": str(exc),
                "failing_step": exc.failing_step,
            }
        except MetalforgeError as exc:
            status = _HTTP_STATUS.get(exc.code, _CONFLICT)
            return status, {"code": exc.code, "message": str(exc)}
        except ValueError as exc:
            return 400, {"code": "InvalidRequest", "message": str(exc)}

    # -- handlers, one per row of ROUTES; None answers {"ok": true} -------

    def _provision(self, tenant: str, image: str, node: str | None,
                   idempotency_key: str | None) -> dict:
        image = self._resolve_image(tenant, image)
        return self.svc.provision(tenant, image, node, idempotency_key).to_public()

    def _deprovision(self, tenant: str, node: str, keep_image: bool | None,
                     idempotency_key: str | None) -> None:
        self.svc.deprovision(tenant, node, bool(keep_image), idempotency_key)

    def _snapshot(self, tenant: str, node: str, name: str) -> dict:
        return {"image": self.svc.snapshot(tenant, node, name)}

    def _recover(self, tenant: str, node: str, new_node: str | None) -> dict:
        return self.svc.recover(tenant, node, new_node).to_public()

    def _list_images(self, tenant: str) -> dict:
        return {"images": [r.to_public() for r in self.svc.images.list_images(tenant)]}

    def _import_image(self, tenant: str, name: str, content_b64: str) -> dict:
        image = self.svc.images.import_image(tenant, name, base64.b64decode(content_b64))
        return self.svc.images.get(image).to_public()

    def _export_image(self, tenant: str, name: str) -> dict:
        data = self.svc.images.export_image(tenant, self._resolve_image(tenant, name))
        return {"name": name, "content_b64": base64.b64encode(data).decode("ascii")}

    def _rename_image(self, tenant: str, name: str, new_name: str) -> None:
        self.svc.images.rename_image(tenant, self._resolve_image(tenant, name), new_name)

    def _share_image(self, tenant: str, name: str, grantee: str) -> None:
        self.svc.images.share_image(tenant, self._resolve_image(tenant, name), grantee)

    def _list_nodes(self, tenant: str) -> dict:
        return {"nodes": self.svc.list_nodes(tenant)}

    def _register_node(self, _admin: None, mac: str) -> dict:
        return {"node": self.svc.pool.register_node(mac)}

    def _list_provisions(self, tenant: str) -> dict:
        return {"provisions": self.svc.list_provisions(tenant)}

    def _traffic(self, tenant: str, node: str) -> dict:
        return self.svc.get_traffic(tenant, node)

    # -- helpers ----------------------------------------------------------

    def _tenant_for(self, token: str | None, body: dict) -> str:
        resolved = self.svc.authenticate(token)
        claimed = _field(body, "tenant", str | None)
        if resolved is None:
            if not claimed:
                raise InvalidRequest("tenant is required when auth is disabled")
            return claimed
        if claimed and claimed != resolved:
            raise AccessDenied(f"token does not belong to tenant {claimed}")
        return resolved

    def _require_admin(self, token: str | None) -> None:
        admin = self.svc.config.admin_token
        if self.svc.config.tenants is None and admin is None:
            return
        if admin is None or token != admin:
            raise AccessDenied("admin token required")

    def _resolve_image(self, tenant: str, ref: str) -> str:
        """Accept an image id or a name visible to the tenant; the tenant's
        own image of that name wins over one shared with it."""
        if self.svc.images.exists(ref):
            self.svc.images.check_readable(tenant, ref)
            return ref
        own = self.svc.images.find_by_name(tenant, ref)
        if own is not None:
            return own.id
        for rec in self.svc.images.list_images(tenant):
            if rec.name == ref:
                return rec.id
        raise NotFound(f"image {ref} does not exist")


# One row per endpoint: method, path under /v1 (its first segment is literal;
# each <name> segment is passed to the handler), who may call it ("tenant":
# the token's tenant, or the tenant field when auth is disabled; "admin": the
# admin token), the JSON type of each body field it reads (str is required,
# str | None and bool | None optional), and the handler, called as
# handler(api, caller, *segments, **fields).
ROUTES = [
    ("PUT", "/provision", "tenant",
     {"image": str, "node": str | None, "idempotency_key": str | None}, ApiServer._provision),
    ("DELETE", "/provision/<node>", "tenant",
     {"keep_image": bool | None, "idempotency_key": str | None}, ApiServer._deprovision),
    ("PUT", "/snapshot/<node>", "tenant", {"name": str}, ApiServer._snapshot),
    ("PUT", "/recover/<node>", "tenant", {"new_node": str | None}, ApiServer._recover),
    ("GET", "/images", "tenant", {}, ApiServer._list_images),
    ("POST", "/images", "tenant", {"name": str, "content_b64": str}, ApiServer._import_image),
    ("GET", "/images/<name>/content", "tenant", {}, ApiServer._export_image),
    ("POST", "/images/<name>/rename", "tenant", {"new_name": str}, ApiServer._rename_image),
    ("POST", "/images/<name>/share", "tenant", {"grantee": str}, ApiServer._share_image),
    ("GET", "/nodes", "tenant", {}, ApiServer._list_nodes),
    ("POST", "/nodes", "admin", {"mac": str}, ApiServer._register_node),
    ("GET", "/provisions", "tenant", {}, ApiServer._list_provisions),
    ("GET", "/traffic/<node>", "tenant", {}, ApiServer._traffic),
]


def _index(routes: list[tuple]) -> dict[tuple, list[tuple]]:
    """Group rows by (method, segment count, first segment), so a request
    is compared only against the few rows that can match it. Each entry
    holds the row's literal segments by position and its <name> positions,
    counted in the request path, where "v1" is segment 0."""
    index: dict = {}
    for method, path, *rest in routes:
        segments = ["v1", *path.strip("/").split("/")]
        literals = [(i, s) for i, s in enumerate(segments) if s[0] != "<"]
        slots = [i for i, s in enumerate(segments) if s[0] == "<"]
        index.setdefault((method, len(segments), segments[1]), []).append(
            (literals, slots, *rest))
    return index


_INDEX = _index(ROUTES)


def _match(method: str, path: str) -> tuple:
    """(who may call, field types, handler, segment values) of the matching row."""
    parts = list(filter(None, path.split("/")))
    if len(parts) >= 2:
        for literals, slots, who, kinds, handler in _INDEX.get((method, len(parts), parts[1]), ()):
            for i, literal in literals:
                if parts[i] != literal:
                    break
            else:
                return who, kinds, handler, [parts[i] for i in slots]
    raise NotFound(f"no such endpoint {method} {path}")


def _field(body: dict, key: str, kind):
    """The one type check on request fields; ``kind`` is ``str`` for a
    required string or ``<type> | None`` for an optional one."""
    value = body.get(key)
    if value is None and kind is str:
        raise InvalidRequest(f"missing required field {key!r}")
    if not isinstance(value, kind):
        raise InvalidRequest(f"field {key!r} must be {getattr(kind, '__name__', kind)}, "
                             f"not {type(value).__name__}")
    return value


# -- standard-library HTTP adapter ---------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    api: ApiServer = None  # set by serve_http

    def _dispatch(self, method: str) -> None:
        parsed = urlparse(self.path)
        body: dict = {}
        for key, values in parse_qs(parsed.query).items():
            body[key] = values[-1]
        length = self.headers.get("Content-Length") or "0"
        if not length.isdecimal():
            self._reply(400, {"code": "InvalidRequest", "message": "bad Content-Length"})
            return
        length = int(length)
        if length:
            try:
                fields = json.loads(self.rfile.read(length).decode("utf-8"))
            except ValueError:
                fields = None
            if not isinstance(fields, dict):
                self._reply(400, {"code": "InvalidRequest", "message": "bad JSON body"})
                return
            body.update(fields)
        token = None
        auth = self.headers.get("Authorization") or ""
        if auth.startswith("Bearer "):
            token = auth[len("Bearer "):]
        status, payload = self.api.handle(method, parsed.path, body, token)
        self._reply(status, payload)

    def _reply(self, status: int, payload: dict) -> None:
        raw = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def do_GET(self):
        self._dispatch("GET")

    def do_PUT(self):
        self._dispatch("PUT")

    def do_POST(self):
        self._dispatch("POST")

    def do_DELETE(self):
        self._dispatch("DELETE")

    def log_message(self, fmt, *args):  # quiet by default
        pass


def serve_http(api: ApiServer, host: str = "127.0.0.1", port: int = 7420) -> ThreadingHTTPServer:
    """Bind the API to a real socket; caller drives serve_forever/shutdown."""
    handler = type("BoundHandler", (_Handler,), {"api": api})
    return ThreadingHTTPServer((host, port), handler)


def serve_background(api: ApiServer, host: str = "127.0.0.1", port: int = 0):
    """Test helper: serve on an ephemeral port in a daemon thread."""
    server = serve_http(api, host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, server.server_address[1]
