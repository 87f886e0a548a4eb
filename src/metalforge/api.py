"""HTTP-style JSON API over the orchestrator.

The dispatcher is transport-independent: ``handle(method, path, body,
token)`` returns ``(status, payload)``. A thin standard-library HTTP server
wraps it for real network use; the CLI's local mode calls it in-process.

Fixed surface:
  PUT    /v1/provision                 {tenant?, node?, image, idempotency_key?}
  DELETE /v1/provision/<node>          {keep_image?, idempotency_key?}
  PUT    /v1/snapshot/<node>           {name}
  PUT    /v1/recover/<node>            {new_node?}
  GET    /v1/images /v1/nodes /v1/provisions /v1/traffic/<node>

Image management (CLI support):
  POST   /v1/images                    {name, content_b64}
  GET    /v1/images/<name>/content
  POST   /v1/images/<name>/rename      {new_name}
  POST   /v1/images/<name>/share       {grantee}
  POST   /v1/nodes                     {mac}    (admin token required)

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
            return 200, self._route(method.upper(), path, body,
                                    _LazyTenant(self, token, body), token)
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

    # -- routing ----------------------------------------------------------

    def _route(self, method: str, path: str, body: dict, tenant: "_LazyTenant",
               token: str | None) -> dict:
        parts = [p for p in path.split("/") if p]
        if len(parts) < 2 or parts[0] != "v1":
            raise NotFound(f"no such endpoint {path}")
        head = parts[1]
        rest = parts[2:]

        if head == "provision" and not rest:
            if method == "PUT":
                image = self._resolve_image(tenant(), _require(body, "image"))
                rec = self.svc.provision(tenant(), image, body.get("node"),
                                         body.get("idempotency_key"))
                return rec.to_public()
        elif head == "provision" and len(rest) == 1:
            if method == "DELETE":
                self.svc.deprovision(tenant(), rest[0], bool(body.get("keep_image")),
                                     body.get("idempotency_key"))
                return {"ok": True}
        elif head == "snapshot" and len(rest) == 1:
            if method == "PUT":
                image = self.svc.snapshot(tenant(), rest[0], _require(body, "name"))
                return {"image": image}
        elif head == "recover" and len(rest) == 1:
            if method == "PUT":
                rec = self.svc.recover(tenant(), rest[0], body.get("new_node"))
                return rec.to_public()
        elif head == "images":
            return self._route_images(method, rest, body, tenant())
        elif head == "nodes":
            if method == "GET" and not rest:
                return {"nodes": self.svc.list_nodes(tenant())}
            if method == "POST" and not rest:
                self._require_admin(token)
                return {"node": self.svc.pool.register_node(_require(body, "mac"))}
        elif head == "provisions" and not rest:
            if method == "GET":
                return {"provisions": self.svc.list_provisions(tenant())}
        elif head == "traffic" and len(rest) == 1:
            if method == "GET":
                return self.svc.get_traffic(tenant(), rest[0])
        raise NotFound(f"no such endpoint {method} {path}")

    def _route_images(self, method: str, rest: list, body: dict, tenant: str) -> dict:
        if not rest:
            if method == "GET":
                return {"images": [r.to_public() for r in self.svc.images.list_images(tenant)]}
            if method == "POST":
                payload = base64.b64decode(_require(body, "content_b64"))
                image = self.svc.images.import_image(tenant, _require(body, "name"), payload)
                return self.svc.images.get(image).to_public()
        elif len(rest) == 2:
            name, action = rest
            image = self._resolve_image(tenant, name)
            if action == "content" and method == "GET":
                data = self.svc.images.export_image(tenant, image)
                return {"name": name, "content_b64": base64.b64encode(data).decode("ascii")}
            if action == "rename" and method == "POST":
                self.svc.images.rename_image(tenant, image, _require(body, "new_name"))
                return {"ok": True}
            if action == "share" and method == "POST":
                self.svc.images.share_image(tenant, image, _require(body, "grantee"))
                return {"ok": True}
        raise NotFound("no such image endpoint")

    # -- helpers ----------------------------------------------------------

    def _tenant_for(self, token: str | None, body: dict) -> str:
        resolved = self.svc.authenticate(token)
        claimed = body.get("tenant")
        if resolved is None:
            tenant = claimed
            if not tenant:
                raise InvalidRequest("tenant is required when auth is disabled")
            return tenant
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


def _require(body: dict, key: str):
    value = body.get(key)
    if value is None:
        raise InvalidRequest(f"missing required field {key!r}")
    return value


class _LazyTenant:
    """Defers tenant resolution so admin-only routes work with the admin
    token alone."""

    def __init__(self, api: ApiServer, token: str | None, body: dict):
        self.api = api
        self.token = token
        self.body = body
        self._resolved: str | None = None

    def __call__(self) -> str:
        if self._resolved is None:
            self._resolved = self.api._tenant_for(self.token, self.body)
        return self._resolved


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
                body.update(json.loads(self.rfile.read(length).decode("utf-8")))
            except ValueError:
                self._reply(400, {"code": "InvalidRequest", "message": "bad JSON body"})
                return
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
