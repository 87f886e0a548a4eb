"""Block target gateway: exports images as network block endpoints.

The gateway is a pure pass-through to the image store plus three concerns
of its own: per-tenant/initiator authorization, single-writer enforcement,
and cumulative traffic accounting. Counters record granted request payload
lengths exactly; denied requests change nothing.

Every target is a read-write export of one writable image to the initiators
it names, so an image has at most one target; the image record names it in
``exporter``, which ``apply`` keeps in step with the target table.

Transport is an in-process loopback carrying the binary wire format below,
so the simulator's "network" boundary is bit-exact without real block
protocol framing.

Wire format, all integers big-endian:
  request:  u32 record length | u8 op (0=read, 1=write) | u16 name length |
            name bytes | u64 offset | u32 read length (reads) or payload
            bytes to end of record (writes)
  response: u32 record length | u8 status (0=ok) | payload (read data, or
            an error code string)
"""

import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .errors import (
    AccessDenied,
    AlreadyExported,
    ImmutableImage,
    InvalidRequest,
    MetalforgeError,
    NotFound,
    TargetGone,
    error_by_code,
)
from .image_store import ImageStore
from .isolation import IsolationService
from .journal import Journal

OP_READ = 0
OP_WRITE = 1
STATUS_OK = 0

_STATUS_OF_CODE = {
    "TargetGone": 1,
    "AccessDenied": 2,
    "OutOfBounds": 3,
    # 4 stays reserved: it was the status of a write to a read-only target
    "NotFound": 5,
    "InternalError": 255,
}

_LEN = struct.Struct(">I")
_REQ_HEAD = struct.Struct(">BH")
_OFFSET = struct.Struct(">Q")
_READ_LEN = struct.Struct(">I")


@dataclass(frozen=True)
class GatewayConfig:
    """Naming and addressing for exported targets."""

    authority: str = "org.metalforge"
    naming_date: str = "2025-01"
    address: str = "192.0.2.10"


@dataclass
class TrafficCounters:
    bytes_read: int = 0
    bytes_written: int = 0
    read_ops: int = 0
    write_ops: int = 0

    def to_public(self) -> dict:
        return dict(vars(self))

    def copy(self) -> "TrafficCounters":
        return TrafficCounters(**vars(self))


@dataclass
class TargetRecord:
    name: str
    image: str
    tenant: str
    allowed_initiators: set
    created_at: float
    counters: TrafficCounters = field(default_factory=TrafficCounters)


class TargetGateway:
    """Exports images as authorized, accounted block endpoints."""

    def __init__(self, store: ImageStore, isolation: IsolationService,
                 journal: Journal, config: GatewayConfig | None = None):
        self.store = store
        self.isolation = isolation
        self.journal = journal
        self.config = config or GatewayConfig()
        # targets and their counters are guarded by the stack lock, journal.lock
        self._targets: dict[str, TargetRecord] = {}
        journal.register("target", self.apply)

    # -- journal replay ----------------------------------------------------

    def apply(self, record: dict) -> None:
        op = record["type"]
        if op == "target.create":
            if record["mode"] != "read_write":
                raise ValueError("read-only targets are not supported")
            rec = TargetRecord(
                name=record["name"],
                image=record["image"],
                tenant=record["tenant"],
                allowed_initiators=set(record["allowed_initiators"]),
                created_at=record["created_at"],
            )
            self._targets[rec.name] = rec
            self.store.get(rec.image).exporter = rec.name
        elif op == "target.delete":
            rec = self._targets.pop(record["name"])
            self.store.get(rec.image).exporter = None
        elif op == "target.rebind":
            rec = self._targets[record["name"]]
            self.store.get(rec.image).exporter = None
            rec.image = record["image"]
            self.store.get(rec.image).exporter = rec.name
        else:
            raise ValueError(f"unknown target record type {op}")

    # -- target lifecycle ----------------------------------------------------

    def create_target(self, tenant: str, image_id: str, allowed_initiators=()) -> str:
        """Export an image read-write to ``allowed_initiators``; see
        ``_check_exportable`` for which images may be exported."""
        with self.journal.lock:
            self._check_exportable(tenant, image_id)
            # a snapshot's rebound target keeps the name of the disk it froze
            name = f"iqn.{self.config.naming_date}.{self.config.authority}:{tenant}:{image_id}"
            if name in self._targets:
                raise AlreadyExported(f"target name {name} is live")
            self.journal.commit({
                "type": "target.create",
                "name": name,
                "image": image_id,
                "tenant": tenant,
                "mode": "read_write",
                "allowed_initiators": sorted(allowed_initiators),
                "created_at": time.time(),
            })
            return name

    def delete_target(self, tenant: str, name: str) -> None:
        with self.journal.lock:
            rec = self._targets.get(name)
            if rec is None:
                raise NotFound(f"target {name} does not exist")
            if rec.tenant != tenant:
                raise AccessDenied(f"target {name} is not owned by {tenant}")
            self.journal.commit({"type": "target.delete", "name": name})

    def rebind_target(self, tenant: str, name: str, image_id: str) -> None:
        """Swap the backing image under a live target, preserving its name
        and counters. Used by snapshot, which must keep the endpoint stable
        while the node moves onto a fresh clone. The image must be
        exportable (``_check_exportable``)."""
        with self.journal.lock:
            self._check_exportable(tenant, image_id)
            rec = self._targets.get(name)
            if rec is None:
                raise NotFound(f"target {name} does not exist")
            if rec.tenant != tenant:
                raise AccessDenied(f"target {name} is not owned by {tenant}")
            self.journal.commit({"type": "target.rebind", "name": name, "image": image_id})

    def exists(self, name: str) -> bool:
        with self.journal.lock:
            return name in self._targets

    def get(self, name: str) -> TargetRecord:
        with self.journal.lock:
            rec = self._targets.get(name)
            if rec is None:
                raise NotFound(f"target {name} does not exist")
            return rec

    def targets(self) -> list[TargetRecord]:
        with self.journal.lock:
            return sorted(self._targets.values(), key=lambda r: r.name)

    def get_traffic(self, name: str) -> TrafficCounters:
        with self.journal.lock:
            return self.get(name).counters.copy()

    @contextmanager
    def fence(self, name: str):
        """Hold off all I/O on one target; used around backing-image swaps.

        The fence holds the write lock of the image the target exports; its
        holder may take that lock again to flatten or clone the image.
        """
        with self.store.get(self.get(name).image).lock.write_locked():
            yield

    # -- data path -----------------------------------------------------------

    def target_read(self, initiator: str, name: str, offset: int, length: int) -> bytes:
        rec = self._live(name)
        self._authorize(initiator, rec)
        data = self.store.read_range(rec.image, offset, length)
        with self.journal.lock:
            rec.counters.bytes_read += length
            rec.counters.read_ops += 1
        return data

    def target_write(self, initiator: str, name: str, offset: int, data: bytes) -> None:
        rec = self._live(name)
        self._authorize(initiator, rec)
        while True:  # the binding is read before the image lock is held
            image = rec.image
            try:
                self.store.write_range(image, offset, data)
                break
            except ImmutableImage:  # a snapshot froze it and rebound the target
                if rec.image == image:
                    raise
        with self.journal.lock:
            rec.counters.bytes_written += len(data)
            rec.counters.write_ops += 1

    def session(self, initiator: str) -> "GatewaySession":
        return GatewaySession(self, initiator)

    # -- internals -------------------------------------------------------------

    def _live(self, name: str) -> TargetRecord:
        with self.journal.lock:
            rec = self._targets.get(name)
            if rec is None:
                raise TargetGone(f"target {name} is gone")
            return rec

    def _check_exportable(self, tenant: str, image_id: str) -> None:
        """Only an image's owner may export it, only while it is writable
        (no children, not a snapshot), and an image has at most one target."""
        image = self.store.check_owned(tenant, image_id)
        if image.exporter is not None:
            raise AlreadyExported(f"image {image_id} already exported as {image.exporter}")
        if not image.writable:
            raise ImmutableImage(f"image {image_id} is not writable")

    def _authorize(self, initiator: str, rec: TargetRecord) -> None:
        if initiator not in rec.allowed_initiators:
            raise AccessDenied(f"initiator {initiator} is not allowed on {rec.name}")
        if self.isolation.network_of(initiator) != rec.tenant:
            raise AccessDenied(
                f"initiator {initiator} is not attached to {rec.tenant}'s network")


# -- wire codec -----------------------------------------------------------


def encode_read_request(name: str, offset: int, length: int) -> bytes:
    raw = name.encode("utf-8")
    body = _REQ_HEAD.pack(OP_READ, len(raw)) + raw + _OFFSET.pack(offset) + _READ_LEN.pack(length)
    return _LEN.pack(len(body)) + body


def encode_write_request(name: str, offset: int, payload: bytes) -> bytes:
    raw = name.encode("utf-8")
    body = _REQ_HEAD.pack(OP_WRITE, len(raw)) + raw + _OFFSET.pack(offset) + payload
    return _LEN.pack(len(body)) + body


def decode_request(frame: bytes) -> dict:
    """Decode one request record; ValueError for any frame that is not one."""
    if len(frame) < _LEN.size:
        raise ValueError("short frame")
    (length,) = _LEN.unpack_from(frame, 0)
    body = frame[_LEN.size : _LEN.size + length]
    if len(body) != length:
        raise ValueError("truncated frame")
    try:
        op, name_len = _REQ_HEAD.unpack_from(body, 0)
        cursor = _REQ_HEAD.size + name_len
        name = body[_REQ_HEAD.size : cursor].decode("utf-8")  # UnicodeDecodeError is one
        (offset,) = _OFFSET.unpack_from(body, cursor)
        cursor += _OFFSET.size
        if op == OP_READ:
            (read_len,) = _READ_LEN.unpack_from(body, cursor)
            return {"op": op, "target": name, "offset": offset, "length": read_len}
    except struct.error as exc:
        raise ValueError(f"malformed frame: {exc}") from exc
    if op == OP_WRITE:
        return {"op": op, "target": name, "offset": offset, "payload": body[cursor:]}
    raise ValueError(f"unknown op {op}")


def encode_response(status: int, payload: bytes = b"") -> bytes:
    return _LEN.pack(1 + len(payload)) + bytes([status]) + payload


def decode_response(frame: bytes) -> tuple[int, bytes]:
    (length,) = _LEN.unpack_from(frame, 0)
    body = frame[_LEN.size : _LEN.size + length]
    if len(body) != length or not body:
        raise ValueError("truncated frame")
    return body[0], body[1:]


class GatewaySession:
    """Loopback transport endpoint bound to one initiator identity.

    The identity plays the role a transport login would; authorization is
    still re-checked on every request so revocation is immediate.
    """

    def __init__(self, gateway: TargetGateway, initiator: str):
        self.gateway = gateway
        self.initiator = initiator

    def submit(self, frame: bytes) -> bytes:
        """Serve one encoded request record and encode the response; a frame
        that does not decode is answered as an ``InvalidRequest``."""
        try:
            try:
                req = decode_request(frame)
            except ValueError as exc:
                raise InvalidRequest(f"undecodable request: {exc}") from exc
            if req["op"] == OP_READ:
                data = self.gateway.target_read(
                    self.initiator, req["target"], req["offset"], req["length"])
                return encode_response(STATUS_OK, data)
            self.gateway.target_write(
                self.initiator, req["target"], req["offset"], req["payload"])
            return encode_response(STATUS_OK)
        except MetalforgeError as exc:
            status = _STATUS_OF_CODE.get(exc.code, _STATUS_OF_CODE["InternalError"])
            return encode_response(status, exc.code.encode("utf-8"))

    def read(self, name: str, offset: int, length: int) -> bytes:
        status, payload = decode_response(self.submit(encode_read_request(name, offset, length)))
        if status != STATUS_OK:  # an error's payload is its code
            raise error_by_code(payload.decode())(f"read {name}@{offset}+{length} failed")
        return payload

    def write(self, name: str, offset: int, payload: bytes) -> None:
        status, detail = decode_response(self.submit(encode_write_request(name, offset, payload)))
        if status != STATUS_OK:
            raise error_by_code(detail.decode())(f"write {name}@{offset}+{len(payload)} failed")
