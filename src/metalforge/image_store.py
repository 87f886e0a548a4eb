"""Tenant-aware copy-on-write block image repository.

Images form parent chains: a linked clone materializes only the blocks
written to it and defers everything else to its ancestors; a block absent
from the whole chain reads as zeros. Metadata mutations are committed
through the shared append-only journal; block payloads live in one sparse
container file per image layer under ``<root>/blocks/``.

Writability rule: an image accepts writes while it is a golden or clone
with no children. Growing a child freezes the parent, which is what keeps
clone read-through stable.

A snapshot of a writable clone is a new image in one ``image.snapshot``
commit: the clone copies up its ancestors' blocks, hands that layer to the
snapshot and goes on over it, keeping its id, name and exporter, with an
empty layer whose file carries the snapshot's id.

Each ``ImageRecord`` owns its layer file and its resolution chain. Every
golden image that arrives with data (an import or a deep copy) takes one
new-layer path, ``_new_golden``: reserve an id, store the non-zero blocks,
re-check the name, commit. Any failure before the commit discards the layer
file, so a failed import or copy leaves no layer behind.
"""

import io
import logging
import os
import struct
import threading
import time
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import BinaryIO

from .errors import (
    AccessDenied,
    ChainTooDeep,
    DuplicateName,
    HasChildren,
    ImageInUse,
    ImmutableImage,
    InvalidSize,
    NotAClone,
    NotFound,
    OutOfBounds,
    StorageFailure,
)
from .journal import Journal
from .sync import RWLock

log = logging.getLogger(__name__)

MIN_BLOCK_SIZE = 4096
DEFAULT_BLOCK_SIZE = 4 * 1024 * 1024


@dataclass(frozen=True)
class StoreConfig:
    """Static store parameters; validated on construction."""

    block_size: int = DEFAULT_BLOCK_SIZE
    max_chain_depth: int = 8

    def __post_init__(self):
        if self.block_size < MIN_BLOCK_SIZE or self.block_size & (self.block_size - 1):
            raise ValueError(f"block_size must be a power of two >= {MIN_BLOCK_SIZE}")
        if self.max_chain_depth < 2:
            raise ValueError("max_chain_depth must be >= 2")


class ImageKind(Enum):
    GOLDEN = "golden"
    CLONE = "clone"
    SNAPSHOT = "snapshot"


@dataclass
class ImageRecord:
    id: str
    name: str
    tenant: str
    kind: ImageKind
    parent: str | None
    virtual_size: int
    block_size: int
    created_at: float
    child_count: int = 0
    shared_with: set = field(default_factory=set)
    # name of the one target that exports this image; the gateway's apply sets it
    exporter: str | None = field(default=None, compare=False)
    # guards this image's block data; lives and dies with the record
    lock: RWLock = field(default_factory=RWLock, repr=False, compare=False)
    layer: "BlockFile" = field(default=None, repr=False, compare=False)
    # resolution chain: this record, then its ancestors; a flatten or snapshot replaces it
    chain: tuple = field(default=(), repr=False, compare=False)

    @property
    def writable(self) -> bool:
        """Guest writes may land here: not a snapshot, and no clone reads through it."""
        return self.kind is not ImageKind.SNAPSHOT and self.child_count == 0

    def to_public(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "tenant": self.tenant,
            "kind": self.kind.value,
            "parent": self.parent,
            "virtual_size": self.virtual_size,
            "block_size": self.block_size,
            "child_count": self.child_count,
            "shared_with": sorted(self.shared_with),
        }


@dataclass
class CopyStats:
    """Point-in-time snapshot of data-movement instrumentation.

    ``blocks_copied`` counts blocks that flatten, snapshot or deep copy
    duplicate; clone creation must never move any.
    """

    blocks_copied: int = 0
    blocks_ingested: int = 0
    blocks_materialized: int = 0
    clone_ops: int = 0
    flatten_ops: int = 0
    deep_copy_ops: int = 0


_BLOCK_HEADER = struct.Struct(">QI")  # block index, crc32 of payload


def block_spans(offset: int, length: int, block_size: int):
    """Yield ``(index, lo, hi, pos)`` for each block that the byte range
    ``[offset, offset + length)`` touches: the range covers bytes
    ``lo:hi`` of block ``index``, starting ``pos`` bytes into the range."""
    cursor = offset
    end = offset + length
    while cursor < end:
        index = cursor // block_size
        block_lo = index * block_size
        lo = cursor - block_lo
        hi = min(end - block_lo, block_size)
        yield index, lo, hi, cursor - offset
        cursor = block_lo + hi


class BlockFile:
    """Sparse single-layer block container.

    Record layout: 8-byte big-endian block index, 4-byte CRC32 of the
    payload, then exactly ``block_size`` payload bytes. Rewrites append a
    fresh record and the latest valid record for an index wins, so a torn
    final record never corrupts previously committed blocks; the scan on
    open drops it. No compaction; rewrite-heavy layers grow until deleted.

    I/O goes through a raw descriptor: appends are single O_APPEND writes
    and reads are positionless preads, so concurrent readers never race on
    a shared file offset and nothing sits in userspace buffers.

    The file is loaded on first use, and again after ``close``; a layer
    with no file reads as empty. Writers call ``open`` (a no-op once open)
    first, which creates a missing file.
    """

    def __init__(self, path: Path, block_size: int):
        self.path = path
        self.block_size = block_size
        # block index -> payload file offset; None until loaded
        self._index: dict[int, int] | None = None
        self._fd: int | None = None
        self._end = 0
        self._load_lock = threading.Lock()  # concurrent readers may all load first

    def open(self) -> None:
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
            self._scan()

    def _scan(self) -> None:
        record = _BLOCK_HEADER.size + self.block_size
        offsets: dict[int, int] = {}
        offset = 0
        with open(self.path, "rb") as fh:
            while True:
                header = fh.read(_BLOCK_HEADER.size)
                if len(header) < _BLOCK_HEADER.size:
                    break
                index, crc = _BLOCK_HEADER.unpack(header)
                payload = fh.read(self.block_size)
                if len(payload) < self.block_size or zlib.crc32(payload) & 0xFFFFFFFF != crc:
                    break
                offsets[index] = offset + _BLOCK_HEADER.size
                offset += record
            fh.seek(0, io.SEEK_END)
            end = fh.tell()
        if end != offset:
            log.warning("block file %s: dropping %d torn bytes", self.path, end - offset)
            os.truncate(self._fd, offset)
        self._end = offset
        self._index = offsets  # published last: a reader never sees half a scan

    def _loaded(self) -> dict[int, int]:
        if self._index is None:
            with self._load_lock:
                if self._index is None:
                    if self.path.exists():
                        self.open()
                    else:
                        self._index = {}
        return self._index

    @property
    def indices(self):
        return self._loaded().keys()

    def read_block(self, index: int) -> bytes | None:
        pos = self._loaded().get(index)
        if pos is None:
            return None
        return os.pread(self._fd, self.block_size, pos)

    def write_block(self, index: int, payload: bytes) -> None:
        if len(payload) != self.block_size:
            raise ValueError("payload must be exactly one block")
        assert self._fd is not None
        frame = _BLOCK_HEADER.pack(index, zlib.crc32(payload) & 0xFFFFFFFF) + payload
        view = memoryview(frame)
        while view:  # short writes are legal, if rare, on regular files
            view = view[os.write(self._fd, view):]
        self._index[index] = self._end + _BLOCK_HEADER.size
        self._end += _BLOCK_HEADER.size + self.block_size

    def close(self) -> None:
        self._index = None
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def unlink(self) -> None:
        self.close()
        self.path.unlink(missing_ok=True)


class ImageStore:
    """Copy-on-write image repository backed by a shared journal.

    Thread safety: metadata and the copy counters are guarded by the stack
    lock, ``journal.lock``, held across each check and the commit that
    depends on it; block data by the reader/writer lock on each
    ``ImageRecord``, so reads run concurrently and operations on distinct
    images in parallel. The store takes image locks only through
    ``_pinned``, descendant-first and never while holding the stack lock:
    the head image's lock, then its ancestors' read locks, then a check that
    the head is live and ``head.chain`` is still the tuple it locked (a
    flatten or snapshot that changed the chain first replaced it; the pin then
    locks anew). No pin is taken while the same thread holds another.
    """

    def __init__(self, root: Path | str, journal: Journal, config: StoreConfig | None = None):
        self.root = Path(root)
        self.config = config or StoreConfig()
        self.journal = journal
        self._images: dict[str, ImageRecord] = {}
        self._by_name: dict[tuple[str, str], ImageRecord] = {}
        self._stats = CopyStats()
        self._seq = 0
        journal.register("image", self.apply)

    def close(self) -> None:
        """Close every layer file; the journal belongs to the caller."""
        for rec in self.records():
            rec.layer.close()

    # -- journal replay -------------------------------------------------

    def apply(self, record: dict) -> None:
        """Apply one journal record to in-memory state (replay or commit)."""
        op = record["type"]
        if op == "image.create":
            rec = ImageRecord(
                id=record["id"],
                name=record["name"],
                tenant=record["tenant"],
                kind=ImageKind(record["kind"]),
                parent=record.get("parent"),
                virtual_size=record["virtual_size"],
                block_size=record["block_size"],
                created_at=record["created_at"],
                layer=BlockFile(self._layer_path(record["id"]), record["block_size"]),
            )
            rec.chain = (rec,)
            if rec.parent is not None:
                self._images[rec.parent].child_count += 1
                rec.chain += self._images[rec.parent].chain
            self._images[rec.id] = rec
            self._by_name[(rec.tenant, rec.name)] = rec
            num = _id_number(rec.id)
            if num is not None:
                self._seq = max(self._seq, num)
        elif op == "image.delete":
            rec = self._images.pop(record["id"])
            self._by_name.pop((rec.tenant, rec.name), None)
            if rec.parent is not None:
                self._images[rec.parent].child_count -= 1
            rec.layer.unlink()
            rec.chain = ()  # drops the self-reference, so the record is freed at once
        elif op == "image.flatten":
            rec = self._images[record["id"]]
            if rec.parent is not None:
                self._images[rec.parent].child_count -= 1
            rec.parent = None
            rec.kind = ImageKind.SNAPSHOT
            # cut every chain through rec (its own included) just after rec
            depth = len(rec.chain)
            for other in self._images.values():
                if len(other.chain) >= depth and other.chain[-depth] is rec:
                    other.chain = other.chain[:len(other.chain) - depth + 1]
        elif op == "image.snapshot":  # the disk has no children: only its chain changes
            disk = self._images[record["id"]]
            self.apply({**self._create_record(record["snapshot"], disk.tenant, record["name"],
                                              ImageKind.SNAPSHOT, None, disk.virtual_size),
                        "block_size": disk.block_size, "created_at": record["created_at"]})
            snap = self._images[record["snapshot"]]
            snap.layer, disk.layer = disk.layer, snap.layer
            snap.child_count = 1
            self._images[disk.parent].child_count -= 1
            disk.parent = snap.id
            disk.chain = (disk, snap)
        elif op == "image.rename":
            rec = self._images[record["id"]]
            self._by_name.pop((rec.tenant, rec.name), None)
            rec.name = record["name"]
            self._by_name[(rec.tenant, rec.name)] = rec
        elif op == "image.share":
            self._images[record["id"]].shared_with.add(record["grantee"])
        else:
            raise ValueError(f"unknown image record type {op}")

    # -- lookup helpers --------------------------------------------------

    def get(self, image_id: str) -> ImageRecord:
        with self.journal.lock:
            rec = self._images.get(image_id)
            if rec is None:
                raise NotFound(f"image {image_id} does not exist")
            return rec

    def exists(self, image_id: str) -> bool:
        with self.journal.lock:
            return image_id in self._images

    def records(self) -> list[ImageRecord]:
        with self.journal.lock:
            return sorted(self._images.values(), key=lambda r: r.id)

    def check_readable(self, tenant: str, image_id: str) -> ImageRecord:
        rec = self.get(image_id)
        if rec.tenant != tenant and tenant not in rec.shared_with:
            raise AccessDenied(f"image {image_id} is not readable by {tenant}")
        return rec

    def check_owned(self, tenant: str, image_id: str) -> ImageRecord:
        rec = self.get(image_id)
        if rec.tenant != tenant:
            raise AccessDenied(f"image {image_id} is not owned by {tenant}")
        return rec

    def find_by_name(self, tenant: str, name: str) -> ImageRecord | None:
        with self.journal.lock:
            return self._by_name.get((tenant, name))

    def stats(self) -> CopyStats:
        with self.journal.lock:
            return CopyStats(**vars(self._stats))

    def _bump(self, **deltas: int) -> None:
        with self.journal.lock:
            for key, delta in deltas.items():
                setattr(self._stats, key, getattr(self._stats, key) + delta)

    # -- image lifecycle --------------------------------------------------

    def create_image(self, tenant: str, name: str, virtual_size: int) -> str:
        """Register an empty (all-zeros) golden image."""
        if virtual_size <= 0:
            raise InvalidSize(f"virtual_size must be positive, got {virtual_size}")
        with self.journal.lock:
            self._require_name_free(tenant, name)
            image_id = self._next_id()
            self.journal.commit(self._create_record(
                image_id, tenant, name, ImageKind.GOLDEN, None, virtual_size))
            return image_id

    def import_image(self, tenant: str, name: str, stream: BinaryIO | bytes) -> str:
        """Ingest a byte stream as a golden image, zero-padded to the block
        boundary. Zero blocks are not stored."""
        if isinstance(stream, (bytes, bytearray)):
            stream = io.BytesIO(stream)
        block_size = self.config.block_size
        count = 0

        def chunks():
            nonlocal count
            while chunk := stream.read(block_size):
                if len(chunk) < block_size:
                    chunk = chunk + bytes(block_size - len(chunk))
                yield count, chunk
                count += 1
            if count == 0:
                raise InvalidSize("cannot import an empty stream")

        image_id, ingested = self._new_golden(tenant, name, chunks(),
                                              lambda: count * block_size)
        self._bump(blocks_ingested=ingested)
        return image_id

    def reserve_id(self) -> str:
        """Draw an image id that no image has, for a later ``linked_clone``."""
        with self.journal.lock:
            return self._next_id()

    def linked_clone(self, tenant: str, parent_id: str, name: str,
                     image_id: str | None = None) -> str:
        """Create a writable child layer, under ``image_id`` if given (an id
        from ``reserve_id``); transfers zero data blocks. A live disk (an
        exported image that is not a snapshot) is refused with ImageInUse: a
        child would freeze it under its node."""
        parent = self.check_readable(tenant, parent_id)
        with self._pinned(parent, write=True) as chain:
            with self.journal.lock:
                if parent.exporter is not None and parent.kind is not ImageKind.SNAPSHOT:
                    raise ImageInUse(f"image {parent_id} is the live disk of {parent.exporter}")
                depth = len(chain) + 1
                if depth > self.config.max_chain_depth:
                    raise ChainTooDeep(
                        f"chain depth {depth} exceeds limit {self.config.max_chain_depth}")
                self._require_name_free(tenant, name)
                image_id = image_id or self._next_id()
                record = self._create_record(image_id, tenant, name, ImageKind.CLONE,
                                             parent_id, parent.virtual_size)
                record["block_size"] = parent.block_size  # chains must align
                self.journal.commit(record)
        self._bump(clone_ops=1)
        return image_id

    def delete_image(self, tenant: str, image_id: str) -> None:
        rec = self.check_owned(tenant, image_id)
        with self._pinned(rec, write=True):
            with self.journal.lock:
                if rec.child_count > 0:
                    raise HasChildren(f"image {image_id} has {rec.child_count} children")
                if rec.exporter is not None:
                    raise ImageInUse(f"image {image_id} is exported by {rec.exporter}")
                self.journal.commit({"type": "image.delete", "id": image_id})

    def rename_image(self, tenant: str, image_id: str, new_name: str) -> None:
        with self.journal.lock:
            rec = self.check_owned(tenant, image_id)
            if rec.name == new_name:
                return
            self._require_name_free(tenant, new_name)
            self.journal.commit({"type": "image.rename", "id": image_id, "name": new_name})

    def share_image(self, tenant: str, image_id: str, grantee: str) -> None:
        """Grant another tenant read and clone access."""
        with self.journal.lock:
            self.check_owned(tenant, image_id)
            self.journal.commit({"type": "image.share", "id": image_id, "grantee": grantee})

    def list_images(self, tenant: str) -> list[ImageRecord]:
        with self.journal.lock:
            return sorted(
                (r for r in self._images.values()
                 if r.tenant == tenant or tenant in r.shared_with),
                key=lambda r: r.id,
            )

    # -- block I/O ---------------------------------------------------------

    def read_range(self, image_id: str, offset: int, length: int) -> bytes:
        """Layered read: this layer's block if present, else the nearest
        ancestor's, else zeros. No side effects."""
        rec = self.get(image_id)
        self._check_bounds(rec, offset, length)
        out = bytearray(length)
        with self._pinned(rec) as chain:
            for index, lo, hi, pos in block_spans(offset, length, rec.block_size):
                payload = self._resolve_block(chain, index)
                if payload is not None:
                    out[pos : pos + (hi - lo)] = payload[lo:hi]
        return bytes(out)

    def write_range(self, image_id: str, offset: int, data: bytes) -> None:
        """Copy-on-write write: affected blocks are materialized in this
        layer via read-modify-write from the parent chain."""
        rec = self.get(image_id)
        self._check_bounds(rec, offset, len(data))
        if not data:
            return
        with self._pinned(rec, write=True) as chain:
            if not rec.writable:
                raise ImmutableImage(f"image {image_id} is not writable")
            self._write_blocks(chain, offset, data)

    def flatten(self, image_id: str) -> int:
        """Materialize every ancestor-resolvable block locally, sever the
        parent link and become a snapshot. Returns blocks copied."""
        rec = self.get(image_id)
        with self._pinned(rec, write=True) as chain:
            if rec.kind is not ImageKind.CLONE:
                raise NotAClone(f"image {image_id} is kind={rec.kind.value}")
            copied = self._copy_up(rec, chain)
            with self.journal.lock:
                self.journal.commit({"type": "image.flatten", "id": image_id})
        self._bump(blocks_copied=copied, flatten_ops=1)
        return copied

    def snapshot(self, tenant: str, image_id: str, name: str) -> str:
        """Freeze a writable clone's bytes as a new snapshot image ``name``;
        returns its id. Guest I/O on the clone waits for the copy-up and the
        commit; a failure before the commit leaves the clone as it was."""
        rec = self.check_owned(tenant, image_id)
        self._require_name_free(tenant, name)
        with self._pinned(rec, write=True) as chain:
            if rec.kind is not ImageKind.CLONE or not rec.writable:
                raise NotAClone(f"image {image_id} is not a writable clone")
            copied = self._copy_up(rec, chain)
            with self.journal.lock:
                self._require_name_free(tenant, name)
                snap_id = self._next_id()
                self.journal.commit({"type": "image.snapshot", "id": image_id, "snapshot": snap_id,
                                     "name": name, "created_at": time.time()})
        self._bump(blocks_copied=copied, flatten_ops=1)
        return snap_id

    def deep_copy(self, tenant: str, source_id: str, name: str) -> str:
        """Fully independent golden duplicate of the source's resolved view."""
        source = self.check_readable(tenant, source_id)
        with self._pinned(source) as chain:
            image_id, copied = self._new_golden(tenant, name, self._resolved_blocks(chain),
                                                lambda: source.virtual_size)
        self._bump(blocks_copied=copied, deep_copy_ops=1)
        return image_id

    def export_image(self, tenant: str, image_id: str) -> bytes:
        """Resolved view of the whole image."""
        rec = self.check_readable(tenant, image_id)
        return self.read_range(image_id, 0, rec.virtual_size)

    # -- integrity ----------------------------------------------------------

    def check_integrity(self) -> list[str]:
        """Recompute derived state and report violations (empty == healthy)."""
        problems: list[str] = []
        with self.journal.lock:
            counts: dict[str, int] = {image_id: 0 for image_id in self._images}
            names = set()
            for rec in self._images.values():
                key = (rec.tenant, rec.name)
                if key in names:
                    problems.append(f"duplicate live name {key}")
                names.add(key)
                parent = self._images.get(rec.parent)
                above = parent.chain if parent is not None else ()
                if list(map(id, rec.chain)) != list(map(id, (rec,) + above)):
                    problems.append(f"{rec.id} chain differs from its parent links")
                if len(rec.chain) > self.config.max_chain_depth:
                    problems.append(f"{rec.id} chain exceeds max depth")
                if rec.parent is not None:
                    if parent is None:
                        problems.append(f"{rec.id} has dangling parent {rec.parent}")
                        continue
                    counts[rec.parent] += 1
                    if rec.kind is not ImageKind.CLONE:
                        problems.append(f"{rec.id} has a parent but kind={rec.kind.value}")
                    if rec.virtual_size != parent.virtual_size:
                        problems.append(f"{rec.id} size differs from parent")
                elif rec.kind is ImageKind.CLONE:
                    problems.append(f"{rec.id} is a clone without a parent")
            for image_id, expected in counts.items():
                actual = self._images[image_id].child_count
                if actual != expected:
                    problems.append(
                        f"{image_id} child_count={actual}, live children={expected}")
        return problems

    def orphan_layer_files(self) -> list[Path]:
        blocks_dir = self.root / "blocks"
        if not blocks_dir.is_dir():
            return []
        with self.journal.lock:
            live = {rec.layer.path for rec in self._images.values()}
        return sorted(p for p in blocks_dir.glob("*.sparse") if p not in live)

    def cleanup_orphan_layers(self) -> int:
        """Remove block files left behind by imports or copies that never
        reached their journal commit."""
        orphans = self.orphan_layer_files()
        for path in orphans:
            log.info("removing orphan layer file %s", path)
            path.unlink(missing_ok=True)
        return len(orphans)

    # -- internals ----------------------------------------------------------

    def _create_record(self, image_id: str, tenant: str, name: str, kind: ImageKind,
                       parent: str | None, virtual_size: int) -> dict:
        return {
            "type": "image.create",
            "id": image_id,
            "tenant": tenant,
            "name": name,
            "kind": kind.value,
            "parent": parent,
            "virtual_size": virtual_size,
            "block_size": self.config.block_size,
            "created_at": time.time(),
        }

    def _new_golden(self, tenant: str, name: str, blocks, size) -> tuple[str, int]:
        """Store the non-zero payloads of the ``(index, payload)`` iterable
        ``blocks`` as a new layer and commit it as a golden image of
        ``size()`` bytes under a re-checked name; the new record takes over
        the filled layer. A failure before the commit discards the layer.
        Returns the new id and the number of blocks stored."""
        with self.journal.lock:
            self._require_name_free(tenant, name)
            image_id = self._next_id()
        layer = BlockFile(self._layer_path(image_id), self.config.block_size)
        stored = 0
        with ExitStack() as undo:
            undo.callback(layer.unlink)
            try:
                layer.open()
                for index, payload in blocks:
                    if payload.count(0) != len(payload):
                        layer.write_block(index, payload)
                        stored += 1
            except OSError as exc:
                raise StorageFailure(f"storing {image_id} failed: {exc}") from exc
            with self.journal.lock:
                self._require_name_free(tenant, name)
                record = self._create_record(
                    image_id, tenant, name, ImageKind.GOLDEN, None, size())
                undo.pop_all()  # from here on the file belongs to the record
                undo.callback(layer.close)  # a commit that raises leaves no record to own it
                self.journal.commit(record)
                undo.pop_all()
                self._images[image_id].layer = layer
        return image_id, stored

    def _require_name_free(self, tenant: str, name: str) -> None:
        if not name:
            raise DuplicateName("image name must be non-empty")
        if self.find_by_name(tenant, name) is not None:
            raise DuplicateName(f"tenant {tenant} already has an image named {name!r}")

    def _next_id(self) -> str:
        self._seq += 1
        return f"img-{self._seq:06d}"

    def _layer_path(self, image_id: str) -> Path:
        return self.root / "blocks" / f"{image_id}.sparse"

    def _check_bounds(self, rec: ImageRecord, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > rec.virtual_size:
            raise OutOfBounds(
                f"range [{offset}, {offset + length}) outside image of "
                f"{rec.virtual_size} bytes")

    @contextmanager
    def _pinned(self, rec: ImageRecord, write: bool = False):
        """Hold ``rec``'s lock (exclusive if ``write``) and its ancestors'
        read locks, and yield its chain; NotFound once ``rec`` is gone. If
        its chain changed before the locks were all held, lock anew."""
        while True:
            chain = rec.chain
            (rec.lock.acquire_write if write else rec.lock.acquire_read)()
            held = [rec.lock.release_write if write else rec.lock.release_read]
            try:
                for ancestor in chain[1:]:
                    ancestor.lock.acquire_read()
                    held.append(ancestor.lock.release_read)
                if self.get(rec.id) is not rec:  # get raises NotFound once rec is deleted
                    raise NotFound(f"image {rec.id} does not exist")
                if rec.chain is chain:  # only a flatten or snapshot of a held image changes it
                    yield chain
                    return
            finally:
                for release in reversed(held):
                    release()

    def _copy_up(self, rec: ImageRecord, chain) -> int:
        """Copy into ``rec``'s own layer every block it reads from an
        ancestor in its pinned ``chain``; returns the number copied."""
        copied = 0
        rec.layer.open()
        for index, payload in self._resolved_blocks(chain[1:], skip=rec.layer.indices):
            rec.layer.write_block(index, payload)
            copied += 1
        return copied

    def _resolve_block(self, chain, index: int) -> bytes | None:
        for rec in chain:
            payload = rec.layer.read_block(index)
            if payload is not None:
                return payload
        return None

    def _resolved_blocks(self, chain, skip=()):
        """Yield ``(index, payload)`` in index order for every block that a
        layer of ``chain`` holds and ``skip`` does not name, resolved
        through the chain. The caller holds the chain pinned."""
        held = set()
        for rec in chain:
            held.update(rec.layer.indices)
        held.difference_update(skip)
        for index in sorted(held):
            yield index, self._resolve_block(chain, index)

    def _write_blocks(self, chain: list[ImageRecord], offset: int, data: bytes) -> None:
        block_size = chain[0].block_size
        layer = chain[0].layer
        materialized = 0
        try:
            layer.open()  # the layer's first write creates its file
            for index, lo, hi, pos in block_spans(offset, len(data), block_size):
                piece = data[pos : pos + (hi - lo)]
                local = layer.read_block(index)
                if local is None:
                    materialized += 1
                if lo == 0 and hi == block_size:
                    payload = piece
                else:
                    base = local if local is not None else self._resolve_block(chain[1:], index)
                    if base is None:
                        base = bytes(block_size)
                    payload = base[:lo] + piece + base[hi:]
                layer.write_block(index, payload)
        except OSError as exc:
            raise StorageFailure(f"write failed: {exc}") from exc
        if materialized:
            self._bump(blocks_materialized=materialized)


def _id_number(image_id: str) -> int | None:
    if image_id.startswith("img-"):
        try:
            return int(image_id[4:])
        except ValueError:
            return None
    return None
