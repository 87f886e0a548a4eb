"""Append-only metadata journal with CRC-checked, length-prefixed records.

All durable service state is committed through one journal. Each service
registers an apply function for its record type prefix, the part of ``type``
before the first ``.``: ``commit`` appends a record and then routes it to
that function, and ``replay`` loads the journal on open and routes every
committed record the same way. Record framing: 4-byte big-endian payload
length, the payload (canonical JSON), then a 4-byte big-endian CRC32 of the
payload. A torn tail (short frame or CRC mismatch) is discarded on open;
anything before it is the committed prefix.

One process owns a root: ``load`` takes an exclusive ``flock`` on the
journal's own handle and raises ``RootBusy`` while another handle holds it.
``close`` releases it, and so does the death of the process that held it.
``read_records`` takes no lock.

The journal's ``lock`` is the stack lock: the one lock that guards every
service's in-memory metadata. ``commit`` holds it across the applier lookup,
the append, the commit hook and the apply, so the journal's order is always
the order in which state was applied, and replay rebuilds exactly the state
that ran. A service holds the same (reentrant) lock across each check and
the commit that depends on it, so no check can go stale before its commit.
Data-path locks (per-node flow locks, image ``RWLock``s,
``BlockFile._load_lock``) are taken before the stack lock, never while
holding it, and the stack lock is never held across block I/O.
"""

import fcntl
import json
import logging
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Any, Callable, Iterator

from .errors import RootBusy

log = logging.getLogger(__name__)

_LEN = struct.Struct(">I")
_CRC = struct.Struct(">I")


def encode_record(record: dict[str, Any]) -> bytes:
    payload = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(payload)) + payload + _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF)


class SimulatedCrash(Exception):
    """Raised by test hooks to model the process dying between commits."""


class Journal:
    """Single-writer append log; appends are atomic commit points."""

    def __init__(self, path: Path | str, sync: bool = False):
        self.path = Path(path)
        self.sync = sync
        self.lock = threading.RLock()  # the stack lock; see the module docstring
        self._fh = None
        self._commits = 0
        self._appliers: dict[str, Callable[[dict], None]] = {}
        # Called after a record is durably appended; tests use it to crash
        # the stack at exact cut points.
        self.commit_hook: Callable[[int, dict], None] | None = None

    @property
    def commits(self) -> int:
        return self._commits

    def load(self) -> list[dict]:
        """Lock the journal, read the committed prefix, truncate any torn
        tail and open for append."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(self.path, "ab")
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            fh.close()
            raise RootBusy(f"{self.path} is held by another open stack") from None
        self._fh = fh
        data = self.path.read_bytes()
        records: list[dict] = []
        offset = 0
        while True:
            rec, nxt = _decode_at(data, offset)
            if rec is None:
                break
            records.append(rec)
            offset = nxt
        valid_end = offset
        if valid_end != len(data):
            log.warning(
                "journal %s: dropping %d bytes of torn tail",
                self.path, len(data) - valid_end,
            )
        if valid_end != self._fh.tell():
            self._fh.truncate(valid_end)
            self._fh.seek(0, os.SEEK_END)
        self._commits = len(records)
        return records

    def append(self, record: dict[str, Any]) -> int:
        """Commit one record; returns its 1-based sequence number."""
        if self._fh is None:
            raise RuntimeError("journal not loaded")
        frame = encode_record(record)
        with self.lock:
            self._fh.write(frame)
            self._fh.flush()
            if self.sync:
                os.fsync(self._fh.fileno())
            self._commits += 1
            seq = self._commits
            if self.commit_hook is not None:
                self.commit_hook(seq, record)
            return seq

    def register(self, kind: str, apply: Callable[[dict], None]) -> None:
        """Route records whose type prefix is ``kind`` to ``apply``."""
        self._appliers[kind] = apply

    def commit(self, record: dict[str, Any]) -> int:
        """Append one record, then apply it; returns its sequence number.
        A raising commit hook leaves the record durable but unapplied."""
        with self.lock:
            apply = self._applier(record)
            seq = self.append(record)
            apply(record)
            return seq

    def replay(self) -> None:
        """Load the committed prefix and apply every record in order."""
        with self.lock:
            for record in self.load():
                self._applier(record)(record)

    def _applier(self, record: dict) -> Callable[[dict], None]:
        apply = self._appliers.get(record["type"].split(".", 1)[0])
        if apply is None:
            raise ValueError(f"unknown journal record type {record['type']}")
        return apply

    def close(self) -> None:
        with self.lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    @staticmethod
    def read_records(path: Path | str) -> Iterator[dict]:
        """Passive reader for inspection and tests; tolerates a torn tail."""
        data = Path(path).read_bytes()
        offset = 0
        while True:
            rec, offset = _decode_at(data, offset)
            if rec is None:
                return
            yield rec


def _decode_at(data: bytes, offset: int) -> tuple[dict | None, int]:
    if offset + _LEN.size > len(data):
        return None, offset
    (length,) = _LEN.unpack_from(data, offset)
    end = offset + _LEN.size + length + _CRC.size
    if end > len(data):
        return None, offset
    payload = data[offset + _LEN.size : offset + _LEN.size + length]
    (crc,) = _CRC.unpack_from(data, offset + _LEN.size + length)
    if crc != zlib.crc32(payload) & 0xFFFFFFFF:
        return None, offset
    try:
        record = json.loads(payload.decode("utf-8"))
    except ValueError:
        return None, offset
    return record, end
