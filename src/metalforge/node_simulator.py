"""Simulated bare-metal nodes.

A simulated node runs the boot protocol against the netboot and gateway
services: firmware wait, fetch of the boot descriptor its MAC is served,
attach to the target that descriptor names, then on-demand block reads
driven by an access pattern. The pointer and script files are not parsed;
the delay profile charges their fetch as one config fetch. Reads pass
through an LRU page-cache model so only first touches generate gateway
traffic. All durations are virtual (from a DelayProfile); nothing sleeps,
and a report is a pure function of (config, pattern, seed).

Pattern fixture format, one entry per line, '#' for comments:

    R <offset> <len>
    W <offset> <len> <hex-seed>

Write payloads are derived deterministically from the entry seed.
"""

import json
import random
from collections import OrderedDict
from dataclasses import dataclass, field
from importlib import resources

from .errors import NoBootConfig, NotBooted, NotFound, TargetGone
from .image_store import block_spans
from .orchestrator import Orchestrator
from .target_gateway import GatewaySession, TrafficCounters
from .virtual_time import DelayProfile

# Boot-time gateway reads beyond the pattern itself (probing the boot
# sector, partition metadata) must stay under this many bytes.
BOOT_METADATA_ALLOWANCE = 64 * 1024

_BOOT_SECTOR_LEN = 512


@dataclass(frozen=True)
class PatternEntry:
    op: str  # "R" or "W"
    offset: int
    length: int
    seed: int | None = None


@dataclass(frozen=True)
class AccessPattern:
    """Deterministic, replayable block access trace."""

    name: str
    entries: tuple

    def validate(self, image_size: int) -> None:
        for e in self.entries:
            if e.offset < 0 or e.length < 0 or e.offset + e.length > image_size:
                raise ValueError(
                    f"pattern {self.name}: entry {e} outside image of {image_size} bytes")

    @property
    def read_bytes(self) -> int:
        return sum(e.length for e in self.entries if e.op == "R")

    @property
    def write_bytes(self) -> int:
        return sum(e.length for e in self.entries if e.op == "W")

    def unique_read_bytes(self, block_size: int) -> int:
        """Aligned unique read footprint at the given cache granularity."""
        blocks = set()
        for e in self.entries:
            if e.op != "R" or e.length == 0:
                continue
            blocks.update(range(e.offset // block_size,
                                (e.offset + e.length - 1) // block_size + 1))
        return len(blocks) * block_size

    def dumps(self) -> str:
        lines = [f"# pattern: {self.name}"]
        for e in self.entries:
            if e.op == "R":
                lines.append(f"R {e.offset} {e.length}")
            else:
                lines.append(f"W {e.offset} {e.length} {e.seed:x}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str, name: str) -> "AccessPattern":
        entries = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "R" and len(parts) == 3:
                entries.append(PatternEntry("R", int(parts[1]), int(parts[2])))
            elif parts[0] == "W" and len(parts) == 4:
                entries.append(PatternEntry("W", int(parts[1]), int(parts[2]),
                                            int(parts[3], 16)))
            else:
                raise ValueError(f"pattern {name}: bad line {lineno}: {raw!r}")
        return cls(name=name, entries=tuple(entries))


def payload_for(entry: PatternEntry) -> bytes:
    if entry.seed is None:
        raise ValueError("read entries carry no payload")
    return random.Random(entry.seed).randbytes(entry.length)


def load_pattern_fixture(name: str) -> AccessPattern:
    text = (resources.files("metalforge") / "fixtures" / f"{name}.pattern").read_text()
    return AccessPattern.parse(text, name)


# -- pattern generators -------------------------------------------------------


def os_boot_pattern(image_size: int, ratio: float = 0.021, scattered: int = 50,
                    scattered_len: int = 4096, chunk: int = 65536,
                    block: int = 4096, seed: int = 0) -> AccessPattern:
    """Synthetic OS boot: a contiguous prefix plus scattered small reads,
    sized so the unique footprint is ``ratio`` of the image."""
    prefix = int(image_size * ratio) - scattered * scattered_len
    prefix -= prefix % block
    if prefix <= 0:
        raise ValueError("image too small for the requested boot ratio")
    entries = []
    cursor = 0
    while cursor < prefix:
        step = min(chunk, prefix - cursor)
        entries.append(PatternEntry("R", cursor, step))
        cursor += step
    rng = random.Random(seed)
    first = prefix // block
    last = image_size // block
    for index in rng.sample(range(first, last), scattered):
        entries.append(PatternEntry("R", index * block, scattered_len))
    pattern = AccessPattern(name=f"os-boot-{image_size // (1024 * 1024)}mib",
                            entries=tuple(entries))
    pattern.validate(image_size)
    return pattern


def read_heavy_workload(image_size: int, span: int | None = None,
                        request: int = 65536, seed: int = 0) -> AccessPattern:
    """Job-style read trace over a bounded working set, with repeats, so a
    warm cache absorbs later runs entirely."""
    if span is None:
        span = min(8 * 1024 * 1024, image_size // 4)
    span -= span % request
    base = image_size // 2
    base -= base % request
    if base + span > image_size:
        raise ValueError("image too small for the requested working set")
    offsets = list(range(base, base + span, request))
    rng = random.Random(seed)
    rng.shuffle(offsets)
    offsets += rng.sample(offsets, max(1, len(offsets) // 3))
    entries = tuple(PatternEntry("R", off, request) for off in offsets)
    pattern = AccessPattern(name="read-heavy", entries=entries)
    pattern.validate(image_size)
    return pattern


def log_append_workload(image_size: int, count: int = 100, length: int = 1024,
                        seed: int = 0) -> AccessPattern:
    """Log-file style writes near the end of the disk; never cached away."""
    span = count * length
    base = image_size - span - (image_size - span) % 4096
    if base < 0:
        raise ValueError("image too small for the log region")
    entries = tuple(
        PatternEntry("W", base + i * length, length, seed * 100003 + i)
        for i in range(count)
    )
    pattern = AccessPattern(name="log-append", entries=entries)
    pattern.validate(image_size)
    return pattern


# -- the node ------------------------------------------------------------------


@dataclass
class SimNodeConfig:
    node: str
    mac: str
    firmware_delay_ms: float
    cache_blocks: int = 4096
    cache_block_size: int = 4096


@dataclass
class BootReport:
    node: str
    target: str
    bytes_read: int
    bytes_written: int
    requests: int
    unique_blocks_touched: int
    wall_time_ms: float
    phases: list = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "node": self.node,
            "target": self.target,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "requests": self.requests,
            "unique_blocks_touched": self.unique_blocks_touched,
            "wall_time_ms": round(self.wall_time_ms, 6),
            "phases": [[name, round(ms, 6)] for name, ms in self.phases],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class _LruCache:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self._blocks: OrderedDict[int, bytes] = OrderedDict()

    def get(self, index: int) -> bytes | None:
        payload = self._blocks.get(index)
        if payload is not None:
            self._blocks.move_to_end(index)
        return payload

    def put(self, index: int, payload: bytes) -> None:
        if self.capacity <= 0:
            return
        self._blocks[index] = payload
        self._blocks.move_to_end(index)
        while len(self._blocks) > self.capacity:
            self._blocks.popitem(last=False)

    def patch(self, index: int, at: int, data: bytes) -> None:
        payload = self._blocks.get(index)
        if payload is not None:
            self._blocks[index] = payload[:at] + data + payload[at + len(data):]

    def clear(self) -> None:
        self._blocks.clear()


class SimNode:
    """One simulated machine; its page cache persists across power-ons,
    modeling a warm restart."""

    def __init__(self, svc: Orchestrator, config: SimNodeConfig, profile: DelayProfile):
        self.svc = svc
        self.config = config
        self.profile = profile
        self.cache = _LruCache(config.cache_blocks)
        self.booted = False
        self.halted = False
        self._target: str | None = None
        self._session: GatewaySession | None = None
        self._capacity = 0
        self._touched: set[int] = set()

    # -- lifecycle ---------------------------------------------------------

    def power_on(self, pattern: AccessPattern) -> BootReport:
        """Run the boot chain and replay the access pattern."""
        self.booted = False
        self.halted = False
        phases: list[tuple[str, float]] = [("firmware", self.config.firmware_delay_ms)]
        descriptor = self.svc.netboot.lookup_boot(self.config.mac)
        if descriptor is None:
            raise NoBootConfig(f"no boot configuration for mac {self.config.mac}")
        phases.append(("config_fetch", self.profile.config_fetch_ms))
        try:
            target_rec = self.svc.gateway.get(descriptor.target)
            self._capacity = self.svc.images.get(target_rec.image).virtual_size
        except NotFound as exc:
            raise TargetGone(f"target {descriptor.target} is gone") from exc
        self._target = descriptor.target
        self._session = self.svc.gateway.session(self.config.node)
        phases.append(("connect", self.profile.connect_ms))

        pattern.validate(self._capacity)
        self._touched = set()
        # firmware probes the boot sector before handing off to the OS
        probe = PatternEntry("R", 0, min(_BOOT_SECTOR_LEN, self._capacity))
        traffic = self._replay((probe, *pattern.entries))
        requests = traffic.read_ops + traffic.write_ops
        phases.append(("transfer", self.profile.io_ms(
            requests, traffic.bytes_read + traffic.bytes_written)))
        self.booted = True
        self.svc.note_booted(self.config.node)
        return BootReport(
            node=self.config.node,
            target=self._target,
            bytes_read=traffic.bytes_read,
            bytes_written=traffic.bytes_written,
            requests=requests,
            unique_blocks_touched=len(self._touched),
            wall_time_ms=sum(ms for _, ms in phases),
            phases=phases,
        )

    def run_workload(self, trace: AccessPattern, repetitions: int = 1) -> list:
        """Replay a trace n times through the cache; returns per-repetition
        gateway counter deltas."""
        if not self.booted or self.halted:
            raise NotBooted(f"node {self.config.node} is not running")
        trace.validate(self._capacity)
        return [self._replay(trace.entries) for _ in range(repetitions)]

    def inject_failure(self) -> None:
        """Halt the node and report the failure; idempotent."""
        if self.halted:
            return
        if not self.booted:
            raise NotBooted(f"node {self.config.node} is not running")
        self.halted = True
        self.svc.note_node_failed(self.config.node)

    def reset_cache(self) -> None:
        self.cache.clear()

    # -- cached I/O ----------------------------------------------------------

    def _replay(self, entries) -> TrafficCounters:
        """Run pattern entries through the cache; returns the gateway
        traffic they caused."""
        before = self.svc.gateway.get_traffic(self._target)
        for entry in entries:
            if entry.op == "R":
                self._cached_read(entry.offset, entry.length)
            else:
                self._write(entry.offset, payload_for(entry))
        after = self.svc.gateway.get_traffic(self._target)
        return TrafficCounters(
            bytes_read=after.bytes_read - before.bytes_read,
            bytes_written=after.bytes_written - before.bytes_written,
            read_ops=after.read_ops - before.read_ops,
            write_ops=after.write_ops - before.write_ops,
        )

    def _cached_read(self, offset: int, length: int) -> bytes:
        if length == 0:
            return b""
        block = self.config.cache_block_size
        if self.config.cache_blocks <= 0:
            self._touched.update(index for index, *_ in block_spans(offset, length, block))
            return self._session.read(self._target, offset, length)
        first = offset // block
        last = (offset + length - 1) // block
        # readahead: fetch runs of consecutive missing blocks in one request
        run_start = None
        for index in range(first, last + 2):
            missing = index <= last and self.cache.get(index) is None
            if missing and run_start is None:
                run_start = index
            elif not missing and run_start is not None:
                self._fetch_blocks(run_start, index)
                run_start = None
        out = bytearray(length)
        for index, lo, hi, pos in block_spans(offset, length, block):
            payload = self.cache.get(index)
            if payload is None:
                # evicted by this very read's own fetches; small cache
                self._fetch_blocks(index, index + 1)
                payload = self.cache.get(index)
            out[pos : pos + hi - lo] = payload[lo:hi]
            self._touched.add(index)
        return bytes(out)

    def _fetch_blocks(self, first: int, stop: int) -> None:
        block = self.config.cache_block_size
        lo = first * block
        hi = min(stop * block, self._capacity)
        data = self._session.read(self._target, lo, hi - lo)
        for index in range(first, stop):
            piece = data[(index - first) * block : (index - first + 1) * block]
            if len(piece) < block:
                piece = piece + bytes(block - len(piece))
            self.cache.put(index, piece)

    def _write(self, offset: int, data: bytes) -> None:
        # write-through: every write reaches the gateway; cached copies are
        # patched in place so later reads stay warm
        self._session.write(self._target, offset, data)
        for index, lo, hi, pos in block_spans(offset, len(data), self.config.cache_block_size):
            self.cache.patch(index, lo, data[pos : pos + hi - lo])
            self._touched.add(index)


class NodeSimulator:
    """Factory and registry for simulated nodes over one service stack."""

    def __init__(self, svc: Orchestrator, profile: DelayProfile | None = None):
        self.svc = svc
        self.profile = profile or DelayProfile()
        self._nodes: dict[str, SimNode] = {}

    def node(self, node_id: str, cache_blocks: int = 4096,
             cache_block_size: int = 4096, firmware_ms: float | None = None) -> SimNode:
        sim = self._nodes.get(node_id)
        if sim is None:
            mac = self.svc.pool.get(node_id).mac
            config = SimNodeConfig(
                node=node_id,
                mac=mac,
                firmware_delay_ms=self.profile.firmware_ms if firmware_ms is None else firmware_ms,
                cache_blocks=cache_blocks,
                cache_block_size=cache_block_size,
            )
            sim = self._nodes[node_id] = SimNode(self.svc, config, self.profile)
        return sim

    def power_on(self, node_id: str, pattern: AccessPattern) -> BootReport:
        return self.node(node_id).power_on(pattern)
