"""Workload plans and the single-threaded client that drives a real stack.

One repetition builds a stack on an empty root, then runs four timed phases
in this order and checks the result:

  churn      provision -> cold boot -> deprovision, tenants round-robin
  lifecycle  provision -> 4 KiB writes -> snapshot -> failure signal ->
             recover onto a spare -> deprovision -> repair -> delete snapshot
  guest      seeded 4 KiB / 64 KiB reads and 4 KiB writes through
             ``GatewaySession``, round-robin over four guest nodes
  reopen     close followed by ``Orchestrator.open`` on the same root

The control-plane phases come before the guest phase, because its 4 MiB
block appends stay in the page cache until the repetition's root is deleted
and slow the file creation that provisioning does; the reopens come last,
because the first read after an open re-scans the golden layer file.

Every workload runs every phase, so every end-to-end metric is measured on
every workload; a workload gives the bulk of its time to the phase it is
about (see ``PLANS`` and README.md). Operation counts are fixed: a plan's
counts scale with ``--seconds`` only, never with how fast the host runs.

The seed chooses the golden image's bytes, every write payload and each
operation's offset inside its 4 MiB block. Operation kinds, sizes and block
indices come from a schedule with a fixed seed, so every call count, copy
statistic and traffic counter is the same on every seed.
"""

import base64
import gc
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from metalforge.api import ApiServer
from metalforge.bench import synthetic_image
from metalforge.image_store import StoreConfig
from metalforge.node_simulator import SimNode, SimNodeConfig, load_pattern_fixture
from metalforge.orchestrator import Orchestrator
from metalforge.virtual_time import DelayProfile

IMAGE_SIZE = 64 * 1024 * 1024
BLOCK = StoreConfig().block_size
BLOCKS = IMAGE_SIZE // BLOCK
PAGE = 4096
TENANTS = ("t0", "t1", "t2", "t3")
SPARES = 4
BOOT_FIXTURE = "os_boot_64mib"
CACHE_BLOCKS = 4096  # 16 MiB node page cache of 4 KiB blocks
SCHEDULE_SEED = 0x6D66  # kinds, sizes, block indices: the same on every seed
LOG_BLOCK = BLOCKS - 1  # guest log region; the golden image holds no data there
WRITE_EVERY = 10  # every tenth guest operation is a 4 KiB write
LIFECYCLE_WRITES = 2
LAYER_WRITES = 2  # 64 KiB writes into each tenant layer


@dataclass(frozen=True)
class Plan:
    """Repetitions per run, and per-repetition operation counts at
    ``--seconds 20``; the counts scale linearly with ``--seconds``."""

    reps: int
    residents: int  # nodes provisioned during set-up
    layered: bool  # golden -> two tenant layers -> node clone
    churn: int
    lifecycle: int
    guest: int
    reopens: int

    def scaled(self, seconds: int) -> "Plan":
        def scale(n: int, least: int = 1) -> int:
            return max(least, round(n * seconds / 20))
        # every repetition makes at least one guest write
        return Plan(self.reps, self.residents, self.layered, scale(self.churn),
                    scale(self.lifecycle), scale(self.guest, WRITE_EVERY),
                    scale(self.reopens))


PLANS = {
    # control plane at fleet scale: 1000 live nodes make every linear scan long
    "fleet_churn": Plan(reps=3, residents=1000, layered=False, churn=50, lifecycle=8,
                        guest=100, reopens=1),
    # data path over a depth-4 chain; the control plane idles during the phase
    "guest_io": Plan(reps=8, residents=4, layered=True, churn=8, lifecycle=4,
                     guest=300, reopens=8),
    # bulk flatten copy, teardown plus re-export, and replay of a long journal
    "lifecycle": Plan(reps=4, residents=256, layered=False, churn=12, lifecycle=36,
                      guest=90, reopens=2),
}


# -- inputs -------------------------------------------------------------------


@dataclass(frozen=True)
class GuestOp:
    node: int  # index into the repetition's guest nodes
    write: bool
    offset: int
    length: int
    payload: bytes | None = None


@dataclass(frozen=True)
class Inputs:
    """Everything a repetition feeds the stack; a pure function of the seed
    and the plan, so every repetition of a run does identical work."""

    golden: bytes
    golden_b64: str
    layer_writes: dict  # (tenant, layer) -> [(offset, payload)]
    guest_ops: tuple
    lifecycle_writes: tuple  # per cycle: [(offset, payload)]
    lifecycle_probe: tuple  # per cycle: one unwritten page to read back

    @classmethod
    def make(cls, seed: int, plan: Plan) -> "Inputs":
        schedule = random.Random(SCHEDULE_SEED)
        rng = random.Random(seed)
        golden = synthetic_image(IMAGE_SIZE, seed)

        def place(size: int, block: int | None = None) -> int:
            """An offset aligned to ``size``: block from the schedule, place
            inside the block from the seed."""
            if block is None:
                block = schedule.randrange(BLOCKS)
            return block * BLOCK + rng.randrange(BLOCK // size) * size

        layer_writes = {}
        if plan.layered:
            for tenant in TENANTS:
                for layer in ("layer-a", "layer-b"):
                    layer_writes[tenant, layer] = [
                        (place(65536), rng.randbytes(65536)) for _ in range(LAYER_WRITES)]

        ops = []
        log_cursor = [0] * len(TENANTS)
        for i in range(plan.guest):
            node = i % len(TENANTS)
            if i % WRITE_EVERY == WRITE_EVERY - 1:
                if (i // WRITE_EVERY) % 2 == 0:
                    # log append: rewrites a block the clone already holds
                    offset = LOG_BLOCK * BLOCK + log_cursor[node] * PAGE
                    log_cursor[node] = (log_cursor[node] + 1) % (BLOCK // PAGE)
                else:
                    offset = place(PAGE, schedule.randrange(LOG_BLOCK))
                ops.append(GuestOp(node, True, offset, PAGE, rng.randbytes(PAGE)))
            else:
                size = schedule.choice((PAGE, 65536))
                ops.append(GuestOp(node, False, place(size), size))

        cycle_writes, probes = [], []
        for _ in range(plan.lifecycle):
            cycle_writes.append(tuple((place(PAGE), rng.randbytes(PAGE))
                                      for _ in range(LIFECYCLE_WRITES)))
            probes.append(place(PAGE))
        return cls(golden, base64.b64encode(golden).decode("ascii"), layer_writes,
                   tuple(ops), tuple(cycle_writes), tuple(probes))


# -- the reference model of guest-visible bytes ----------------------------------------


class View:
    """Bytes a node should see: page overlays, newest first, over the golden."""

    def __init__(self, golden: bytes, overlays: list[dict]):
        self.golden = golden
        self.overlays = overlays

    def child(self) -> "View":
        return View(self.golden, [{}] + self.overlays)

    def write(self, offset: int, data: bytes) -> None:
        top = self.overlays[0]
        for at in range(0, len(data), PAGE):
            top[(offset + at) // PAGE] = data[at:at + PAGE]

    def read(self, offset: int, length: int) -> bytes:
        out = []
        for page in range(offset // PAGE, (offset + length) // PAGE):
            for overlay in self.overlays:
                data = overlay.get(page)
                if data is not None:
                    break
            else:
                data = self.golden[page * PAGE:(page + 1) * PAGE]
            out.append(data)
        return b"".join(out)


# -- one repetition -------------------------------------------------------------


class Failure(Exception):
    """An operation gave a wrong answer; the run is marked incorrect."""


@dataclass
class Samples:
    """Timings (seconds) and counts of one repetition."""

    setup: float = 0.0
    provision: list = field(default_factory=list)
    deprovision: list = field(default_factory=list)
    boot: list = field(default_factory=list)
    churn_cycles: list = field(default_factory=list)
    read: list = field(default_factory=list)
    write: list = field(default_factory=list)
    snapshot: list = field(default_factory=list)
    recover: list = field(default_factory=list)
    reopen: list = field(default_factory=list)
    loop_wall: float = 0.0  # wall time of the four timed phases
    boot_bytes: set = field(default_factory=set)
    guest_written: int = 0
    stored: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)


class Repetition:
    """Builds one stack, runs the timed phases, checks every answer."""

    def __init__(self, plan: Plan, inputs: Inputs, root: Path):
        self.plan = plan
        self.inputs = inputs
        self.root = root
        self.pattern = load_pattern_fixture(BOOT_FIXTURE)
        self.expected_boot_bytes = self.pattern.unique_read_bytes(PAGE)
        self.profile = DelayProfile()
        self.out = Samples()
        self.svc: Orchestrator | None = None
        self.api: ApiServer | None = None
        self.bases: dict[str, str] = {}
        self.base_views: dict[str, View] = {}
        self.guests: list[dict] = []
        self.traffic = {"bytes_read": 0, "bytes_written": 0, "read_ops": 0, "write_ops": 0}

    # -- helpers ------------------------------------------------------------------

    def call(self, method: str, path: str, body: dict) -> dict:
        self.out.attempted += 1
        status, payload = self.api.handle(method, path, body)
        if status != 200:
            raise Failure(f"{method} {path} -> {status} {payload}")
        return payload

    @staticmethod
    def check(what: str, ok: bool) -> None:
        if not ok:
            raise Failure(what)

    def account(self, target: str) -> None:
        """Add a target's traffic counters before the target goes away."""
        counters = self.svc.gateway.get_traffic(target).to_public()
        for key in self.traffic:
            self.traffic[key] += counters[key]

    def boot(self, node: str) -> float:
        mac = self.svc.pool.get(node).mac
        sim = SimNode(self.svc, SimNodeConfig(node=node, mac=mac,
                                              firmware_delay_ms=self.profile.firmware_ms,
                                              cache_blocks=CACHE_BLOCKS,
                                              cache_block_size=PAGE), self.profile)
        self.out.attempted += 1
        start = time.perf_counter()
        report = sim.power_on(self.pattern)
        elapsed = time.perf_counter() - start
        self.out.boot_bytes.add(report.bytes_read)
        self.check(f"boot of {node} read {report.bytes_read} bytes, "
                   f"expected {self.expected_boot_bytes}",
                   report.bytes_read == self.expected_boot_bytes)
        return elapsed

    def read_back(self, session, target: str, view: View, offsets) -> None:
        for offset in offsets:
            self.out.attempted += 1
            data = session.read(target, offset, PAGE)
            self.check(f"read-back of {target}@{offset} differs from the model",
                       data == view.read(offset, PAGE))

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        plan = self.plan
        self.svc = Orchestrator.open(self.root)
        self.api = ApiServer(self.svc)
        for i in range(plan.residents + SPARES):
            self.call("POST", "/v1/nodes", {"mac": f"02:00:00:00:{i // 256:02x}:{i % 256:02x}"})
        golden = self.call("POST", "/v1/images", {"tenant": TENANTS[0], "name": "golden",
                                                  "content_b64": self.inputs.golden_b64})["id"]
        for tenant in TENANTS[1:]:
            self.call("POST", "/v1/images/golden/share", {"tenant": TENANTS[0], "grantee": tenant})
        golden_view = View(self.inputs.golden, [])
        for tenant in TENANTS:
            image, view = golden, golden_view
            if plan.layered:
                for layer in ("layer-a", "layer-b"):
                    # tenant layers have no API route: the store builds them
                    self.out.attempted += 1
                    image = self.svc.images.linked_clone(tenant, image, layer)
                    view = view.child()
                    for offset, payload in self.inputs.layer_writes[tenant, layer]:
                        self.out.attempted += 1
                        self.svc.images.write_range(image, offset, payload)
                        view.write(offset, payload)
            self.bases[tenant] = image
            self.base_views[tenant] = view
        for i in range(plan.residents):
            tenant = TENANTS[i % len(TENANTS)]
            rec = self.call("PUT", "/v1/provision", {"tenant": tenant, "image": self.bases[tenant]})
            if i < len(TENANTS):
                self.guests.append({"node": rec["node"], "tenant": tenant,
                                    "target": rec["target"], "clone": rec["clone_image"],
                                    "view": self.base_views[tenant].child()})
        for guest in self.guests:
            self.boot(guest["node"])
            guest["session"] = self.svc.gateway.session(guest["node"])
            guest["traffic_start"] = self.svc.gateway.get_traffic(guest["target"]).to_public()

    # -- timed phases ---------------------------------------------------------------

    def churn(self, i: int) -> None:
        out = self.out
        clock = time.perf_counter
        tenant = TENANTS[i % len(TENANTS)]
        start = clock()
        rec = self.call("PUT", "/v1/provision", {"tenant": tenant, "image": self.bases[tenant]})
        provisioned = clock()
        booted = self.boot(rec["node"])
        self.account(rec["target"])
        before = clock()
        self.call("DELETE", f"/v1/provision/{rec['node']}", {"tenant": tenant})
        done = clock()
        out.provision.append(provisioned - start)
        out.boot.append(booted)
        out.deprovision.append(done - before)
        out.churn_cycles.append(provisioned - start + booted + done - before)

    def guest(self, i: int) -> None:
        out = self.out
        clock = time.perf_counter
        op = self.inputs.guest_ops[i]
        guest = self.guests[op.node]
        session, target, view = guest["session"], guest["target"], guest["view"]
        out.attempted += 1
        if op.write:
            start = clock()
            session.write(target, op.offset, op.payload)
            out.write.append(clock() - start)
            view.write(op.offset, op.payload)
            out.guest_written += op.length
        else:
            start = clock()
            data = session.read(target, op.offset, op.length)
            out.read.append(clock() - start)
            self.check(f"guest read {target}@{op.offset}+{op.length} differs from the model",
                       data == view.read(op.offset, op.length))

    def lifecycle(self, i: int) -> None:
        out = self.out
        clock = time.perf_counter
        tenant = TENANTS[i % len(TENANTS)]
        rec = self.call("PUT", "/v1/provision", {"tenant": tenant, "image": self.bases[tenant]})
        node, target = rec["node"], rec["target"]
        view = self.base_views[tenant].child()
        session = self.svc.gateway.session(node)
        for offset, payload in self.inputs.lifecycle_writes[i]:
            out.attempted += 1
            session.write(target, offset, payload)
            view.write(offset, payload)
        offsets = [offset for offset, _ in self.inputs.lifecycle_writes[i]]
        offsets.append(self.inputs.lifecycle_probe[i])

        start = clock()
        snap = self.call("PUT", f"/v1/snapshot/{node}",
                         {"tenant": tenant, "name": f"snap-{i}"})["image"]
        out.snapshot.append(clock() - start)
        self.read_back(session, target, view, offsets)

        self.account(target)
        out.attempted += 1
        self.svc.note_node_failed(node)
        start = clock()
        spare = self.call("PUT", f"/v1/recover/{node}", {"tenant": tenant})
        out.recover.append(clock() - start)
        self.read_back(self.svc.gateway.session(spare["node"]), spare["target"], view, offsets)

        self.account(spare["target"])
        self.call("DELETE", f"/v1/provision/{spare['node']}", {"tenant": tenant})
        out.attempted += 2
        self.svc.pool.repair_node(node)
        self.svc.images.delete_image(tenant, snap)

    def reopen(self) -> None:
        clock = time.perf_counter
        for _ in range(self.plan.reopens):
            self.out.attempted += 1
            start = clock()
            self.svc.close()
            self.svc = Orchestrator.open(self.root)
            self.out.reopen.append(clock() - start)
        self.api = ApiServer(self.svc)

    # -- the whole repetition ------------------------------------------------------------

    def run(self, tracer=None) -> Samples:
        out = self.out
        try:
            gc.collect()
            start = time.perf_counter()
            self.setup()
            out.setup = time.perf_counter() - start
            copy_start = self.svc.images.stats()
            if tracer is not None:
                tracer.install()
            try:
                for step, count in ((self.churn, self.plan.churn),
                                    (self.lifecycle, self.plan.lifecycle),
                                    (self.guest, self.plan.guest)):
                    gc.collect()
                    start = time.perf_counter()
                    for i in range(count):
                        step(i)
                    out.loop_wall += time.perf_counter() - start
                for guest in self.guests:
                    now = self.svc.gateway.get_traffic(guest["target"]).to_public()
                    for key in self.traffic:
                        self.traffic[key] += now[key] - guest["traffic_start"][key]
                copies = self.svc.images.stats()
                gc.collect()
                start = time.perf_counter()
                self.reopen()
                out.loop_wall += time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.remove()
            self.finish(copy_start, copies)
        except Exception as exc:  # any raised error fails the run, with its reason
            out.failed += 1
            out.errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            if self.svc is not None:
                self.svc.close()
        return out

    def finish(self, copy_start, copies) -> None:
        """Untimed checks after the final reopen, and the exact counts."""
        out = self.out
        out.attempted += 1
        problems = self.svc.verify_invariants()
        self.check(f"verify_invariants: {problems}", problems == [])
        for guest in self.guests:
            written = sorted({op.offset for op in self.inputs.guest_ops
                              if op.write and self.guests[op.node] is guest})
            self.read_back(self.svc.gateway.session(guest["node"]), guest["target"],
                           guest["view"], written)
            out.stored += sum(p.stat().st_size
                              for p in (self.root / "blocks").glob(f"{guest['clone']}.*"))
        out.fingerprint = {
            "boot_bytes": sorted(out.boot_bytes),
            "guest_written": out.guest_written,
            "stored": out.stored,
            "journal_records": self.svc.journal.commits,
            "attempted": out.attempted,
            "copy_stats": {key: getattr(copies, key) - getattr(copy_start, key)
                           for key in vars(copies)},
            "traffic": dict(self.traffic),
        }
