"""Provisioning orchestrator: the user-facing service.

Owns the node/image mapping database and sequences the image store, target
gateway, netboot and isolation services for provision, deprovision,
snapshot and recovery. Every step of a flow is committed through the shared
journal before the next begins. ``STEPS`` is the stand-up as one table,
each step beside its undo; the state machine and the benchmark's priced
steps are read from it. Provision and the second half of recovery run its
rows through ``_stand_up``; deprovision, the first half of recovery, a
failed stand-up and crash recovery run every undo, last row first, through
``_teardown``. A crash is therefore always resolved on restart the same
way: half-done stand-ups are rolled back, half-done deprovisions are
completed, and the global state stays orphan-free. Snapshot is
straight-line code under the disk's fence, outside the table. A retried
provision or deprovision is answered from the records of the flow its key names.
"""

import json
import logging
import threading
import time
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import (
    AccessDenied,
    DuplicateName,
    HasChildren,
    ImageInUse,
    MetalforgeError,
    NotFound,
    InvalidRequest,
    RollbackReport,
    error_by_code,
)
from .image_store import ImageStore, StoreConfig
from .isolation import IsolationService, PoolState
from .journal import Journal
from .netboot_config import NetbootService, NetbootSettings
from .target_gateway import GatewayConfig, TargetGateway

log = logging.getLogger(__name__)


class ProvisionState(Enum):
    ALLOCATING = "allocating"
    CLONING = "cloning"
    EXPORTING = "exporting"
    CONFIGURING = "configuring"
    ATTACHING = "attaching"
    READY = "ready"
    BOOTED = "booted"
    DEPROVISIONING = "deprovisioning"
    FAILED_NODE = "failed_node"
    ROLLED_BACK = "rolled_back"


REMOVED = "removed"  # terminal pseudo-state: the record leaves the live set

# The stand-up, one row per step in the order it runs: the step, the state
# its ``prov.step`` commits, and the undo that reverses it. The method of
# each step and undo is ``_<name>``. Every undo is idempotent, so a teardown
# runs them all, last row first, whatever row the flow reached.
STEPS = (
    ("clone", ProvisionState.CLONING, "delete_image"),
    ("export", ProvisionState.EXPORTING, "delete_target"),
    ("configure", ProvisionState.CONFIGURING, "remove_config"),
    ("attach", ProvisionState.ATTACHING, "detach"),
)
REEXPORT = 1  # recover re-exports a kept clone: its stand-up starts at this row

_STAND_UP = (ProvisionState.ALLOCATING, *(state for _, state, _ in STEPS),
             ProvisionState.READY)
_IN_FLIGHT = set(_STAND_UP[:-1])
_LIVE = (ProvisionState.READY, ProvisionState.BOOTED)
_QUIESCED = {*_LIVE, ProvisionState.FAILED_NODE}
STATE_EDGES = frozenset((old.value, getattr(new, "value", new)) for old, new in (
    *zip(_STAND_UP, _STAND_UP[1:]),
    (ProvisionState.ALLOCATING, STEPS[REEXPORT][1]),
    *((state, ProvisionState.ROLLED_BACK) for state in _IN_FLIGHT),
    (ProvisionState.READY, ProvisionState.BOOTED),
    *((state, ProvisionState.FAILED_NODE) for state in _LIVE),
    *((state, ProvisionState.DEPROVISIONING) for state in _QUIESCED),
    (ProvisionState.DEPROVISIONING, REMOVED),
    (ProvisionState.ROLLED_BACK, REMOVED),
))


@dataclass
class ProvisionRecord:
    node: str
    tenant: str
    source_image: str
    state: ProvisionState
    seq: int
    created_at: float
    clone_image: str | None = None
    target: str | None = None
    keep_image: bool = False  # a teardown keeps the clone (recover begins with it set)
    error: dict | None = None  # a failed stand-up's {"code", "failing_step"}

    @property
    def clone_name(self) -> str:
        return f"{self.node}-disk-{self.seq}"

    def to_public(self) -> dict:
        return {
            "node": self.node,
            "tenant": self.tenant,
            "source_image": self.source_image,
            "clone_image": self.clone_image,
            "target": self.target,
            "state": self.state.value,
            "seq": self.seq,
        }


@dataclass
class StackConfig:
    """Wiring for a full service stack rooted at one directory.

    The store/gateway/netboot parts are persisted next to the journal on
    first open and win over caller-supplied values afterwards, so a root is
    always reopened the way it was created. Worker limit and auth are
    runtime-only.
    """

    store: StoreConfig = field(default_factory=StoreConfig)
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    netboot: NetbootSettings = field(default_factory=NetbootSettings)
    worker_limit: int = 12
    tenants: dict | None = None  # tenant -> API token; None disables auth
    admin_token: str | None = None

    def persisted(self) -> dict:
        return {
            "store": {"block_size": self.store.block_size,
                      "max_chain_depth": self.store.max_chain_depth},
            "gateway": vars(self.gateway).copy(),
            "netboot": vars(self.netboot).copy(),
        }

    def adopt(self, persisted: dict) -> None:
        self.store = StoreConfig(**persisted["store"])
        self.gateway = GatewayConfig(**persisted["gateway"])
        self.netboot = NetbootSettings(**persisted["netboot"])


class Orchestrator:
    """Sequences the services; one instance per persistence root."""

    def __init__(self, root: Path | str, config: StackConfig | None = None):
        self.root = Path(root)
        self.config = config or StackConfig()
        self.journal = Journal(self.root / "journal.log")
        self.images = ImageStore(self.root, self.journal, self.config.store)
        self.pool = IsolationService(self.journal)
        self.gateway = TargetGateway(self.images, self.pool, self.journal,
                                     self.config.gateway)
        self.netboot = NetbootService(self.root / "netboot", self.gateway,
                                      self.journal, self.config.netboot)
        self._records: dict[str, ProvisionRecord] = {}
        # (tenant, op, key) -> (the image or node it was sent with, the flow's record)
        self._keyed: dict[tuple, tuple[str, ProvisionRecord]] = {}
        self._node_locks: dict[str | tuple, threading.RLock] = {}  # per node, and per key
        self._workers = threading.BoundedSemaphore(self.config.worker_limit)
        self._prov_seq = 0
        self.journal.register("prov", self.apply)
        self.journal.register("idem", self.apply)
        # Test hook: called before each provisioning step; raising a
        # MetalforgeError makes that step fail.
        self.fault_hook = None

    @classmethod
    def open(cls, root: Path | str, config: StackConfig | None = None) -> "Orchestrator":
        """Replay the journal and resolve any half-done flows."""
        root = Path(root)
        config = config or StackConfig()
        config_path = root / "config.json"
        if config_path.exists():
            config.adopt(json.loads(config_path.read_text()))
        else:
            root.mkdir(parents=True, exist_ok=True)
            config_path.write_text(json.dumps(config.persisted(), indent=2,
                                              sort_keys=True) + "\n")
        svc = cls(root, config)
        try:
            svc.journal.replay()
            svc.recover_incomplete()
        except BaseException:
            svc.close()
            raise
        return svc

    def close(self) -> None:
        self.images.close()
        self.journal.close()

    # -- journal replay -------------------------------------------------------

    def apply(self, record: dict) -> None:
        op = record["type"]
        if op == "prov.begin":
            rec = ProvisionRecord(
                node=record["node"],
                tenant=record["tenant"],
                source_image=record["source_image"],
                state=ProvisionState(record["state"]),
                seq=record["seq"],
                created_at=record["created_at"],
                clone_image=record.get("clone_image"),
                keep_image=not record.get("owns_clone", True),
            )
            if rec.node in self._records:
                raise ValueError(f"duplicate live provision record for {rec.node}")
            self._records[rec.node] = rec
            self._prov_seq = max(self._prov_seq, rec.seq)
            if "key" in record:
                self._keyed[(rec.tenant, "provision", record["key"])] = (rec.source_image, rec)
        elif op == "prov.step":
            rec = self._records[record["node"]]
            self._check_edge(rec.state.value, record["state"])
            rec.state = ProvisionState(record["state"])
            for name in ("clone_image", "target", "keep_image", "error"):
                if name in record:
                    setattr(rec, name, record[name])
            if "key" in record:
                self._keyed[(rec.tenant, "deprovision", record["key"])] = (rec.node, rec)
        elif op == "prov.update":
            rec = self._records[record["node"]]
            rec.clone_image = record["clone_image"]
            rec.source_image = record["source_image"]
        elif op == "prov.end":
            rec = self._records.pop(record["node"])
            self._check_edge(rec.state.value, REMOVED)
        elif op == "idem.outcome":  # older roots: only a provision's success is kept
            if record["op"] == "provision" and record["ok"]:  # its record is live
                rec = self._records[record["node"]]
                self._keyed[(rec.tenant, "provision", record["key"])] = (rec.source_image, rec)
        else:
            raise ValueError(f"unknown provision record type {op}")

    @staticmethod
    def _check_edge(old: str, new: str) -> None:
        if (old, new) not in STATE_EDGES:
            raise ValueError(f"illegal provision state transition {old} -> {new}")

    # -- crash recovery ----------------------------------------------------------

    def recover_incomplete(self) -> None:
        """Roll half-done provisions back, finish half-done deprovisions and
        rollbacks, release orphaned allocations, regenerate boot files."""
        for rec in list(self._records.values()):
            if rec.state not in _QUIESCED:
                log.info("recovery: tearing down %s (state=%s)", rec.node, rec.state.value)
                self._teardown(rec)
        with self.journal.lock:
            recorded = set(self._records)
        for node in self.pool.nodes():
            if node.pool_state is PoolState.ALLOCATED and node.id not in recorded:
                log.info("recovery: releasing orphan allocation %s", node.id)
                self.pool.detach_network(node.id)
                self.netboot.remove_boot_config(node.id)
                self.pool.release_node(node.id)
        self.netboot.regenerate_files()
        self.images.cleanup_orphan_layers()

    # -- provisioning flows ---------------------------------------------------------

    def provision(self, tenant: str, image: str, node: str | None = None,
                  idempotency_key: str | None = None) -> ProvisionRecord:
        """Allocate a node and stand it up on a fresh linked clone.

        Order: allocate, clone, export, configure boot, attach network.
        Any step failure compensates in reverse and raises RollbackReport.
        A live disk (an image a target exports) is refused with ImageInUse
        before a node is allocated: a clone of it would freeze the disk.
        A keyed retry returns the first call's record or raises its
        RollbackReport; one that open rolled back after a crash runs again.
        """
        with self._workers, self._flow_lock(tenant, "provision", idempotency_key):
            prior = self._keyed_flow(tenant, "provision", idempotency_key, image, node)
            if prior is not None:
                if prior.error is not None:
                    raise RollbackReport(prior.error["failing_step"],
                                         error_by_code(prior.error["code"])("replayed outcome"))
                if prior.state is not ProvisionState.ROLLED_BACK:
                    return prior
            exporter = self.images.check_readable(tenant, image).exporter
            if exporter is not None:
                raise ImageInUse(f"image {image} is the live disk of {exporter}")
            node_id = self.pool.allocate_node(tenant, node)
            with self._node_lock(node_id):
                rec = self._begin(node_id, tenant, image, owns_clone=True,
                                  clone_image=self.images.reserve_id(), key=idempotency_key)
                self._stand_up(rec, 0)
                return rec

    def deprovision(self, tenant: str, node: str, keep_image: bool = False,
                    idempotency_key: str | None = None) -> None:
        """Tear the node's binding down; the clone is deleted unless kept.
        A keyed retry resumes that teardown, or returns once it has ended."""
        with self._workers, self._flow_lock(tenant, "deprovision", idempotency_key), \
                self._node_lock(node):
            prior = self._keyed_flow(tenant, "deprovision", idempotency_key, node)
            if prior is None:
                prior = self._owned_record(tenant, node)
            elif prior is not self._records.get(node):  # that teardown has ended
                return
            self._teardown(prior, keep_image, key=idempotency_key)

    def snapshot(self, tenant: str, node: str, snapshot_name: str) -> str:
        """Freeze the node's disk as an immutable named image.

        The live clone is renamed and flattened in place (one flatten, no
        other data movement) and the node continues on a fresh linked clone
        that takes the name the rename freed, behind the same target name, so
        its visible bytes never change.
        """
        with self._workers:
            with self._node_lock(node):
                rec = self._owned_record(tenant, node)
                old_clone = rec.clone_image
                fresh_name = self.images.get(old_clone).name
                if snapshot_name == fresh_name:  # the rename would be a no-op
                    raise DuplicateName(
                        f"tenant {tenant} already has an image named {snapshot_name!r}")
                with self.gateway.fence(rec.target):
                    self.images.rename_image(tenant, old_clone, snapshot_name)
                    try:
                        self.images.flatten(old_clone)
                    except MetalforgeError:  # the disk is still live: give its name back
                        self.images.rename_image(tenant, old_clone, fresh_name)
                        raise
                    fresh = self.images.linked_clone(tenant, old_clone, fresh_name)
                    self.gateway.rebind_target(tenant, rec.target, fresh)
                self.journal.commit({"type": "prov.update", "node": node, "seq": rec.seq,
                                     "clone_image": fresh, "source_image": old_clone})
                return old_clone

    def recover(self, tenant: str, failed_node: str, new_node: str | None = None) -> ProvisionRecord:
        """Re-export a failed node's disk to a replacement node.

        No image data moves; the clone is simply re-exported and the new
        node boots from it. A node whose deprovision failed partway without
        ``keep_image`` is refused: its disk is being deleted.
        """
        with self._workers:
            with self._node_lock(failed_node):
                rec = self._owned_record(tenant, failed_node)
                self.pool.require_failed(failed_node)
                if rec.state is ProvisionState.DEPROVISIONING and not rec.keep_image:
                    raise InvalidRequest(f"node {failed_node} is being deprovisioned")
                # the spare comes first: with none free, the disk keeps its record
                new_id = self.pool.allocate_node(tenant, new_node)
                try:
                    if rec.state in _LIVE:
                        self._step(rec, ProvisionState.FAILED_NODE)
                    self._teardown(rec, keep_image=True)
                except MetalforgeError:
                    self.pool.release_node(new_id)
                    raise
            with self._node_lock(new_id):
                rec2 = self._begin(new_id, tenant, rec.source_image, owns_clone=False,
                                   clone_image=rec.clone_image)
                self._stand_up(rec2, REEXPORT)
                return rec2

    # -- simulator signals ---------------------------------------------------------

    def note_booted(self, node: str) -> None:
        with self._node_lock(node):
            rec = self._live_record(node)
            if rec.state is ProvisionState.BOOTED:
                return
            if rec.state is not ProvisionState.READY:
                raise InvalidRequest(f"node {node} is not in a bootable state")
            self._step(rec, ProvisionState.BOOTED)

    def note_node_failed(self, node: str) -> None:
        with self._node_lock(node):
            self.pool.mark_failed(node)
            rec = self._records.get(node)
            if rec is not None and rec.state in _LIVE:
                self._step(rec, ProvisionState.FAILED_NODE)

    # -- queries ----------------------------------------------------------------------

    def list_provisions(self, tenant: str) -> list[dict]:
        with self.journal.lock:
            return [r.to_public() for r in self.records() if r.tenant == tenant]

    def get_record(self, tenant: str, node: str) -> ProvisionRecord:
        return self._owned_record(tenant, node)

    def list_nodes(self, tenant: str) -> list[dict]:
        return [n.to_public(viewer=tenant) for n in self.pool.nodes()]

    def get_traffic(self, tenant: str, node: str) -> dict:
        rec = self._owned_record(tenant, node)
        return self.gateway.get_traffic(rec.target).to_public()

    def records(self) -> list[ProvisionRecord]:
        """Live records, in the pool's registration order of their nodes."""
        with self.journal.lock:
            return [self._records[n.id] for n in self.pool.nodes() if n.id in self._records]

    def authenticate(self, token: str | None) -> str | None:
        """Resolve an API token to a tenant; None when auth is disabled."""
        if self.config.tenants is None:
            return None
        for tenant, expected in self.config.tenants.items():
            if token == expected:
                return tenant
        raise AccessDenied("unknown API token")

    # -- global sweep -------------------------------------------------------------------

    def verify_invariants(self) -> list[str]:
        """Cross-service consistency sweep; empty result means healthy.

        Assumes a quiesced stack (no in-flight mutating calls).
        """
        problems: list[str] = []
        with self.journal.lock:
            records = {node: rec for node, rec in self._records.items()}
        counts = self.pool.counts()
        if counts["free"] + counts["allocated"] != counts["registered"]:
            problems.append(f"pool conservation violated: {counts}")
        targets = {t.name: t for t in self.gateway.targets()}
        claimed_targets = set()
        for node, rec in sorted(records.items()):
            if rec.state not in _QUIESCED:
                problems.append(f"{node}: record left in state {rec.state.value}")
                continue
            if rec.clone_image is None or not self.images.exists(rec.clone_image):
                problems.append(f"{node}: clone image {rec.clone_image} missing")
            if rec.target not in targets:
                problems.append(f"{node}: target {rec.target} missing")
            else:
                claimed_targets.add(rec.target)
                bound = targets[rec.target]
                if bound.image != rec.clone_image:
                    problems.append(f"{node}: target bound to {bound.image}, "
                                    f"record says {rec.clone_image}")
            pool_rec = self.pool.get(node)
            if pool_rec.pool_state is not PoolState.ALLOCATED or pool_rec.owner != rec.tenant:
                problems.append(f"{node}: not allocated to {rec.tenant}")
            if pool_rec.attached_network != rec.tenant:
                problems.append(f"{node}: not attached to {rec.tenant}'s network")
            mac = self.netboot.config_for_node(node)
            if mac is None:
                problems.append(f"{node}: boot configuration missing")
            else:
                descriptor = self.netboot.lookup_boot(mac)
                if descriptor is None or descriptor.target != rec.target:
                    problems.append(f"{node}: boot artifacts inconsistent")
        for name in targets:
            if name not in claimed_targets:
                problems.append(f"orphan target {name}")
        live_macs = {self.netboot.config_for_node(node) for node in records}
        for mac in self.netboot.configured_macs():
            if mac not in live_macs:
                problems.append(f"orphan boot configuration for {mac}")
        for node in self.pool.nodes():
            if node.pool_state is PoolState.FREE:
                if node.attached_network is not None:
                    problems.append(f"free node {node.id} still attached")
                if self.netboot.config_for_node(node.id) is not None:
                    problems.append(f"free node {node.id} still configured")
            elif node.id not in records:
                problems.append(f"allocated node {node.id} has no record")
        problems.extend(self.images.check_integrity())
        for target in targets.values():
            if not self.images.exists(target.image):
                problems.append(f"target {target.name} bound to missing image")
                continue
            if not self.images.get(target.image).writable:
                problems.append(f"read-write target {target.name} bound to "
                                f"unwritable image {target.image}")
        for path in self.images.orphan_layer_files():
            problems.append(f"orphan layer file {path.name}")
        return problems

    # -- flow internals ---------------------------------------------------------------------

    def _begin(self, node: str, tenant: str, source_image: str, owns_clone: bool,
               clone_image: str, key: str | None = None) -> ProvisionRecord:
        with self.journal.lock:  # sequence numbers commit in the order they are drawn
            self._prov_seq += 1
            record = {
                "type": "prov.begin",
                "node": node,
                "tenant": tenant,
                "source_image": source_image,
                "state": ProvisionState.ALLOCATING.value,
                "seq": self._prov_seq,
                "created_at": time.time(),
                "owns_clone": owns_clone,
                "clone_image": clone_image,
                "key": key,
            }
            self.journal.commit({name: v for name, v in record.items() if v is not None})
            return self._records[node]

    def _step(self, rec: ProvisionRecord, state: ProvisionState, **extra) -> None:
        # checked before the append: replay would raise on an illegal edge forever
        self._check_edge(rec.state.value, state.value)
        record = {"type": "prov.step", "node": rec.node, "seq": rec.seq,
                  "state": state.value}
        record.update((name, value) for name, value in extra.items() if value is not None)
        self.journal.commit(record)

    def _stand_up(self, rec: ProvisionRecord, first: int) -> None:
        """Run the rows of ``STEPS`` from row ``first`` on, committing each
        row's step, then mark the record ready. A failing step tears the
        flow down and raises RollbackReport."""
        for name, state, _ in STEPS[first:]:
            try:
                if self.fault_hook is not None:
                    self.fault_hook(name, rec.node)
                self._step(rec, state, **getattr(self, f"_{name}")(rec))
            except MetalforgeError as exc:
                log.warning("provision step %s failed on %s: %s", name, rec.node, exc)
                self._teardown(rec, error={"code": exc.code, "failing_step": name})
                raise RollbackReport(name, exc) from exc
        self._step(rec, ProvisionState.READY)

    def _clone(self, rec: ProvisionRecord) -> dict:
        self.images.linked_clone(rec.tenant, rec.source_image, rec.clone_name,
                                 rec.clone_image)
        return {"clone_image": rec.clone_image}

    def _export(self, rec: ProvisionRecord) -> dict:
        return {"target": self.gateway.create_target(rec.tenant, rec.clone_image, {rec.node})}

    def _configure(self, rec: ProvisionRecord) -> dict:
        self.netboot.install_boot_config(rec.node, self.pool.get(rec.node).mac, rec.target)
        return {}

    def _attach(self, rec: ProvisionRecord) -> dict:
        self.pool.attach_network(rec.node, rec.tenant)
        return {}

    def _teardown(self, rec: ProvisionRecord, keep_image: bool | None = None,
                  key: str | None = None, error: dict | None = None) -> None:
        """Take ``rec`` down and end it: run every undo of ``STEPS``, last
        row first, release the node and commit ``prov.end``.

        ``keep_image`` deprovisions a live record first, under ``key``; a
        record already deprovisioning (a teardown that failed) resumes with
        the ``keep_image`` it recorded. An in-flight record (a stand-up that
        failed or crashed) commits ROLLED_BACK with ``error`` first, and keeps
        its clone iff its begin record did not own it.
        """
        if keep_image is not None and rec.state is not ProvisionState.DEPROVISIONING:
            self._step(rec, ProvisionState.DEPROVISIONING, keep_image=keep_image, key=key)
        for _, _, undo in reversed(STEPS):
            getattr(self, f"_{undo}")(rec)
        self.pool.release_node(rec.node)
        if rec.state in _IN_FLIGHT:
            self._step(rec, ProvisionState.ROLLED_BACK, error=error)
        self.journal.commit({"type": "prov.end", "node": rec.node, "seq": rec.seq})

    def _detach(self, rec: ProvisionRecord) -> None:
        self.pool.detach_network(rec.node)

    def _remove_config(self, rec: ProvisionRecord) -> None:
        self.netboot.remove_boot_config(rec.node)

    def _delete_target(self, rec: ProvisionRecord) -> None:
        """Delete the record's target, or, for an export that ran but did
        not commit its step, the clone's exporter."""
        target = rec.target
        if target is None and rec.clone_image is not None:
            with suppress(NotFound):
                target = self.images.get(rec.clone_image).exporter
        if target is not None:
            with suppress(NotFound):
                self.gateway.delete_target(rec.tenant, target)

    def _delete_image(self, rec: ProvisionRecord) -> None:
        """Delete the clone the record names unless it is kept. A clone with
        children (linked clones made through the image store while no target
        exported it) stays, since they read through it."""
        if not rec.keep_image and rec.clone_image is not None:
            with suppress(NotFound, HasChildren):
                self.images.delete_image(rec.tenant, rec.clone_image)

    def _owned_record(self, tenant: str, node: str) -> ProvisionRecord:
        rec = self._live_record(node)
        if rec.tenant != tenant:
            raise AccessDenied(f"node {node} is not provisioned by {tenant}")
        return rec

    def _live_record(self, node: str) -> ProvisionRecord:
        with self.journal.lock:
            rec = self._records.get(node)
            if rec is None:
                raise NotFound(f"node {node} has no live provision record")
            return rec

    def _node_lock(self, node: str | tuple) -> threading.RLock:
        with self.journal.lock:
            lock = self._node_locks.get(node)
            if lock is None:
                lock = self._node_locks[node] = threading.RLock()
            return lock

    def _flow_lock(self, tenant: str, op: str, key: str | None):
        return nullcontext() if key is None else self._node_lock((tenant, op, key))

    def _keyed_flow(self, tenant: str, op: str, key: str | None, asked: str,
                    node: str | None = None) -> ProvisionRecord | None:
        """The tenant's flow that ``key`` names for ``op``; a key names one request."""
        if key is None:
            return None
        with self.journal.lock:
            first, rec = self._keyed.get((tenant, op, key), (None, None))
        if rec is not None and (first != asked or node not in (None, rec.node)):
            raise InvalidRequest(f"key {key!r} names another {op} request")
        return rec
