"""Provisioning orchestrator: the user-facing service.

Owns the node/image mapping database and sequences the image store, target
gateway, netboot and isolation services for provision, deprovision,
snapshot and recovery. Every step of a flow is committed through the shared
journal before the next begins. Provision and the second half of recovery
stand a node up through one path (``_stand_up``); deprovision, the first
half of recovery, a failed stand-up and crash recovery all take it down
through one other (``_teardown``). A crash is therefore always resolved on
restart the same way: half-done stand-ups are rolled back, half-done
deprovisions are completed, and the global state stays orphan-free.
"""

import json
import logging
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import (
    AccessDenied,
    DuplicateName,
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
from .target_gateway import GatewayConfig, TargetGateway, TargetMode

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

STATE_EDGES = frozenset({
    ("allocating", "cloning"),
    ("cloning", "exporting"),
    ("exporting", "configuring"),
    ("configuring", "attaching"),
    ("attaching", "ready"),
    ("ready", "booted"),
    ("ready", "deprovisioning"),
    ("booted", "deprovisioning"),
    ("ready", "failed_node"),
    ("booted", "failed_node"),
    ("failed_node", "deprovisioning"),
    # recovery re-exports an existing clone; the cloning step is skipped
    ("allocating", "exporting"),
    ("allocating", "rolled_back"),
    ("cloning", "rolled_back"),
    ("exporting", "rolled_back"),
    ("configuring", "rolled_back"),
    ("attaching", "rolled_back"),
    ("deprovisioning", REMOVED),
    ("rolled_back", REMOVED),
})

_IN_FLIGHT = {
    ProvisionState.ALLOCATING,
    ProvisionState.CLONING,
    ProvisionState.EXPORTING,
    ProvisionState.CONFIGURING,
    ProvisionState.ATTACHING,
}

_QUIESCED = {ProvisionState.READY, ProvisionState.BOOTED, ProvisionState.FAILED_NODE}


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
    owns_clone: bool = True
    keep_image: bool = False
    # In memory only: the image that already held clone_name at prov.begin;
    # teardown never adopts it.
    name_holder: str | None = None

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
        self._idem: dict[tuple, dict] = {}
        self._meta = threading.RLock()
        self._node_locks: dict[str, threading.RLock] = {}
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
                owns_clone=record.get("owns_clone", True),
            )
            if rec.node in self._records:
                raise ValueError(f"duplicate live provision record for {rec.node}")
            holder = self.images.find_by_name(rec.tenant, rec.clone_name)
            rec.name_holder = holder.id if holder is not None else None
            self._records[rec.node] = rec
            self._prov_seq = max(self._prov_seq, rec.seq)
        elif op == "prov.step":
            rec = self._records[record["node"]]
            self._check_edge(rec.state.value, record["state"])
            rec.state = ProvisionState(record["state"])
            for key in ("clone_image", "target"):
                if key in record:
                    setattr(rec, key, record[key])
            if "keep_image" in record:
                rec.keep_image = record["keep_image"]
        elif op == "prov.update":
            rec = self._records[record["node"]]
            rec.clone_image = record["clone_image"]
            rec.source_image = record["source_image"]
        elif op == "prov.end":
            rec = self._records.pop(record["node"])
            self._check_edge(rec.state.value, REMOVED)
        elif op == "idem.outcome":
            self._idem[(record["op"], record["key"])] = record
        else:
            raise ValueError(f"unknown provision record type {op}")

    @staticmethod
    def _check_edge(old: str, new: str) -> None:
        if (old, new) not in STATE_EDGES:
            raise ValueError(f"illegal provision state transition {old} -> {new}")

    # -- crash recovery ----------------------------------------------------------

    def recover_incomplete(self) -> dict:
        """Roll half-done provisions back, finish half-done deprovisions,
        release orphaned allocations, regenerate boot files."""
        rolled_back, completed = [], []
        for rec in list(self._records.values()):
            if rec.state in _IN_FLIGHT or rec.state is ProvisionState.DEPROVISIONING:
                log.info("recovery: tearing down %s (state=%s)", rec.node, rec.state.value)
                (rolled_back if rec.state in _IN_FLIGHT else completed).append(rec.node)
                self._teardown(rec)
        with self._meta:
            recorded = set(self._records)
        for node in self.pool.nodes():
            if node.pool_state is PoolState.ALLOCATED and node.id not in recorded:
                log.info("recovery: releasing orphan allocation %s", node.id)
                self.pool.detach_network(node.id)
                self.netboot.remove_boot_config(node.id)
                self.pool.release_node(node.id)
        self.netboot.regenerate_files()
        self.images.cleanup_orphan_layers()
        return {"rolled_back": rolled_back, "completed": completed}

    # -- provisioning flows ---------------------------------------------------------

    def provision(self, tenant: str, image: str, node: str | None = None,
                  idempotency_key: str | None = None) -> ProvisionRecord:
        """Allocate a node and stand it up on a fresh linked clone.

        Order: allocate, clone, export, configure boot, attach network.
        Any step failure compensates in reverse and raises RollbackReport.
        """
        with self._workers:
            prior = self._idem_lookup("provision", idempotency_key)
            if prior is not None:
                return self._replay_provision_outcome(prior)
            self.images.check_readable(tenant, image)
            node_id = self.pool.allocate_node(tenant, node)
            with self._node_lock(node_id):
                rec = self._begin(node_id, tenant, image, owns_clone=True)
                try:
                    self._stand_up(rec, ("clone", "export", "configure", "attach"))
                except RollbackReport as report:
                    self._idem_store("provision", idempotency_key, ok=False,
                                     node=node_id, error=report)
                    raise
                self._idem_store("provision", idempotency_key, ok=True,
                                 node=node_id, result=rec.to_public())
                return rec

    def deprovision(self, tenant: str, node: str, keep_image: bool = False,
                    idempotency_key: str | None = None) -> None:
        """Tear the node's binding down; the clone is deleted unless kept."""
        with self._workers:
            prior = self._idem_lookup("deprovision", idempotency_key)
            if prior is not None:
                self._replay_simple_outcome(prior)
                return
            with self._node_lock(node):
                self._retire(self._owned_record(tenant, node), keep_image)
            self._idem_store("deprovision", idempotency_key, ok=True, node=node)

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
                    self.images.flatten(old_clone)
                    fresh = self.images.linked_clone(tenant, old_clone, fresh_name)
                    self.gateway.rebind_target(tenant, rec.target, fresh)
                self.journal.commit({"type": "prov.update", "node": node, "seq": rec.seq,
                                     "clone_image": fresh, "source_image": old_clone})
                return old_clone

    def recover(self, tenant: str, failed_node: str, new_node: str | None = None) -> ProvisionRecord:
        """Re-export a failed node's disk to a replacement node.

        No image data moves; the clone is simply re-exported and the new
        node boots from it.
        """
        with self._workers:
            with self._node_lock(failed_node):
                rec = self._owned_record(tenant, failed_node)
                self.pool.require_failed(failed_node)
                if rec.state in (ProvisionState.READY, ProvisionState.BOOTED):
                    self._step(rec, ProvisionState.FAILED_NODE)
                self._retire(rec, keep_image=True)
            new_id = self.pool.allocate_node(tenant, new_node)
            with self._node_lock(new_id):
                rec2 = self._begin(new_id, tenant, rec.source_image, owns_clone=False,
                                   clone_image=rec.clone_image)
                self._stand_up(rec2, ("export", "configure", "attach"))
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
            if rec is not None and rec.state in (ProvisionState.READY, ProvisionState.BOOTED):
                self._step(rec, ProvisionState.FAILED_NODE)

    # -- queries ----------------------------------------------------------------------

    def list_provisions(self, tenant: str) -> list[dict]:
        with self._meta:
            return [r.to_public() for r in sorted(self._records.values(), key=lambda r: r.node)
                    if r.tenant == tenant]

    def get_record(self, tenant: str, node: str) -> ProvisionRecord:
        return self._owned_record(tenant, node)

    def list_nodes(self, tenant: str) -> list[dict]:
        return [n.to_public(viewer=tenant) for n in self.pool.nodes()]

    def get_traffic(self, tenant: str, node: str) -> dict:
        rec = self._owned_record(tenant, node)
        return self.gateway.get_traffic(rec.target).to_public()

    def records(self) -> list[ProvisionRecord]:
        with self._meta:
            return sorted(self._records.values(), key=lambda r: r.node)

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
        with self._meta:
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
                artifacts = self.netboot.lookup_boot(mac)
                if artifacts is None or artifacts.descriptor.target != rec.target:
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
        for path in self.images.orphan_layer_files():
            problems.append(f"orphan layer file {path.name}")
        return problems

    # -- flow internals ---------------------------------------------------------------------

    def _begin(self, node: str, tenant: str, source_image: str, owns_clone: bool,
               clone_image: str | None = None) -> ProvisionRecord:
        with self._meta:
            self._prov_seq += 1
            seq = self._prov_seq
        record = {
            "type": "prov.begin",
            "node": node,
            "tenant": tenant,
            "source_image": source_image,
            "state": ProvisionState.ALLOCATING.value,
            "seq": seq,
            "created_at": time.time(),
            "owns_clone": owns_clone,
        }
        if clone_image is not None:
            record["clone_image"] = clone_image
        self.journal.commit(record)
        return self._records[node]

    def _step(self, rec: ProvisionRecord, state: ProvisionState, **extra) -> None:
        record = {"type": "prov.step", "node": rec.node, "seq": rec.seq,
                  "state": state.value}
        record.update(extra)
        self.journal.commit(record)

    def _stand_up(self, rec: ProvisionRecord, steps: tuple[str, ...]) -> None:
        """Run the named ``_step_<name>`` methods in order, then mark the
        record ready. A failing step tears the flow down and raises
        RollbackReport."""
        for name in steps:
            try:
                if self.fault_hook is not None:
                    self.fault_hook(name, rec.node)
                getattr(self, f"_step_{name}")(rec)
            except MetalforgeError as exc:
                log.warning("provision step %s failed on %s: %s", name, rec.node, exc)
                self._teardown(rec)
                raise RollbackReport(name, exc) from exc
        self._step(rec, ProvisionState.READY)

    def _step_clone(self, rec: ProvisionRecord) -> None:
        clone = self.images.linked_clone(rec.tenant, rec.source_image, rec.clone_name)
        self._step(rec, ProvisionState.CLONING, clone_image=clone)

    def _step_export(self, rec: ProvisionRecord) -> None:
        target = self.gateway.create_target(rec.tenant, rec.clone_image,
                                            TargetMode.READ_WRITE, {rec.node})
        self._step(rec, ProvisionState.EXPORTING, target=target)

    def _step_configure(self, rec: ProvisionRecord) -> None:
        mac = self.pool.get(rec.node).mac
        self.netboot.install_boot_config(rec.node, mac, rec.target)
        self._step(rec, ProvisionState.CONFIGURING)

    def _step_attach(self, rec: ProvisionRecord) -> None:
        self.pool.attach_network(rec.node, rec.tenant)
        self._step(rec, ProvisionState.ATTACHING)

    def _retire(self, rec: ProvisionRecord, keep_image: bool) -> None:
        self._step(rec, ProvisionState.DEPROVISIONING, keep_image=keep_image)
        self._teardown(rec)

    def _teardown(self, rec: ProvisionRecord) -> None:
        """Reverse-order, idempotent teardown of an in-flight or
        deprovisioning record, ending with its ``prov.end``.

        An in-flight record (a stand-up that failed or crashed) keeps its
        clone iff it does not own it, and commits ROLLED_BACK first. A crash
        can land between an artifact's own commit and the record step that
        names it, so its artifacts are rediscovered through their
        deterministic names; only an image that ``_step_clone`` could have
        made (a child of the source image) is adopted, and never the one
        that held the clone name when the flow began. A deprovisioning
        record keeps its clone iff ``keep_image``.
        """
        in_flight = rec.state in _IN_FLIGHT
        clone, target = rec.clone_image, rec.target
        if in_flight and clone is None and rec.owns_clone:
            named = self.images.find_by_name(rec.tenant, rec.clone_name)
            if (named is not None and named.id != rec.name_holder
                    and named.parent == rec.source_image):
                clone = named.id
        if in_flight and target is None and clone is not None:
            target = next(iter(self.images.users_of(clone)), None)
        self.pool.detach_network(rec.node)
        self.netboot.remove_boot_config(rec.node)
        if target is not None:
            try:
                self.gateway.delete_target(rec.tenant, target)
            except NotFound:
                pass
        keep = not rec.owns_clone if in_flight else rec.keep_image
        if not keep and clone is not None:
            try:
                self.images.delete_image(rec.tenant, clone)
            except NotFound:
                pass
        self.pool.release_node(rec.node)
        if in_flight:
            self._step(rec, ProvisionState.ROLLED_BACK)
        self.journal.commit({"type": "prov.end", "node": rec.node, "seq": rec.seq})

    def _owned_record(self, tenant: str, node: str) -> ProvisionRecord:
        rec = self._live_record(node)
        if rec.tenant != tenant:
            raise AccessDenied(f"node {node} is not provisioned by {tenant}")
        return rec

    def _live_record(self, node: str) -> ProvisionRecord:
        with self._meta:
            rec = self._records.get(node)
            if rec is None:
                raise NotFound(f"node {node} has no live provision record")
            return rec

    def _node_lock(self, node: str) -> threading.RLock:
        with self._meta:
            lock = self._node_locks.get(node)
            if lock is None:
                lock = self._node_locks[node] = threading.RLock()
            return lock

    # -- idempotency -------------------------------------------------------------------------

    def _idem_lookup(self, op: str, key: str | None) -> dict | None:
        if key is None:
            return None
        with self._meta:
            return self._idem.get((op, key))

    def _idem_store(self, op: str, key: str | None, ok: bool, node: str,
                    result: dict | None = None, error: RollbackReport | None = None) -> None:
        if key is None:
            return
        record = {"type": "idem.outcome", "op": op, "key": key, "ok": ok, "node": node}
        if result is not None:
            record["result"] = result
        if error is not None:
            record["error"] = {"code": error.cause_code, "failing_step": error.failing_step}
        self.journal.commit(record)

    def _replay_provision_outcome(self, prior: dict) -> ProvisionRecord:
        if not prior["ok"]:
            detail = prior["error"]
            raise RollbackReport(detail["failing_step"],
                                 error_by_code(detail["code"])("replayed outcome"))
        with self._meta:
            live = self._records.get(prior["node"])
            if live is not None and live.seq == prior["result"]["seq"]:
                return live
        snapshot = prior["result"]
        return ProvisionRecord(
            node=snapshot["node"],
            tenant=snapshot["tenant"],
            source_image=snapshot["source_image"],
            state=ProvisionState(snapshot["state"]),
            seq=snapshot["seq"],
            created_at=0.0,
            clone_image=snapshot["clone_image"],
            target=snapshot["target"],
        )

    @staticmethod
    def _replay_simple_outcome(prior: dict) -> None:
        if not prior["ok"]:
            detail = prior["error"]
            raise error_by_code(detail["code"])("replayed outcome")
