"""Node pool and tenant network membership.

This is the multi-tenancy boundary: a node only reaches a tenant's block
targets while it is allocated to that tenant and attached to its network.
Attachment checks are answered live, so a detach revokes gateway access
immediately. Switch control is simulated behind the same API surface.
"""

from dataclasses import dataclass
from enum import Enum

from .errors import (
    DuplicateMac,
    NodeBusy,
    NodeNotFailed,
    NotAllocated,
    NotFound,
    PoolExhausted,
    WrongTenant,
)
from .journal import Journal
from .netboot_config import canonical_mac


class PoolState(Enum):
    FREE = "free"
    ALLOCATED = "allocated"


class Health(Enum):
    OK = "ok"
    FAILED = "failed"


@dataclass
class NodeRecord:
    id: str
    mac: str
    pool_state: PoolState = PoolState.FREE
    owner: str | None = None
    attached_network: str | None = None
    health: Health = Health.OK

    def to_public(self, viewer: str | None = None) -> dict:
        own = viewer is None or self.owner == viewer
        return {
            "id": self.id,
            "mac": self.mac,
            "pool_state": self.pool_state.value,
            "health": self.health.value,
            "tenant": self.owner if own else None,
            "attached": self.attached_network is not None,
        }


class IsolationService:
    """Linearizable allocation over a flat node pool, one network per tenant."""

    def __init__(self, journal: Journal):
        self.journal = journal
        self._nodes: dict[str, NodeRecord] = {}  # in registration order
        self._by_mac: dict[str, str] = {}
        self._seq = 0
        journal.register("node", self.apply)

    # -- journal replay -----------------------------------------------------

    def apply(self, record: dict) -> None:
        op = record["type"]
        if op == "node.register":
            node = NodeRecord(id=record["id"], mac=record["mac"])
            self._nodes[node.id] = node
            self._by_mac[node.mac] = node.id
            num = record["id"].rsplit("-", 1)[-1]
            if num.isdigit():
                self._seq = max(self._seq, int(num))
        elif op == "node.allocate":
            node = self._nodes[record["id"]]
            node.pool_state = PoolState.ALLOCATED
            node.owner = record["tenant"]
        elif op == "node.release":
            node = self._nodes[record["id"]]
            node.pool_state = PoolState.FREE
            node.owner = None
            node.attached_network = None
        elif op == "node.attach":
            self._nodes[record["id"]].attached_network = record["tenant"]
        elif op == "node.detach":
            self._nodes[record["id"]].attached_network = None
        elif op == "node.health":
            self._nodes[record["id"]].health = Health(record["health"])
        else:
            raise ValueError(f"unknown node record type {op}")

    # -- pool management -------------------------------------------------------

    def register_node(self, mac: str) -> str:
        mac = canonical_mac(mac)
        with self.journal.lock:
            if mac in self._by_mac:
                raise DuplicateMac(f"mac {mac} is already registered")
            self._seq += 1
            node_id = f"node-{self._seq:03d}"
            self.journal.commit({"type": "node.register", "id": node_id, "mac": mac})
            return node_id

    def allocate_node(self, tenant: str, node_id: str | None = None) -> str:
        with self.journal.lock:
            if node_id is not None:
                node = self._get(node_id)
                if node.pool_state is not PoolState.FREE or node.health is not Health.OK:
                    raise NodeBusy(f"node {node_id} is not allocatable")
            else:
                node = next(
                    (n for n in self._nodes.values()
                     if n.pool_state is PoolState.FREE and n.health is Health.OK),
                    None,
                )
                if node is None:
                    raise PoolExhausted("no free healthy node in the pool")
            self.journal.commit({"type": "node.allocate", "id": node.id, "tenant": tenant})
            return node.id

    def release_node(self, node_id: str) -> None:
        with self.journal.lock:
            node = self._get(node_id)
            if node.pool_state is PoolState.FREE:
                return
            self.journal.commit({"type": "node.release", "id": node.id})

    def attach_network(self, node_id: str, tenant: str) -> None:
        with self.journal.lock:
            node = self._get(node_id)
            if node.pool_state is not PoolState.ALLOCATED:
                raise NotAllocated(f"node {node_id} is not allocated")
            if node.owner != tenant:
                raise WrongTenant(f"node {node_id} belongs to {node.owner}")
            if node.attached_network == tenant:
                return
            self.journal.commit({"type": "node.attach", "id": node.id, "tenant": tenant})

    def detach_network(self, node_id: str) -> None:
        with self.journal.lock:
            node = self._nodes.get(node_id)
            if node is None or node.attached_network is None:
                return
            self.journal.commit({"type": "node.detach", "id": node.id})

    def mark_failed(self, node_id: str) -> None:
        with self.journal.lock:
            node = self._get(node_id)
            if node.health is Health.FAILED:
                return
            self.journal.commit({"type": "node.health", "id": node.id, "health": "failed"})

    def repair_node(self, node_id: str) -> None:
        with self.journal.lock:
            node = self._get(node_id)
            if node.health is Health.OK:
                return
            self.journal.commit({"type": "node.health", "id": node.id, "health": "ok"})

    # -- queries -----------------------------------------------------------------

    def get(self, node_id: str) -> NodeRecord:
        with self.journal.lock:
            return self._get(node_id)

    def exists(self, node_id: str) -> bool:
        with self.journal.lock:
            return node_id in self._nodes

    def network_of(self, node_id: str) -> str | None:
        with self.journal.lock:
            node = self._nodes.get(node_id)
            return None if node is None else node.attached_network

    def require_failed(self, node_id: str) -> NodeRecord:
        with self.journal.lock:
            node = self._get(node_id)
            if node.health is not Health.FAILED:
                raise NodeNotFailed(f"node {node_id} is healthy")
            return node

    def nodes(self) -> list[NodeRecord]:
        """Every node, in registration order."""
        with self.journal.lock:
            return list(self._nodes.values())

    def counts(self) -> dict:
        with self.journal.lock:
            free = sum(1 for n in self._nodes.values() if n.pool_state is PoolState.FREE)
            return {
                "registered": len(self._nodes),
                "free": free,
                "allocated": len(self._nodes) - free,
            }

    def _get(self, node_id: str) -> NodeRecord:
        node = self._nodes.get(node_id)
        if node is None:
            raise NotFound(f"node {node_id} is not registered")
        return node
