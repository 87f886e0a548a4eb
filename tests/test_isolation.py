import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from metalforge.errors import (
    DuplicateMac,
    NodeBusy,
    NodeNotFailed,
    NotAllocated,
    NotFound,
    PoolExhausted,
    WrongTenant,
)
from metalforge.isolation import Health, IsolationService, PoolState
from metalforge.journal import Journal


@pytest.fixture
def pool(tmp_path):
    journal = Journal(tmp_path / "j.log")
    journal.load()
    svc = IsolationService(journal)
    yield svc
    journal.close()


def fill(pool, n):
    return [pool.register_node(f"02:00:00:00:00:{i:02x}") for i in range(n)]


class TestRegister:
    def test_pool_of_24(self, pool):
        nodes = fill(pool, 24)
        assert len(nodes) == 24
        counts = pool.counts()
        assert counts == {"registered": 24, "free": 24, "allocated": 0}

    def test_duplicate_mac(self, pool):
        pool.register_node("02:00:00:00:00:01")
        with pytest.raises(DuplicateMac):
            pool.register_node("02-00-00-00-00-01")

    def test_allocate_release_round_trip(self, pool):
        fill(pool, 3)
        node = pool.allocate_node("t1")
        pool.release_node(node)
        assert pool.counts()["free"] == 3


class TestAllocate:
    def test_exhaustion(self, pool):
        fill(pool, 2)
        pool.allocate_node("t1")
        pool.allocate_node("t1")
        with pytest.raises(PoolExhausted):
            pool.allocate_node("t1")

    def test_specific_busy_node(self, pool):
        nodes = fill(pool, 2)
        pool.allocate_node("t1", nodes[0])
        with pytest.raises(NodeBusy):
            pool.allocate_node("t2", nodes[0])

    def test_conservation(self, pool):
        fill(pool, 5)
        a = pool.allocate_node("t1")
        b = pool.allocate_node("t2")
        pool.release_node(a)
        counts = pool.counts()
        assert counts["free"] + counts["allocated"] == counts["registered"] == 5

    def test_unknown_node(self, pool):
        with pytest.raises(NotFound):
            pool.allocate_node("t1", "node-999")

    def test_registration_order_past_999_nodes(self, pool):
        # ids past node-999 grow a digit, so string order would put
        # node-1000 before node-101
        ids = [pool.register_node(f"02:00:00:00:{i >> 8:02x}:{i & 0xff:02x}")
               for i in range(1001)]
        assert ids[-2:] == ["node-1000", "node-1001"]
        for _ in range(100):
            pool.allocate_node("t1")
        assert pool.allocate_node("t1") == "node-101"
        assert [n.id for n in pool.nodes()] == ids


class TestNetwork:
    def test_attach_wrong_tenant(self, pool):
        nodes = fill(pool, 1)
        pool.allocate_node("tenant-a", nodes[0])
        with pytest.raises(WrongTenant):
            pool.attach_network(nodes[0], "tenant-b")

    def test_attach_unallocated(self, pool):
        nodes = fill(pool, 1)
        with pytest.raises(NotAllocated):
            pool.attach_network(nodes[0], "t1")

    def test_detach_revokes_and_is_idempotent(self, pool):
        nodes = fill(pool, 1)
        pool.allocate_node("t1", nodes[0])
        pool.attach_network(nodes[0], "t1")
        assert pool.network_of(nodes[0]) == "t1"
        pool.detach_network(nodes[0])
        assert pool.network_of(nodes[0]) is None
        pool.detach_network(nodes[0])  # second detach is success

    def test_exclusive_attachment(self, pool):
        nodes = fill(pool, 1)
        pool.allocate_node("t1", nodes[0])
        pool.attach_network(nodes[0], "t1")
        pool.attach_network(nodes[0], "t1")  # re-attach to same network is a no-op
        assert pool.network_of(nodes[0]) == "t1"


class TestHealth:
    def test_failed_node_never_allocated(self, pool):
        nodes = fill(pool, 3)
        pool.mark_failed(nodes[0])
        for _ in range(2):
            assert pool.allocate_node("t1") != nodes[0]
        with pytest.raises(PoolExhausted):
            pool.allocate_node("t1")

    def test_failed_attachment_stays_queryable(self, pool):
        nodes = fill(pool, 1)
        pool.allocate_node("t1", nodes[0])
        pool.attach_network(nodes[0], "t1")
        pool.mark_failed(nodes[0])
        assert pool.network_of(nodes[0]) == "t1"
        assert pool.get(nodes[0]).owner == "t1"

    def test_repair_restores_allocatability(self, pool):
        nodes = fill(pool, 1)
        pool.mark_failed(nodes[0])
        pool.repair_node(nodes[0])
        assert pool.allocate_node("t1") == nodes[0]

    def test_require_failed(self, pool):
        nodes = fill(pool, 1)
        with pytest.raises(NodeNotFailed):
            pool.require_failed(nodes[0])
        pool.mark_failed(nodes[0])
        assert pool.require_failed(nodes[0]).health is Health.FAILED

    def test_mark_failed_unknown(self, pool):
        with pytest.raises(NotFound):
            pool.mark_failed("node-404")


def test_linearizable_allocation_under_100_callers(pool):
    fill(pool, 40)
    got = []
    errors = []
    lock = threading.Lock()

    def grab(i):
        try:
            node = pool.allocate_node(f"tenant-{i % 7}")
            with lock:
                got.append(node)
        except PoolExhausted:
            with lock:
                errors.append("exhausted")

    with ThreadPoolExecutor(max_workers=100) as pool_exec:
        list(pool_exec.map(grab, range(100)))

    # no node handed out twice; exactly the pool size granted
    assert len(got) == 40
    assert len(set(got)) == 40
    assert len(errors) == 60
    counts = pool.counts()
    assert counts["free"] == 0 and counts["allocated"] == 40


def test_persistence_across_reopen(tmp_path):
    journal = Journal(tmp_path / "j.log")
    journal.load()
    svc = IsolationService(journal)
    a = svc.register_node("02:00:00:00:00:01")
    b = svc.register_node("02:00:00:00:00:02")
    svc.allocate_node("t1", a)
    svc.attach_network(a, "t1")
    svc.mark_failed(b)
    journal.close()

    journal2 = Journal(tmp_path / "j.log")
    svc2 = IsolationService(journal2)
    for record in journal2.load():
        svc2.apply(record)
    assert svc2.get(a).pool_state is PoolState.ALLOCATED
    assert svc2.network_of(a) == "t1"
    assert svc2.get(b).health is Health.FAILED
    # id sequence continues, never reuses
    c = svc2.register_node("02:00:00:00:00:03")
    assert c not in (a, b)
    journal2.close()
