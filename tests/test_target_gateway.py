import os
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_stack
from metalforge.errors import (
    AccessDenied,
    AlreadyExported,
    ImageInUse,
    ImmutableImage,
    InvalidRequest,
    NotFound,
    OutOfBounds,
    StorageFailure,
    TargetGone,
    error_by_code,
)
from metalforge.image_store import ImageStore
from metalforge.orchestrator import Orchestrator
from metalforge.sync import RWLock
from metalforge.target_gateway import (
    OP_READ,
    OP_WRITE,
    STATUS_OK,
    decode_request,
    decode_response,
    encode_read_request,
    encode_response,
    encode_write_request,
)

BS = 4096
TENANT = "t1"


@pytest.fixture
def rig(stack):
    """Stack with an allocated, attached node and one exported image."""
    image = stack.images.import_image(TENANT, "base", random.Random(0).randbytes(16 * BS))
    node = stack.pool.allocate_node(TENANT)
    stack.pool.attach_network(node, TENANT)
    target = stack.gateway.create_target(TENANT, image, {node})
    return stack, image, node, target


class TestLifecycle:
    def test_create_marks_image_in_use(self, rig):
        stack, image, node, target = rig
        with pytest.raises(ImageInUse):
            stack.images.delete_image(TENANT, image)
        stack.gateway.delete_target(TENANT, target)
        stack.images.delete_image(TENANT, image)

    def test_single_writer_per_image(self, rig):
        stack, image, node, target = rig
        with pytest.raises(AlreadyExported):
            stack.gateway.create_target(TENANT, image, {node})
        assert stack.images.get(image).exporter == target

    def test_unwritable_image_is_not_exported(self, rig):
        stack, image, node, target = rig
        golden = stack.images.import_image(TENANT, "golden", b"G" * BS)
        stack.images.linked_clone(TENANT, golden, "child")  # freezes the golden
        with pytest.raises(ImmutableImage):
            stack.gateway.create_target(TENANT, golden, {node})
        rec = stack.provision(TENANT, golden)
        snap = stack.snapshot(TENANT, rec.node, "snap")
        with pytest.raises(ImmutableImage):
            stack.gateway.create_target(TENANT, snap, {node})
        assert stack.images.get(golden).exporter is None
        assert stack.images.get(snap).exporter is None

    def test_a_root_with_a_read_only_target_is_refused(self, tmp_path):
        stack = build_stack(tmp_path / "root")
        image = stack.images.import_image(TENANT, "base", b"R" * BS)
        stack.journal.append({"type": "target.create", "name": f"iqn.x:{TENANT}:{image}:ro1",
                              "image": image, "tenant": TENANT, "mode": "read_only",
                              "allowed_initiators": [], "created_at": 0.0})
        stack.close()
        with pytest.raises(ValueError, match="read-only targets are not supported"):
            Orchestrator.open(tmp_path / "root")

    def test_io_after_delete_is_target_gone(self, rig):
        stack, image, node, target = rig
        stack.gateway.delete_target(TENANT, target)
        with pytest.raises(TargetGone):
            stack.gateway.target_read(node, target, 0, 1)
        with pytest.raises(TargetGone):
            stack.gateway.target_write(node, target, 0, b"\x00")

    def test_counters_snapshot_until_deletion(self, rig):
        stack, image, node, target = rig
        stack.gateway.target_read(node, target, 0, 100)
        assert stack.gateway.get_traffic(target).bytes_read == 100
        stack.gateway.delete_target(TENANT, target)
        with pytest.raises(NotFound):
            stack.gateway.get_traffic(target)

    def test_foreign_delete_denied(self, rig):
        stack, image, node, target = rig
        with pytest.raises(AccessDenied):
            stack.gateway.delete_target("t2", target)


class TestDataPath:
    def test_gateway_transparency(self, rig):
        stack, image, node, target = rig
        for offset, length in ((0, 1), (BS - 3, 7), (5 * BS, 2 * BS), (0, 16 * BS)):
            assert stack.gateway.target_read(node, target, offset, length) == \
                stack.images.read_range(image, offset, length)

    def test_write_visible_through_store(self, rig):
        stack, image, node, target = rig
        stack.gateway.target_write(node, target, 10, b"hello")
        assert stack.images.read_range(image, 10, 5) == b"hello"

    def test_counter_exactness(self, rig):
        stack, image, node, target = rig
        for _ in range(100):
            stack.gateway.target_write(node, target, 0, b"\x01" * 1024)
        counters = stack.gateway.get_traffic(target)
        assert counters.bytes_written == 100 * 1024
        assert counters.write_ops == 100
        for _ in range(7):
            stack.gateway.target_read(node, target, 0, 2048)
        counters = stack.gateway.get_traffic(target)
        assert counters.bytes_read == 7 * 2048
        assert counters.read_ops == 7

    def test_fresh_target_counters_zero(self, rig):
        stack, image, node, target = rig
        counters = stack.gateway.get_traffic(target)
        assert (counters.bytes_read, counters.bytes_written,
                counters.read_ops, counters.write_ops) == (0, 0, 0, 0)

    def test_read_of_unwritten_region_counts(self, rig):
        stack, image, node, target = rig
        zeros_target = stack.gateway.create_target(
            TENANT, stack.images.create_image(TENANT, "empty", 4 * BS), {node})
        assert stack.gateway.target_read(node, zeros_target, 0, BS) == bytes(BS)
        assert stack.gateway.get_traffic(zeros_target).bytes_read == BS

    def test_out_of_bounds_read(self, rig):
        stack, image, node, target = rig
        with pytest.raises(OutOfBounds):
            stack.gateway.target_read(node, target, 16 * BS - 1, 2)
        assert stack.gateway.get_traffic(target).read_ops == 0


class TestAuthorization:
    def test_unlisted_initiator_denied(self, rig):
        stack, image, node, target = rig
        other = stack.pool.allocate_node("t2")
        stack.pool.attach_network(other, "t2")
        with pytest.raises(AccessDenied):
            stack.gateway.target_read(other, target, 0, 1)
        assert stack.gateway.get_traffic(target).read_ops == 0

    def test_detached_initiator_denied(self, rig):
        stack, image, node, target = rig
        stack.pool.detach_network(node)
        with pytest.raises(AccessDenied):
            stack.gateway.target_read(node, target, 0, 1)
        stack.pool.attach_network(node, TENANT)
        stack.gateway.target_read(node, target, 0, 1)

    def test_denied_requests_change_nothing(self, rig):
        stack, image, node, target = rig
        before = stack.images.export_image(TENANT, image)
        other = stack.pool.allocate_node("t2")
        stack.pool.attach_network(other, "t2")
        with pytest.raises(AccessDenied):
            stack.gateway.target_write(other, target, 0, b"\xff" * BS)
        counters = stack.gateway.get_traffic(target)
        assert counters.write_ops == 0 and counters.bytes_written == 0
        assert stack.images.export_image(TENANT, image) == before


class TestExportOwnership:
    def test_read_write_export_needs_ownership(self, stack):
        golden = stack.images.import_image(TENANT, "g", b"A" * 8)
        stack.images.share_image(TENANT, golden, "t2")
        node = stack.pool.allocate_node("t2")
        stack.pool.attach_network(node, "t2")
        with pytest.raises(AccessDenied):
            stack.gateway.create_target("t2", golden, {node})

    def test_rebind_needs_ownership(self, rig):
        stack, image, node, target = rig
        foreign = stack.images.import_image("t2", "g", b"B" * 8)
        stack.images.share_image("t2", foreign, TENANT)
        with pytest.raises(AccessDenied):
            stack.gateway.rebind_target(TENANT, target, foreign)
        assert stack.gateway.get(target).image == image
        stack.gateway.target_write(node, target, 0, b"EVIL")
        assert stack.images.read_range(foreign, 0, 8) == b"B" * 8


class TestRebind:
    def test_rebind_swaps_backing_image(self, rig):
        stack, image, node, target = rig
        other = stack.images.import_image(TENANT, "other", b"\xab" * BS)
        stack.gateway.rebind_target(TENANT, target, other)
        assert stack.gateway.target_read(node, target, 0, BS) == b"\xab" * BS
        # old image is released, new one held
        stack.images.delete_image(TENANT, image)
        with pytest.raises(ImageInUse):
            stack.images.delete_image(TENANT, other)

    def test_rebind_onto_an_exported_image_is_refused(self, rig):
        stack, image, node, target = rig
        other = stack.images.import_image(TENANT, "other", b"\x02" * BS)
        other_target = stack.gateway.create_target(TENANT, other, {node})
        with pytest.raises(AlreadyExported):
            stack.gateway.rebind_target(TENANT, target, other)
        assert stack.gateway.get(target).image == image
        assert stack.images.get(other).exporter == other_target
        stack.gateway.delete_target(TENANT, other_target)
        with pytest.raises(ImageInUse):  # still held by its own target
            stack.images.delete_image(TENANT, image)

    def test_rebind_preserves_counters(self, rig):
        stack, image, node, target = rig
        stack.gateway.target_read(node, target, 0, 64)
        other = stack.images.import_image(TENANT, "other", b"\x01" * BS)
        stack.gateway.rebind_target(TENANT, target, other)
        assert stack.gateway.get_traffic(target).bytes_read == 64


class TestConcurrency:
    def test_parallel_io_on_distinct_targets(self, rig):
        stack, image, node, target = rig
        nodes, targets = [node], [target]
        for i in range(5):
            stack.pool.register_node(f"02:00:00:00:10:{i:02x}")
        for i in range(5):
            img = stack.images.import_image(TENANT, f"img{i}", bytes([i + 1]) * 8 * BS)
            n = stack.pool.allocate_node(TENANT)
            stack.pool.attach_network(n, TENANT)
            targets.append(stack.gateway.create_target(TENANT, img, {n}))
            nodes.append(n)
        errors = []

        def hammer(n, t, marker):
            try:
                for k in range(40):
                    stack.gateway.target_write(n, t, (k % 8) * BS, bytes([marker]) * BS)
                    got = stack.gateway.target_read(n, t, (k % 8) * BS, BS)
                    assert got == bytes([marker]) * BS
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(n, t, i + 10))
                   for i, (n, t) in enumerate(zip(nodes, targets))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_shared_io_writers_on_one_block_lose_nothing(self, rig):
        # writes share the target's io lock; the store's image lock must
        # still serialize the read-modify-write of a shared block
        stack, image, node, target = rig
        workers, rounds, span = 8, 25, BS // 8
        errors = []

        def hammer(i):
            try:
                for k in range(rounds):
                    marker = bytes([i * rounds + k]) * span
                    stack.gateway.target_write(node, target, i * span, marker)
                    assert stack.gateway.target_read(node, target, i * span, span) == marker
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        block = stack.gateway.target_read(node, target, 0, BS)
        assert block == b"".join(bytes([i * rounds + rounds - 1]) * span for i in range(workers))
        counters = stack.gateway.get_traffic(target)
        assert counters.write_ops == workers * rounds
        assert counters.bytes_written == workers * rounds * span
        assert counters.read_ops == workers * rounds + 1
        assert counters.bytes_read == workers * rounds * span + BS

    def test_write_waiting_behind_a_snapshot_lands_on_the_disk(self, stack):
        # the snapshot holds the disk's write lock across its copy-up and
        # commit; a write queued behind it lands on the disk, not the snapshot
        image = stack.images.import_image(TENANT, "base", bytes(16 * BS))
        rec = stack.provision(TENANT, image)
        stack.gateway.target_write(rec.node, rec.target, 0, b"old!")
        real_copy_up = stack.images._copy_up
        inside, leave = threading.Event(), threading.Event()

        def paused(image, chain):
            inside.set()  # the snapshot holds the disk from here on
            leave.wait(timeout=5)
            return real_copy_up(image, chain)

        stack.images._copy_up = paused
        snaps, errors = [], []
        snapper = threading.Thread(
            target=lambda: snaps.append(stack.snapshot(TENANT, rec.node, "cp")))
        snapper.start()
        assert inside.wait(timeout=5)

        def write():
            try:
                stack.gateway.target_write(rec.node, rec.target, 0, b"new!")
            except Exception as exc:
                errors.append(exc)

        writer = threading.Thread(target=write)
        writer.start()
        writer.join(timeout=0.3)
        assert writer.is_alive()  # held off by the snapshot
        leave.set()
        snapper.join(timeout=5)
        writer.join(timeout=5)
        assert not snapper.is_alive() and not writer.is_alive()
        assert errors == []
        assert stack.gateway.get(rec.target).image == rec.clone_image
        assert stack.images.read_range(rec.clone_image, 0, 4) == b"new!"
        assert stack.images.read_range(snaps[0], 0, 4) == b"old!"
        assert stack.verify_invariants() == []

    def test_writers_racing_snapshots_lose_nothing(self, stack):
        # writers keep writing until every snapshot is done, so some of them
        # queue behind a snapshot's hold on the disk
        image = stack.images.import_image(TENANT, "base", bytes(16 * BS))
        rec = stack.provision(TENANT, image)
        workers, span = 4, 16
        errors, last = [], {}
        done = threading.Event()

        def hammer(i):
            try:
                k = 0
                while not done.is_set() or k < 10:
                    k += 1
                    last[i] = bytes([k % 251 + 1]) * span
                    stack.gateway.target_write(rec.node, rec.target, i * BS, last[i])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def snapshots():
            try:
                for n in range(5):
                    stack.snapshot(TENANT, rec.node, f"cp{n}")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                done.set()

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(workers)]
            threads.append(threading.Thread(target=snapshots))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            done.set()
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for i in range(workers):
            assert stack.gateway.target_read(rec.node, rec.target, i * BS, span) == last[i]
        assert stack.verify_invariants() == []

    @pytest.mark.parametrize("depth", [1, 4])
    def test_guest_io_lock_count_per_chain_depth(self, stack, monkeypatch, depth):
        # a guest request locks only the image it names, never its ancestors
        image = stack.images.import_image(TENANT, "base", bytes(4 * BS))
        for i in range(depth - 1):
            image = stack.images.linked_clone(TENANT, image, f"l{i}")
        assert len(stack.images.get(image).chain) == depth
        node = stack.pool.allocate_node(TENANT)
        stack.pool.attach_network(node, TENANT)
        target = stack.gateway.create_target(TENANT, image, {node})
        counts = {"read": 0, "write": 0}
        real_read, real_write = RWLock.acquire_read, RWLock.acquire_write

        def counted(kind, real):
            def acquire(lock):
                counts[kind] += 1
                real(lock)
            return acquire

        monkeypatch.setattr(RWLock, "acquire_read", counted("read", real_read))
        monkeypatch.setattr(RWLock, "acquire_write", counted("write", real_write))
        stack.gateway.target_read(node, target, 0, BS)
        assert counts == {"read": 1, "write": 0}
        stack.gateway.target_write(node, target, 0, b"x")
        assert counts == {"read": 1, "write": 1}


class TestWireFormat:
    def test_read_request_golden_bytes(self):
        frame = encode_read_request("iqn.2025-01.org.metalforge:t1:img-000001", 4096, 512)
        expect = (
            b"\x00\x00\x007"      # record length 55
            b"\x00"                # op=read
            b"\x00("               # name length 40
            b"iqn.2025-01.org.metalforge:t1:img-000001"
            b"\x00\x00\x00\x00\x00\x00\x10\x00"  # offset 4096
            b"\x00\x00\x02\x00"    # read length 512
        )
        assert frame == expect
        assert decode_request(frame) == {
            "op": OP_READ,
            "target": "iqn.2025-01.org.metalforge:t1:img-000001",
            "offset": 4096,
            "length": 512,
        }

    def test_write_request_golden_bytes(self):
        frame = encode_write_request("iqn.2025-01.org.metalforge:t1:img-000001", 8, b"\xca\xfe")
        expect = (
            b"\x00\x00\x005"      # record length 53
            b"\x01"                # op=write
            b"\x00("
            b"iqn.2025-01.org.metalforge:t1:img-000001"
            b"\x00\x00\x00\x00\x00\x00\x00\x08"
            b"\xca\xfe"
        )
        assert frame == expect
        req = decode_request(frame)
        assert req["op"] == OP_WRITE and req["payload"] == b"\xca\xfe"

    def test_response_golden_bytes(self):
        assert encode_response(STATUS_OK, b"data") == b"\x00\x00\x00\x05\x00data"
        assert decode_response(b"\x00\x00\x00\x05\x00data") == (STATUS_OK, b"data")

    @settings(max_examples=50, deadline=None)
    @given(offset=st.integers(0, 2**64 - 1), length=st.integers(0, 2**32 - 1),
           name=st.text(alphabet="abcdefghij.:x-", min_size=1, max_size=64))
    def test_read_request_roundtrip(self, offset, length, name):
        req = decode_request(encode_read_request(name, offset, length))
        assert req == {"op": OP_READ, "target": name, "offset": offset, "length": length}

    @settings(max_examples=50, deadline=None)
    @given(offset=st.integers(0, 2**64 - 1), payload=st.binary(max_size=256))
    def test_write_request_roundtrip(self, offset, payload):
        req = decode_request(encode_write_request("iqn.x:t:i", offset, payload))
        assert req["offset"] == offset and req["payload"] == payload

    @pytest.mark.parametrize("frame", [
        b"\x00\x00\x00\x01\x00",                  # no name length
        b"\x00\x00\x00\x04\x07\x00\x00\x00",      # no offset
        encode_read_request("?", 0, 1).replace(b"?", b"\xff"),  # name not UTF-8
    ])
    def test_session_answers_an_undecodable_frame(self, rig, frame):
        stack, image, node, target = rig
        with pytest.raises(ValueError):
            decode_request(frame)
        status, payload = decode_response(stack.gateway.session(node).submit(frame))
        assert status != STATUS_OK and payload == b"InvalidRequest"
        assert error_by_code(payload.decode()) is InvalidRequest

    def test_session_round_trip_and_errors(self, rig):
        stack, image, node, target = rig
        session = stack.gateway.session(node)
        session.write(target, 0, b"wire")
        assert session.read(target, 0, 4) == b"wire"
        status, payload = decode_response(
            session.submit(encode_read_request("iqn.2025-01.org.metalforge:t1:gone", 0, 1)))
        assert status != STATUS_OK and payload == b"TargetGone"
        with pytest.raises(TargetGone):
            session.read("iqn.2025-01.org.metalforge:t1:gone", 0, 1)


def test_session_errors_keep_their_code(rig, monkeypatch):
    # a code with no status byte of its own still reaches the client intact
    stack, image, node, target = rig

    def fails(self, image_id, offset, data):
        raise StorageFailure("injected")

    monkeypatch.setattr(ImageStore, "write_range", fails)
    with pytest.raises(StorageFailure):
        stack.gateway.target_write(node, target, 0, b"late")
    with pytest.raises(StorageFailure):
        stack.gateway.session(node).write(target, 0, b"late")


def test_a_failing_pread_is_a_storage_failure(rig, monkeypatch):
    stack, image, node, target = rig
    session = stack.gateway.session(node)
    assert session.read(target, 0, 4)  # the layer file is open

    def io_error(fd, length, offset):
        raise OSError("Input/output error")

    monkeypatch.setattr(os, "pread", io_error)
    with pytest.raises(StorageFailure):
        session.read(target, 0, 4)
