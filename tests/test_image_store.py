import random
import sys
import threading
import time

import pytest

from metalforge.errors import (
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
from metalforge.image_store import BlockFile, ImageKind, ImageStore, StoreConfig
from metalforge.journal import Journal

BS = 4096
MIB = 1024 * 1024


class _SparseStream:
    """File-like stream of `size` bytes: a data head, zeros after. Lets the
    big-import tests run without holding the whole stream in memory."""

    def __init__(self, head: bytes, size: int):
        self.head = head
        self.size = size
        self.pos = 0

    def read(self, n: int) -> bytes:
        n = min(n, self.size - self.pos)
        if n <= 0:
            return b""
        chunk = self.head[self.pos : self.pos + n]
        chunk = chunk + bytes(n - len(chunk))
        self.pos += n
        return chunk


class _FailingStream:
    """Stream whose second read fails, as a dropped upload would."""

    def __init__(self):
        self.reads = 0

    def read(self, n: int) -> bytes:
        self.reads += 1
        if self.reads == 2:
            raise OSError("connection reset")
        return b"\x01" * n


def test_store_config_validation():
    with pytest.raises(ValueError):
        StoreConfig(block_size=1000)
    with pytest.raises(ValueError):
        StoreConfig(block_size=4096 * 3)
    with pytest.raises(ValueError):
        StoreConfig(max_chain_depth=1)
    StoreConfig(block_size=4096, max_chain_depth=2)


class TestCreate:
    def test_empty_image_reads_zeros(self, store):
        image = store.create_image("t1", "rhel71", 64 * BS)
        assert store.read_range(image, 0, 64 * BS) == bytes(64 * BS)
        assert store.read_range(image, 1234, 10) == bytes(10)

    def test_duplicate_name_rejected(self, store):
        store.create_image("t1", "rhel71", BS)
        with pytest.raises(DuplicateName):
            store.create_image("t1", "rhel71", BS)

    def test_same_name_ok_across_tenants(self, store):
        store.create_image("t1", "rhel71", BS)
        store.create_image("t2", "rhel71", BS)

    def test_zero_size_rejected(self, store):
        with pytest.raises(InvalidSize):
            store.create_image("t1", "x", 0)

    def test_unaligned_virtual_size_allowed(self, store):
        image = store.create_image("t1", "odd", 3 * BS + 17)
        assert store.get(image).virtual_size == 3 * BS + 17
        with pytest.raises(OutOfBounds):
            store.read_range(image, 3 * BS + 10, 8)
        assert store.read_range(image, 3 * BS, 17) == bytes(17)


class TestImport:
    @pytest.mark.parametrize("size", [1, BS - 1, BS, BS + 1, 3 * BS, 10 * BS + 100])
    def test_round_trip(self, store, size):
        payload = random.Random(size).randbytes(size)
        image = store.import_image("t1", f"img{size}", payload)
        exported = store.export_image("t1", image)
        assert exported[:size] == payload
        assert exported[size:] == bytes(len(exported) - size)
        assert len(exported) % BS == 0

    def test_one_byte_stream_pads_to_block(self, store):
        image = store.import_image("t1", "img", b"\x42")
        rec = store.get(image)
        assert rec.virtual_size == BS
        assert store.read_range(image, 0, 1) == b"\x42"
        assert store.read_range(image, 1, BS - 1) == bytes(BS - 1)

    def test_empty_stream_rejected(self, store):
        with pytest.raises(InvalidSize):
            store.import_image("t1", "img", b"")
        assert store.orphan_layer_files() == []

    def test_failed_stream_leaves_no_layer(self, store):
        with pytest.raises(StorageFailure):
            store.import_image("t1", "img", _FailingStream())
        assert store.orphan_layer_files() == []
        assert store.records() == []  # no record, so no layer is held
        assert store.find_by_name("t1", "img") is None

    def test_zero_blocks_not_stored(self, store, tmp_path):
        data = bytes(BS) + b"\x01" * BS + bytes(BS)
        image = store.import_image("t1", "img", data)
        layer = store.get(image).layer
        assert set(layer.indices) == {1}

    def test_clone_cost_does_not_scale_with_parent_size(self, store):
        # import cost grows with the stream; linked_clone stays metadata-only
        times = {}
        for mib in (8, 64, 512):
            head = random.Random(mib).randbytes(4 * BS)
            parent = store.import_image("t1", f"img{mib}",
                                        _SparseStream(head, mib * MIB))
            assert store.get(parent).virtual_size == mib * MIB
            before = store.stats()
            t0 = time.perf_counter()
            store.linked_clone("t1", parent, f"clone{mib}")
            times[mib] = time.perf_counter() - t0
            after = store.stats()
            assert after.blocks_copied == before.blocks_copied
            assert after.blocks_ingested == before.blocks_ingested
        # metadata-only: even the 512 MiB parent clones in near-constant time
        assert times[512] < max(5 * times[8], times[8] + 0.05)


class TestLinkedClone:
    def test_clone_transfers_zero_blocks(self, store):
        parent = store.import_image("t1", "base", random.Random(2).randbytes(32 * BS))
        before = store.stats()
        clone = store.linked_clone("t1", parent, "c1")
        after = store.stats()
        assert after.blocks_copied == before.blocks_copied == 0
        assert store._layer_path(clone).exists() is False  # no data written at all

    def test_cow_read_through(self, store):
        payload = random.Random(3).randbytes(8 * BS)
        parent = store.import_image("t1", "base", payload)
        clone = store.linked_clone("t1", parent, "c1")
        for offset, length in ((0, 100), (BS - 10, 20), (5 * BS, 3 * BS)):
            assert store.read_range(clone, offset, length) == payload[offset : offset + length]

    def test_24_clones_of_one_parent(self, store):
        parent = store.import_image("t1", "base", b"\x01" * BS)
        for i in range(24):
            store.linked_clone("t1", parent, f"c{i}")
        assert store.get(parent).child_count == 24

    def test_unreadable_parent_denied(self, store):
        parent = store.create_image("t1", "base", BS)
        with pytest.raises(AccessDenied):
            store.linked_clone("t2", parent, "c1")

    def test_shared_parent_clonable(self, store):
        parent = store.create_image("t1", "base", BS)
        store.share_image("t1", parent, "t2")
        clone = store.linked_clone("t2", parent, "c1")
        assert store.get(clone).tenant == "t2"

    def test_missing_parent(self, store):
        with pytest.raises(NotFound):
            store.linked_clone("t1", "img-999999", "c1")

    def test_chain_depth_limit(self, tmp_path):
        st = ImageStore.open(tmp_path / "st", StoreConfig(block_size=BS, max_chain_depth=3))
        image = st.create_image("t1", "base", BS)
        image = st.linked_clone("t1", image, "c1")
        image = st.linked_clone("t1", image, "c2")
        with pytest.raises(ChainTooDeep):
            st.linked_clone("t1", image, "c3")
        st.close()


class TestWrite:
    def test_one_byte_write_materializes_one_block(self, store):
        payload = random.Random(4).randbytes(8 * BS)
        parent = store.import_image("t1", "base", payload)
        clone = store.linked_clone("t1", parent, "c1")
        store.write_range(clone, 3 * BS + 100, b"\xff")
        assert set(store.get(clone).layer.indices) == {3}
        # parent untouched, read-modify-write merged correctly
        assert store.export_image("t1", parent) == payload
        expect = bytearray(payload)
        expect[3 * BS + 100] = 0xFF
        assert store.export_image("t1", clone) == bytes(expect)

    def test_boundary_spanning_write_materializes_two_blocks(self, store):
        parent = store.create_image("t1", "base", 8 * BS)
        clone = store.linked_clone("t1", parent, "c1")
        store.write_range(clone, 2 * BS - 5, b"\xaa" * 10)
        assert set(store.get(clone).layer.indices) == {1, 2}

    def test_write_beyond_end_rejected(self, store):
        image = store.create_image("t1", "img", 2 * BS)
        with pytest.raises(OutOfBounds):
            store.write_range(image, 2 * BS - 1, b"\x00\x00")

    def test_parent_with_children_immutable(self, store):
        parent = store.create_image("t1", "base", 2 * BS)
        store.write_range(parent, 0, b"ok")
        store.linked_clone("t1", parent, "c1")
        with pytest.raises(ImmutableImage):
            store.write_range(parent, 0, b"no")

    def test_snapshot_kind_immutable(self, store):
        parent = store.create_image("t1", "base", 2 * BS)
        clone = store.linked_clone("t1", parent, "c1")
        store.flatten(clone)
        with pytest.raises(ImmutableImage):
            store.write_range(clone, 0, b"no")


class TestFlatten:
    def _chain(self, store):
        rng = random.Random(5)
        base = store.import_image("t1", "base", rng.randbytes(16 * BS))
        mid = store.linked_clone("t1", base, "mid")
        store.write_range(mid, 2 * BS, rng.randbytes(BS))
        top = store.linked_clone("t1", mid, "top")
        store.write_range(top, 4 * BS + 7, rng.randbytes(2 * BS))
        return base, mid, top

    def test_content_identical_across_flatten(self, store):
        base, mid, top = self._chain(store)
        before = store.export_image("t1", top)
        store.flatten(top)
        rec = store.get(top)
        assert rec.kind is ImageKind.SNAPSHOT and rec.parent is None
        assert store.export_image("t1", top) == before
        assert store.get(mid).child_count == 0

    def test_flatten_isolates_from_former_parent(self, store):
        base, mid, top = self._chain(store)
        before = store.export_image("t1", top)
        store.flatten(top)
        store.write_range(mid, 0, b"\xde\xad" * BS)  # mid is childless again
        assert store.export_image("t1", top) == before

    def test_flatten_cost_tracks_materialized_blocks(self, store):
        base, mid, top = self._chain(store)
        before = store.stats()
        copied = store.flatten(top)
        after = store.stats()
        assert copied > 0
        assert after.blocks_copied - before.blocks_copied == copied
        assert after.flatten_ops - before.flatten_ops == 1

    def test_flatten_golden_rejected(self, store):
        image = store.create_image("t1", "img", BS)
        with pytest.raises(NotAClone):
            store.flatten(image)


class TestDeepCopy:
    def test_copy_is_independent(self, store):
        src = store.import_image("t1", "src", random.Random(6).randbytes(4 * BS))
        dup = store.deep_copy("t1", src, "dup")
        store.write_range(src, 0, b"\x99" * BS)
        assert store.export_image("t1", dup) != store.export_image("t1", src)

    def test_copy_of_chain_matches_resolved_view(self, store):
        rng = random.Random(7)
        base = store.import_image("t1", "base", rng.randbytes(8 * BS))
        clone = store.linked_clone("t1", base, "c1")
        store.write_range(clone, BS, rng.randbytes(2 * BS))
        view = store.export_image("t1", clone)
        dup = store.deep_copy("t1", clone, "dup")
        rec = store.get(dup)
        assert rec.parent is None and rec.kind is ImageKind.GOLDEN
        assert store.export_image("t1", dup) == view

    def test_failed_copy_leaves_no_layer_and_releases_source(self, store, monkeypatch):
        src = store.import_image("t1", "src", random.Random(8).randbytes(4 * BS))

        def broken(self, index, payload):
            raise OSError("disk full")

        monkeypatch.setattr(BlockFile, "write_block", broken)
        with pytest.raises(StorageFailure):
            store.deep_copy("t1", src, "dup")
        monkeypatch.undo()
        assert store.orphan_layer_files() == []
        assert store.find_by_name("t1", "dup") is None
        # the walk's read locks on the source are gone: a write gets through
        writer = threading.Thread(target=store.write_range, args=(src, 0, b"\x07"))
        writer.start()
        writer.join(timeout=5)
        assert not writer.is_alive()
        assert store.read_range(src, 0, 1) == b"\x07"

    def test_virtual_size_preserved_exactly(self, store):
        src = store.create_image("t1", "odd", 5 * BS + 123)
        dup = store.deep_copy("t1", src, "dup")
        assert store.get(dup).virtual_size == 5 * BS + 123


class TestChainPinning:
    """Chain P <- X <- D. Once X is flattened, P has no child left and can
    be written; a block operation on D that read D's chain before the
    flatten must lock D's new chain, not the old one."""

    def _chain(self, store):
        p = store.create_image("t1", "P", 4 * BS)
        x = store.linked_clone("t1", p, "X")
        d = store.linked_clone("t1", x, "D")
        return p, x, d

    def _flatten_in_window(self, store, p, x):
        """For one call, X's read lock first flattens X and writes block 2
        of P; only an operation that already read D's chain gets there."""
        lock = store.get(x).lock
        real = lock.acquire_read

        def late():
            lock.acquire_read = real
            store.flatten(x)
            store.write_range(p, 2 * BS, b"LATE" * (BS // 4))
            real()

        lock.acquire_read = late

    def test_read_sees_the_chain_after_a_flatten(self, store):
        p, x, d = self._chain(store)
        self._flatten_in_window(store, p, x)
        assert store.read_range(d, 2 * BS, 8) == bytes(8)
        assert store.get(x).kind is ImageKind.SNAPSHOT  # the window was hit

    def test_write_merges_over_the_chain_after_a_flatten(self, tmp_path):
        st = ImageStore.open(tmp_path / "st", StoreConfig(block_size=BS))
        p, x, d = self._chain(st)
        self._flatten_in_window(st, p, x)
        st.write_range(d, 2 * BS, b"ok")
        assert st.get(x).kind is ImageKind.SNAPSHOT
        assert st.read_range(d, 2 * BS, BS) == b"ok" + bytes(BS - 2)
        st.close()
        st = ImageStore.open(tmp_path / "st", StoreConfig(block_size=BS))
        assert st.read_range(d, 2 * BS, BS) == b"ok" + bytes(BS - 2)
        assert st.check_integrity() == []
        st.close()

    def test_deep_copy_sees_the_chain_after_a_flatten(self, store):
        p, x, d = self._chain(store)
        self._flatten_in_window(store, p, x)
        dup = store.deep_copy("t1", d, "dup")
        assert store.get(x).kind is ImageKind.SNAPSHOT
        assert store.export_image("t1", dup) == bytes(4 * BS)

    def test_flatten_waits_for_a_read_through_the_ancestor(self, store, monkeypatch):
        p = store.import_image("t1", "P", b"\x01" * BS)
        x = store.linked_clone("t1", p, "X")
        d = store.linked_clone("t1", x, "D")
        inside, leave = threading.Event(), threading.Event()
        real = BlockFile.read_block

        def paused(self, index):
            if self.path.stem == p and not inside.is_set():
                inside.set()  # only the first read of P pauses: D's
                leave.wait(5)
            return real(self, index)

        monkeypatch.setattr(BlockFile, "read_block", paused)
        got = []
        reader = threading.Thread(target=lambda: got.append(store.read_range(d, 0, 4)))
        reader.start()
        assert inside.wait(5)
        flattener = threading.Thread(target=store.flatten, args=(x,))
        flattener.start()
        flattener.join(timeout=0.2)
        assert flattener.is_alive()  # X's read lock, held by D's read, holds it off
        assert store.get(x).kind is ImageKind.CLONE
        leave.set()
        reader.join(timeout=5)
        flattener.join(timeout=5)
        assert not reader.is_alive() and not flattener.is_alive()
        assert got == [b"\x01" * 4]
        assert store.get(x).kind is ImageKind.SNAPSHOT
        assert store.read_range(d, 0, 4) == b"\x01" * 4


    def test_readers_racing_a_flatten_and_first_loads(self, tmp_path, monkeypatch):
        """Readers of D on a freshly reopened store (no layer loaded yet)
        while X is flattened and P is then rewritten: every read sees D's
        view, and each layer file is loaded once."""
        st = ImageStore.open(tmp_path / "st", StoreConfig(block_size=BS))
        p = st.import_image("t1", "P", random.Random(11).randbytes(4 * BS))
        x = st.linked_clone("t1", p, "X")
        st.write_range(x, BS, b"x" * BS)
        d = st.linked_clone("t1", x, "D")
        st.write_range(d, 3 * BS, b"d" * 7)
        view = st.export_image("t1", d)
        st.close()
        st = ImageStore.open(tmp_path / "st", StoreConfig(block_size=BS))
        loaded = []
        real_scan = BlockFile._scan

        def counted_scan(self):
            loaded.append(self.path.stem)
            time.sleep(0.01)  # widens the window in which other readers arrive
            real_scan(self)

        monkeypatch.setattr(BlockFile, "_scan", counted_scan)
        start = threading.Barrier(7)  # six readers and this thread
        seen, errors = [], []

        def reader():
            try:
                start.wait(timeout=10)
                for _ in range(30):
                    seen.append(st.read_range(d, 0, 4 * BS))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=reader) for _ in range(6)]
            for t in readers:
                t.start()
            start.wait(timeout=10)
            st.flatten(x)
            for i in range(20):
                st.write_range(p, (i % 4) * BS, bytes([i]) * BS)
            for t in readers:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in readers)
        assert errors == []
        assert len(seen) == 6 * 30 and all(got == view for got in seen)
        assert sorted(loaded) == sorted({p, x, d})
        st.close()


class TestDelete:
    def test_delete_with_children_rejected(self, store):
        parent = store.create_image("t1", "base", BS)
        store.linked_clone("t1", parent, "c1")
        with pytest.raises(HasChildren):
            store.delete_image("t1", parent)

    def test_delete_clone_keeps_parent_intact(self, store):
        payload = random.Random(8).randbytes(4 * BS)
        parent = store.import_image("t1", "base", payload)
        clone = store.linked_clone("t1", parent, "c1")
        store.write_range(clone, 0, b"\x01")
        store.delete_image("t1", clone)
        assert store.get(parent).child_count == 0
        assert store.export_image("t1", parent) == payload
        assert not store._layer_path(clone).exists()

    def test_delete_exported_image_rejected(self, store):
        image = store.create_image("t1", "img", BS)
        store.acquire_use(image, "some-target")
        with pytest.raises(ImageInUse):
            store.delete_image("t1", image)
        store.release_use(image, "some-target")
        store.delete_image("t1", image)

    def test_image_ids_never_reused(self, store):
        first = store.create_image("t1", "a", BS)
        store.delete_image("t1", first)
        second = store.create_image("t1", "b", BS)
        assert second != first

    def test_foreign_delete_denied(self, store):
        image = store.create_image("t1", "img", BS)
        with pytest.raises(AccessDenied):
            store.delete_image("t2", image)


class TestListRenameShareExport:
    def test_share_makes_image_visible(self, store):
        image = store.create_image("t1", "img", BS)
        assert store.list_images("t2") == []
        store.share_image("t1", image, "t2")
        visible = store.list_images("t2")
        assert [r.id for r in visible] == [image]
        # read-only for the grantee
        with pytest.raises(AccessDenied):
            store.rename_image("t2", image, "mine")
        with pytest.raises(AccessDenied):
            store.delete_image("t2", image)

    def test_rename_preserves_id_and_content(self, store):
        payload = b"\x05" * BS
        image = store.import_image("t1", "old", payload)
        store.rename_image("t1", image, "new")
        rec = store.get(image)
        assert rec.name == "new" and rec.id == image
        assert store.export_image("t1", image) == payload

    def test_rename_to_taken_name_rejected(self, store):
        store.create_image("t1", "a", BS)
        image = store.create_image("t1", "b", BS)
        with pytest.raises(DuplicateName):
            store.rename_image("t1", image, "a")

    def test_export_requires_visibility(self, store):
        image = store.create_image("t1", "img", BS)
        with pytest.raises(AccessDenied):
            store.export_image("t2", image)


class TestPersistence:
    def test_reopen_preserves_everything(self, tmp_path):
        rng = random.Random(9)
        st = ImageStore.open(tmp_path / "st", StoreConfig(block_size=BS))
        payload = rng.randbytes(16 * BS)
        base = st.import_image("t1", "base", payload)
        clone = st.linked_clone("t1", base, "c1")
        patch = rng.randbytes(3 * BS)
        st.write_range(clone, 5 * BS, patch)
        st.share_image("t1", base, "t2")
        view = st.export_image("t1", clone)
        st.close()

        st2 = ImageStore.open(tmp_path / "st", StoreConfig(block_size=BS))
        assert st2.export_image("t1", clone) == view
        assert st2.export_image("t2", base) == payload
        assert st2.get(base).child_count == 1
        assert st2.check_integrity() == []
        st2.close()

    def test_orphan_layer_cleanup(self, tmp_path):
        st = ImageStore.open(tmp_path / "st", StoreConfig(block_size=BS))
        image = st.create_image("t1", "img", BS)
        stray = st.root / "blocks" / "img-009999.sparse"
        stray.parent.mkdir(parents=True, exist_ok=True)
        stray.write_bytes(b"garbage")
        st.close()
        st2 = ImageStore.open(tmp_path / "st", StoreConfig(block_size=BS))
        assert not stray.exists()
        assert st2.exists(image)
        st2.close()

    def test_torn_block_record_keeps_previous_version(self, tmp_path):
        st = ImageStore.open(tmp_path / "st", StoreConfig(block_size=BS))
        image = st.create_image("t1", "img", 4 * BS)
        st.write_range(image, 0, b"\x11" * BS)
        st.write_range(image, 0, b"\x22" * BS)
        layer_path = st._layer_path(image)
        st.close()
        # tear the middle of the last (rewrite) record
        data = layer_path.read_bytes()
        layer_path.write_bytes(data[: len(data) - BS // 2])
        st2 = ImageStore.open(tmp_path / "st", StoreConfig(block_size=BS))
        assert st2.read_range(image, 0, BS) == b"\x11" * BS
        st2.close()

    def test_close_closes_only_a_journal_the_store_opened(self, tmp_path):
        st = ImageStore.open(tmp_path / "st", StoreConfig(block_size=BS))
        st.create_image("t1", "img", BS)
        st.close()
        with pytest.raises(RuntimeError):  # closed: nothing can be appended
            st.journal.append({"type": "image.probe"})

        shared = Journal(tmp_path / "shared" / "journal.log")
        st2 = ImageStore(tmp_path / "shared", shared, StoreConfig(block_size=BS))
        shared.replay()
        st2.create_image("t1", "img", BS)
        st2.close()
        assert shared.append({"type": "image.probe"}) == 2  # still open
        shared.close()


def test_integrity_clean_after_mixed_ops(store):
    rng = random.Random(10)
    base = store.import_image("t1", "base", rng.randbytes(8 * BS))
    c1 = store.linked_clone("t1", base, "c1")
    c2 = store.linked_clone("t1", c1, "c2")
    store.write_range(c2, 0, b"\x01")
    store.flatten(c2)
    store.deep_copy("t1", c2, "dup")
    store.delete_image("t1", c2)
    assert store.check_integrity() == []
