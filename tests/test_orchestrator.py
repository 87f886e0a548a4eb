import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import pytest

from conftest import SMALL_BLOCKS, build_stack, scan_artifacts
from metalforge.errors import (
    AccessDenied,
    DuplicateName,
    ImageInUse,
    InvalidRequest,
    NodeNotFailed,
    NotFound,
    PoolExhausted,
    RollbackReport,
    StorageFailure,
)
from metalforge.image_store import ImageKind
from metalforge.journal import Journal
from metalforge.orchestrator import STATE_EDGES, Orchestrator, ProvisionState, StackConfig

BS = 4096
T1, T2 = "t1", "t2"


def seed_image(stack, tenant=T1, name="base", blocks=16, seed=0):
    return stack.images.import_image(tenant, name,
                                     random.Random(seed).randbytes(blocks * BS))


def import_under_name(stack, image):
    """The tenant imports a new image under the name it is given."""
    return lambda name: seed_image(stack, name=name, seed=1)


def rename_kept_disk(stack, image):
    """The tenant renames a disk it kept, a child of ``image``, to the name
    it is given."""
    kept = stack.provision(T1, image, node="node-001")
    stack.deprovision(T1, kept.node, keep_image=True)

    def take(name):
        stack.images.rename_image(T1, kept.clone_image, name)
        return kept.clone_image
    return take


class TestProvision:
    def test_happy_path_builds_everything(self, stack):
        image = seed_image(stack)
        rec = stack.provision(T1, image)
        assert rec.state is ProvisionState.READY
        assert stack.images.get(rec.clone_image).parent == image
        assert stack.gateway.get(rec.target).image == rec.clone_image
        mac = stack.pool.get(rec.node).mac
        assert stack.netboot.lookup_boot(mac).target == rec.target
        assert stack.pool.network_of(rec.node) == T1
        assert stack.verify_invariants() == []

    def test_provision_copies_zero_blocks(self, stack):
        image = seed_image(stack)
        before = stack.images.stats()
        stack.provision(T1, image)
        after = stack.images.stats()
        assert after.blocks_copied == before.blocks_copied
        assert after.flatten_ops == before.flatten_ops

    def test_provision_unreadable_image_denied(self, stack):
        image = seed_image(stack)
        with pytest.raises(AccessDenied):
            stack.provision(T2, image)
        assert stack.verify_invariants() == []

    def test_pool_exhaustion_before_any_side_effect(self, tmp_path):
        stack = build_stack(tmp_path / "r", nodes=1)
        image = seed_image(stack)
        stack.provision(T1, image)
        with pytest.raises(PoolExhausted):
            stack.provision(T1, image)
        assert stack.verify_invariants() == []
        stack.close()

    def test_shared_image_provisionable_by_grantee(self, stack):
        image = seed_image(stack)
        stack.images.share_image(T1, image, T2)
        rec = stack.provision(T2, image)
        assert rec.tenant == T2
        assert stack.verify_invariants() == []


    def test_live_disk_is_not_a_provision_source(self, stack):
        rec = stack.provision(T1, seed_image(stack))
        with pytest.raises(ImageInUse):
            stack.provision(T1, rec.clone_image)
        assert stack.pool.counts()["allocated"] == 1  # refused before allocating
        assert stack.images.get(rec.clone_image).child_count == 0
        stack.gateway.target_write(rec.node, rec.target, 0, b"still writable")
        assert stack.verify_invariants() == []

    def test_live_disk_is_not_a_clone_parent(self, stack):
        rec = stack.provision(T1, seed_image(stack))
        with pytest.raises(ImageInUse):
            stack.images.linked_clone(T1, rec.clone_image, "child")
        assert stack.images.find_by_name(T1, "child") is None
        assert stack.images.get(rec.clone_image).child_count == 0
        stack.gateway.target_write(rec.node, rec.target, 0, b"still writable")
        assert stack.verify_invariants() == []


class TestRollback:
    @pytest.mark.parametrize("failing_step", ["clone", "export", "configure", "attach"])
    def test_each_step_failure_compensates_fully(self, stack, failing_step):
        image = seed_image(stack)
        free_before = stack.pool.counts()["free"]
        images_before = {r.id for r in stack.images.records()}

        def hook(step, node):
            if step == failing_step:
                raise StorageFailure(f"injected at {step}")

        stack.fault_hook = hook
        with pytest.raises(RollbackReport) as err:
            stack.provision(T1, image)
        stack.fault_hook = None
        assert err.value.failing_step == failing_step
        assert err.value.cause_code == "StorageFailure"
        assert stack.pool.counts()["free"] == free_before
        assert {r.id for r in stack.images.records()} == images_before
        assert stack.gateway.targets() == []
        assert stack.netboot.configured_macs() == []
        assert stack.records() == []
        assert stack.verify_invariants() == []
        # the record went through rolled_back before removal
        steps = [r for r in Journal.read_records(stack.journal.path) if r["type"] == "prov.step"]
        assert steps[-1]["state"] == "rolled_back"

    def test_rollback_spares_image_holding_the_clone_name(self, stack):
        image = seed_image(stack)
        stack.deprovision(T1, stack.provision(T1, image, node="node-001").node)
        # the next provision of node-001 (seq 2) wants this name for its clone
        squatter = seed_image(stack, name="node-001-disk-2", seed=1)
        with pytest.raises(RollbackReport) as err:
            stack.provision(T1, image, node="node-001")
        assert (err.value.failing_step, err.value.cause_code) == ("clone", "DuplicateName")
        assert stack.images.get(squatter).name == "node-001-disk-2"
        assert stack.verify_invariants() == []

    def test_rollback_spares_image_that_took_the_clone_name_mid_flow(self, tmp_path):
        for takes_name in (import_under_name, rename_kept_disk):
            with closing(build_stack(tmp_path / takes_name.__name__)) as stack:
                image = seed_image(stack)
                take = takes_name(stack, image)
                taken = {}

                def hook(step, node):
                    if step == "clone":  # the tenant takes the name before the clone commits
                        taken["name"] = stack.get_record(T1, node).clone_name
                        taken["id"] = take(taken["name"])

                stack.fault_hook = hook
                with pytest.raises(RollbackReport) as err:
                    stack.provision(T1, image, node="node-001")
                stack.fault_hook = None
                assert (err.value.failing_step, err.value.cause_code) == ("clone", "DuplicateName")
                assert stack.images.get(taken["id"]).name == taken["name"], takes_name.__name__
                assert stack.verify_invariants() == []

    def test_rollback_then_retry_succeeds(self, stack):
        image = seed_image(stack)
        once = {"armed": True}

        def hook(step, node):
            if step == "export" and once.pop("armed", None):
                raise StorageFailure("injected")

        stack.fault_hook = hook
        with pytest.raises(RollbackReport):
            stack.provision(T1, image)
        rec = stack.provision(T1, image)
        assert rec.state is ProvisionState.READY
        assert stack.verify_invariants() == []


class TestDeprovision:
    def test_full_resource_sweep(self, stack):
        image = seed_image(stack)
        rec = stack.provision(T1, image)
        mac = stack.pool.get(rec.node).mac
        stack.deprovision(T1, rec.node)
        assert stack.records() == []
        assert stack.gateway.targets() == []
        assert scan_artifacts(stack.netboot, mac) == []
        assert not stack.images.exists(rec.clone_image)
        assert stack.pool.counts()["allocated"] == 0
        assert stack.verify_invariants() == []

    def test_keep_image_enables_reacquire(self, stack):
        image = seed_image(stack)
        rec = stack.provision(T1, image)
        marker = b"written-by-old-node"
        stack.gateway.target_write(rec.node, rec.target, 5 * BS, marker)
        stack.deprovision(T1, rec.node, keep_image=True)
        kept = rec.clone_image
        assert stack.images.exists(kept)
        rec2 = stack.provision(T1, kept)
        assert rec2.node != rec.node or True  # any free node is fine
        got = stack.gateway.target_read(rec2.node, rec2.target, 5 * BS, len(marker))
        assert got == marker
        assert stack.verify_invariants() == []

    def test_disk_with_children_stays_and_the_teardown_completes(self, tmp_path):
        stack = build_stack(tmp_path / "r")
        image = seed_image(stack)
        made = {}

        def hook(step, node):
            if step == "export":  # the clone exists but is not exported yet
                disk = stack.get_record(T1, node).clone_image
                stack.images.write_range(disk, 0, b"disk")
                made["child"] = stack.images.linked_clone(T1, disk, "child")

        stack.fault_hook = hook
        with pytest.raises(RollbackReport):
            stack.provision(T1, image)
        stack.fault_hook = None
        child = made["child"]
        assert stack.records() == [] and stack.gateway.targets() == []
        stack.close()
        stack = Orchestrator.open(tmp_path / "r", StackConfig(store=SMALL_BLOCKS))
        assert stack.verify_invariants() == []
        assert stack.images.read_range(child, 0, 4) == b"disk"
        stack.close()

    def test_retried_deprovision_finishes_the_teardown(self, tmp_path):
        stack = build_stack(tmp_path / "r")
        rec = stack.provision(T1, seed_image(stack))
        real = stack.gateway.delete_target
        failed = []

        def fails_once(tenant, name):
            if not failed:
                failed.append(name)
                raise StorageFailure("injected")
            return real(tenant, name)

        stack.gateway.delete_target = fails_once
        with pytest.raises(StorageFailure):
            stack.deprovision(T1, rec.node)
        assert stack.get_record(T1, rec.node).state is ProvisionState.DEPROVISIONING
        stack.deprovision(T1, rec.node)
        assert stack.records() == [] and not stack.images.exists(rec.clone_image)
        stack.close()
        stack = Orchestrator.open(tmp_path / "r", StackConfig(store=SMALL_BLOCKS))
        assert stack.records() == []
        assert stack.verify_invariants() == []
        stack.close()

    def test_recover_refuses_a_disk_being_deleted(self, stack):
        rec = stack.provision(T1, seed_image(stack))
        real = stack.gateway.delete_target

        def fails(tenant, name):
            raise StorageFailure("injected")

        stack.gateway.delete_target = fails
        with pytest.raises(StorageFailure):
            stack.deprovision(T1, rec.node)
        stack.gateway.delete_target = real
        stack.note_node_failed(rec.node)
        with pytest.raises(InvalidRequest):
            stack.recover(T1, rec.node)
        assert stack.images.exists(rec.clone_image)
        stack.deprovision(T1, rec.node)
        assert stack.records() == [] and stack.verify_invariants() == []

    def test_never_provisioned_node(self, stack):
        with pytest.raises(NotFound):
            stack.deprovision(T1, "node-001")

    def test_foreign_node_denied(self, stack):
        image = seed_image(stack)
        rec = stack.provision(T1, image)
        with pytest.raises(AccessDenied):
            stack.deprovision(T2, rec.node)
        assert stack.get_record(T1, rec.node).state is ProvisionState.READY


class TestSnapshot:
    def test_checkpoint_immutable_and_node_unchanged(self, stack):
        image = seed_image(stack)
        rec = stack.provision(T1, image)
        old_clone, old_target = rec.clone_image, rec.target
        stack.gateway.target_write(rec.node, rec.target, 0, b"pre-snapshot")
        view_before = stack.images.read_range(old_clone, 0, 16 * BS)

        snap = stack.snapshot(T1, rec.node, "checkpoint-1")
        rec2 = stack.get_record(T1, rec.node)
        assert rec2.clone_image == old_clone  # the node keeps its disk
        assert rec2.target == old_target  # same endpoint
        assert stack.gateway.get(old_target).image == old_clone
        assert stack.images.get(snap).kind is ImageKind.SNAPSHOT
        assert stack.images.get(snap).name == "checkpoint-1"
        # node sees identical bytes through the same target
        assert stack.gateway.target_read(rec.node, rec.target, 0, 16 * BS) == view_before

        stack.gateway.target_write(rec.node, rec.target, 0, b"post-snapshot!")
        assert stack.images.read_range(snap, 0, 12) == b"pre-snapshot"
        assert stack.verify_invariants() == []

    def test_write_after_snapshot_lands_on_the_fresh_clone(self, tmp_path):
        stack = build_stack(tmp_path / "r")
        rec = stack.provision(T1, seed_image(stack))
        stack.gateway.target_write(rec.node, rec.target, BS, b"before")
        snap = stack.snapshot(T1, rec.node, "cp")
        stack.gateway.target_write(rec.node, rec.target, BS, b"after!")
        stack.close()

        stack = Orchestrator.open(tmp_path / "r", StackConfig(store=SMALL_BLOCKS))
        fresh = stack.get_record(T1, rec.node).clone_image
        assert stack.gateway.get(rec.target).image == fresh
        assert stack.gateway.target_read(rec.node, rec.target, BS, 6) == b"after!"
        assert stack.images.read_range(fresh, BS, 6) == b"after!"
        assert stack.images.read_range(snap, BS, 6) == b"before"
        assert stack.verify_invariants() == []
        stack.close()

    def test_snapshot_costs_exactly_one_flatten(self, stack):
        image = seed_image(stack)
        rec = stack.provision(T1, image)
        before = stack.images.stats()
        stack.snapshot(T1, rec.node, "cp")
        after = stack.images.stats()
        assert after.flatten_ops - before.flatten_ops == 1
        assert after.deep_copy_ops == before.deep_copy_ops

    def test_three_nodes_from_snapshot_see_identical_content(self, tmp_path):
        stack = build_stack(tmp_path / "r", nodes=4)
        image = seed_image(stack)
        rec = stack.provision(T1, image)
        stack.gateway.target_write(rec.node, rec.target, BS, b"golden-state")
        snap = stack.snapshot(T1, rec.node, "golden-state")
        views = []
        for _ in range(3):
            r = stack.provision(T1, snap)
            views.append(stack.gateway.target_read(r.node, r.target, 0, 4 * BS))
        assert views[0] == views[1] == views[2]
        assert stack.images.get(snap).child_count == 4  # 3 new + the original node
        assert stack.verify_invariants() == []
        stack.close()

    def test_fresh_clone_keeps_the_disk_name(self, stack):
        rec = stack.provision(T1, seed_image(stack))
        disk = stack.images.get(rec.clone_image).name
        stack.snapshot(T1, rec.node, "cp")
        assert stack.images.get(stack.get_record(T1, rec.node).clone_image).name == disk

    def test_kept_disk_survives_reprovision_after_reopen(self, tmp_path):
        stack = build_stack(tmp_path / "r")
        image = seed_image(stack)
        rec = stack.provision(T1, image, node="node-001")
        stack.snapshot(T1, rec.node, "cp")
        kept = stack.get_record(T1, rec.node).clone_image
        stack.deprovision(T1, rec.node, keep_image=True)
        stack.close()

        stack = Orchestrator.open(tmp_path / "r", StackConfig(store=SMALL_BLOCKS))
        again = stack.provision(T1, image, node="node-001")
        assert again.state is ProvisionState.READY
        assert stack.images.exists(kept)
        assert stack.verify_invariants() == []
        stack.close()

    def test_snapshot_named_like_the_live_disk_rejected(self, stack):
        rec = stack.provision(T1, seed_image(stack))
        disk = stack.images.get(rec.clone_image).name
        with pytest.raises(DuplicateName):
            stack.snapshot(T1, rec.node, disk)
        assert stack.get_record(T1, rec.node).clone_image == rec.clone_image
        assert stack.images.get(rec.clone_image).kind is ImageKind.CLONE
        assert stack.verify_invariants() == []

    def test_failed_copy_up_leaves_the_disk_live(self, stack, monkeypatch):
        rec = stack.provision(T1, seed_image(stack))
        disk = stack.images.get(rec.clone_image).name
        before = stack.journal.commits

        def failing_copy_up(image, chain):
            raise StorageFailure("copy-up failed")

        with monkeypatch.context() as patch:
            patch.setattr(stack.images, "_copy_up", failing_copy_up)
            with pytest.raises(StorageFailure):
                stack.snapshot(T1, rec.node, "snap")
        assert stack.journal.commits == before
        assert stack.images.get(rec.clone_image).name == disk
        assert stack.images.get(rec.clone_image).kind is ImageKind.CLONE
        assert stack.images.find_by_name(T1, "snap") is None
        stack.gateway.target_write(rec.node, rec.target, 0, b"still-live")
        assert stack.verify_invariants() == []

        snap = stack.snapshot(T1, rec.node, "snap")  # a retry under the name succeeds
        assert stack.images.get(snap).name == "snap"
        assert stack.images.read_range(snap, 0, 10) == b"still-live"
        assert stack.verify_invariants() == []

    @pytest.mark.parametrize("copy_fails", [False, True])
    def test_import_under_the_disk_name_mid_snapshot_is_refused(self, stack, copy_fails):
        # while the snapshot holds the disk and copies its blocks up, the
        # tenant tries to import an image under the disk's name; the copy
        # then goes on, or fails
        rec = stack.provision(T1, seed_image(stack), node="node-001")
        stack.gateway.target_write(rec.node, rec.target, 0, b"pre-snapshot")
        real = stack.images._resolved_blocks
        tried = []

        def squat(chain, skip=()):
            try:
                tried.append(seed_image(stack, name="node-001-disk-1", blocks=1, seed=1))
            except DuplicateName as exc:
                tried.append(exc)
            if copy_fails:
                raise StorageFailure("copy failed")
            return real(chain, skip)

        stack.images._resolved_blocks = squat
        if copy_fails:
            with pytest.raises(StorageFailure):
                stack.snapshot(T1, rec.node, "snap")
        else:
            snap = stack.snapshot(T1, rec.node, "snap")
        assert [type(outcome) for outcome in tried] == [DuplicateName]
        assert stack.images.get(rec.clone_image).name == "node-001-disk-1"
        assert (stack.images.find_by_name(T1, "snap") is None) == copy_fails
        stack.gateway.target_write(rec.node, rec.target, 0, b"post-snapshot")
        if not copy_fails:
            assert stack.images.read_range(snap, 0, 12) == b"pre-snapshot"
        assert stack.verify_invariants() == []

    def test_duplicate_snapshot_name(self, stack):
        image = seed_image(stack)
        rec = stack.provision(T1, image)
        stack.snapshot(T1, rec.node, "cp")
        with pytest.raises(DuplicateName):
            stack.snapshot(T1, rec.node, "cp")

    def test_unknown_node(self, stack):
        with pytest.raises(NotFound):
            stack.snapshot(T1, "node-042", "cp")


class TestRecover:
    def _provision_and_fail(self, stack):
        image = seed_image(stack)
        rec = stack.provision(T1, image)
        stack.gateway.target_write(rec.node, rec.target, 7 * BS, b"marker-bytes")
        stack.note_node_failed(rec.node)
        return rec

    def test_marker_survives_recovery(self, stack):
        rec = self._provision_and_fail(stack)
        new = stack.recover(T1, rec.node)
        assert new.node != rec.node
        assert new.clone_image == rec.clone_image
        got = stack.gateway.target_read(new.node, new.target, 7 * BS, 12)
        assert got == b"marker-bytes"
        assert stack.verify_invariants() == []

    def test_recovery_transfers_zero_blocks(self, stack):
        rec = self._provision_and_fail(stack)
        before = stack.images.stats()
        stack.recover(T1, rec.node)
        after = stack.images.stats()
        assert after.blocks_copied == before.blocks_copied
        assert after.flatten_ops == before.flatten_ops

    def test_failed_node_excluded_from_future_allocation(self, stack):
        rec = self._provision_and_fail(stack)
        new = stack.recover(T1, rec.node)
        assert new.node != rec.node
        image2 = seed_image(stack, name="second")
        with pytest.raises(PoolExhausted):  # only the failed node remains
            stack.provision(T1, image2)

    def test_recover_healthy_node_rejected(self, stack):
        image = seed_image(stack)
        rec = stack.provision(T1, image)
        with pytest.raises(NodeNotFailed):
            stack.recover(T1, rec.node)

    def test_recover_foreign_record_denied(self, stack):
        rec = self._provision_and_fail(stack)
        with pytest.raises(AccessDenied):
            stack.recover(T2, rec.node)

    def test_recover_with_no_spare_keeps_the_record(self, stack):
        # both nodes provisioned, one failed: recover finds no spare before
        # it tears anything down, so the disk keeps its record
        rec = self._provision_and_fail(stack)
        stack.provision(T1, seed_image(stack, name="other", seed=1))
        for _ in range(2):
            with pytest.raises(PoolExhausted):
                stack.recover(T1, rec.node)
            kept = stack.get_record(T1, rec.node)
            assert kept.state is ProvisionState.FAILED_NODE
            assert kept.clone_image == rec.clone_image
            assert stack.verify_invariants() == []
        stack.pool.register_node("02:00:00:00:01:00")
        new = stack.recover(T1, rec.node)
        assert stack.gateway.target_read(new.node, new.target, 7 * BS, 12) == b"marker-bytes"
        assert stack.verify_invariants() == []

    def test_failed_teardown_releases_the_spare(self, stack, monkeypatch):
        rec = self._provision_and_fail(stack)

        def failing_detach(node):
            raise StorageFailure("injected at detach")

        monkeypatch.setattr(stack.pool, "detach_network", failing_detach)
        with pytest.raises(StorageFailure):
            stack.recover(T1, rec.node)
        assert stack.pool.counts()["allocated"] == 1  # the spare went back
        monkeypatch.undo()
        new = stack.recover(T1, rec.node)  # resumes the kept teardown
        assert new.clone_image == rec.clone_image
        assert stack.verify_invariants() == []


class TestIdempotency:
    def test_provision_replay_returns_original(self, stack):
        image = seed_image(stack)
        rec = stack.provision(T1, image, idempotency_key="key-1")
        replay = stack.provision(T1, image, idempotency_key="key-1")
        assert replay.node == rec.node
        assert replay.seq == rec.seq
        assert len(stack.records()) == 1

    def test_failed_provision_replays_failure(self, stack):
        image = seed_image(stack)
        once = {"armed": True}

        def hook(step, node):
            if step == "attach" and once.pop("armed", None):
                raise StorageFailure("injected")

        stack.fault_hook = hook
        with pytest.raises(RollbackReport) as first:
            stack.provision(T1, image, idempotency_key="key-2")
        with pytest.raises(RollbackReport) as second:
            stack.provision(T1, image, idempotency_key="key-2")
        stack.fault_hook = None
        assert second.value.failing_step == first.value.failing_step == "attach"
        assert stack.records() == []

    def test_deprovision_replay(self, stack):
        image = seed_image(stack)
        rec = stack.provision(T1, image)
        stack.deprovision(T1, rec.node, idempotency_key="del-1")
        stack.deprovision(T1, rec.node, idempotency_key="del-1")  # replayed, no NotFound
        with pytest.raises(NotFound):
            stack.deprovision(T1, rec.node, idempotency_key="del-2")

    def test_keyed_call_that_resumes_a_teardown_keeps_its_key(self, tmp_path, monkeypatch):
        # the unkeyed first call wrote the deprovisioning step, so the key
        # that finishes the teardown rides on prov.end, across a reopen too
        stack = build_stack(tmp_path / "r")
        rec = stack.provision(T1, seed_image(stack))

        def failing_detach(node):
            raise StorageFailure("injected at detach")

        with monkeypatch.context() as patch:
            patch.setattr(stack.pool, "detach_network", failing_detach)
            with pytest.raises(StorageFailure):
                stack.deprovision(T1, rec.node)
        stack.deprovision(T1, rec.node, idempotency_key="d")
        before = stack.journal.commits
        stack.deprovision(T1, rec.node, idempotency_key="d")
        assert stack.journal.commits == before
        stack.close()
        stack = Orchestrator.open(tmp_path / "r", StackConfig(store=SMALL_BLOCKS))
        stack.deprovision(T1, rec.node, idempotency_key="d")
        with pytest.raises(InvalidRequest):  # the key names that node's teardown
            stack.deprovision(T1, "node-002", idempotency_key="d")
        assert stack.verify_invariants() == []
        stack.close()

    def test_deprovision_key_names_one_node(self, stack):
        image = seed_image(stack)
        a = stack.provision(T1, image)
        b = stack.provision(T1, image)
        stack.deprovision(T1, a.node, idempotency_key="del")
        before = stack.journal.commits
        with pytest.raises(InvalidRequest):
            stack.deprovision(T1, b.node, idempotency_key="del")
        assert stack.journal.commits == before
        assert [r.node for r in stack.records()] == [b.node]

    def test_provision_key_names_one_image_and_node(self, stack):
        image = seed_image(stack)
        other = seed_image(stack, name="other", seed=1)
        rec = stack.provision(T1, image, node="node-001", idempotency_key="k")
        before = stack.journal.commits
        with pytest.raises(InvalidRequest):
            stack.provision(T1, other, idempotency_key="k")
        with pytest.raises(InvalidRequest):
            stack.provision(T1, image, node="node-002", idempotency_key="k")
        assert stack.journal.commits == before
        assert stack.provision(T1, image, idempotency_key="k") is rec

    def test_provision_retry_after_snapshot_returns_the_record(self, stack):
        image = seed_image(stack)
        rec = stack.provision(T1, image, idempotency_key="k")
        stack.snapshot(T1, rec.node, "snap")
        assert stack.provision(T1, image, idempotency_key="k") is rec
        assert len(stack.records()) == 1

    def test_concurrent_retry_waits_for_the_first_call(self, stack):
        image = seed_image(stack)
        paused, resume = threading.Event(), threading.Event()

        def hold(step, node):
            if step == "attach":
                paused.set()
                assert resume.wait(10)

        stack.fault_hook = hold
        results = {}

        def call(name):
            results[name] = stack.provision(T1, image, idempotency_key="k3")

        first = threading.Thread(target=call, args=("first",))
        first.start()
        assert paused.wait(10)
        retry = threading.Thread(target=call, args=("retry",))
        retry.start()
        retry.join(0.5)
        assert retry.is_alive()  # it waits on the key's flow lock
        resume.set()
        first.join(10)
        retry.join(10)
        assert not first.is_alive() and not retry.is_alive()
        assert results["retry"] is results["first"]
        assert len(stack.records()) == 1
        assert stack.pool.counts()["allocated"] == 1

    def test_racing_retries_make_one_node_per_key(self, tmp_path):
        stack = build_stack(tmp_path / "race", nodes=4)
        image = seed_image(stack)
        start = threading.Barrier(6)

        def call(i):
            start.wait(10)
            return stack.provision(T1, image, idempotency_key=f"k{i % 3}").node

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as pool:
                nodes = [future.result(timeout=30)
                         for future in [pool.submit(call, i) for i in range(6)]]
        finally:
            sys.setswitchinterval(interval)
        assert [len(set(nodes[k::3])) for k in range(3)] == [1, 1, 1]
        assert len(stack.records()) == 3
        assert stack.verify_invariants() == []
        stack.close()

    def test_keys_are_scoped_per_tenant(self, stack):
        mine = stack.provision(T1, seed_image(stack), idempotency_key="k")
        theirs = stack.provision(T2, seed_image(stack, T2, "b", seed=1), idempotency_key="k")
        assert theirs.tenant == T2 and theirs.node != mine.node
        stack.deprovision(T1, mine.node, idempotency_key="d")
        stack.deprovision(T2, theirs.node, idempotency_key="d")
        assert stack.records() == []


class TestQueries:
    def test_tenant_scoping(self, stack):
        image1 = seed_image(stack, T1, "a")
        image2 = seed_image(stack, T2, "b", seed=1)
        rec1 = stack.provision(T1, image1)
        rec2 = stack.provision(T2, image2)
        assert [r["node"] for r in stack.list_provisions(T1)] == [rec1.node]
        assert [r["node"] for r in stack.list_provisions(T2)] == [rec2.node]
        listed = {n["id"]: n for n in stack.list_nodes(T1)}
        assert listed[rec1.node]["tenant"] == T1
        assert listed[rec2.node]["tenant"] is None  # masked

    def test_records_list_nodes_in_registration_order_past_999(self, tmp_path):
        # ids past node-999 grow a digit, so string order would put
        # node-1000 before node-101
        with closing(build_stack(tmp_path / "r", nodes=1001)) as stack:
            image = seed_image(stack, blocks=1)
            stack.provision(T1, image, node="node-1000")
            stack.provision(T1, image, node="node-101")
            assert [r.node for r in stack.records()] == ["node-101", "node-1000"]
            assert [r["node"] for r in stack.list_provisions(T1)] == ["node-101", "node-1000"]

    def test_traffic_passthrough(self, stack):
        image = seed_image(stack)
        rec = stack.provision(T1, image)
        stack.gateway.target_read(rec.node, rec.target, 0, 123)
        assert stack.get_traffic(T1, rec.node)["bytes_read"] == 123
        with pytest.raises(AccessDenied):
            stack.get_traffic(T2, rec.node)


class TestParallelProvision:
    def test_24_concurrent_provisions_one_golden(self, tmp_path):
        stack = build_stack(tmp_path / "r", nodes=24, worker_limit=12)
        image = seed_image(stack)
        before = stack.images.stats()
        with ThreadPoolExecutor(max_workers=24) as pool:
            records = list(pool.map(lambda _: stack.provision(T1, image), range(24)))
        after = stack.images.stats()
        assert len({r.node for r in records}) == 24
        assert all(r.state is ProvisionState.READY for r in records)
        assert stack.images.get(image).child_count == 24
        assert after.blocks_copied == before.blocks_copied  # still zero copies
        assert stack.verify_invariants() == []
        stack.close()


def test_boot_configuration_without_provision_record_is_reported(stack):
    image = seed_image(stack)
    rec = stack.provision(T1, image)
    spare = next(n for n in stack.pool.nodes() if n.id != rec.node)
    stack.netboot.install_boot_config(spare.id, spare.mac, rec.target)
    problems = stack.verify_invariants()
    assert f"orphan boot configuration for {spare.mac}" in problems
    assert f"orphan boot configuration for {stack.pool.get(rec.node).mac}" not in problems


def test_read_write_target_on_a_frozen_disk_is_reported(tmp_path):
    stack = build_stack(tmp_path / "r")
    rec = stack.provision(T1, seed_image(stack))
    stack.images.flatten(rec.clone_image)  # the store lets a live disk freeze
    stack.close()
    stack = Orchestrator.open(tmp_path / "r", StackConfig(store=SMALL_BLOCKS))
    assert stack.verify_invariants() == [
        f"read-write target {rec.target} bound to unwritable image {rec.clone_image}"]
    stack.close()


class TestStateMachine:
    def test_edge_set_is_pinned(self):
        """Replay checks every journaled transition against this set, so it
        is pinned exactly: a derivation that lets an extra pair through
        fails here."""
        assert STATE_EDGES == {
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
            ("allocating", "exporting"),
            ("allocating", "rolled_back"),
            ("cloning", "rolled_back"),
            ("exporting", "rolled_back"),
            ("configuring", "rolled_back"),
            ("attaching", "rolled_back"),
            ("deprovisioning", "removed"),
            ("rolled_back", "removed"),
        }

    def test_journal_transitions_follow_declared_edges(self, tmp_path):
        stack = build_stack(tmp_path / "r", nodes=3)
        image = seed_image(stack)
        rec = stack.provision(T1, image)
        stack.note_booted(rec.node)
        stack.snapshot(T1, rec.node, "cp")
        stack.note_node_failed(rec.node)
        new = stack.recover(T1, rec.node)
        stack.deprovision(T1, new.node)

        once = {"armed": True}
        stack.fault_hook = lambda step, node: (
            (_ for _ in ()).throw(StorageFailure("boom"))
            if step == "configure" and once.pop("armed", None) else None)
        with pytest.raises(RollbackReport):
            stack.provision(T1, image)
        stack.fault_hook = None
        stack.close()

        by_record = {}
        for record in Journal.read_records(tmp_path / "r" / "journal.log"):
            if record["type"] == "prov.begin":
                by_record[record["seq"]] = [record["state"]]
            elif record["type"] == "prov.step":
                by_record[record["seq"]].append(record["state"])
            elif record["type"] == "prov.end":
                by_record[record["seq"]].append("removed")
        assert by_record, "no provision records journaled"
        for seq, states in by_record.items():
            for old, new_state in zip(states, states[1:]):
                assert (old, new_state) in STATE_EDGES, \
                    f"record {seq}: illegal transition {old} -> {new_state}"
