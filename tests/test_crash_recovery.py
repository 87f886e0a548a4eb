"""Crash the stack between journal commits and prove recovery restores a
consistent world: every node ends up ready or fully rolled back, and the
global sweep finds no orphans."""

import json
import random
import shutil
from pathlib import Path

import pytest

from conftest import SMALL_BLOCKS, build_stack
from metalforge.errors import RollbackReport, StorageFailure
from metalforge.image_store import ImageKind
from metalforge.journal import Journal, SimulatedCrash
from metalforge import orchestrator
from metalforge.orchestrator import Orchestrator, ProvisionState, StackConfig

BS = 4096
T1 = "t1"
FIXTURES = Path(__file__).parent / "fixtures"


def crash_after(stack, commit_number):
    """Arm the journal to die right after its Nth commit from now."""
    state = {"n": 0}

    def hook(seq, record):
        state["n"] += 1
        if state["n"] == commit_number:
            raise SimulatedCrash(f"crash after commit {commit_number}")

    stack.journal.commit_hook = hook


def reopen(root):
    return Orchestrator.open(root / "root", StackConfig(store=SMALL_BLOCKS))


def count_commits(action, tmp_path, prep):
    """Dry-run an action and report how many journal commits it makes."""
    stack = build_stack(tmp_path / "dry" / "root")
    context = prep(stack)
    before = stack.journal.commits
    action(stack, context)
    total = stack.journal.commits - before
    stack.close()
    return total


def prep_provision(stack):
    return stack.images.import_image(T1, "base", random.Random(0).randbytes(8 * BS))


def do_provision(stack, image):
    stack.provision(T1, image)


def prep_deprovision(stack):
    image = prep_provision(stack)
    rec = stack.provision(T1, image)
    stack.gateway.target_write(rec.node, rec.target, 0, b"dirty")
    return rec.node


def do_deprovision(stack, node):
    stack.deprovision(T1, node, keep_image=False)


def do_keyed_provision(stack, image):
    return stack.provision(T1, image, idempotency_key="k1")


def do_keyed_deprovision(stack, node):
    stack.deprovision(T1, node, idempotency_key="d1")


def prep_snapshot(stack):
    rec = stack.provision(T1, prep_provision(stack), node="node-001")
    stack.gateway.target_write(rec.node, rec.target, BS, b"before")
    return rec, stack.images.read_range(rec.clone_image, 0, 8 * BS)


def do_snapshot(stack, context):
    rec, _ = context
    stack.snapshot(T1, rec.node, "snap")


def prep_recover(stack):
    rec = stack.provision(T1, prep_provision(stack), node="node-001")
    stack.gateway.target_write(rec.node, rec.target, BS, b"before failure")
    stack.note_node_failed(rec.node)
    return rec, stack.images.read_range(rec.clone_image, 0, 8 * BS)


def do_recover(stack, context):
    rec, _ = context
    return stack.recover(T1, rec.node)


def crash_and_reopen(root, prep, action, cut):
    """Run ``action`` on a fresh stack, crash it after its ``cut``-th
    commit, reopen the root and return the revived stack and the context."""
    stack = build_stack(root / "root")
    context = prep(stack)
    crash_after(stack, cut)
    with pytest.raises(SimulatedCrash):
        action(stack, context)
    stack.images.close()
    stack.journal.close()
    return reopen(root), context


class TestProvisionCutPoints:
    def test_every_cut_point_recovers_clean(self, tmp_path):
        total = count_commits(do_provision, tmp_path, prep_provision)
        assert total >= 8  # allocation, begin, clone, target, config, attach, steps
        for cut in range(1, total + 1):
            root = tmp_path / f"cut{cut}"
            stack = build_stack(root / "root")
            image = prep_provision(stack)
            crash_after(stack, cut)
            with pytest.raises(SimulatedCrash):
                stack.provision(T1, image)
            stack.journal.commit_hook = None
            stack.images.close()
            stack.journal.close()

            revived = reopen(root)
            problems = revived.verify_invariants()
            assert problems == [], f"cut {cut}: {problems}"
            for rec in revived.records():
                assert rec.state in (ProvisionState.READY, ProvisionState.BOOTED), \
                    f"cut {cut}: record left in {rec.state}"
            # the golden image always survives intact
            assert revived.images.exists(image)
            # the revived stack provisions again; right after prov.begin it
            # hands out anew the clone id that the torn-down record named
            revived.provision(T1, image)
            assert revived.verify_invariants() == [], f"cut {cut}"
            revived.close()

    def test_last_cut_leaves_provision_ready(self, tmp_path):
        total = count_commits(do_provision, tmp_path, prep_provision)
        root = tmp_path / "final"
        stack = build_stack(root / "root")
        image = prep_provision(stack)
        crash_after(stack, total)  # crash after the very last commit
        with pytest.raises(SimulatedCrash):
            stack.provision(T1, image)
        stack.images.close()
        stack.journal.close()
        revived = reopen(root)
        states = [r.state for r in revived.records()]
        assert states == [ProvisionState.READY]
        assert revived.verify_invariants() == []
        revived.close()


class TestDeprovisionCutPoints:
    def test_every_cut_point_recovers_clean(self, tmp_path):
        total = count_commits(do_deprovision, tmp_path, prep_deprovision)
        assert total >= 4
        for cut in range(1, total + 1):
            root = tmp_path / f"cut{cut}"
            stack = build_stack(root / "root")
            node = prep_deprovision(stack)
            crash_after(stack, cut)
            with pytest.raises(SimulatedCrash):
                stack.deprovision(T1, node, keep_image=False)
            stack.journal.commit_hook = None
            stack.images.close()
            stack.journal.close()

            revived = reopen(root)
            problems = revived.verify_invariants()
            assert problems == [], f"cut {cut}: {problems}"
            # a crashed deprovision completes on recovery: the node is free
            assert revived.records() == []
            assert revived.pool.counts()["allocated"] == 0
            assert revived.gateway.targets() == []
            revived.close()


class TestKeyedProvisionCutPoints:
    def test_retry_after_every_cut_gives_one_node(self, tmp_path):
        # the key rides on prov.begin: no commit follows the flow's own
        total = count_commits(do_keyed_provision, tmp_path, prep_provision)
        assert total == 11
        for cut in range(1, total + 1):
            revived, image = crash_and_reopen(tmp_path / f"cut{cut}", prep_provision,
                                              do_keyed_provision, cut)
            assert revived.verify_invariants() == [], f"cut {cut}"
            rec = do_keyed_provision(revived, image)
            assert [r.node for r in revived.records()] == [rec.node], f"cut {cut}"
            assert revived.pool.counts()["allocated"] == 1, f"cut {cut}"
            assert revived.verify_invariants() == [], f"cut {cut}"
            revived.close()


class TestKeyedDeprovisionCutPoints:
    def test_retry_after_every_cut_leaves_no_node(self, tmp_path):
        # the key rides on the deprovisioning step: no commit follows prov.end
        total = count_commits(do_keyed_deprovision, tmp_path, prep_deprovision)
        assert total == 7
        for cut in range(1, total + 1):
            revived, node = crash_and_reopen(tmp_path / f"cut{cut}", prep_deprovision,
                                             do_keyed_deprovision, cut)
            assert revived.verify_invariants() == [], f"cut {cut}"
            do_keyed_deprovision(revived, node)
            assert revived.records() == [], f"cut {cut}"
            assert revived.pool.counts()["allocated"] == 0, f"cut {cut}"
            assert revived.verify_invariants() == [], f"cut {cut}"
            revived.close()


class TestSnapshotCutPoints:
    def reopened(self, tmp_path, cut):
        """Crash a snapshot after its ``cut``-th commit, or for cut 0 right
        after its copy-up, before it commits, and reopen the root."""
        if cut:
            return crash_and_reopen(tmp_path / f"cut{cut}", prep_snapshot, do_snapshot, cut)

        def copy_up_then_crash(stack, context):
            real = stack.images._copy_up

            def crash(rec, chain):
                real(rec, chain)
                raise SimulatedCrash("crash before the snapshot commits")

            stack.images._copy_up = crash
            do_snapshot(stack, context)
        return crash_and_reopen(tmp_path / "cut0", prep_snapshot, copy_up_then_crash, 0)

    def test_every_cut_reopens_to_the_old_or_the_new_state(self, tmp_path):
        total = count_commits(do_snapshot, tmp_path, prep_snapshot)
        assert total == 1
        for cut in range(total + 1):
            revived, (rec, before) = self.reopened(tmp_path, cut)
            assert revived.verify_invariants() == [], f"cut {cut}"
            live = revived.get_record(T1, rec.node)
            assert (live.clone_image, live.target) == (rec.clone_image, rec.target)
            disk = revived.images.get(rec.clone_image)
            assert disk.name == "node-001-disk-1" and disk.writable, f"cut {cut}"
            snap = revived.images.find_by_name(T1, "snap")
            assert (snap is None) == (cut == 0), f"cut {cut}"
            if snap is not None:
                assert snap.kind is ImageKind.SNAPSHOT and disk.parent == snap.id
            assert revived.images.read_range(disk.id, 0, 8 * BS) == before, f"cut {cut}"
            revived.gateway.target_write(rec.node, rec.target, BS, b"after!")
            assert revived.gateway.target_read(rec.node, rec.target, BS, 6) == b"after!"
            if snap is not None:
                assert revived.images.read_range(snap.id, 0, 8 * BS) == before, f"cut {cut}"
            assert revived.verify_invariants() == [], f"cut {cut}"
            revived.close()


class TestRecoverCutPoints:
    HANDOFF = 7  # the new record's ready step: spare, begin, two steps of two commits, ready

    @staticmethod
    def owner(stack, context, label):
        """The one live record naming the failed node's disk, once the
        sweep finds nothing and the disk's bytes read back."""
        rec, before = context
        assert stack.verify_invariants() == [], label
        owners = [r for r in stack.records() if r.clone_image == rec.clone_image]
        assert len(owners) == 1, f"{label}: {owners}"
        assert owners[0].target == rec.target, label
        assert stack.images.read_range(rec.clone_image, 0, 8 * BS) == before, label
        return owners[0]

    def test_every_cut_leaves_the_disk_with_the_old_or_the_new_record(self, tmp_path):
        total = count_commits(do_recover, tmp_path, prep_recover)
        assert total == 10
        for cut in range(1, total + 1):
            revived, context = crash_and_reopen(tmp_path / f"cut{cut}", prep_recover,
                                                do_recover, cut)
            rec, before = context
            owner = self.owner(revived, context, f"cut {cut}")
            if cut < self.HANDOFF:
                assert (owner.node, owner.state) == (rec.node, ProvisionState.FAILED_NODE)
                owner = do_recover(revived, context)
                assert self.owner(revived, context, f"cut {cut}, retried") is owner
            assert owner.node == "node-002" and owner.state is ProvisionState.READY
            assert revived.pool.counts() == {"registered": 2, "free": 1, "allocated": 1}
            assert revived.gateway.target_read(owner.node, owner.target, 0, 8 * BS) == before
            revived.close()

    @pytest.mark.parametrize("step", ["configure", "attach"])
    def test_failed_step_leaves_the_disk_with_the_failed_node(self, tmp_path, step):
        stack = build_stack(tmp_path / "root")
        context = prep_recover(stack)
        rec, _ = context

        def fail(name, node):
            if name == step:
                raise StorageFailure(f"injected at {step}")

        stack.fault_hook = fail
        with pytest.raises(RollbackReport) as err:
            do_recover(stack, context)
        assert (err.value.failing_step, err.value.cause_code) == (step, "StorageFailure")
        owner = self.owner(stack, context, step)
        assert (owner.node, owner.state) == (rec.node, ProvisionState.FAILED_NODE)
        assert stack.pool.counts() == {"registered": 2, "free": 1, "allocated": 1}
        stack.fault_hook = None
        new = do_recover(stack, context)
        assert self.owner(stack, context, f"{step}, retried") is new
        stack.close()


class TestRecoveredState:
    def test_committed_writes_survive_crash(self, tmp_path):
        root = tmp_path / "w"
        stack = build_stack(root / "root")
        image = prep_provision(stack)
        rec = stack.provision(T1, image)
        payload = random.Random(1).randbytes(3 * BS)
        stack.gateway.target_write(rec.node, rec.target, 2 * BS, payload)
        # abandon without close: block appends are already kernel-side
        stack.journal.close()

        revived = reopen(root)
        live = revived.records()[0]
        assert revived.images.read_range(live.clone_image, 2 * BS, 3 * BS) == payload
        assert revived.verify_invariants() == []
        revived.close()

    def test_orphan_allocation_released_on_recovery(self, tmp_path):
        root = tmp_path / "o"
        stack = build_stack(root / "root")
        prep_provision(stack)
        crash_after(stack, 1)  # die right after node.allocate, before prov.begin
        with pytest.raises(SimulatedCrash):
            stack.provision(T1, "img-000001")
        stack.journal.close()

        revived = reopen(root)
        assert revived.pool.counts()["allocated"] == 0
        assert revived.verify_invariants() == []
        revived.close()

    def test_state_reflects_last_committed_entry_after_restart(self, tmp_path):
        root = tmp_path / "s"
        stack = build_stack(root / "root")
        image = prep_provision(stack)
        rec = stack.provision(T1, image)
        node = rec.node
        clone = rec.clone_image
        target = rec.target
        stack.close()

        revived = reopen(root)
        live = revived.get_record(T1, node)
        assert live.state is ProvisionState.READY
        assert live.clone_image == clone
        assert live.target == target
        revived.close()


def test_stray_boot_files_swept_on_recovery(tmp_path):
    # files written but their install commit lost: recovery removes them
    root = tmp_path / "stray"
    stack = build_stack(root / "root")
    ghost = stack.netboot.root / "ipxe" / "de:ad:be:ef:00:01.ipxe"
    ghost.parent.mkdir(parents=True, exist_ok=True)
    ghost.write_text("#!ipxe\n")
    stack.close()

    revived = reopen(root)
    assert not ghost.exists()
    assert revived.verify_invariants() == []
    revived.close()


def test_reopen_keeps_boot_files_it_does_not_own(tmp_path):
    # only per-MAC artifacts belong to the netboot service; the stage-1
    # loader every pointer names, and a site default, must survive a reopen
    root = tmp_path / "foreign"
    stack = build_stack(root / "root")
    rec = stack.provision(T1, prep_provision(stack))
    loader = stack.netboot.root / "undionly.kpxe"
    default = stack.netboot.root / "pxelinux.cfg" / "default"
    loader.write_bytes(b"\x55\xaa loader")
    default.write_text("DEFAULT local\n")
    stack.close()

    revived = reopen(root)
    assert loader.read_bytes() == b"\x55\xaa loader"
    assert default.read_text() == "DEFAULT local\n"
    mac = revived.netboot.config_for_node(rec.node)
    assert all(path.exists() for path in revived.netboot.artifact_paths(mac))
    assert revived.verify_invariants() == []
    revived.close()


def test_open_rejects_record_with_unregistered_prefix(tmp_path):
    root = tmp_path / "bogus"
    build_stack(root / "root").close()
    journal = Journal(root / "root" / "journal.log")
    journal.load()
    journal.append({"type": "bogus.x"})
    journal.close()
    with pytest.raises(ValueError, match="bogus.x"):
        reopen(root)


def test_failed_recovery_on_open_closes_the_stack(tmp_path, monkeypatch):
    stack = build_stack(tmp_path / "root")
    rec = stack.provision(T1, prep_provision(stack))
    stack.gateway.target_write(rec.node, rec.target, 0, b"dirty")
    stack.close()
    built = []

    def failing_recovery(self):
        built.append(self)
        self.images.read_range(rec.clone_image, 0, 1)  # loads the clone's layer
        raise RuntimeError("recovery failed")

    monkeypatch.setattr(Orchestrator, "recover_incomplete", failing_recovery)
    with pytest.raises(RuntimeError, match="recovery failed"):
        reopen(tmp_path)
    (svc,) = built
    with pytest.raises(RuntimeError, match="not loaded"):
        svc.journal.append({"type": "pool.probe"})
    assert svc.images.get(rec.clone_image).layer._fd is None


@pytest.mark.parametrize("text", ["", "{not json", None])
def test_unreadable_config_beside_a_journal_is_a_typed_error(tmp_path, text):
    build_stack(tmp_path / "root").close()
    config = tmp_path / "root" / "config.json"
    if text is None:
        config.unlink()
    else:
        config.write_text(text)
    with pytest.raises(StorageFailure, match=str(config)):
        reopen(tmp_path)


@pytest.mark.parametrize("text", ["", None])
def test_config_beside_an_empty_journal_is_written_fresh(tmp_path, text):
    # what a first open that died writing config.json leaves
    root = tmp_path / "root"
    root.mkdir()
    (root / "journal.log").write_bytes(b"")
    if text is not None:
        (root / "config.json").write_text(text)
    reopen(tmp_path).close()
    assert json.loads((root / "config.json").read_text()) == \
        StackConfig(store=SMALL_BLOCKS).persisted()


def test_config_is_written_through_a_temporary_file(tmp_path, monkeypatch):
    def crash(src, dst):
        raise SimulatedCrash("crash before the rename")

    monkeypatch.setattr(orchestrator.os, "replace", crash)
    with pytest.raises(SimulatedCrash):
        reopen(tmp_path)
    assert not (tmp_path / "root" / "config.json").exists()
    monkeypatch.undo()
    reopen(tmp_path).close()
    assert (tmp_path / "root" / "config.json").exists()


def test_failed_replay_on_open_closes_the_journal(tmp_path, monkeypatch):
    build_stack(tmp_path / "root").close()
    journal = Journal(tmp_path / "root" / "journal.log")
    journal.load()
    journal.append({"type": "bogus.x"})
    journal.close()
    loaded = []
    real_replay = Journal.replay

    def tracked_replay(self):
        loaded.append(self)
        real_replay(self)

    monkeypatch.setattr(Journal, "replay", tracked_replay)
    with pytest.raises(ValueError, match="bogus.x"):
        reopen(tmp_path)
    assert len(loaded) == 1
    for opened in loaded:
        with pytest.raises(RuntimeError, match="not loaded"):
            opened.append({"type": "image.probe"})


def test_crashed_commit_leaves_record_unapplied(tmp_path):
    stack = build_stack(tmp_path / "root")
    before = stack.pool.counts()["registered"]
    crash_after(stack, 1)
    with pytest.raises(SimulatedCrash):
        stack.pool.register_node("02:00:00:00:ff:01")
    stack.journal.commit_hook = None
    assert stack.pool.counts()["registered"] == before
    stack.close()
    # the record was durable, so a reopen applies it
    revived = reopen(tmp_path)
    assert revived.pool.counts()["registered"] == before + 1
    revived.close()


def test_crashed_rollback_spares_image_holding_the_clone_name(tmp_path):
    stack = build_stack(tmp_path / "root")
    image = prep_provision(stack)
    stack.deprovision(T1, stack.provision(T1, image, node="node-001").node)
    # the next provision of node-001 (seq 2) wants this name for its clone
    squatter = stack.images.import_image(T1, "node-001-disk-2", b"tenant data")

    def hook(seq, record):
        if record["type"] == "node.release":  # mid-rollback of the failed clone
            raise SimulatedCrash("crash during rollback")

    stack.journal.commit_hook = hook
    with pytest.raises(SimulatedCrash):
        stack.provision(T1, image, node="node-001")
    stack.journal.commit_hook = None
    stack.images.close()
    stack.journal.close()

    revived = reopen(tmp_path)
    assert revived.images.read_range(squatter, 0, 11) == b"tenant data"
    assert revived.verify_invariants() == []
    revived.close()


def test_crash_between_rollback_and_end_is_completed_on_open(tmp_path):
    # the rolled_back step is durable, its prov.end is not: open ends the
    # record, so the node can be provisioned again and a keyed retry still
    # answers with the recorded failure
    stack = build_stack(tmp_path / "root")
    image = prep_provision(stack)

    def fail_export(step, node):
        if step == "export":
            raise StorageFailure("injected at export")

    def crash(seq, record):
        if record.get("state") == "rolled_back":
            raise SimulatedCrash("crash before prov.end")

    stack.fault_hook = fail_export
    stack.journal.commit_hook = crash
    with pytest.raises(SimulatedCrash):
        stack.provision(T1, image, node="node-001", idempotency_key="k1")
    stack.images.close()
    stack.journal.close()

    revived = reopen(tmp_path)
    assert revived.records() == []
    assert revived.verify_invariants() == []
    with pytest.raises(RollbackReport) as replayed:
        revived.provision(T1, image, node="node-001", idempotency_key="k1")
    assert replayed.value.failing_step == "export"
    assert revived.provision(T1, image, node="node-001").node == "node-001"
    assert revived.verify_invariants() == []
    revived.close()


def import_under_name(stack, image):
    """The tenant imports a new image under the name it is given."""
    return lambda name: stack.images.import_image(T1, name, b"tenant data")


def rename_kept_disk(stack, image):
    """The tenant renames a disk it kept, a child of ``image``, to the name
    it is given."""
    kept = stack.provision(T1, image, node="node-001")
    stack.gateway.target_write(kept.node, kept.target, 0, b"tenant data")
    stack.deprovision(T1, kept.node, keep_image=True)

    def take(name):
        stack.images.rename_image(T1, kept.clone_image, name)
        return kept.clone_image
    return take


def test_crashed_rollback_spares_image_that_took_the_clone_name_mid_flow(tmp_path):
    for takes_name in (import_under_name, rename_kept_disk):
        root = tmp_path / takes_name.__name__
        stack = build_stack(root / "root")
        image = prep_provision(stack)
        take = takes_name(stack, image)
        taken = {}

        def fault(step, node):
            if step == "clone":  # the tenant takes the name before the clone commits
                taken["id"] = take(stack.get_record(T1, node).clone_name)

        def crash(seq, record):
            if taken and record["type"] != "image.create":  # first rollback commit
                raise SimulatedCrash("crash during rollback")

        stack.fault_hook = fault
        stack.journal.commit_hook = crash
        with pytest.raises(SimulatedCrash):
            stack.provision(T1, image, node="node-001")
        stack.journal.commit_hook = None
        stack.images.close()
        stack.journal.close()

        revived = reopen(root)
        assert revived.images.read_range(taken["id"], 0, 11) == b"tenant data", \
            takes_name.__name__
        assert revived.verify_invariants() == []
        revived.close()


def test_older_root_crashed_after_clone_create_keeps_the_clone(tmp_path):
    # written by a version whose prov.begin did not name the clone, with a
    # provision that crashed right after its clone's image.create: open
    # releases the node and deletes no image, since none is named
    shutil.copytree(FIXTURES / "root-crashed-after-clone-create", tmp_path / "root")
    revived = reopen(tmp_path)
    assert revived.records() == []
    assert revived.pool.counts() == {"registered": 2, "free": 2, "allocated": 0}
    clone = revived.images.find_by_name(T1, "node-001-disk-1")
    assert clone is not None and clone.tenant == T1
    assert revived.verify_invariants() == []
    revived.close()


def test_older_root_keyed_provision_answers_its_retry(tmp_path):
    # written by a version that committed each keyed outcome as a separate
    # idem.outcome record: the retry returns the same node, allocating none
    shutil.copytree(FIXTURES / "root-keyed-provision", tmp_path / "root")
    revived = reopen(tmp_path)
    (live,) = revived.records()
    before = revived.journal.commits
    image = revived.images.find_by_name(T1, "base").id
    assert revived.provision(T1, image, idempotency_key="k1") is live
    assert revived.journal.commits == before
    assert revived.pool.counts() == {"registered": 2, "free": 1, "allocated": 1}
    assert revived.verify_invariants() == []
    revived.close()


def test_older_root_drops_other_outcomes(tmp_path):
    # a deprovision's or a failed provision's outcome is not upgraded: the
    # root opens, and a retry with such a key runs as a new request
    shutil.copytree(FIXTURES / "root-keyed-provision", tmp_path / "root")
    journal = Journal(tmp_path / "root" / "journal.log")
    journal.load()
    journal.append({"type": "idem.outcome", "op": "deprovision", "key": "d1",
                    "ok": True, "node": "node-002"})
    journal.append({"type": "idem.outcome", "op": "provision", "key": "k2", "ok": False,
                    "node": "node-002",
                    "error": {"code": "StorageFailure", "failing_step": "export"}})
    journal.close()
    revived = reopen(tmp_path)
    image = revived.images.find_by_name(T1, "base").id
    assert revived.provision(T1, image, idempotency_key="k2").node == "node-002"
    assert revived.verify_invariants() == []
    revived.close()


def test_older_root_with_a_finished_recover_recovers_again(tmp_path):
    # written by a version whose recover ended the failed node's record and
    # stood a new one up from the export row (allocating -> exporting), under
    # a target created anew: the root opens and its node is recovered again
    shutil.copytree(FIXTURES / "root-recovered", tmp_path / "root")
    revived = reopen(tmp_path)
    assert revived.verify_invariants() == []
    (rec,) = revived.records()
    assert rec.node == "node-002"
    base = random.Random(0).randbytes(2 * BS)
    disk = base[:BS] + b"before failure" + base[BS + 14:]
    assert revived.gateway.target_read(rec.node, rec.target, 0, 2 * BS) == disk
    revived.pool.register_node("02:00:00:00:00:02")
    revived.note_node_failed(rec.node)
    new = revived.recover(T1, rec.node)
    assert new.node == "node-003"
    assert (new.clone_image, new.target) == (rec.clone_image, rec.target)
    assert revived.gateway.target_read(new.node, new.target, 0, 2 * BS) == disk
    assert revived.verify_invariants() == []
    revived.close()


def test_older_root_with_a_finished_snapshot_snapshots_again(tmp_path):
    # written by a version whose snapshot renamed and flattened the disk and
    # moved the node onto a fresh clone under the disk's name, rebinding the
    # target: both images keep their bytes, and a new snapshot keeps the disk
    shutil.copytree(FIXTURES / "root-snapshotted", tmp_path / "root")
    revived = reopen(tmp_path)
    assert revived.verify_invariants() == []
    (rec,) = revived.records()
    first = revived.images.find_by_name(T1, "snap")
    disk = revived.images.get(rec.clone_image)
    assert disk.name == "node-001-disk-1" and disk.parent == first.id
    base = random.Random(0).randbytes(2 * BS)
    frozen = b"before snapshot" + base[15:]
    assert revived.images.read_range(first.id, 0, 2 * BS) == frozen
    live = frozen[:BS] + b"after snapshot" + base[BS + 14:]
    assert revived.gateway.target_read(rec.node, rec.target, 0, 2 * BS) == live
    second = revived.snapshot(T1, rec.node, "snap2")
    assert revived.get_record(T1, rec.node).clone_image == disk.id
    assert revived.images.read_range(second, 0, 2 * BS) == live
    assert revived.verify_invariants() == []
    revived.deprovision(T1, rec.node)
    assert not revived.images.exists(disk.id)
    assert revived.images.read_range(first.id, 0, 2 * BS) == frozen
    assert revived.images.read_range(second, 0, 2 * BS) == live
    assert revived.verify_invariants() == []
    revived.close()
