"""Crash the stack between journal commits and prove recovery restores a
consistent world: every node ends up ready or fully rolled back, and the
global sweep finds no orphans."""

import random

import pytest

from conftest import SMALL_BLOCKS, build_stack
from metalforge.image_store import ImageStore
from metalforge.journal import Journal, SimulatedCrash
from metalforge.orchestrator import Orchestrator, ProvisionState, StackConfig

BS = 4096
T1 = "t1"


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
    with pytest.raises(ValueError):  # a bare store registers no pool records
        ImageStore.open(tmp_path / "root", SMALL_BLOCKS)
    assert len(loaded) == 2
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


def test_crashed_rollback_spares_image_that_took_the_clone_name_mid_flow(tmp_path):
    stack = build_stack(tmp_path / "root")
    image = prep_provision(stack)
    taken = {}

    def fault(step, node):
        if step == "clone":  # the tenant takes the name before the clone commits
            taken["id"] = stack.images.import_image(T1, "node-001-disk-1", b"tenant data")

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

    revived = reopen(tmp_path)
    assert revived.images.read_range(taken["id"], 0, 11) == b"tenant data"
    assert revived.verify_invariants() == []
    revived.close()
