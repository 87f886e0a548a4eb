"""The journal's lock is the stack's only metadata lock: a check and the
commit that depends on it run in one critical section, and the journal's
order is the order in which state was applied, so a reopen rebuilds
exactly the state that ran."""

import random
import re
import sys
import threading
from pathlib import Path

import metalforge
from conftest import SMALL_BLOCKS, build_stack
from metalforge.errors import ImageInUse, MetalforgeError
from metalforge.orchestrator import Orchestrator, StackConfig

BS = 4096
T1 = "t1"


def reopen(root):
    return Orchestrator.open(root, StackConfig(store=SMALL_BLOCKS))


def race_with_delete(stack, image, call):
    """Run ``call`` in thread A, pausing it right after its
    ``store.check_owned`` passes until thread B's ``delete_image(image)``
    has returned, or 0.5 s. Returns each thread's result or MetalforgeError."""
    real = stack.images.check_owned
    checked, deleted = threading.Event(), threading.Event()
    outcome = {}

    def paused(tenant, image_id):
        rec = real(tenant, image_id)
        if threading.current_thread().name == "A":
            checked.set()
            deleted.wait(0.5)
        return rec

    def run(name, fn):
        try:
            outcome[name] = fn()
        except MetalforgeError as exc:
            outcome[name] = exc
        finally:
            if name == "B":
                deleted.set()

    stack.images.check_owned = paused
    a = threading.Thread(target=run, args=("A", call), name="A")
    b = threading.Thread(target=run, name="B",
                         args=("B", lambda: stack.images.delete_image(T1, image)))
    try:
        a.start()
        assert checked.wait(5)
        b.start()
        a.join(5)
        b.join(5)
    finally:
        del stack.images.check_owned
    assert not a.is_alive() and not b.is_alive()
    return outcome["A"], outcome["B"]


def assert_one_winner_and_a_clean_reopen(root, outcomes):
    failed = [o for o in outcomes if isinstance(o, MetalforgeError)]
    assert len(failed) == 1, outcomes
    revived = reopen(root)
    try:
        for target in revived.gateway.targets():
            assert revived.images.exists(target.image), target.name
    finally:
        revived.close()


def test_create_target_and_delete_image_cannot_both_win(tmp_path):
    stack = build_stack(tmp_path / "root")
    image = stack.images.import_image(T1, "disk", b"x" * BS)
    outcomes = race_with_delete(stack, image, lambda: stack.gateway.create_target(
        T1, image, {"n1"}))
    stack.close()
    assert_one_winner_and_a_clean_reopen(tmp_path / "root", outcomes)
    assert isinstance(outcomes[1], ImageInUse)


def test_rebind_target_and_delete_image_cannot_both_win(tmp_path):
    stack = build_stack(tmp_path / "root")
    old = stack.images.import_image(T1, "old", b"o" * BS)
    new = stack.images.import_image(T1, "new", b"n" * BS)
    target = stack.gateway.create_target(T1, old, {"n1"})
    outcomes = race_with_delete(stack, new, lambda: stack.gateway.rebind_target(
        T1, target, new))
    stack.close()
    assert_one_winner_and_a_clean_reopen(tmp_path / "root", outcomes)
    assert isinstance(outcomes[1], ImageInUse)


def public_state(stack) -> dict:
    return {
        "records": [r.to_public() for r in stack.records()],
        "targets": [(t.name, t.image, t.tenant, t.allowed_initiators, t.counters)
                    for t in stack.gateway.targets()],
        "images": [r.to_public() for r in stack.images.records()],
        "exporters": [r.exporter for r in stack.images.records()],
        "nodes": [n.to_public() for n in stack.pool.nodes()],
        "macs": stack.netboot.configured_macs(),
    }


def test_replay_rebuilds_the_state_that_ran(tmp_path):
    stack = build_stack(tmp_path / "root", nodes=12)
    image = stack.images.import_image(T1, "base", random.Random(0).randbytes(4 * BS))
    workers, rounds = 4, 3
    errors = []

    def churn(i):
        try:
            for k in range(rounds):
                rec = stack.provision(T1, image)
                stack.snapshot(T1, rec.node, f"snap-{i}-{k}")
                stack.note_node_failed(rec.node)
                moved = stack.recover(T1, rec.node)
                stack.pool.repair_node(rec.node)
                if k < rounds - 1:
                    stack.deprovision(T1, moved.node)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=churn, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    ran = public_state(stack)
    assert len(ran["records"]) == workers
    stack.close()

    revived = reopen(tmp_path / "root")
    try:
        assert public_state(revived) == ran
        assert revived.verify_invariants() == []
    finally:
        revived.close()


def test_the_journal_lock_is_the_only_metadata_lock(stack):
    lock = stack.journal.lock
    for owner, name in ((stack.images, "_meta"), (stack.images, "_stats_lock"),
                        (stack.gateway, "_meta"), (stack.netboot, "_lock"),
                        (stack.pool, "_lock"), (stack, "_meta")):
        assert getattr(owner, name, lock) is lock, (type(owner).__name__, name)
    # the data-path locks are the only other ones the program builds
    allowed = {("journal.py", "self.lock ="), ("image_store.py", "self._load_lock ="),
               ("orchestrator.py", "self._node_locks[node] =")}
    built = [(path.name, line.strip())
             for path in sorted(Path(metalforge.__file__).parent.glob("*.py"))
             for line in path.read_text().splitlines()
             if re.search(r"threading\.R?Lock\(\)", line)]
    assert len(built) == len(allowed), built
    for module, line in built:
        assert any(module == m and part in line for m, part in allowed), (module, line)
