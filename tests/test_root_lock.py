"""One writer per root: the journal's file lock refuses a second opener."""

import os
import random
import select
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import pytest

import metalforge
from conftest import SMALL_BLOCKS, build_stack
from metalforge.errors import RootBusy
from metalforge.journal import Journal
from metalforge.orchestrator import Orchestrator, ProvisionState, StackConfig

BS = 4096


def reopen(root) -> Orchestrator:
    return Orchestrator.open(root, StackConfig(store=SMALL_BLOCKS))


def test_second_open_during_a_provision_is_refused(tmp_path):
    """A second opener would roll the paused provision back under it and
    delete its clone; it is refused, and the flow finishes cleanly."""
    root = tmp_path / "root"
    stack = build_stack(root)
    image = stack.images.import_image("t1", "base", random.Random(0).randbytes(16 * BS))
    stack.provision("t1", image, node="node-001")
    refused = []

    def open_second(step, node):
        if step == "export":  # the clone step has committed
            with pytest.raises(RootBusy):
                reopen(root)
            refused.append(node)

    stack.fault_hook = open_second
    rec = stack.provision("t1", image, node="node-002")
    stack.fault_hook = None
    assert refused == ["node-002"]
    assert rec.state is ProvisionState.READY
    stack.close()

    with closing(reopen(root)) as again:
        assert [r.node for r in again.records()] == ["node-001", "node-002"]
        assert again.images.exists(rec.clone_image)
        assert again.verify_invariants() == []


def test_passive_reader_needs_no_lock(tmp_path):
    root = tmp_path / "root"
    with closing(build_stack(root)):
        types = [r["type"] for r in Journal.read_records(root / "journal.log")]
    assert types.count("node.register") == 2


_HOLDER = """
import sys
from metalforge.orchestrator import Orchestrator
svc = Orchestrator.open(sys.argv[1])
print("open", flush=True)
sys.stdin.read()
"""


def test_the_lock_dies_with_its_process(tmp_path):
    root = tmp_path / "root"
    build_stack(root).close()
    env = {**os.environ, "PYTHONPATH": str(Path(metalforge.__file__).parents[1])}
    with subprocess.Popen([sys.executable, "-c", _HOLDER, str(root)], env=env,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as holder:
        try:
            assert select.select([holder.stdout], [], [], 60)[0], "the holder never opened"
            assert holder.stdout.readline() == b"open\n"
            with pytest.raises(RootBusy):
                reopen(root)
        finally:
            holder.kill()  # dies without closing anything
    with closing(reopen(root)) as again:
        assert again.verify_invariants() == []
