"""The journal one scripted session writes, compared with
``tests/golden/journal-session.jsonl``: a change to the record format shows
up in review as a diff of that file."""

import json
import random
from pathlib import Path

import pytest

from conftest import build_stack
from metalforge.errors import RollbackReport, StorageFailure
from metalforge.journal import Journal

GOLDEN = Path(__file__).parent / "golden" / "journal-session.jsonl"
BS = 4096
T1 = "t1"


def session_records(root: Path) -> list[str]:
    """Run the session on a fresh 3-node stack at ``root`` and return its
    journal as canonical JSON lines, ``created_at`` removed."""
    stack = build_stack(root, nodes=3)
    try:
        base = stack.images.import_image(T1, "base", random.Random(0).randbytes(2 * BS))
        rec = stack.provision(T1, base)
        stack.gateway.target_write(rec.node, rec.target, BS, b"guest write")
        stack.snapshot(T1, rec.node, "snap")
        stack.note_node_failed(rec.node)
        moved = stack.recover(T1, rec.node)
        stack.deprovision(T1, moved.node, keep_image=True)
        stack.provision(T1, moved.clone_image)

        def fail_export(step, node):
            if step == "export":
                raise StorageFailure("injected at export")

        stack.fault_hook = fail_export
        with pytest.raises(RollbackReport):
            stack.provision(T1, base)
    finally:
        stack.close()
    lines = []
    for record in Journal.read_records(root / "journal.log"):
        record.pop("created_at", None)
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return lines


def test_session_journal_matches_golden(tmp_path):
    assert session_records(tmp_path / "root") == GOLDEN.read_text().splitlines()
