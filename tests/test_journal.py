import pytest

from metalforge.journal import Journal, SimulatedCrash, encode_record


def test_roundtrip(tmp_path):
    journal = Journal(tmp_path / "j.log")
    assert journal.load() == []
    journal.append({"type": "a", "n": 1})
    journal.append({"type": "b", "payload": "x" * 100})
    journal.close()

    reopened = Journal(tmp_path / "j.log")
    records = reopened.load()
    assert records == [{"type": "a", "n": 1}, {"type": "b", "payload": "x" * 100}]
    assert reopened.commits == 2
    reopened.close()


def test_append_returns_sequence(tmp_path):
    journal = Journal(tmp_path / "j.log")
    journal.load()
    assert journal.append({"type": "a"}) == 1
    assert journal.append({"type": "b"}) == 2
    journal.close()


@pytest.mark.parametrize("cut", range(1, 20))
def test_torn_tail_is_dropped_at_any_byte(tmp_path, cut):
    path = tmp_path / "j.log"
    journal = Journal(path)
    journal.load()
    journal.append({"type": "a", "n": 1})
    journal.append({"type": "b", "n": 2})
    journal.close()

    data = path.read_bytes()
    first = len(encode_record({"type": "a", "n": 1}))
    torn = data[: first + min(cut, len(data) - first - 1)]
    path.write_bytes(torn)

    reopened = Journal(path)
    records = reopened.load()
    assert records[0] == {"type": "a", "n": 1}
    assert len(records) in (1, 2)
    # appending after recovery keeps the log well-formed
    reopened.append({"type": "c"})
    reopened.close()
    assert list(Journal.read_records(path))[-1] == {"type": "c"}


def test_corrupt_crc_stops_replay(tmp_path):
    path = tmp_path / "j.log"
    journal = Journal(path)
    journal.load()
    journal.append({"type": "a"})
    journal.append({"type": "b"})
    journal.close()

    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # corrupt the CRC of the last record
    path.write_bytes(bytes(raw))
    assert list(Journal.read_records(path)) == [{"type": "a"}]


def test_commit_hook_fires_after_durable_append(tmp_path):
    path = tmp_path / "j.log"
    journal = Journal(path)
    journal.load()
    seen = []

    def hook(seq, record):
        seen.append((seq, record["type"]))
        if seq == 2:
            raise SimulatedCrash()

    journal.commit_hook = hook
    journal.append({"type": "a"})
    with pytest.raises(SimulatedCrash):
        journal.append({"type": "b"})
    journal.close()
    assert seen == [(1, "a"), (2, "b")]
    # the record that "crashed" was already durable
    assert [r["type"] for r in Journal.read_records(path)] == ["a", "b"]


def test_commit_and_replay_route_records_by_type_prefix(tmp_path):
    path = tmp_path / "j.log"
    journal = Journal(path)
    journal.load()
    seen = []
    journal.register("a", lambda r: seen.append(("a", r["n"])))
    journal.register("b", lambda r: seen.append(("b", r["n"])))
    assert journal.commit({"type": "a.x", "n": 1}) == 1
    assert journal.commit({"type": "b.y.z", "n": 2}) == 2
    journal.commit({"type": "a.w", "n": 3})
    journal.close()
    assert seen == [("a", 1), ("b", 2), ("a", 3)]

    replayed = []
    reopened = Journal(path)
    reopened.register("a", lambda r: replayed.append(("a", r["n"])))
    reopened.register("b", lambda r: replayed.append(("b", r["n"])))
    reopened.replay()
    reopened.close()
    assert replayed == seen


def test_unregistered_prefix_is_rejected_before_append(tmp_path):
    path = tmp_path / "j.log"
    journal = Journal(path)
    journal.load()
    with pytest.raises(ValueError, match="bogus.x"):
        journal.commit({"type": "bogus.x"})
    journal.close()
    assert list(Journal.read_records(path)) == []

