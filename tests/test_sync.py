import threading
import time

from metalforge.sync import RWLock


def test_concurrent_readers_overlap():
    lock = RWLock()
    inside = []
    barrier = threading.Barrier(4)

    def reader():
        with lock.read_locked():
            barrier.wait(timeout=5)  # all four must be inside at once
            inside.append(1)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(inside) == 4


def test_writer_excludes_readers_and_writers():
    lock = RWLock()
    log = []

    def writer(tag):
        with lock.write_locked():
            log.append(f"{tag}-in")
            time.sleep(0.01)
            log.append(f"{tag}-out")

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(5)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # critical sections never interleave
    for i in range(0, len(log), 2):
        assert log[i].endswith("-in") and log[i + 1].endswith("-out")
        assert log[i].split("-")[0] == log[i + 1].split("-")[0]


def test_waiting_writer_blocks_new_readers():
    lock = RWLock()
    order = []
    reader_holds = threading.Event()
    writer_waiting = threading.Event()

    def first_reader():
        with lock.read_locked():
            reader_holds.set()
            writer_waiting.wait(timeout=5)
            time.sleep(0.02)  # give the late reader a chance to jump the queue
            order.append("reader1")

    def writer():
        reader_holds.wait(timeout=5)
        writer_waiting.set()
        with lock.write_locked():
            order.append("writer")

    def late_reader():
        writer_waiting.wait(timeout=5)
        time.sleep(0.01)  # arrive while the writer is queued
        with lock.read_locked():
            order.append("reader2")

    threads = [threading.Thread(target=f) for f in (first_reader, writer, late_reader)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # writer preference: the queued writer beats the late reader
    assert order.index("writer") < order.index("reader2")
