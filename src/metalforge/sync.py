"""Small concurrency helpers."""

import threading
from contextlib import contextmanager


class RWLock:
    """Reader-writer lock; writers are preferred so a steady stream of
    readers cannot starve an exclusive operation. The write lock is
    reentrant: its holder may take it again, and each acquire needs its own
    release. The read lock is not, and a writer that asks for it deadlocks."""

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = 0  # the holder's thread id (never 0), or 0
        self._depth = 0
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer not in (0, me) or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._depth += 1

    def release_write(self) -> None:
        with self._cond:
            self._depth -= 1
            if self._depth == 0:
                self._writer = 0
                self._cond.notify_all()

    @contextmanager
    def read_locked(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()
