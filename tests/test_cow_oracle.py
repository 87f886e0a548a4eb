"""Differential testing of the image store against the flat-buffer oracle.

Both sides replay the same randomized schedule of create/import/clone/
write/read/flatten/deep-copy/delete operations; every read must agree byte
for byte, and a final full-image comparison closes each run.
"""

import random

import pytest

from conftest import open_store
from metalforge.errors import NotAClone
from metalforge.image_store import ImageKind, ImageStore, StoreConfig
from oracle import OracleStore

BS = 4096
TENANT = "t1"


class DifferentialDriver:
    """Generates valid operations and applies them to both stores."""

    def __init__(self, store: ImageStore, rng: random.Random,
                 max_size: int = 4 * 1024 * 1024, max_live: int = 12):
        self.store = store
        self.oracle = OracleStore()
        self.rng = rng
        self.max_size = max_size
        self.max_live = max_live
        self.live: list[str] = []
        self.names = 0

    # -- op pool -----------------------------------------------------------

    def run(self, ops: int) -> None:
        weighted = (
            [self._op_write] * 30
            + [self._op_read] * 40
            + [self._op_clone] * 8
            + [self._op_create] * 4
            + [self._op_import] * 4
            + [self._op_flatten] * 5
            + [self._op_deep_copy] * 3
            + [self._op_delete] * 6
        )
        for _ in range(ops):
            self.rng.choice(weighted)()
        self.verify_all()

    def verify_all(self) -> None:
        for image in self.live:
            size = self.oracle.size(image)
            assert self.store.export_image(TENANT, image) == self.oracle.read(image, 0, size)
        assert self.store.check_integrity() == []

    # -- individual ops ---------------------------------------------------------

    def _name(self) -> str:
        self.names += 1
        return f"img{self.names}"

    def _size(self) -> int:
        blocks = self.rng.randint(1, self.max_size // BS)
        return blocks * BS

    def _pick(self) -> str | None:
        if not self.live:
            return None
        return self.rng.choice(self.live)

    def _writable(self) -> str | None:
        candidates = [i for i in self.live
                      if self.store.get(i).kind is not ImageKind.SNAPSHOT
                      and self.store.get(i).child_count == 0]
        if not candidates:
            return None
        return self.rng.choice(candidates)

    def _op_create(self) -> None:
        if len(self.live) >= self.max_live:
            return
        size = self._size()
        image = self.store.create_image(TENANT, self._name(), size)
        self.oracle.create(image, size)
        self.live.append(image)

    def _op_import(self) -> None:
        if len(self.live) >= self.max_live:
            return
        data = self.rng.randbytes(self.rng.randint(1, self.max_size // 4))
        image = self.store.import_image(TENANT, self._name(), data)
        self.oracle.import_bytes(image, data, BS)
        self.live.append(image)

    def _op_clone(self) -> None:
        parent = self._pick()
        if parent is None or len(self.live) >= self.max_live:
            return
        if len(self.store.get(parent).chain) + 1 > self.store.config.max_chain_depth:
            return
        clone = self.store.linked_clone(TENANT, parent, self._name())
        self.oracle.clone(clone, parent)
        self.live.append(clone)

    def _op_write(self) -> None:
        image = self._writable()
        if image is None:
            return
        size = self.oracle.size(image)
        length = self.rng.randint(1, min(3 * BS, size))
        offset = self.rng.randint(0, size - length)
        data = self.rng.randbytes(length)
        self.store.write_range(image, offset, data)
        self.oracle.write(image, offset, data)

    def _op_read(self) -> None:
        image = self._pick()
        if image is None:
            return
        size = self.oracle.size(image)
        length = self.rng.randint(0, min(4 * BS, size))
        offset = self.rng.randint(0, size - length)
        assert self.store.read_range(image, offset, length) == \
            self.oracle.read(image, offset, length)

    def _op_flatten(self) -> None:
        clones = [i for i in self.live if self.store.get(i).kind is ImageKind.CLONE]
        if not clones:
            return
        image = self.rng.choice(clones)
        if self.store.get(image).child_count:  # an image with children never changes
            with pytest.raises(NotAClone):
                self.store.flatten(image)
            return
        self.store.flatten(image)
        self.oracle.flatten(image)

    def _op_deep_copy(self) -> None:
        source = self._pick()
        if source is None or len(self.live) >= self.max_live:
            return
        dup = self.store.deep_copy(TENANT, source, self._name())
        self.oracle.deep_copy(dup, source)
        self.live.append(dup)

    def _op_delete(self) -> None:
        candidates = [i for i in self.live if self.store.get(i).child_count == 0]
        if len(candidates) < 2:  # keep at least one image alive
            return
        image = self.rng.choice(candidates)
        self.store.delete_image(TENANT, image)
        self.oracle.delete(image)
        self.live.remove(image)


@pytest.mark.parametrize("seed", range(8))
def test_randomized_ops_match_oracle(tmp_path, seed):
    store = open_store(tmp_path / "st", StoreConfig(block_size=BS))
    driver = DifferentialDriver(store, random.Random(seed))
    driver.run(400)
    store.close()


def test_oracle_agreement_survives_reopen(tmp_path):
    store = open_store(tmp_path / "st", StoreConfig(block_size=BS))
    driver = DifferentialDriver(store, random.Random(99))
    driver.run(200)
    store.close()
    driver.store = open_store(tmp_path / "st", StoreConfig(block_size=BS))
    driver.run(200)
    driver.store.close()
