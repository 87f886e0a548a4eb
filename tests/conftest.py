import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from metalforge.image_store import ImageStore, StoreConfig
from metalforge.journal import Journal
from metalforge.netboot_config import canonical_mac, mac_with_dashes
from metalforge.orchestrator import Orchestrator, StackConfig

SMALL_BLOCKS = StoreConfig(block_size=4096, max_chain_depth=8)


def build_stack(root, nodes: int = 2, store: StoreConfig = SMALL_BLOCKS,
                tenants: dict | None = None, admin_token: str | None = None,
                worker_limit: int = 12) -> Orchestrator:
    svc = Orchestrator.open(root, StackConfig(store=store, tenants=tenants,
                                              admin_token=admin_token,
                                              worker_limit=worker_limit))
    for i in range(nodes):
        svc.pool.register_node(f"02:00:00:00:{i // 256:02x}:{i % 256:02x}")
    return svc


@pytest.fixture
def stack(tmp_path):
    svc = build_stack(tmp_path / "root")
    yield svc
    svc.close()


class _StandAloneStore(ImageStore):
    def close(self) -> None:
        super().close()
        self.journal.close()


def open_store(root, config: StoreConfig = SMALL_BLOCKS) -> ImageStore:
    """A store over its own journal at ``<root>/journal.log``, replayed and
    swept of orphan layers; its ``close()`` also closes that journal."""
    root = Path(root)
    store = _StandAloneStore(root, Journal(root / "journal.log"), config)
    try:
        store.journal.replay()
        store.cleanup_orphan_layers()
    except BaseException:
        store.close()
        raise
    return store


def scan_artifacts(netboot, mac: str) -> list[Path]:
    """Every file under the netboot root whose name carries this MAC."""
    needles = {canonical_mac(mac), mac_with_dashes(mac)}
    if not netboot.root.is_dir():
        return []
    return sorted(path for path in netboot.root.rglob("*")
                  if path.is_file() and any(n in path.name for n in needles))


@pytest.fixture
def store(tmp_path):
    st = open_store(tmp_path / "store")
    yield st
    st.close()
