"""Per-node network boot files.

For each configured MAC the service writes three text files, mirroring
the pxelinux convention for stage 1 and keeping the later stages
alongside:

  <root>/pxelinux.cfg/01-<mac-with-dashes>   stage-1 pointer (chainload)
  <root>/ipxe/<mac>.ipxe                     stage-2 boot script
  <root>/ibft/<mac>.json                     boot descriptor (JSON)

``_render`` is the one place their text is produced: a deterministic
function of (node, mac, target, addressing config), so the files can be
regenerated from the journal after a crash and golden-file tested byte
for byte. A node that asks for its boot configuration is served the
descriptor, the same one the JSON file holds.

Known limitation, intentionally preserved: lookup is keyed by MAC alone,
so a node spoofing another node's MAC is handed that node's descriptor.
"""

import json
import re
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigExists, StorageFailure, TargetNotFound
from .journal import Journal

_MAC_RE = re.compile(r"^[0-9a-f]{2}(:[0-9a-f]{2}){5}$")


def canonical_mac(mac: str) -> str:
    """Normalize a MAC address to lowercase colon-separated form."""
    cleaned = mac.strip().lower().replace("-", ":").replace(".", "")
    if ":" not in cleaned and len(cleaned) == 12:
        cleaned = ":".join(cleaned[i : i + 2] for i in range(0, 12, 2))
    if not _MAC_RE.match(cleaned):
        raise ValueError(f"invalid MAC address {mac!r}")
    return cleaned


def mac_with_dashes(mac: str) -> str:
    return canonical_mac(mac).replace(":", "-")


@dataclass(frozen=True)
class NetbootSettings:
    next_server: str = "192.0.2.2"
    stage1_filename: str = "undionly.kpxe"
    lun: int = 0


@dataclass(frozen=True)
class BootDescriptor:
    """Boot-firmware-table analog naming the block endpoint to mount."""

    target: str
    gateway_addr: str
    initiator_name: str
    lun: int

    def to_json(self) -> str:
        payload = {
            "gateway_addr": self.gateway_addr,
            "initiator_name": self.initiator_name,
            "lun": self.lun,
            "target": self.target,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class NetbootService:
    """Renders, writes and serves the per-MAC boot files."""

    def __init__(self, root: Path | str, gateway, journal: Journal,
                 settings: NetbootSettings | None = None):
        self.root = Path(root)
        self.gateway = gateway
        self.journal = journal
        self.settings = settings or NetbootSettings()
        self._configs: dict[str, dict] = {}  # mac -> {node, target}
        self._by_node: dict[str, str] = {}
        journal.register("netboot", self.apply)

    # -- journal replay ------------------------------------------------------

    def apply(self, record: dict) -> None:
        op = record["type"]
        if op == "netboot.install":
            mac = record["mac"]
            self._configs[mac] = {"node": record["node"], "target": record["target"]}
            self._by_node[record["node"]] = mac
        elif op == "netboot.remove":
            entry = self._configs.pop(record["mac"], None)
            if entry is not None:
                self._by_node.pop(entry["node"], None)
        else:
            raise ValueError(f"unknown netboot record type {op}")

    # -- operations -------------------------------------------------------------

    def install_boot_config(self, node: str, mac: str, target: str) -> BootDescriptor:
        """Write the pointer, script and descriptor files for one MAC."""
        mac = canonical_mac(mac)
        with self.journal.lock:
            if not self.gateway.exists(target):
                raise TargetNotFound(f"target {target} is not live")
            if mac in self._configs:
                raise ConfigExists(f"mac {mac} already has a boot configuration")
            self._write_files(node, mac, target)
            self.journal.commit({"type": "netboot.install", "node": node, "mac": mac,
                                 "target": target})
            return self._descriptor(node, target)

    def remove_boot_config(self, node: str) -> None:
        """Idempotent: absence of a config is success."""
        with self.journal.lock:
            mac = self._by_node.get(node)
            if mac is None:
                return
            self._remove_files(mac)
            self.journal.commit({"type": "netboot.remove", "mac": mac})

    def lookup_boot(self, mac: str) -> BootDescriptor | None:
        """The descriptor served to a MAC, or None when nothing is configured."""
        mac = canonical_mac(mac)
        with self.journal.lock:
            entry = self._configs.get(mac)
            if entry is None:
                return None
            return self._descriptor(entry["node"], entry["target"])

    def config_for_node(self, node: str) -> str | None:
        with self.journal.lock:
            return self._by_node.get(node)

    def configured_macs(self) -> list[str]:
        with self.journal.lock:
            return sorted(self._configs)

    def artifact_paths(self, mac: str) -> list[Path]:
        mac = canonical_mac(mac)
        return [
            self.root / "pxelinux.cfg" / f"01-{mac_with_dashes(mac)}",
            self.root / "ipxe" / f"{mac}.ipxe",
            self.root / "ibft" / f"{mac}.json",
        ]

    def regenerate_files(self) -> None:
        """Recovery path: rewrite the files of every configured MAC and
        drop the per-MAC boot files of MACs with no committed
        configuration (a crash can land between the file writes and their
        journal commit). Any other file, such as the stage-1 loader, stays."""
        with self.journal.lock:
            for mac, entry in self._configs.items():
                self._write_files(entry["node"], mac, entry["target"])
            for path in self.root.glob("*/*"):
                try:
                    mac = canonical_mac(path.name.removeprefix("01-").split(".")[0])
                except ValueError:
                    continue
                if mac not in self._configs and path in self.artifact_paths(mac):
                    path.unlink()

    # -- internals ------------------------------------------------------------------

    def _descriptor(self, node: str, target: str) -> BootDescriptor:
        cfg = self.gateway.config
        return BootDescriptor(target=target, gateway_addr=cfg.address,
                              initiator_name=f"iqn.{cfg.naming_date}.{cfg.authority}:node:{node}",
                              lun=self.settings.lun)

    def _render(self, node: str, mac: str, target: str) -> tuple[str, str, str]:
        """Pointer, script and descriptor texts, in ``artifact_paths`` order.
        The script's last line attaches the target the descriptor names."""
        descriptor = self._descriptor(node, target)
        pointer = ("DEFAULT chain\n"
                   "LABEL chain\n"
                   f"KERNEL {self.settings.stage1_filename}\n"
                   f"APPEND script=ipxe/{mac}.ipxe next-server={self.settings.next_server}\n")
        script = ("#!ipxe\n"
                  f"set initiator-iqn {descriptor.initiator_name}\n"
                  f"sanboot iscsi:{descriptor.gateway_addr}::::{target}\n")
        return pointer, script, descriptor.to_json()

    def _write_files(self, node: str, mac: str, target: str) -> None:
        """Write the three files; a failing write removes those it wrote."""
        written = []
        try:
            for path, text in zip(self.artifact_paths(mac), self._render(node, mac, target)):
                path.parent.mkdir(parents=True, exist_ok=True)
                written.append(path)
                path.write_text(text)
        except OSError as exc:
            for path in written:
                with suppress(OSError):
                    path.unlink(missing_ok=True)
            raise StorageFailure(f"writing boot files of {mac} failed: {exc}") from exc

    def _remove_files(self, mac: str) -> None:
        try:
            for path in self.artifact_paths(mac):
                path.unlink(missing_ok=True)
        except OSError as exc:
            raise StorageFailure(f"removing boot files of {mac} failed: {exc}") from exc
