"""Per-node network boot artifacts.

For each configured MAC the service owns three files, mirroring the
pxelinux convention for stage 1 and keeping the later stages alongside:

  <root>/pxelinux.cfg/01-<mac-with-dashes>   stage-1 pointer (chainload)
  <root>/ipxe/<mac>.ipxe                     stage-2 boot script
  <root>/ibft/<mac>.json                     boot descriptor (JSON)

Artifacts are deterministic functions of (mac, target, addressing config),
so they can be regenerated from the journal after a crash and golden-file
tested byte for byte.

Known limitation, intentionally preserved: lookup is keyed by MAC alone,
so a node spoofing another node's MAC is handed that node's artifacts.
"""

import json
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigExists, TargetNotFound
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
class BootPointer:
    """DHCP-style answer: where the firmware fetches its stage-1 loader."""

    mac: str
    next_server: str
    filename: str

    def render(self) -> str:
        return (
            "DEFAULT chain\n"
            "LABEL chain\n"
            f"KERNEL {self.filename}\n"
            f"APPEND script=ipxe/{self.mac}.ipxe next-server={self.next_server}\n"
        )


@dataclass(frozen=True)
class BootScript:
    """Stage-2 script whose final directive attaches the block target."""

    mac: str
    lines: tuple

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    @property
    def target(self) -> str:
        return self.lines[-1].split("::::", 1)[-1]


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


@dataclass(frozen=True)
class BootArtifacts:
    pointer: BootPointer
    script: BootScript
    descriptor: BootDescriptor


class NetbootService:
    """Generates, persists and serves the per-MAC boot chain."""

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
        """Write the full pointer/script/descriptor chain for one MAC."""
        mac = canonical_mac(mac)
        with self.journal.lock:
            if not self.gateway.exists(target):
                raise TargetNotFound(f"target {target} is not live")
            if mac in self._configs:
                raise ConfigExists(f"mac {mac} already has a boot configuration")
            artifacts = self._build(node, mac, target)
            self._write_files(mac, artifacts)
            self.journal.commit({"type": "netboot.install", "node": node, "mac": mac,
                                 "target": target})
            return artifacts.descriptor

    def remove_boot_config(self, node: str) -> None:
        """Idempotent: absence of a config is success."""
        with self.journal.lock:
            mac = self._by_node.get(node)
            if mac is None:
                return
            self._remove_files(mac)
            self.journal.commit({"type": "netboot.remove", "mac": mac})

    def lookup_boot(self, mac: str) -> BootArtifacts | None:
        """Staged artifacts for a MAC, or None when nothing is configured."""
        mac = canonical_mac(mac)
        with self.journal.lock:
            entry = self._configs.get(mac)
            if entry is None:
                return None
            return self._build(entry["node"], mac, entry["target"])

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
        """Recovery path: rewrite artifacts for every configured MAC and
        drop the per-MAC artifact files of MACs with no committed
        configuration (a crash can land between the file writes and their
        journal commit). Any other file, such as the stage-1 loader, stays."""
        with self.journal.lock:
            for mac, entry in self._configs.items():
                self._write_files(mac, self._build(entry["node"], mac, entry["target"]))
            for path in self.root.glob("*/*"):
                try:
                    mac = canonical_mac(path.name.removeprefix("01-").split(".")[0])
                except ValueError:
                    continue
                if mac not in self._configs and path in self.artifact_paths(mac):
                    path.unlink()

    # -- internals ------------------------------------------------------------------

    def _initiator_name(self, node: str) -> str:
        cfg = self.gateway.config
        return f"iqn.{cfg.naming_date}.{cfg.authority}:node:{node}"

    def _build(self, node: str, mac: str, target: str) -> BootArtifacts:
        pointer = BootPointer(mac=mac, next_server=self.settings.next_server,
                              filename=self.settings.stage1_filename)
        initiator = self._initiator_name(node)
        gateway_addr = self.gateway.config.address
        script = BootScript(mac=mac, lines=(
            "#!ipxe",
            f"set initiator-iqn {initiator}",
            f"sanboot iscsi:{gateway_addr}::::{target}",
        ))
        descriptor = BootDescriptor(target=target, gateway_addr=gateway_addr,
                                    initiator_name=initiator, lun=self.settings.lun)
        return BootArtifacts(pointer=pointer, script=script, descriptor=descriptor)

    def _write_files(self, mac: str, artifacts: BootArtifacts) -> None:
        pointer_path, script_path, descriptor_path = self.artifact_paths(mac)
        for path, text in (
            (pointer_path, artifacts.pointer.render()),
            (script_path, artifacts.script.text),
            (descriptor_path, artifacts.descriptor.to_json()),
        ):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

    def _remove_files(self, mac: str) -> None:
        for path in self.artifact_paths(mac):
            path.unlink(missing_ok=True)
