import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scan_artifacts
from metalforge.errors import ConfigExists, TargetNotFound
from metalforge.netboot_config import canonical_mac, mac_with_dashes

GOLDEN = Path(__file__).parent / "golden"
FIXED_INPUTS = [
    ("52:54:00:aa:bb:01", "iqn.2025-01.org.metalforge:t1:img-000001", "node-001"),
    ("52:54:00:aa:bb:02", "iqn.2025-01.org.metalforge:t1:img-000002", "node-002"),
    ("52:54:00:aa:bb:03", "iqn.2025-01.org.metalforge:acme:img-000042", "node-003"),
]


class TestMacAddress:
    def test_normalization(self):
        assert canonical_mac("52:54:00:AA:BB:01") == "52:54:00:aa:bb:01"
        assert canonical_mac("52-54-00-aa-bb-01") == "52:54:00:aa:bb:01"
        assert canonical_mac("525400aabb01") == "52:54:00:aa:bb:01"
        assert mac_with_dashes("52:54:00:aa:bb:01") == "52-54-00-aa-bb-01"

    @pytest.mark.parametrize("bad", ["", "zz:54:00:aa:bb:01", "52:54:00:aa:bb",
                                     "52:54:00:aa:bb:01:02", "52540:0aabb01"])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            canonical_mac(bad)

    @settings(max_examples=100, deadline=None)
    @given(raw=st.binary(min_size=6, max_size=6))
    def test_parse_format_roundtrip(self, raw):
        mac = ":".join(f"{b:02x}" for b in raw)
        assert canonical_mac(mac) == mac
        assert canonical_mac(mac_with_dashes(mac)) == mac
        assert canonical_mac(mac.upper()) == mac


@pytest.fixture
def rig(stack):
    image = stack.images.import_image("t1", "base", random.Random(0).randbytes(4096))
    node = stack.pool.allocate_node("t1")
    target = stack.gateway.create_target("t1", image, {node})
    mac = stack.pool.get(node).mac
    return stack, node, mac, target


class TestInstall:
    def test_install_creates_consistent_chain(self, rig):
        stack, node, mac, target = rig
        descriptor = stack.netboot.install_boot_config(node, mac, target)
        assert stack.netboot.lookup_boot(mac) == descriptor
        assert descriptor.target == target
        pointer, script, served = (p.read_text() for p in stack.netboot.artifact_paths(mac))
        assert "KERNEL undionly.kpxe\n" in pointer
        assert f"ipxe/{mac}.ipxe" in pointer
        assert script.splitlines()[0] == "#!ipxe"
        assert script.splitlines()[-1].endswith(f"::::{target}")
        assert served == stack.netboot.lookup_boot(mac).to_json()

    def test_double_install_rejected(self, rig):
        stack, node, mac, target = rig
        stack.netboot.install_boot_config(node, mac, target)
        with pytest.raises(ConfigExists):
            stack.netboot.install_boot_config(node, mac, target)

    def test_dead_target_rejected(self, rig):
        stack, node, mac, target = rig
        with pytest.raises(TargetNotFound):
            stack.netboot.install_boot_config(node, mac, "iqn.2025-01.org.metalforge:t1:nope")

    def test_artifacts_deterministic_across_runs(self, rig):
        stack, node, mac, target = rig
        stack.netboot.install_boot_config(node, mac, target)
        first = [p.read_text() for p in stack.netboot.artifact_paths(mac)]
        stack.netboot.remove_boot_config(node)
        stack.netboot.install_boot_config(node, mac, target)
        second = [p.read_text() for p in stack.netboot.artifact_paths(mac)]
        assert first == second


class TestRemove:
    def test_remove_clears_everything(self, rig):
        stack, node, mac, target = rig
        stack.netboot.install_boot_config(node, mac, target)
        stack.netboot.remove_boot_config(node)
        assert stack.netboot.lookup_boot(mac) is None
        assert scan_artifacts(stack.netboot, mac) == []

    def test_remove_is_idempotent(self, rig):
        stack, node, mac, target = rig
        stack.netboot.remove_boot_config(node)
        stack.netboot.install_boot_config(node, mac, target)
        stack.netboot.remove_boot_config(node)
        stack.netboot.remove_boot_config(node)
        assert stack.netboot.lookup_boot(mac) is None

    def test_remove_leaves_other_nodes_alone(self, rig):
        stack, node, mac, target = rig
        stack.netboot.install_boot_config(node, mac, target)
        other_image = stack.images.import_image("t1", "other", b"\x01" * 4096)
        other_node = stack.pool.allocate_node("t1")
        other_mac = stack.pool.get(other_node).mac
        other_target = stack.gateway.create_target("t1", other_image, {other_node})
        stack.netboot.install_boot_config(other_node, other_mac, other_target)
        stack.netboot.remove_boot_config(node)
        assert stack.netboot.lookup_boot(other_mac) is not None
        assert scan_artifacts(stack.netboot, other_mac) != []


class TestLookup:
    def test_unknown_mac_is_none(self, stack):
        assert stack.netboot.lookup_boot("aa:aa:aa:aa:aa:aa") is None

    def test_spoofed_mac_serves_victims_artifacts(self, rig):
        # keyed by MAC alone: a spoofer is handed the victim's chain
        stack, node, mac, target = rig
        stack.netboot.install_boot_config(node, mac, target)
        spoofed = stack.netboot.lookup_boot(mac.upper())
        assert spoofed is not None
        assert spoofed.target == target


class TestGoldenFiles:
    @pytest.mark.parametrize("mac,target,node", FIXED_INPUTS)
    def test_artifacts_match_committed_goldens(self, stack, mac, target, node):
        pointer, script, descriptor = stack.netboot._render(node, mac, target)
        dashes = mac_with_dashes(mac)
        assert pointer == (GOLDEN / f"pointer-{dashes}.cfg").read_text()
        assert script == (GOLDEN / f"script-{dashes}.ipxe").read_text()
        assert descriptor == (GOLDEN / f"descriptor-{dashes}.json").read_text()

    def test_script_format_is_exactly_three_lines(self, stack):
        mac, target, node = FIXED_INPUTS[0]
        lines = stack.netboot._render(node, mac, target)[1].splitlines()
        assert len(lines) == 3
        assert lines[0] == "#!ipxe"
        assert lines[1].startswith("set initiator-iqn ")
        assert lines[2].startswith("sanboot iscsi:")
