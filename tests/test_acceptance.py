"""Acceptance suite: one test per exit criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import random
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import SMALL_BLOCKS, build_stack, open_store
from metalforge.bench import BenchSpec, run_bench, synthetic_image
from metalforge.errors import AccessDenied, MetalforgeError, StorageFailure
from metalforge.image_store import StoreConfig
from metalforge.journal import SimulatedCrash
from metalforge.netboot_config import mac_with_dashes
from metalforge.node_simulator import (
    BOOT_METADATA_ALLOWANCE,
    AccessPattern,
    NodeSimulator,
    PatternEntry,
    load_pattern_fixture,
    log_append_workload,
    read_heavy_workload,
)
from metalforge.orchestrator import Orchestrator, ProvisionState, StackConfig
from test_cow_oracle import DifferentialDriver

BS = 4096
MIB = 1024 * 1024
T1, T2 = "t1", "t2"


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_01_cow_oracle_equivalence(tmp_path):
    """1000-op randomized sequences across >=100 seeds match the flat-buffer
    oracle byte for byte, in under 60 s total."""
    seeds = 100
    started = time.perf_counter()
    for seed in range(seeds):
        store = open_store(tmp_path / f"s{seed}", StoreConfig(block_size=BS))
        driver = DifferentialDriver(store, random.Random(seed),
                                    max_size=4 * MIB, max_live=10)
        driver.run(1000)
        store.close()
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s (budget 60s)"
    report(1, f"{seeds} seeds x 1000 ops byte-identical to oracle in {elapsed:.1f}s")


def test_criterion_02_lazy_fetch_ratio(tmp_path):
    """Default boot pattern on a 64 MiB image reads 2.1% +/- 0.5pp of the
    image through the gateway; a warm-cache reboot reads ~0."""
    size = 64 * MIB
    stack = Orchestrator.open(tmp_path / "root")
    stack.pool.register_node("02:00:00:00:00:01")
    golden = stack.images.import_image(T1, "base", synthetic_image(size, 1))
    rec = stack.provision(T1, golden)
    sim = NodeSimulator(stack)
    pattern = load_pattern_fixture("os_boot_64mib")

    cold = sim.power_on(rec.node, pattern)
    ratio = cold.bytes_read / size
    assert 0.016 <= ratio <= 0.026, f"cold boot ratio {ratio:.4f} outside 2.1% +/- 0.5pp"

    warm = sim.power_on(rec.node, pattern)
    assert warm.bytes_read <= BOOT_METADATA_ALLOWANCE, \
        f"warm boot read {warm.bytes_read} bytes"
    stack.close()
    report(2, f"cold boot ratio {100 * ratio:.2f}%, warm boot {warm.bytes_read} bytes")


def test_criterion_03_traffic_curve_shape(tmp_path):
    """Read deltas over 5 repetitions are non-increasing and converge to 0;
    log-append write deltas are constant and nonzero."""
    size = 64 * MIB
    stack = Orchestrator.open(tmp_path / "root")
    stack.pool.register_node("02:00:00:00:00:01")
    golden = stack.images.import_image(T1, "base", synthetic_image(size, 2))
    rec = stack.provision(T1, golden)
    sim = NodeSimulator(stack)
    node = sim.node(rec.node)
    node.power_on(load_pattern_fixture("os_boot_64mib"))

    reads = [d.bytes_read for d in node.run_workload(read_heavy_workload(size), 5)]
    assert reads[0] > 0
    assert all(reads[i + 1] <= reads[i] for i in range(4)), f"not non-increasing: {reads}"
    assert reads[-1] == 0, f"read curve did not flatten: {reads}"

    writes = [d.bytes_written for d in node.run_workload(log_append_workload(size), 5)]
    assert len(set(writes)) == 1 and writes[0] > 0, f"write deltas not constant: {writes}"
    stack.close()
    report(3, f"read deltas {reads} -> 0; write deltas constant {writes[0]}")


def test_criterion_04_copy_freedom(tmp_path):
    """provision, 24-way provision and recover copy exactly 0 data blocks;
    snapshot performs exactly 1 flatten."""
    stack = build_stack(tmp_path / "root", nodes=26)
    golden = stack.images.import_image(T1, "base", random.Random(3).randbytes(64 * BS))

    before = stack.images.stats()
    rec = stack.provision(T1, golden)
    assert stack.images.stats().blocks_copied - before.blocks_copied == 0

    before = stack.images.stats()
    with ThreadPoolExecutor(max_workers=24) as pool:
        records = list(pool.map(lambda _: stack.provision(T1, golden), range(24)))
    assert len(records) == 24
    assert stack.images.stats().blocks_copied - before.blocks_copied == 0

    stack.gateway.target_write(rec.node, rec.target, 0, b"dirty")
    stack.note_node_failed(rec.node)
    before = stack.images.stats()
    stack.recover(T1, rec.node)
    after = stack.images.stats()
    assert after.blocks_copied - before.blocks_copied == 0
    assert after.flatten_ops - before.flatten_ops == 0

    target_node = records[0].node
    stack.gateway.target_write(target_node, records[0].target, 0, b"pre-snap")
    before = stack.images.stats()
    stack.snapshot(T1, target_node, "cp")
    after = stack.images.stats()
    assert after.flatten_ops - before.flatten_ops == 1
    assert after.deep_copy_ops - before.deep_copy_ops == 0
    stack.close()
    report(4, "0 copies in provision/24-way/recover; snapshot = exactly 1 flatten")


def test_criterion_05_scaling_shape():
    """24 parallel provisions finish within 115% of a single provision on
    the virtual clock; orchestration overhead grows sub-linearly."""
    result = run_bench(BenchSpec("provision_scaling", {"n_values": [1, 24]}))
    totals = result.metrics["totals"]
    overheads = result.metrics["overheads"]
    assert totals[24] <= 1.15 * totals[1], \
        f"total(24)={totals[24]:.1f} > 1.15 x total(1)={totals[1]:.1f}"
    assert overheads[24] <= 4 * overheads[1], \
        f"overhead(24)={overheads[24]:.1f} > 4 x overhead(1)={overheads[1]:.1f}"
    report(5, f"total 1->{totals[1]:.0f}ms 24->{totals[24]:.0f}ms "
              f"(+{100 * (totals[24] / totals[1] - 1):.1f}%); "
              f"overhead x{overheads[24] / overheads[1]:.2f}")


def test_criterion_06_recovery_semantics():
    """A marker written before failure is readable from the replacement
    node, and re-provisioning beats the modeled fresh install by >= 3x."""
    result = run_bench(BenchSpec("reprovision_vs_fresh"))
    assert result.metrics["marker_ok"], "marker bytes lost across recovery"
    ratio = result.metrics["ratio"]
    assert ratio >= 3.0, f"reprovision speedup {ratio:.2f}x below 3x"
    report(6, f"marker survived recovery; reprovision {ratio:.2f}x faster than fresh")


def test_criterion_07_cleanup_completeness(tmp_path):
    """After 200+ randomized mixed operations with failure injection, the
    global sweep finds zero orphans and pool conservation holds exactly."""
    rng = random.Random(2026)
    stack = build_stack(tmp_path / "root", nodes=10)
    goldens = {
        T1: stack.images.import_image(T1, "base", rng.randbytes(64 * BS)),
        T2: stack.images.import_image(T2, "base", rng.randbytes(64 * BS)),
    }
    sim = NodeSimulator(stack)
    boot = AccessPattern("probe", (PatternEntry("R", 0, 4 * BS),))

    def maybe_fault(step, node):
        if rng.random() < 0.12:
            raise StorageFailure(f"injected at {step}")

    stack.fault_hook = maybe_fault
    names = iter(range(10_000))
    executed = 0
    while executed < 220:
        tenant = rng.choice((T1, T2))
        live = stack.list_provisions(tenant)
        action = rng.random()
        try:
            if action < 0.35 or not live:
                stack.provision(tenant, goldens[tenant])
            elif action < 0.50:
                stack.deprovision(tenant, rng.choice(live)["node"],
                                  keep_image=rng.random() < 0.3)
            elif action < 0.62:
                stack.snapshot(tenant, rng.choice(live)["node"], f"cp{next(names)}")
            elif action < 0.74:
                sim.power_on(rng.choice(live)["node"], boot)
            elif action < 0.86:
                booted = [r for r in live if r["state"] == "booted"]
                if booted:
                    sim.node(rng.choice(booted)["node"]).inject_failure()
            elif action < 0.95:
                failed = [r for r in live
                          if stack.pool.get(r["node"]).health.value == "failed"]
                if failed:
                    stack.recover(tenant, rng.choice(failed)["node"])
            else:
                broken = [n.id for n in stack.pool.nodes()
                          if n.health.value == "failed" and n.pool_state.value == "free"]
                if broken:
                    stack.pool.repair_node(rng.choice(broken))
        except MetalforgeError:
            pass
        executed += 1
    stack.fault_hook = None

    problems = stack.verify_invariants()
    assert problems == [], f"sweep found orphans: {problems}"
    counts = stack.pool.counts()
    assert counts["free"] + counts["allocated"] == counts["registered"] == 10
    assert counts["allocated"] == len(stack.records())
    stack.close()

    # every journaled transition of the whole schedule is a declared edge
    from metalforge.journal import Journal
    from metalforge.orchestrator import STATE_EDGES
    paths = {}
    for record in Journal.read_records(tmp_path / "root" / "journal.log"):
        if record["type"] == "prov.begin":
            paths[record["seq"]] = [record["state"]]
        elif record["type"] == "prov.step":
            paths[record["seq"]].append(record["state"])
        elif record["type"] == "prov.end":
            paths[record["seq"]].append("removed")
    transitions = 0
    for seq, states in paths.items():
        for old, new in zip(states, states[1:]):
            assert (old, new) in STATE_EDGES, f"record {seq}: {old} -> {new}"
            transitions += 1
    report(7, f"{executed} randomized ops with injection, sweep clean, "
              f"pool {counts}, {transitions} state transitions all legal")


def _run_with_crash(root, cut, prep, action):
    stack = build_stack(root, nodes=2)
    context = prep(stack)
    fired = {"n": 0}

    def hook(seq, record):
        fired["n"] += 1
        if fired["n"] == cut:
            raise SimulatedCrash()

    stack.journal.commit_hook = hook
    with pytest.raises(SimulatedCrash):
        action(stack, context)
    stack.journal.commit_hook = None
    stack.images.close()
    stack.journal.close()


def test_criterion_08_crash_consistency(tmp_path):
    """Kill the orchestrator after every journal commit along a provision
    and a deprovision; recovery always restores the sweep invariant with
    every node ready or fully rolled back."""

    def prep_provision(stack):
        return stack.images.import_image(T1, "base", random.Random(4).randbytes(16 * BS))

    def do_provision(stack, image):
        stack.provision(T1, image)

    def prep_deprovision(stack):
        image = prep_provision(stack)
        return stack.provision(T1, image).node

    def do_deprovision(stack, node):
        stack.deprovision(T1, node)

    checked = 0
    for name, prep, action in (("provision", prep_provision, do_provision),
                               ("deprovision", prep_deprovision, do_deprovision)):
        probe = build_stack(tmp_path / f"dry-{name}", nodes=2)
        context = prep(probe)
        before = probe.journal.commits
        action(probe, context)
        commits = probe.journal.commits - before
        probe.close()

        for cut in range(1, commits + 1):
            root = tmp_path / f"{name}-cut{cut}"
            _run_with_crash(root, cut, prep, action)
            revived = Orchestrator.open(root, StackConfig(store=SMALL_BLOCKS))
            problems = revived.verify_invariants()
            assert problems == [], f"{name} cut {cut}: {problems}"
            for rec in revived.records():
                assert rec.state in (ProvisionState.READY, ProvisionState.BOOTED), \
                    f"{name} cut {cut}: node left in {rec.state.value}"
            revived.close()
            checked += 1
    report(8, f"{checked} crash cut points recovered to a consistent state")


def test_criterion_09_tenant_isolation(tmp_path):
    """Exhaustive cross-tenant negative matrix: every operation on the
    other tenant's resources is denied and changes nothing."""
    stack = build_stack(tmp_path / "root", nodes=4)
    rigs = {}
    for tenant, seed in ((T1, 5), (T2, 6)):
        golden = stack.images.import_image(tenant, "base",
                                           random.Random(seed).randbytes(32 * BS))
        rec = stack.provision(tenant, golden)
        rigs[tenant] = (golden, rec)

    def snapshot_state():
        return {
            "images": [(r.id, r.name, r.tenant, r.child_count)
                       for r in stack.images.records()],
            "targets": [(t.name, t.counters.to_public()) for t in stack.gateway.targets()],
            "provisions": [r.to_public() for r in stack.records()],
            "pool": stack.pool.counts(),
        }

    denied = 0
    for attacker, victim in ((T1, T2), (T2, T1)):
        golden, rec = rigs[victim]
        _, attacker_rec = rigs[attacker]
        attempts = [
            ("image read", lambda: stack.images.export_image(attacker, golden)),
            ("image clone", lambda: stack.images.linked_clone(attacker, golden, "steal")),
            ("target read", lambda: stack.gateway.target_read(
                attacker_rec.node, rec.target, 0, 16)),
            ("target write", lambda: stack.gateway.target_write(
                attacker_rec.node, rec.target, 0, b"\xff")),
            ("deprovision", lambda: stack.deprovision(attacker, rec.node)),
            ("traffic query", lambda: stack.get_traffic(attacker, rec.node)),
        ]
        for label, attempt in attempts:
            before = snapshot_state()
            with pytest.raises(AccessDenied):
                attempt()
            assert snapshot_state() == before, \
                f"{attacker} {label} on {victim}'s resources changed state"
            denied += 1
    assert denied == 12
    stack.close()
    report(9, f"{denied}/12 cross-tenant attempts denied with zero state change")


def test_criterion_10_golden_files(tmp_path):
    """Boot pointer, script and descriptor artifacts are byte-identical to
    the committed goldens for three fixed inputs."""
    golden_dir = Path(__file__).parent / "golden"
    fixed = [
        ("52:54:00:aa:bb:01", "iqn.2025-01.org.metalforge:t1:img-000001", "node-001"),
        ("52:54:00:aa:bb:02", "iqn.2025-01.org.metalforge:t1:img-000002", "node-002"),
        ("52:54:00:aa:bb:03", "iqn.2025-01.org.metalforge:acme:img-000042", "node-003"),
    ]
    stack = Orchestrator.open(tmp_path / "root")
    matched = 0
    for mac, target, node in fixed:
        pointer, script, descriptor = stack.netboot._render(node, mac, target)
        dashes = mac_with_dashes(mac)
        assert pointer == (golden_dir / f"pointer-{dashes}.cfg").read_text()
        assert script == (golden_dir / f"script-{dashes}.ipxe").read_text()
        assert descriptor == (golden_dir / f"descriptor-{dashes}.json").read_text()
        matched += 3
    stack.close()
    report(10, f"{matched}/9 artifacts byte-identical to committed goldens")
