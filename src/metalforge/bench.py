"""Benchmark harness: desk-scale reruns of the headline experiments.

Each scenario builds a throwaway service stack, drives real operations
against it (real clones, real exports, real boot-pattern reads), then
prices the run on the virtual clock from the delay profile. CSV output is
a pure function of (scenario, params, seed), so reruns are byte-identical.

Scenarios:
  provision_single     one node, phase-by-phase cost breakdown
  provision_scaling    n parallel provisions; total and overhead vs n
  reprovision_vs_fresh recovery re-export vs modeled fresh diskful install
  traffic_curves       per-repetition gateway read/write deltas
"""

import io
import random
import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DirtyEnvironment, InvalidRequest
from .node_simulator import (
    NodeSimulator,
    log_append_workload,
    os_boot_pattern,
    read_heavy_workload,
)
from .orchestrator import RECOVER_FROM, STEPS, Orchestrator, StackConfig
from .virtual_time import (
    DelayProfile,
    Flow,
    GATEWAY,
    JOURNAL,
    WORKERS,
    delay,
    makespan,
    use,
)

BENCH_TENANT = "bench"
ORCH_STEPS = ("allocate", *(name for name, _, _ in STEPS))
SCENARIOS = ("provision_single", "provision_scaling", "reprovision_vs_fresh",
             "traffic_curves")


@dataclass
class BenchSpec:
    scenario: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    output_path: str | None = None


@dataclass
class BenchResult:
    scenario: str
    csv_text: str
    summary: str
    metrics: dict


def run_bench(spec: BenchSpec, profile: DelayProfile | None = None) -> BenchResult:
    if spec.scenario not in SCENARIOS:
        raise InvalidRequest(f"unknown scenario {spec.scenario!r}; "
                             f"choose from {', '.join(SCENARIOS)}")
    profile = profile or DelayProfile()
    root_param = spec.params.get("root")
    if root_param:
        root = Path(root_param)
        if root.exists() and any(root.iterdir()):
            raise DirtyEnvironment(f"bench root {root} is not empty")
        root.mkdir(parents=True, exist_ok=True)
        cleanup = None
    else:
        cleanup = tempfile.mkdtemp(prefix="metalforge-bench-")
        root = Path(cleanup)
    try:
        runner = _RUNNERS[spec.scenario]
        result = runner(spec, root, profile)
        if spec.output_path:
            Path(spec.output_path).write_text(result.csv_text)
        return result
    finally:
        if cleanup is not None:
            shutil.rmtree(cleanup, ignore_errors=True)


# -- shared machinery -----------------------------------------------------------


def synthetic_image(size: int, seed: int) -> bytes:
    """Mostly-zero disk with seeded data in the boot prefix and sparse
    markers, so imports stay small while boot reads hit real bytes."""
    buf = bytearray(size)
    rng = random.Random(seed)
    head = min(size, 2 * 1024 * 1024)
    buf[:head] = rng.randbytes(head)
    pos = 8 * 1024 * 1024
    while pos + 4096 <= size:
        buf[pos:pos + 4096] = rng.randbytes(4096)
        pos += 8 * 1024 * 1024
    return bytes(buf)


def _image_size(spec: BenchSpec) -> int:
    return int(spec.params.get("image_mib", 64)) * 1024 * 1024


def _build_stack(root: Path, n_nodes: int, image_size: int, seed: int,
                 profile: DelayProfile) -> tuple[Orchestrator, NodeSimulator, str]:
    svc = Orchestrator.open(root, StackConfig(worker_limit=profile.worker_limit))
    for i in range(n_nodes):
        svc.pool.register_node(f"02:00:00:00:{i // 256:02x}:{i % 256:02x}")
    golden = svc.images.import_image(BENCH_TENANT, "base-image",
                                     synthetic_image(image_size, seed))
    sim = NodeSimulator(svc, profile)
    return svc, sim, golden


def _csv(header: str, rows: list) -> str:
    out = io.StringIO()
    out.write(header + "\n")
    for row in rows:
        out.write(",".join(_cell(v) for v in row) + "\n")
    return out.getvalue()


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _orchestration_ms(profile: DelayProfile, steps, commits: int) -> float:
    return (sum(profile.step_cost(s) for s in steps)
            + commits * profile.journal_commit_ms)


def _provision_flow(name: str, profile: DelayProfile, journal_ms_per_step: float,
                    requests: int, nbytes: int) -> Flow:
    steps = []
    for step in ORCH_STEPS:
        steps.append(use(WORKERS, profile.step_cost(step)))
        steps.append(use(JOURNAL, journal_ms_per_step))
    steps.append(delay(profile.firmware_ms + profile.config_fetch_ms))
    steps.append(use(GATEWAY, profile.connect_ms + profile.io_ms(requests, nbytes)))
    return Flow(name, tuple(steps))


def _boot_io(report) -> tuple[int, int]:
    return report.requests, report.bytes_read + report.bytes_written


# -- scenarios --------------------------------------------------------------------


def _provision_single(spec: BenchSpec, root: Path, profile: DelayProfile) -> BenchResult:
    size = _image_size(spec)
    svc, sim, golden = _build_stack(root / "stack", 1, size, spec.seed, profile)
    before = svc.journal.commits
    rec = svc.provision(BENCH_TENANT, golden)
    commits = svc.journal.commits - before
    report = sim.power_on(rec.node, os_boot_pattern(size, seed=spec.seed))
    rows = [(step, profile.step_cost(step)) for step in ORCH_STEPS]
    rows.append(("journal", commits * profile.journal_commit_ms))
    rows.extend(report.phases)
    total = sum(ms for _, ms in rows)
    rows.append(("total", total))
    svc.close()
    metrics = {
        "total_ms": total,
        "boot_bytes_read": report.bytes_read,
        "commits": commits,
    }
    return BenchResult(
        scenario=spec.scenario,
        csv_text=_csv("phase,ms", rows),
        summary=f"provision_single: total {total:.3f} ms "
                f"({report.bytes_read} bytes read at boot)",
        metrics=metrics,
    )


def _provision_scaling(spec: BenchSpec, root: Path, profile: DelayProfile) -> BenchResult:
    size = _image_size(spec)
    n_values = _int_list(spec.params.get("n_values", [1, 2, 4, 8, 16, 24]))
    rows = []
    totals: dict[int, float] = {}
    overheads: dict[int, float] = {}
    for n in n_values:
        svc, sim, golden = _build_stack(root / f"n{n}", n, size, spec.seed, profile)
        before = svc.journal.commits
        with ThreadPoolExecutor(max_workers=n) as pool:
            records = list(pool.map(
                lambda _: svc.provision(BENCH_TENANT, golden), range(n)))
        commits_per_flow = (svc.journal.commits - before) / n
        pattern = os_boot_pattern(size, seed=spec.seed)
        reports = [sim.power_on(rec.node, pattern) for rec in records]
        requests, nbytes = _boot_io(reports[0])
        journal_ms = commits_per_flow / len(ORCH_STEPS) * profile.journal_commit_ms
        flows = [_provision_flow(rec.node, profile, journal_ms, requests, nbytes)
                 for rec in sorted(records, key=lambda r: r.node)]
        total = makespan(flows, {WORKERS: profile.worker_limit, JOURNAL: 1, GATEWAY: 1})
        baseline = profile.boot_ms(requests, nbytes)
        totals[n] = total
        overheads[n] = total - baseline
        rows.append((n, total, total - baseline))
        svc.close()
    summary = "provision_scaling: " + " ".join(
        f"n={n}:{totals[n]:.1f}ms" for n in n_values)
    return BenchResult(
        scenario=spec.scenario,
        csv_text=_csv("n,total_ms,overhead_ms", rows),
        summary=summary,
        metrics={"totals": totals, "overheads": overheads},
    )


def _reprovision_vs_fresh(spec: BenchSpec, root: Path, profile: DelayProfile) -> BenchResult:
    size = _image_size(spec)
    svc, sim, golden = _build_stack(root / "stack", 2, size, spec.seed, profile)
    rec = svc.provision(BENCH_TENANT, golden)
    sim.power_on(rec.node, os_boot_pattern(size, seed=spec.seed))

    marker_off = size // 2
    marker = random.Random(spec.seed ^ 0x6D72).randbytes(4096)
    svc.gateway.session(rec.node).write(rec.target, marker_off, marker)

    sim.node(rec.node).inject_failure()
    before = svc.journal.commits
    new_rec = svc.recover(BENCH_TENANT, rec.node)
    recover_commits = svc.journal.commits - before
    report = sim.power_on(new_rec.node, os_boot_pattern(size, seed=spec.seed))
    requests, nbytes = _boot_io(report)

    marker_back = svc.gateway.session(new_rec.node).read(new_rec.target, marker_off,
                                                         len(marker))
    rows = STEPS[RECOVER_FROM:]  # recover keeps the disk and target: it sweeps and redoes the rest
    steps = [undo for *_, undo in reversed(rows)] + ["release"] + [name for name, *_ in rows]
    reprovision_ms = (_orchestration_ms(profile, steps, recover_commits)
                      + profile.boot_ms(requests, nbytes))
    fresh_ms = (2 * profile.firmware_ms + profile.diskful_install_ms
                + profile.transfer_ms(size))
    svc.close()
    ratio = fresh_ms / reprovision_ms
    rows = [("fresh_diskful", fresh_ms), ("reprovision", reprovision_ms)]
    return BenchResult(
        scenario=spec.scenario,
        csv_text=_csv("mode,total_ms", rows),
        summary=(f"reprovision_vs_fresh: fresh {fresh_ms:.1f} ms, "
                 f"reprovision {reprovision_ms:.1f} ms ({ratio:.2f}x faster)"),
        metrics={
            "fresh_ms": fresh_ms,
            "reprovision_ms": reprovision_ms,
            "ratio": ratio,
            "marker_ok": marker_back == marker,
        },
    )


def _traffic_curves(spec: BenchSpec, root: Path, profile: DelayProfile) -> BenchResult:
    size = _image_size(spec)
    reps = int(spec.params.get("reps", 5))
    svc, sim, golden = _build_stack(root / "stack", 1, size, spec.seed, profile)
    rec = svc.provision(BENCH_TENANT, golden)
    node = sim.node(rec.node)
    boot = node.power_on(os_boot_pattern(size, seed=spec.seed))
    reads = node.run_workload(read_heavy_workload(size, seed=spec.seed), reps)
    writes = node.run_workload(log_append_workload(size, seed=spec.seed), reps)
    rows = []
    cum_read, cum_write = 0, 0
    read_deltas, write_deltas = [], []
    for i in range(reps):
        read_deltas.append(reads[i].bytes_read)
        write_deltas.append(writes[i].bytes_written)
        cum_read += reads[i].bytes_read
        cum_write += writes[i].bytes_written
        rows.append((i + 1, reads[i].bytes_read, writes[i].bytes_written,
                     cum_read, cum_write))
    svc.close()
    return BenchResult(
        scenario=spec.scenario,
        csv_text=_csv("rep,read_bytes,write_bytes,cum_read_bytes,cum_write_bytes", rows),
        summary=(f"traffic_curves: boot read {boot.bytes_read} bytes; "
                 f"read deltas {read_deltas}; write deltas {write_deltas}"),
        metrics={
            "boot_read_bytes": boot.bytes_read,
            "read_deltas": read_deltas,
            "write_deltas": write_deltas,
        },
    )


def _int_list(value) -> list:
    if isinstance(value, str):
        return [int(v) for v in value.split(",") if v]
    if isinstance(value, int):
        return [value]
    return [int(v) for v in value]


_RUNNERS = {
    "provision_single": _provision_single,
    "provision_scaling": _provision_scaling,
    "reprovision_vs_fresh": _reprovision_vs_fresh,
    "traffic_curves": _traffic_curves,
}
