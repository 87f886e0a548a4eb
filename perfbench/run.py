"""Wall-clock benchmark of metalforge: end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload fleet_churn --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the program from
``src/``; nothing is installed or built. Each run makes the workload's
repetitions one after another, each on a fresh stack root under
``.perfbench_work/`` in the checkout, and deletes the root afterwards.

``--trace 0`` reports the end-to-end metrics: medians pooled over the
repetitions, and the median set-up time. ``--trace 1`` runs the first,
third, ... repetition with per-layer wrappers installed, and reports the
per-layer metrics plus the tracing overhead: the median loop wall time of
the traced repetitions over that of the untraced ones.

The last line of standard output is the result object; the line before it
holds the diagnostics (tails, sample counts, host speed probe, root
filesystem). A run is correct only when every operation gave the answer the
reference model expects, every repetition ended with ``verify_invariants()
== []`` and the repetitions' exact counts are identical.
"""

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
WORK = CHECKOUT / ".perfbench_work"
CALIB_LOOPS = 1_000_000

# timing -> (unit, Samples attribute, seconds to unit)
TIMINGS = {
    "provision_ms": ("ms", "provision", 1e3),
    "deprovision_ms": ("ms", "deprovision", 1e3),
    "boot_ms": ("ms", "boot", 1e3),
    "read_us": ("us", "read", 1e6),
    "write_us": ("us", "write", 1e6),
    "snapshot_ms": ("ms", "snapshot", 1e3),
    "recover_ms": ("ms", "recover", 1e3),
    "reopen_ms": ("ms", "reopen", 1e3),
}
# Recorded in the diagnostics only. These steps create or rewrite netboot
# files, and on a disk filesystem the cost of that depends on the
# filesystem's recent history: on identical code the per-run p50 moved
# between 2.3 and 3.9 ms (provision, 1000 nodes), 1.4 and 4.4 ms (recover)
# and 169 and 274 ms (reopen, 256 nodes).
NOT_GATED = {"provision_ms", "recover_ms", "reopen_ms"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def calibrate() -> float:
    """Host speed probe: a fixed pure-Python loop, in milliseconds."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIB_LOOPS):
        total += i & 7
    return (time.perf_counter() - start) * 1e3


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) > 2 and str(path).startswith(fields[1]) \
                        and len(fields[1]) > len(best):
                    best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


def p50_p90(values: list) -> tuple[float, float]:
    ordered = sorted(values)
    return statistics.median(ordered), ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]


def end_to_end(samples: list, image_size: int, detail: dict) -> dict:
    metrics = {"setup_s": (statistics.median(s.setup for s in samples), "s")}
    detail["setup_s"] = [s.setup for s in samples]
    for name, (unit, attr, scale) in TIMINGS.items():
        values = [v * scale for s in samples for v in getattr(s, attr)]
        p50, p90 = p50_p90(values)
        if name not in NOT_GATED:
            metrics[name] = (p50, unit)
        detail[name] = {"p50": p50, "p90": p90, "n": len(values),
                        "rep_p50": [statistics.median(getattr(s, attr)) * scale for s in samples]}
    cycles = [c for s in samples for c in s.churn_cycles]
    metrics["churn_nodes_s"] = (len(cycles) / sum(cycles), "nodes/s")
    guest_time = sum(sum(s.read) + sum(s.write) for s in samples)
    guest_ops = sum(len(s.read) + len(s.write) for s in samples)
    metrics["guest_ops_s"] = (guest_ops / guest_time, "ops/s")
    first = samples[0]
    (boot_bytes,) = first.boot_bytes
    metrics["boot_read_fraction"] = (boot_bytes / image_size, "ratio")
    metrics["stored_bytes_per_written_byte"] = (first.stored / first.guest_written, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (CHECKOUT / "src" / "metalforge" / "__init__.py").is_file():
        print(f"perfbench: no metalforge sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(CHECKOUT / "src"))
    import layer_trace
    import workloads

    if args.workload not in workloads.PLANS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.PLANS)}", file=sys.stderr)
        return 2
    plan = workloads.PLANS[args.workload].scaled(args.seconds)
    inputs = workloads.Inputs.make(args.seed, plan)
    calib_start = calibrate()

    run_dir = WORK / f"run-{os.getpid()}"
    samples, tracers = [], []
    try:
        for rep in range(plan.reps):
            tracer = layer_trace.Tracer() if args.trace and rep % 2 == 0 else None
            root = run_dir / f"rep{rep}"
            samples.append(workloads.Repetition(plan, inputs, root).run(tracer))
            if tracer is not None:
                tracers.append(tracer)
            shutil.rmtree(root, ignore_errors=True)
            gc.collect()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    calib_end = calibrate()

    failed = sum(s.failed for s in samples)
    attempted = sum(s.attempted for s in samples)
    errors = [e for s in samples for e in s.errors]
    fingerprints = [s.fingerprint for s in samples]
    if failed == 0 and any(f != fingerprints[0] for f in fingerprints):
        errors.append(f"exact counts differ between repetitions: {fingerprints}")
    trace_counts = [layer_trace.counts(t) for t in tracers]
    if any(c != trace_counts[0] for c in trace_counts):
        errors.append("per-layer call counts differ between traced repetitions")
    correct = failed == 0 and not errors

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "plan": vars(plan),
        "root": str(run_dir), "root_fs": filesystem_of(CHECKOUT),
        "host.calib_ms": [calib_start, calib_end],
        "loop_wall_s": [s.loop_wall for s in samples],
        "failed_op_share": failed / max(attempted, 1),
        "exact_counts": fingerprints[0],
        "errors": errors,
    }
    metrics = {}
    if failed == 0:
        if args.trace:
            overhead = (statistics.median(s.loop_wall for s in samples[::2])
                        / statistics.median(s.loop_wall for s in samples[1::2]))
            units = layer_trace.metric_units()
            layer_counts = {
                "image_store.blocks_copied": fingerprints[0]["copy_stats"]["blocks_copied"],
                "image_store.blocks_materialized":
                    fingerprints[0]["copy_stats"]["blocks_materialized"],
                "target_gateway.bytes_read": fingerprints[0]["traffic"]["bytes_read"],
                "target_gateway.bytes_written": fingerprints[0]["traffic"]["bytes_written"],
            }
            values = layer_trace.summarize(tracers, layer_counts, overhead)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in units.items()}
        else:
            metrics = end_to_end(samples, workloads.IMAGE_SIZE, detail)
    for line in errors:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
