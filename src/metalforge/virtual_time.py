"""Deterministic virtual-time model for the timing experiments.

Nothing here sleeps. Real operations run at native speed; their simulated
durations come from a :class:`DelayProfile` and, for concurrent scenarios,
from :func:`run_schedule`, a small discrete-event scheduler that computes
the makespan of flows contending for capacity-limited resources (the
orchestration worker pool, the serial journal, the block gateway).

A flow is a static list of steps, each either local time passing
(``delay``) or exclusive occupancy of one resource slot (``use``). Flows
all start at t=0; resource slots are granted in ready-time order, ties
broken by flow index, so results are bit-stable across runs.
"""

import heapq
from dataclasses import dataclass, field

DEFAULT_STEP_MS = {
    "allocate": 2.0,
    "clone": 25.0,
    "export": 10.0,
    "configure": 5.0,
    "attach": 8.0,
    "detach": 5.0,
    "remove_config": 3.0,
    "delete_target": 5.0,
    "delete_image": 5.0,
    "release": 2.0,
}

WORKERS = "workers"
JOURNAL = "journal"
GATEWAY = "gateway"


@dataclass
class DelayProfile:
    """Simulated service times; defaults are the documented desk-scale
    profile (hardware firmware delays scaled down ~60x)."""

    firmware_ms: float = 3000.0
    config_fetch_ms: float = 1.0
    connect_ms: float = 0.5
    request_ms: float = 0.01
    bandwidth_bytes_per_ms: float = 1024.0 * 1024.0 * 1024.0 / 1000.0  # 1 GiB/s
    journal_commit_ms: float = 0.1
    step_ms: dict = field(default_factory=lambda: dict(DEFAULT_STEP_MS))
    diskful_install_ms: float = 10000.0
    worker_limit: int = 12

    def step_cost(self, step: str) -> float:
        return self.step_ms.get(step, 5.0)

    def transfer_ms(self, nbytes: int) -> float:
        return nbytes / self.bandwidth_bytes_per_ms

    def io_ms(self, requests: int, nbytes: int) -> float:
        return requests * self.request_ms + self.transfer_ms(nbytes)

    def boot_ms(self, requests: int, nbytes: int) -> float:
        """One node's boot with nothing else on the wire."""
        return (self.firmware_ms + self.config_fetch_ms + self.connect_ms
                + self.io_ms(requests, nbytes))


@dataclass(frozen=True)
class Flow:
    """One logical actor's step list: ('delay', ms) or ('use', resource, ms)."""

    name: str
    steps: tuple


def delay(ms: float) -> tuple:
    return ("delay", ms)


def use(resource: str, ms: float) -> tuple:
    return ("use", resource, ms)


def run_schedule(flows: list[Flow], capacities: dict[str, int]) -> dict[str, float]:
    """Completion time of each flow; all flows start at t=0.

    Resources grant slots first-come-first-served by the requester's ready
    time. Deterministic for fixed inputs.
    """
    slots: dict[str, list[float]] = {
        name: [0.0] * max(1, cap) for name, cap in capacities.items()
    }
    done: dict[str, float] = {}
    heap: list[tuple[float, int, int]] = []
    for i, flow in enumerate(flows):
        heapq.heappush(heap, (0.0, i, 0))
    while heap:
        now, i, step_idx = heapq.heappop(heap)
        flow = flows[i]
        if step_idx == len(flow.steps):
            done[flow.name] = now
            continue
        step = flow.steps[step_idx]
        if step[0] == "delay":
            heapq.heappush(heap, (now + step[1], i, step_idx + 1))
        elif step[0] == "use":
            _, resource, duration = step
            pool = slots.get(resource)
            if pool is None:
                pool = slots[resource] = [0.0]
            free_at = heapq.heappop(pool)
            end = max(now, free_at) + duration
            heapq.heappush(pool, end)
            heapq.heappush(heap, (end, i, step_idx + 1))
        else:
            raise ValueError(f"unknown step kind {step[0]!r}")
    return done


def makespan(flows: list[Flow], capacities: dict[str, int]) -> float:
    done = run_schedule(flows, capacities)
    return max(done.values(), default=0.0)
