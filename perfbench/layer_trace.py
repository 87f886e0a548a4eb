"""Per-layer spans, recorded by wrapping metalforge's public calls at run time.

The wrappers live here, not in the program: ``Tracer.install`` swaps each
listed attribute for a timing wrapper and ``Tracer.remove`` puts the original
back. A span's self time is its duration minus the time of the spans it
encloses; the benchmark drives the stack from one thread, so one stack of
open spans is enough and no span ever waits on a lock held by another client.
"""

import os
import statistics
import time

from metalforge import (
    api,
    image_store,
    isolation,
    journal,
    netboot_config,
    node_simulator,
    orchestrator,
    target_gateway,
)

CODEC = ("encode_read_request", "encode_write_request", "decode_request",
         "encode_response", "decode_response")

# (layer, module, class or None for module functions, wrapped calls)
WRAPPED = (
    ("journal", journal, "Journal", ("append", "load")),
    ("image_store", image_store, "ImageStore",
     ("read_range", "write_range", "linked_clone", "flatten", "delete_image",
      "find_by_name")),
    ("image_store", image_store, "BlockFile", ("open", "read_block", "write_block")),
    ("target_gateway", target_gateway, "TargetGateway",
     ("target_read", "target_write", "create_target", "delete_target",
      "rebind_target")),
    ("target_gateway", target_gateway, "GatewaySession", ("submit",)),
    ("target_gateway", target_gateway, None, CODEC),
    ("isolation", isolation, "IsolationService",
     ("allocate_node", "attach_network", "detach_network", "release_node",
      "network_of")),
    ("netboot_config", netboot_config, "NetbootService",
     ("install_boot_config", "remove_boot_config", "lookup_boot",
      "regenerate_files")),
    ("orchestrator", orchestrator, "Orchestrator",
     ("provision", "deprovision", "snapshot", "recover", "open",
      "recover_incomplete")),
    ("node_simulator", node_simulator, "SimNode", ("power_on",)),
    ("api", api, "ApiServer", ("handle",)),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in WRAPPED))

# The codec calls take a microsecond or two; their medians are dropped so the
# per-layer list stays within 128 metrics (counts and self time are kept).
NO_P50 = {f"target_gateway.{name}" for name in CODEC}

RATIOS = (
    ("image_store.read_amplification", "ratio"),
    ("image_store.write_amplification", "ratio"),
    ("image_store.blocks_copied", "count"),
    ("image_store.blocks_materialized", "count"),
    ("target_gateway.bytes_read", "bytes"),
    ("target_gateway.bytes_written", "bytes"),
    ("journal.records_per_flow", "ratio"),
)
OVERHEAD = "tracing.overhead"


def _wrapped_calls():
    """(metric prefix, layer, owner, attribute) for every wrapped call."""
    for layer, module, cls, names in WRAPPED:
        owner = getattr(module, cls) if cls else module
        for name in names:
            yield (f"{layer}.{cls}.{name}" if cls else f"{layer}.{name}"), layer, owner, name


def call_keys() -> list[tuple[str, str]]:
    """(metric prefix, layer) for every wrapped call, in report order."""
    return [(key, layer) for key, layer, _owner, _name in _wrapped_calls()]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for key, _layer in call_keys():
        units[f"{key}.n"] = "count"
        units[f"{key}.self_ms"] = "ms"
        if key not in NO_P50:
            units[f"{key}.p50_us"] = "us"
    units.update(RATIOS)
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    units[OVERHEAD] = "ratio"
    return units


class _CallStat:
    __slots__ = ("n", "self_ns", "durations")

    def __init__(self):
        self.n = 0
        self.self_ns = 0
        self.durations: list[int] = []


class Tracer:
    """Spans and byte counts for one traced repetition."""

    def __init__(self):
        self.calls = {key: _CallStat() for key, _ in call_keys()}
        self.errors = dict.fromkeys(LAYERS, 0)
        # bytes asked of read_range / returned by read_block inside it, and
        # bytes given to write_range / appended by write_block inside it
        self.read_requested = 0
        self.read_returned = 0
        self.write_passed = 0
        self.write_appended = 0
        self._open = [0]  # child time of each open span; [0] is the root
        self._depth = {"read_range": 0, "write_range": 0}
        self._patches: list[tuple[object, str, object]] = []

    # -- installing and removing the wrappers ---------------------------------

    def install(self) -> None:
        for key, layer, owner, name in _wrapped_calls():
            original = vars(owner)[name]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._span(key, layer, name, original.__func__))
            else:
                wrapped = self._span(key, layer, name, original)
            self._patches.append((owner, name, original))
            setattr(owner, name, wrapped)

    def remove(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- the span wrapper -----------------------------------------------------------

    def _span(self, key: str, layer: str, name: str, fn):
        stat = self.calls[key]
        stack = self._open
        errors = self.errors
        before, after = self._hooks(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            result = None
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                duration = clock() - start
                child = stack.pop()
                stack[-1] += duration
                stat.n += 1
                stat.self_ns += duration - child
                stat.durations.append(duration)
                if after:
                    after(args, token, result)

        return wrapper

    def _hooks(self, name: str):
        """Byte accounting around the four block-path calls; none elsewhere."""
        depth = self._depth
        if name == "read_range":
            def before(args, kwargs):
                self.read_requested += args[3] if len(args) > 3 else kwargs["length"]
                depth["read_range"] += 1

            def after(args, token, result):
                depth["read_range"] -= 1
            return before, after
        if name == "write_range":
            def before(args, kwargs):
                data = args[3] if len(args) > 3 else kwargs["data"]
                self.write_passed += len(data)
                depth["write_range"] += 1

            def after(args, token, result):
                depth["write_range"] -= 1
            return before, after
        if name == "read_block":
            def after(args, token, result):
                if depth["read_range"] and result is not None:
                    self.read_returned += len(result)
            return None, after
        if name == "write_block":
            def before(args, kwargs):
                return os.stat(args[0].path).st_size if depth["write_range"] else None

            def after(args, token, result):
                if token is not None:
                    self.write_appended += os.stat(args[0].path).st_size - token
            return before, after
        return None, None


def summarize(tracers: list[Tracer], layer_counts: dict[str, int],
              overhead: float) -> dict[str, float]:
    """Per-layer metrics over the traced repetitions.

    Counts are per repetition (the repetitions run identical work), self
    time is the mean per repetition and medians pool every span.
    ``layer_counts`` carries the counts the program keeps itself: copy
    statistics and gateway traffic of one repetition.
    """
    reps = len(tracers)
    first = tracers[0]
    out: dict[str, float] = {}
    for key, _layer in call_keys():
        stats = [t.calls[key] for t in tracers]
        durations = [d for s in stats for d in s.durations]
        out[f"{key}.n"] = first.calls[key].n
        out[f"{key}.self_ms"] = sum(s.self_ns for s in stats) / reps / 1e6
        if key not in NO_P50:
            out[f"{key}.p50_us"] = statistics.median(durations) / 1e3 if durations else 0.0
    out["image_store.read_amplification"] = _ratio(first.read_returned, first.read_requested)
    out["image_store.write_amplification"] = _ratio(first.write_appended, first.write_passed)
    for name in ("image_store.blocks_copied", "image_store.blocks_materialized",
                 "target_gateway.bytes_read", "target_gateway.bytes_written"):
        out[name] = layer_counts[name]
    api_calls = first.calls["api.ApiServer.handle"].n
    out["journal.records_per_flow"] = _ratio(first.calls["journal.Journal.append"].n, api_calls)
    for layer in LAYERS:
        out[f"{layer}.errors"] = first.errors[layer]
    out[OVERHEAD] = overhead
    return out


def counts(tracer: Tracer) -> dict[str, int]:
    """The exact counts one traced repetition must repeat bit for bit."""
    out = {f"{key}.n": stat.n for key, stat in tracer.calls.items()}
    out.update({f"{layer}.errors": n for layer, n in tracer.errors.items()})
    out.update(read_requested=tracer.read_requested, read_returned=tracer.read_returned,
               write_passed=tracer.write_passed, write_appended=tracer.write_appended)
    return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
