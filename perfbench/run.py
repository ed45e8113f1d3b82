"""r2o benchmark: publish, cold browse and warm browse over real sockets.

    python3 perfbench/run.py --workload publish|browse-cold|browse-warm \
        --seed N --seconds S --trace 0|1

Run from the repository root. A child process serves the first party and
the off-site store on 127.0.0.1; this process is the one closed-loop
client and the r2o user, running one operation at a time for S seconds of
measured time. Every output is checked. The last line of standard output
is one JSON object: with `--trace 0` the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run. The exit code is 1 when
a check failed and 2 when the r2o sources are missing. See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracing import LayerTracer, Tracer, covered
from workloads import FLOOR_MS, WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUPS = 3            # set-ups per run; setup_s is their median
WALL_LIMIT = 2.0      # the timed loop also ends after this many x --seconds
STALL_MS = 900.0      # a page view this slow waited on a SYN retransmit
SLOW_FETCH_MS = 1000.0

# the end-to-end metrics BENCHMARK.json gates: name, unit, better, bound
END_TO_END = (
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
# printed but not gated, because between runs of the same code they move
# by more than the largest bound allowed (README.md, "Steadiness")
REPORTED_ONLY = (("latency_p90_ms", "ms"), ("latency_tail_ms", "ms"),
                 ("overhead_p50_ms", "ms"), ("throughput_ops_s", "1/s"),
                 ("error_rate", "ratio"))

CLIENT_CALLS = (
    "codec.encode_qr", "codec.to_png", "codec.from_png", "codec.decode_qr",
    "store.upload", "firstparty.upload_photo",
    "fetch.page", "fetch.pseudo", "fetch.offsite",
    "cache.lookup", "cache.record_resolved", "cache.record_created",
    "filter.is_candidate", "rewriter.scan_html", "rewriter.rewrite_html",
    "core.resolve_page", "core.read_path", "core.write_path",
)
HOST_CALLS = ("host.get_photo_bytes", "host.render_album_page",
              "host.store_fetch", "host.store_upload", "host.fp_upload")
FETCH_KINDS = ("page", "pseudo", "offsite")
CORE_CALLS = ("core.resolve_page", "core.read_path", "core.write_path")
# client call vs. the host call that serves it; the gap is transport
TRANSPORT = (("page", "fetch.page", "host.render_album_page"),
             ("pseudo", "fetch.pseudo", "host.get_photo_bytes"),
             ("offsite", "fetch.offsite", "host.store_fetch"),
             ("store_upload", "store.upload", "host.store_upload"),
             ("fp_upload", "firstparty.upload_photo", "host.fp_upload"))
OUTCOMES = ("core.replaced.cache_hit", "core.replaced.decoded",
            "core.not_indirection", "core.failed")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in CLIENT_CALLS + HOST_CALLS:
        spec += [(f"{name}.calls_per_op", "count", "lower"),
                 (f"{name}.p50_ms", "ms", "lower"),
                 (f"{name}.busy_ms_per_op", "ms", "lower")]
    spec += [(f"fetch.{k}.tail_ms", "ms", "lower") for k in FETCH_KINDS]
    spec += [(f"{c}.self_ms_per_op", "ms", "lower") for c in CORE_CALLS]
    spec += [("fetch.slow_1s.count_per_op", "count", "lower"),
             ("http.connections_per_op", "count", "lower")]
    spec += [(f"transport.{k}_ms", "ms", "lower") for k, _, _ in TRANSPORT]
    spec += [("cache.hit_ratio", "ratio", "higher"),
             ("cache.evictions_per_op", "count", "lower"),
             ("filter.accept_ratio", "ratio", "higher")]
    spec += [(o, "count", "lower" if o == "core.failed" else "higher")
             for o in OUTCOMES]
    spec += [("decode.success_ratio", "ratio", "higher"),
             ("trace.unattributed_share", "ratio", "lower"),
             ("trace.overhead_ms", "ms", "lower"),
             ("trace.overhead_share", "ratio", "lower")]
    return spec


# -- statistics -------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); with ten samples or fewer
    it is the maximum, with none beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def median(samples: list[float]) -> float:
    return float(statistics.median(samples)) if samples else 0.0


def machine() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "os": platform.platform(),
            "traffic": "loopback 127.0.0.1 only",
            "delays": "simulated server-side sleeps (11 ms first-party "
                      "photo read, 12 ms store upload and fetch)",
            "tracing": "the benchmark's own wrappers in this process and the "
                       "hosts process; no machine-wide tracing"}


# -- the timed loop ---------------------------------------------------------

@dataclass
class Run:
    """Samples of one timed loop."""

    latency: list[float] = field(default_factory=list)   # ms, every op
    traced: list[bool] = field(default_factory=list)
    windows: list[tuple[int, float, float]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    cache_growth: int = 0    # cache size change over the traced ops
    measured_s: float = 0.0


def timed_loop(bench, inputs, seconds: float, layers) -> tuple[Run, list]:
    """Run ops for `seconds` of measured time; returns the samples and, for
    publish, what was published, to be verified after the loop."""
    run = Run()
    published = []
    wall0 = time.perf_counter()
    i = 0
    while (run.measured_s < seconds
           and time.perf_counter() - wall0 < seconds * WALL_LIMIT):
        # a traced run alternates traced and untraced ops; each page is
        # viewed twice in a row so both halves see every page
        traced = layers is not None and i % 2 == 0
        page = bench.pages[i // 2 % len(bench.pages)] if bench.pages else None
        cache = (workloads.fresh_reader_cache(inputs)
                 if bench.workload == "browse-cold" else bench.cache)
        before = len(cache)
        if traced:
            layers.tracer.request = i
            layers.install()
        t0 = time.perf_counter()
        try:
            if page is None:
                out = workloads.publish_op(bench, inputs, i)
            else:
                out = workloads.browse_op(bench, page, cache)
            error = None
        except Exception as exc:  # an op failure is a sample, not the end
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if traced:
            layers.uninstall()
            run.windows.append((i, t0, t1))
            run.cache_growth += len(cache) - before
        run.measured_s += t1 - t0
        run.latency.append((t1 - t0) * 1000.0)
        run.traced.append(traced)
        if error is None and page is not None:
            try:
                workloads.check_page(out, page)
            except CheckFailed as exc:
                error = str(exc)
        elif error is None:
            published.append(out)
        if error is not None:
            run.failures.append(f"op {i}: {error}")
        i += 1
    return run, published


# -- metrics ----------------------------------------------------------------

def end_to_end(workload: str, run: Run,
               setups: list[float]) -> dict[str, float]:
    lat = run.latency
    floor = FLOOR_MS[workload]
    return {
        "latency_p50_ms": median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10)[-1],
        "latency_tail_ms": tail(lat)[0],
        "overhead_p50_ms": median([x - floor for x in lat]),
        "throughput_ops_s": len(lat) / run.measured_s,
        "setup_s": median(setups),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": len(run.failures) / len(lat),
    }


def per_layer(run: Run, tracer,
              host_calls: dict[str, list[list[float]]]) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    p50 is wall time per call; busy is the calling thread's CPU time inside
    the call, so time spent waiting for the GIL or the network is not busy.
    Client calls are divided by the traced ops, host calls by every timed op.
    """
    ops = len(run.windows)
    timed_ops = len(run.latency)
    durations: dict[str, list[float]] = defaultdict(list)   # wall ms
    busy: dict[str, float] = defaultdict(float)              # CPU ms
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    layer_spans: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, name, start, end, parent, request, cpu in tracer.spans:
        durations[name].append((end - start) * 1000.0)
        busy[name] += cpu * 1000.0
        if parent is not None:
            children[parent].append((start, end))
        if not name.startswith("core."):
            layer_spans[request].append((start, end))
    for name, calls in host_calls.items():
        durations[name] = [wall for wall, _ in calls]
        busy[name] = sum(cpu for _, cpu in calls)

    m: dict[str, float] = {}
    for name in CLIENT_CALLS + HOST_CALLS:
        d = durations.get(name, [])
        base = timed_ops if name.startswith("host.") else ops
        m[f"{name}.calls_per_op"] = len(d) / base
        m[f"{name}.p50_ms"] = median(d)
        m[f"{name}.busy_ms_per_op"] = busy[name] / base
    for kind in FETCH_KINDS:
        d = durations.get(f"fetch.{kind}", [])
        m[f"fetch.{kind}.tail_ms"] = tail(d)[0] if d else 0.0
    self_ms: dict[str, float] = defaultdict(float)
    for sid, name, start, end, parent, request, _ in tracer.spans:
        if name in CORE_CALLS:
            self_ms[name] += ((end - start) - covered(
                children.get(sid, []), start, end)) * 1000.0
    for name in CORE_CALLS:
        m[f"{name}.self_ms_per_op"] = self_ms[name] / ops
    m["fetch.slow_1s.count_per_op"] = sum(
        x >= SLOW_FETCH_MS for k in FETCH_KINDS
        for x in durations.get(f"fetch.{k}", [])) / ops
    m["http.connections_per_op"] = len(durations.get("http.connect", [])) / ops
    for kind, client, host in TRANSPORT:
        c, h = durations.get(client, []), durations.get(host, [])
        m[f"transport.{kind}_ms"] = (
            sum(c) / len(c) - sum(h) / len(h) if c and h else 0.0)
    counts = tracer.counts
    lookups = counts["cache.hits"] + counts["cache.misses"]
    m["cache.hit_ratio"] = counts["cache.hits"] / lookups if lookups else 0.0
    m["cache.evictions_per_op"] = (
        counts["cache.inserted"] - run.cache_growth) / ops
    scanned = len(durations.get("filter.is_candidate", []))
    m["filter.accept_ratio"] = (
        counts["filter.accepted"] / scanned if scanned else 0.0)
    for outcome in OUTCOMES:
        m[outcome] = counts[outcome] / ops
    pseudo = len(durations.get("fetch.pseudo", []))
    m["decode.success_ratio"] = (
        counts["core.replaced.decoded"] / pseudo if pseudo else 0.0)
    wall = sum(t1 - t0 for _, t0, t1 in run.windows)
    m["trace.unattributed_share"] = sum(
        (t1 - t0) - covered(layer_spans.get(i, []), t0, t1)
        for i, t0, t1 in run.windows) / wall
    traced = [x for x, t in zip(run.latency, run.traced) if t]
    untraced = [x for x, t in zip(run.latency, run.traced) if not t]
    m["trace.overhead_ms"] = median(traced) - median(untraced)
    m["trace.overhead_share"] = m["trace.overhead_ms"] / median(untraced)
    return m


def write_spans(path: Path, tracer, run: Run) -> None:
    t_zero = run.windows[0][1] if run.windows else 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for sid, name, start, end, parent, request, cpu in tracer.spans:
            f.write(json.dumps({
                "id": sid, "name": name, "parent": parent,
                "request": request,
                "start_ms": round((start - t_zero) * 1000.0, 4),
                "end_ms": round((end - t_zero) * 1000.0, 4),
                "cpu_ms": round(cpu * 1000.0, 4)}) + "\n")


# -- entry point ------------------------------------------------------------

def _stop_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def _report(workload: str, run: Run, setups: list[float],
            lat: list[float]) -> None:
    value, pct, beyond = tail(lat)
    print(f"closed loop: 1 client, {len(run.latency)} ops in "
          f"{run.measured_s:.1f} s measured; simulated floor "
          f"{FLOOR_MS[workload]:g} ms per op")
    print(f"setup_s per set-up: {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"latency_tail_ms is p{pct:.2f}: {beyond} of {len(lat)} samples "
          f"beyond {value:.2f} ms; latency_p90_ms has {len(lat) // 10} "
          f"beyond")
    stalls = sum(x >= STALL_MS for x in lat)
    print(f"stalls: {stalls} of {len(lat)} ops took >= {STALL_MS:g} ms")
    print(f"{len(run.failures)} failed of {len(run.latency)} attempted")
    for reason in run.failures[:10]:
        print(f"  failure: {reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "r2o" / "__init__.py").is_file():
        print(f"perfbench: no r2o package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _stop_on_signal)

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(machine()))
    inputs = workloads.make_inputs(args.workload, args.seed)
    setups: list[float] = []
    bench = None
    try:
        for _ in range(SETUPS):
            if bench is not None:
                bench.hosts.close()
            t0 = time.perf_counter()
            bench = workloads.set_up(args.workload, args.seed, inputs,
                                     bool(args.trace))
            setups.append(time.perf_counter() - t0)
        layers = None
        if args.trace:
            bench.hosts.reset()
            layers = LayerTracer(Tracer())
        run, published = timed_loop(bench, inputs, args.seconds, layers)
        host_calls = bench.hosts.dump() if args.trace else {}
        run.failures += [f"publish check: {r}"
                         for r in workloads.verify_published(published)]
    finally:
        if bench is not None:
            bench.hosts.close()

    if args.trace:
        lat = [x for x, t in zip(run.latency, run.traced) if not t]
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(spans, layers.tracer, run)
        print(f"spans: {len(layers.tracer.spans)} written to "
              f"{spans.relative_to(ROOT)}")
        values = per_layer(run, layers.tracer, host_calls)
        units = {name: unit for name, unit, _ in per_layer_spec()}
        print(f"traced ops: {len(run.windows)}; untraced ops: {len(lat)}")
    else:
        lat = run.latency
        values = end_to_end(args.workload, run, setups)
        units = {name: unit for name, unit, _, _ in END_TO_END}
        units.update(REPORTED_ONLY)
    OUT.mkdir(exist_ok=True)
    (OUT / f"latency-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"latency_ms": run.latency,
                              "traced": run.traced, "setup_s": setups,
                              "failures": run.failures}))
    _report(args.workload, run, setups, lat)
    for name, value in values.items():
        print(f"{name:40s} {value:14.4f} {units[name]}")
    reported_only = dict(REPORTED_ONLY)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": len(run.latency),
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                    if name not in reported_only}}))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
