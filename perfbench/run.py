"""Benchmark for flatcusps: one workload, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from that
checkout's ``src/`` (pure Python, nothing to build). One caller runs items
back to back, each only after the previous one returned, and every output
is checked. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give the run header and every metric with its unit.

``--trace 0`` measures the end-to-end metrics: set-up (median of several,
plus the import), then whole passes over the workload's items until
``--seconds`` have gone by, and at least ``MIN_PASSES`` of them. Every item
runs between two timings of a fixed reference computation, and every
duration is rescaled to the machine speed at which the reference takes
``REFERENCE_S``, so that other load on a shared host does not show.
``--trace 1`` wraps the package's public functions (see ``spans.py``),
runs set-up and a fixed item list traced, runs the same items untraced to
measure the overhead, writes every span to ``perfbench/out/`` and reports
per-layer metrics. Workloads and their reasons are in README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

SETUP_REPS = 3
MIN_PASSES = 2
MAX_LOOP_S = 150.0  # keeps a run under three minutes however slow items get
MAX_TRACEBACKS = 3

# Seconds the reference (``reference_time``) takes on the baseline machine,
# a 2-vCPU Xeon VM, when nothing else runs on its host. Every duration is
# reported at that speed; see README.md.
REFERENCE_S = 0.0033

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def import_package():
    """Import flatcusps from this checkout's src/, timing the import."""
    if not (SRC / "flatcusps" / "__init__.py").is_file():
        sys.exit(f"error: no flatcusps package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import flatcusps

    elapsed = time.perf_counter() - start
    if Path(flatcusps.__file__).resolve().parent != (SRC / "flatcusps").resolve():
        sys.exit(f"error: imported flatcusps from {flatcusps.__file__}, not from {SRC}")
    return flatcusps, elapsed


def clear_caches(package) -> None:
    """Empty every functools cache in the package, so set-up pays for filling them."""
    prefix = package.__name__ + "."
    for name, module in list(sys.modules.items()):
        if name == package.__name__ or name.startswith(prefix):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def header(args) -> dict:
    lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "flatcusps").glob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "src_flatcusps_lines": lines,
    }


class Tally:
    """Items attempted and failed; prints the first few tracebacks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tracebacks = 0

    def item(self, workload, item) -> tuple[float, object]:
        """Run and check one item; returns its latency in seconds and output."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = workload.run(item)
        except Exception:
            elapsed = time.perf_counter() - start
            self._fail()
            return elapsed, None
        elapsed = time.perf_counter() - start
        try:
            ok = workload.check(item, out)
        except Exception:
            ok = False
        if not ok:
            self._fail(f"{workload.name}: output check failed for item {self.attempted - 1}")
        return elapsed, out

    def finish(self, workload, outputs) -> None:
        try:
            made, failed = workload.finish(outputs)
        except Exception:
            made, failed = 1, 1
            self._fail()
        else:
            if failed:
                print(f"{workload.name}: whole-run check failed", file=sys.stderr)
        self.attempted += made
        self.failed += failed

    def _fail(self, message=None) -> None:
        self.failed += 1
        if self.tracebacks < MAX_TRACEBACKS:
            self.tracebacks += 1
            if message is None:
                traceback.print_exc(file=sys.stderr)
            else:
                print(message, file=sys.stderr)


def reference_time() -> float:
    """Seconds taken by the reference: 6x6 Fraction matrix powers, no flatcusps."""
    start = time.perf_counter()
    a = [[Fraction(i * 7 + j * 3 + 1, j + 2) for j in range(6)] for i in range(6)]
    m = a
    for _ in range(4):
        m = [[sum((m[i][k] * a[k][j] for k in range(6)), Fraction(0)) for j in range(6)] for i in range(6)]
    return time.perf_counter() - start


def calibrated(seconds: float, ref_before: float, ref_after: float) -> float:
    """A duration rescaled to the machine speed at which the reference takes REFERENCE_S."""
    return seconds * 2 * REFERENCE_S / (ref_before + ref_after)


def measure(tally, workload, items, deadline: float, keep: int = 0, tracer=None):
    """Run items in order, each between two reference timings.

    Returns raw and calibrated latencies in seconds and the first ``keep``
    outputs. Stops early, after the item in progress, at ``deadline``.
    With a tracer, spans are tagged with the item's index.
    """
    raw, cal, outputs = [], [], []
    before = reference_time()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        latency, out = tally.item(workload, item)
        after = reference_time()
        raw.append(latency)
        cal.append(calibrated(latency, before, after))
        before = after
        if len(outputs) < keep:
            outputs.append(out)
        if time.perf_counter() >= deadline:
            break
    return raw, cal, outputs


def timed_run(package, workload_cls, args, import_s: float) -> tuple[Tally, dict]:
    import_ref = reference_time()
    setup_raw, setup_cal = [], []
    for _ in range(SETUP_REPS):
        clear_caches(package)
        workload = workload_cls()
        before = reference_time()
        start = time.perf_counter()
        workload.setup(package, args.seed)
        elapsed = time.perf_counter() - start
        setup_raw.append(elapsed)
        setup_cal.append(calibrated(elapsed, before, reference_time()))
    gc.collect()

    tally = Tally()
    items = workload.items
    raw, cal, outputs = [], [], []
    passes = 0
    loop_start = time.perf_counter()
    deadline = loop_start + MAX_LOOP_S
    while passes < MIN_PASSES or time.perf_counter() - loop_start < args.seconds:
        r, c, out = measure(tally, workload, items, deadline, workload.keep_outputs)
        raw += r
        cal += c
        outputs = outputs or out
        if len(r) < len(items):
            break
        passes += 1
    loop_s = time.perf_counter() - loop_start
    tally.finish(workload, outputs)

    deciles = statistics.quantiles([x * 1e3 for x in cal], n=10)
    raw_deciles = statistics.quantiles([x * 1e3 for x in raw], n=10)
    values = {
        "items_per_s": len(cal) / math.fsum(cal),
        "item_p50_ms": deciles[4],
        "item_p90_ms": deciles[8],
        "setup_s": calibrated(import_s, import_ref, import_ref) + statistics.median(setup_cal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"items: {len(cal)} latencies, {passes} whole passes, in {loop_s:.3f} s")
    print(
        f"uncalibrated: items_per_s {len(raw) / math.fsum(raw):.4f}, item_p50_ms "
        f"{raw_deciles[4]:.3f}, item_p90_ms {raw_deciles[8]:.3f}, setup_s "
        f"{import_s + statistics.median(setup_raw):.4f} (machine at "
        f"{math.fsum(cal) / math.fsum(raw):.3f} of the reference speed)"
    )
    print(f"failed_frac = {tally.failed / tally.attempted} (of {tally.attempted} checks)")
    return tally, {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def traced_run(package, workload_cls, args) -> tuple[Tally, dict]:
    from spans import Tracer

    tally = Tally()
    clear_caches(package)
    tracer = Tracer(package)
    tracer.install()
    try:
        workload = workload_cls()
        before = reference_time()
        workload.setup(package, args.seed)
        setup_scale = calibrated(1.0, before, reference_time())
        items = workload.traced
        raw, traced, _ = measure(tally, workload, items, math.inf, tracer=tracer)
    finally:
        tracer.uninstall()
    scale = {-1: setup_scale}  # item id -> calibration factor of its spans
    scale.update((i, c / r) for i, (r, c) in enumerate(zip(raw, traced)))
    torsion_cache = package.selberg.torsion_polynomials.cache_info()

    gc.collect()
    _, untraced, _ = measure(tally, workload, items, math.inf)
    overhead = math.fsum(traced) / math.fsum(untraced)

    self_ns = tracer.self_times_ns()
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"{args.workload}-seed{args.seed}.tsv"
    tracer.write_spans(span_file, self_ns, scale)
    print(
        f"traced items: {len(items)}; untraced {len(items) / math.fsum(untraced):.4f} items/s, "
        f"traced {len(items) / math.fsum(traced):.4f} items/s (calibrated)"
    )
    print(f"spans: {len(self_ns)} written to {span_file.relative_to(ROOT)}")
    print(f"failed_frac = {tally.failed / tally.attempted} (of {tally.attempted} checks)")
    return tally, tracer.metrics(self_ns, scale, torsion_cache, overhead)


def main(argv=None) -> int:
    args = parse_args(argv)
    package, import_s = import_package()
    from workloads import WORKLOADS

    print("header " + json.dumps(header(args)))
    workload_cls = WORKLOADS[args.workload]
    if args.trace:
        tally, metrics = traced_run(package, workload_cls, args)
    else:
        tally, metrics = timed_run(package, workload_cls, args, import_s)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
