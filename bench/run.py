"""Run one lrc5 benchmark workload and print its metrics.

    python3 bench/run.py --workload store-gf16 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the repository root (any directory works; paths are taken from
this file). The program is imported from ../src, so the benchmark needs a
source checkout; without one it exits 2 and prints no result.

--trace 0 measures with tracing off and reports the end-to-end metrics:
setup_s, the median time from nothing to a ready code over 3 to 7 set-ups;
peak_rss_mb, the peak resident memory of this fresh process; op_ms, the
median operation latency; and work_per_s, the median per-operation rate of
work units (store cycles, certify subsets scanned, sim trials, cli rounds).
op_ms and work_per_s are calibrated to a nominal machine speed (see
CAL_NOMINAL_S). Each workload also prints its own named metrics, uncalibrated
and with sample counts, and failed_ratio with its base.
--trace 1 gives the per-layer metrics: it times each operation twice, with
and without spans (alternating which goes first), reports the difference as
the tracing overhead, and then repeats a fixed number of operations with
Field arithmetic calls counted. The last line of standard output is one
JSON object: correct, attempted, failed, metrics.

--workload all runs every workload in a fresh process of its own (so
peak memory is per workload) and prints each workload's named metrics.
"""

import argparse
import bisect
import contextlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 7
SETUP_BUDGET_S = 3.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_ms": "ms",
}

# The reference machine is shared: for seconds at a time it runs up to ~1.7x
# slower, and its fast speed differs from run to run. A timer signal
# therefore runs a fixed pure-Python calibration job every PROBE_S, and
# op_ms and work_per_s scale each operation by CAL_NOMINAL_S over the
# calibration times sampled during it (or next to it, for a short one):
# times as the nominal machine, on which the job takes CAL_NOMINAL_S, would
# have measured them. The samples cost about 0.4% of the run.
CAL_NOMINAL_S = 0.0004
PROBE_S = 0.1

# mean inclusive ms per call of the named span
PER_LAYER_SPANS = {
    "field.build_ms": "field.build",
    "construct.generator_ms": "construct.generator",
    "construct.parity_ms": "construct.parity",
    "construct.local_parity_ms": "construct.local_parity",
    "linalg.nullspace_ms": "linalg.nullspace",
    "linalg.rref_ms": "linalg.rref",
    "codec.encode_ms": "codec.encode",
    "codec.local_repair_ms": "codec.local_repair",
}
PER_LAYER_COUNTS = {
    "field.add_calls": "count",
    "field.sub_calls": "count",
    "field.mul_calls": "count",
    "field.dot_calls": "count",
    "codec.global_share": "ratio",
    "codec.symbols_read_per_decode": "count",
    "simulate.global_share": "ratio",
    "verify.d4_subsets": "count",
    "verify.d5_subsets_to_witness": "count",
    "formats.bytes_read": "B",
    "formats.bytes_written": "B",
}

# Further per-layer views printed by the traced run, beyond the JSON:
# (span, None) is the mean ms per call; (span, outer) the ms spent in span
# per call of the enclosing span outer.
LAYER_VIEWS = {
    "linalg.solve_ms": ("linalg.solve", None),
    "codec.hybrid_decode_ms": ("codec.hybrid_decode", None),
    "codec.erasure_decode_ms": ("codec.erasure_decode", None),
    "verify.d4_scan_ms": ("verify.d4_scan", None),
    "verify.d5_scan_ms": ("verify.d5_scan", None),
    "verify.locality_ms": ("verify.locality", None),
    "simulate.run_ms": ("simulate.run", None),
    "simulate.encode_ms": ("codec.encode", "simulate.run"),
    "simulate.local_pass_ms": ("codec.local_pass", "simulate.run"),
    "simulate.erasure_decode_ms": ("codec.erasure_decode", "simulate.run"),
    "cli.gen_ms": ("cli.gen", None),
    "cli.encode_ms": ("cli.encode", None),
    "cli.repair_ms": ("cli.repair", None),
    "cli.decode_hybrid_ms": ("cli.decode_hybrid", None),
    "cli.decode_global_ms": ("cli.decode_global", None),
    "construct.parity_ms_in_decode_hybrid": ("construct.parity", "cli.decode_hybrid"),
    "formats.load_artifacts_ms": ("formats.load_artifacts", None),
    "formats.write_artifacts_ms": ("formats.write_artifacts", None),
    "codec.encode_ms_in_op": ("codec.encode", "bench.op"),
}


def import_program():
    """Put ../src first on the path; exit 2 when there is no source tree."""
    if not (SRC / "lrc5" / "__init__.py").is_file():
        print(f"error: no lrc5 source tree at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import lrc5

    if Path(lrc5.__file__).resolve().parent != SRC / "lrc5":
        print(f"error: imported lrc5 from {lrc5.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "lrc5").glob("*.py"))


class Tally:
    """Attempted and failed operations; the first failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, checked):
        self.attempted += checked.attempted
        self.failed += min(len(checked.failures), checked.attempted)
        for msg in checked.failures:
            if self.failed <= 20:
                print(f"FAILED: {msg}", file=sys.stderr)

    def crashed(self, what):
        self.attempted += 1
        self.failed += 1
        print(f"FAILED: {what} raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def run_op(wl, state, ref, inp, tracer, tally, outs, keep=False, traced=False):
    try:
        with tracer.operation() if traced else contextlib.nullcontext():
            out = wl.run(state, inp, tracer)
    except Exception:  # an operation that raises is a failed operation
        tally.crashed(f"{wl.name} operation")
        return None
    tally.add(wl.check(ref, inp, out))
    if not keep:
        out.data = None  # so peak memory does not grow with the operation count
    outs.append(out)
    return out


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python job (list, int and dict work)."""
    t0 = time.perf_counter()
    xs = list(range(300))
    acc = 0
    seen = {}
    for i in range(40):
        acc ^= sum([x * i for x in xs]) & 0xFFFF
        seen[i] = [acc] * 3
    return time.perf_counter() - t0


class SpeedProbe:
    """Machine-speed samples taken from a SIGALRM timer while the run is timed."""

    def __init__(self):
        self.times: list[float] = []
        self.scales: list[float] = []

    def _tick(self, signum, frame):
        took = calibrate()
        self.times.append(time.perf_counter())
        self.scales.append(CAL_NOMINAL_S / took)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float) -> float:
        """Mean scale over the samples in [t0, t1] and the one on each side."""
        lo = max(bisect.bisect_left(self.times, t0) - 1, 0)
        hi = bisect.bisect_right(self.times, t1) + 1
        window = self.scales[lo:hi]
        return sum(window) / len(window)


def setup_once(wl, tracer, tally):
    t0 = time.perf_counter()
    state = wl.setup(tracer)
    elapsed = time.perf_counter() - t0
    ref, checked = wl.prepare(state)
    tally.add(checked)
    return state, ref, elapsed


def run_untraced(wl, seed, seconds, tally):
    from stats import highest_tail
    from tracing import NullTracer

    null = NullTracer()
    setups = []
    while len(setups) < SETUP_MIN_REPS or (
        len(setups) < SETUP_MAX_REPS and sum(setups) < SETUP_BUDGET_S
    ):
        state, ref, elapsed = setup_once(wl, null, tally)
        setups.append(elapsed)
    rng = random.Random(seed)
    outs, spans = [], []
    with SpeedProbe() as probe:
        deadline = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            if run_op(wl, state, ref, wl.make_input(rng), null, tally, outs) is not None:
                spans.append((t0, time.perf_counter()))
            if time.perf_counter() >= deadline:
                break
        time.sleep(2 * PROBE_S)  # a sample after the last operation
    if not outs:
        return None, setups
    scale = [probe.scale(t0, t1) for t0, t1 in spans]
    lat = [o.latency for o in outs]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_per_s": statistics.median(
            o.work / ((o.work_s or o.latency) * s) for o, s in zip(outs, scale)),
        "op_ms": statistics.median(o.latency * s for o, s in zip(outs, scale)) * 1000,
    }
    print(f"metric setup_s = {metrics['setup_s']:.6g} s (n={len(setups)} set-ups)")
    print(f"metric peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB (n=1 process)")
    print(f"op: {wl.op_desc}; work unit: {wl.unit}; operations: {len(outs)}")
    print(f"machine speed: median calibration scale {statistics.median(scale):.4f} (1 = nominal)")
    print(f"raw op_ms_p50 = {statistics.median(lat) * 1000:.6g} ms (n={len(lat)})")
    tail = highest_tail([x * 1000 for x in lat])
    if tail is not None:
        print(f"metric op_ms_p{tail[0]:g} = {tail[1]:.6g} ms (n={len(lat)})")
    for name, value, unit, n in wl.named_metrics(outs):
        shown = "n/a (too few samples for this percentile)" if value is None else f"{value:.6g}"
        print(f"metric {name} = {shown} {unit} (n={n})")
    return metrics, setups


def run_traced(wl, seed, seconds, tally):
    from tracing import NullTracer, Tracer, counting_field_ops, layer_self_ms

    null, tracer = NullTracer(), Tracer()
    with tracer.operation("bench.setup"):
        state, ref, _ = setup_once(wl, tracer, tally)
    rng = random.Random(seed)
    spent = {False: 0.0, True: 0.0}
    outs = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    pair = 0
    while True:
        inp = wl.make_input(rng)
        for on in ((False, True) if pair % 2 == 0 else (True, False)):
            out = run_op(wl, state, ref, inp, tracer if on else null, tally, outs[on], traced=on)
            if out is not None:
                spent[on] += out.latency
        pair += 1
        if time.perf_counter() >= deadline:
            break
    counts: dict[str, int] = {}
    crng = random.Random(f"count-{seed}")
    counted = []
    with counting_field_ops(counts):
        for _ in range(wl.count_ops):
            run_op(wl, state, ref, wl.make_input(crng), null, tally, counted, keep=True)
    if not outs[True] or len(counted) != wl.count_ops:
        return None

    summary = tracer.summary()
    metrics = {}
    for metric, span in PER_LAYER_SPANS.items():
        row = summary.get(span)
        metrics[metric] = row["ms"] / row["calls"] if row else 0.0
    metrics["trace.overhead_pct"] = 100 * (spent[True] - spent[False]) / spent[False]
    for op in ("add", "sub", "mul", "dot"):
        metrics[f"field.{op}_calls"] = counts[op] / wl.count_ops
    property_counts = wl.counts(counted)
    for metric in PER_LAYER_COUNTS:
        metrics.setdefault(metric, property_counts.get(metric, 0))

    print(f"traced pairs: {pair}; counted operations: {wl.count_ops}")
    print(f"{'span':32} {'calls':>8} {'total ms':>11} {'mean ms':>10} {'self ms':>11}")
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"{name:32} {row['calls']:8d} {row['ms']:11.3f} {row['ms'] / row['calls']:10.4f} {row['self_ms']:11.3f}")
    layers = layer_self_ms(summary)
    total = sum(layers.values())
    for layer, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"layer {layer:10} self {ms:11.3f} ms ({100 * ms / total:5.1f}%)")
    inside = tracer.by_ancestor()
    for view, (span, outer) in LAYER_VIEWS.items():
        if outer is None:
            row = summary.get(span)
            if row:
                print(f"view {view} = {row['ms'] / row['calls']:.4f} ms per call (calls={row['calls']})")
        elif (span, outer) in inside:
            calls = summary[outer]["calls"]
            print(f"view {view} = {inside[(span, outer)] / calls:.4f} ms per {outer} (calls={calls})")
    for name, value, unit, n in wl.named_metrics(outs[False]):
        if value is not None:
            print(f"untraced {name} = {value:.6g} {unit} (n={n})")
    return metrics


def run_workload(args) -> int:
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = WORKLOADS[args.workload](scratch)
    tally = Tally()
    print(f"workload {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        if args.trace:
            metrics = run_traced(wl, args.seed, args.seconds, tally)
            units = {**{m: "ms" for m in PER_LAYER_SPANS}, "trace.overhead_pct": "%", **PER_LAYER_COUNTS}
        else:
            metrics, _ = run_untraced(wl, args.seed, args.seconds, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    if metrics is None:
        print("error: no operation completed", file=sys.stderr)
        return 1
    print(f"failed_ratio = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} failed of {tally.attempted} checked: {wl.checks})")
    print(f"info src_lines = {src_lines()} (src/lrc5, informational)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; one combined JSON line at the end."""
    import_program()
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = val
        print()
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="workload name, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
