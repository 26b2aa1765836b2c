"""Check that the benchmark is steady across seeds.

    python3 bench/steady.py --workloads store-gf16 sim-gf9 --seeds 1-10

Runs bench/run.py once per (workload, seed), one process at a time, and
prints for each end-to-end metric its median over the seeds and the spread
(interquartile distance as a share of the median) next to a third of the
metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", default="1-10", help="inclusive range lo-hi")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for wl in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in range(lo, hi + 1):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=900, cwd=ROOT,
            )
            res = json.loads(proc.stdout.splitlines()[-1])
            ok &= proc.returncode == 0 and res["correct"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            wall = time.perf_counter() - t0
            print(f"{wl} seed {seed} ({wall:.1f} s): "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
        for name, vals in values.items():
            s = spread(vals)
            print(f"{wl} {name}: median {statistics.median(vals):.6g} spread {s:.4f}"
                  f" (a third of the bound: {bounds[name] / 3:.4f})", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
