"""Measure a baseline: two sets of seeded runs per workload, plus one traced run.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each set runs every workload once per seed (set A: seeds 1..10, set B: seeds
11..20) for ``run_seconds`` from BENCHMARK.json.  For each end-to-end metric
the output records the values, their median and quartiles, the spread
(quartile distance over the median, as ``statistics.quantiles(values, n=4)``
gives them), and how far set B's median sits from set A's, as a share of set
A's.  Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEEDS = 10  # runs per set and workload
SECONDS = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def one_run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=run.ROOT,
                          timeout=600, check=True)
    if not json.loads(proc.stdout.strip().splitlines()[-1])["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correct is false")
    # the result file also holds the metrics that are printed but not gated
    result = run.OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(result.read_text())["metrics"]


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    record = {"seconds": SECONDS, "seeds_per_set": SEEDS, "workloads": {}}
    # failed_frac is 0 at a correct commit, so it has no spread to show
    metrics = list(run.END_TO_END) + [m for m in run.REPORTED if m != "failed_frac"]
    for workload in run.WORKLOADS:
        sets = []
        for first in (1, SEEDS + 1):
            runs = [one_run(workload, s, 0) for s in range(first, first + SEEDS)]
            sets.append({m: summary([r[m] for r in runs]) for m in metrics})
        drift = {m: sets[1][m]["median"] / sets[0][m]["median"] - 1.0 for m in metrics}
        # machine facts, versions and thread settings as the last run recorded them
        result = run.OUT / f"result-{workload}-seed{2 * SEEDS}-trace0.json"
        record["machine"] = json.loads(result.read_text())["machine"]
        record["workloads"][workload] = {
            "set_a": sets[0],
            "set_b": sets[1],
            "median_b_over_a_minus_1": drift,
            "per_layer_seed_1": one_run(workload, 1, 1),
        }
        for name, st in zip("AB", sets):
            spreads = {m: round(st[m]["spread"], 4) for m in metrics}
            print(workload, "set", name, "spread", json.dumps(spreads), flush=True)
        print(workload, "median B/A - 1", json.dumps({m: round(d, 4) for m, d in drift.items()}),
              flush=True)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
