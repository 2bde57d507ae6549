"""voigt2dom benchmark: four workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload line_core --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
``--trace 0`` starts one process that sets up and runs the measured closed
loop, with SETUP_PROBES fresh processes that only set up before and after it,
and prints the end-to-end metrics.  ``--trace 1`` runs the loop untraced and then traced,
``seconds / 2`` each, and prints the per-layer metrics.  Every call is checked
against the oracle.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; everything
measured, the machine facts and the spans go to ``.perfbench/`` in the
checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("line_core", "line_wing", "many_lines", "plane_errmap")
SETUP_PROBES = 6
TAIL_BEYOND = 10

# End-to-end metrics in BENCHMARK.json, the ones later changes are held to.
# call_rel_wofz is each call's time over the time scipy's wofz takes on the
# same points right after it, so it cancels the load of whatever else shares
# the machine; on a shared 2-core host the wall times below move by 20-40%
# from one minute to the next while this ratio stays within ~6-10%.
END_TO_END = {
    "setup_s": "s",
    "call_rel_wofz": "ratio",
    "k_rel_err_max": "ratio",
    "l_rel_err_max": "ratio",
    "peak_rss_mb": "MB",
}

# Printed and recorded with every run, not in BENCHMARK.json: wall time, and
# the failure share, which is 0 where the program is correct.
REPORTED = {
    "throughput_mpts": "Mpts/s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "failed_frac": "ratio",
}

# layer metric -> unit; each names the module (layer) it measures
PER_LAYER = {
    "twodomain.build_ms": "ms",
    "twodomain.grid_ms": "ms",
    "twodomain.build_unexplained_frac": "ratio",
    "twodomain.knots": "count",
    "twodomain.call_ms": "ms",
    "twodomain.dispatch_ms": "ms",
    "twodomain.interior_frac": "ratio",
    "twodomain.bypass_frac": "ratio",
    "twodomain.useful_build_frac": "ratio",
    "spline.build_ms": "ms",
    "spline.eval_ms": "ms",
    "spline.eval_ns_per_pt": "ns/pt",
    "spline.table_kib": "KiB",
    "core.nodegen_ms": "ms",
    "core.bypass_ms": "ms",
    "core.cf_external_ms": "ms",
    "core.fadsamp_ms": "ms",
    "core.sampling_ms": "ms",
    "core.sampling_frac": "ratio",
    "core.symmetrized_ms": "ms",
    "core.symmetrized_frac": "ratio",
    "core.cf11_ms": "ms",
    "core.cf11_frac": "ratio",
    "trapezoid.wtrap_ms": "ms",
    "trapezoid.branch1_frac": "ratio",
    "trapezoid.branch2_frac": "ratio",
    "trapezoid.branch3_frac": "ratio",
    "oracle.reference_ms": "ms",
    "baseline.wofz_ms": "ms",
    "baseline.fadsamp_ms": "ms",
    "trace.unexplained_frac": "ratio",
    "trace.overhead_frac": "ratio",   # traced / untraced call_rel_wofz - 1
}


def machine_facts():
    """CPU, caches and core count of this machine, read without extra modules."""
    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": platform.processor() or platform.machine(),
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        facts["caches"][f"L{level}" + ("" if kind == "Unified" else kind[0].lower())] = size
    return facts


def run_worker(mode, args, seconds=0.0):
    """Run worker.py in a fresh process and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--mode", mode]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=60 + 3 * seconds)
    if proc.returncode != 0:
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(call_s):
    """Call time with exactly TAIL_BEYOND calls above it, its percentile, and n."""
    s = sorted(call_s)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def throughput(res):
    return res["points"] / sum(res["call_s"]) / 1e6


def rel_wofz(res):
    """Median over calls of call time over the wofz time right after it."""
    return statistics.median(c / w for c, w in zip(res["call_s"], res["wofz_s"]))


def end_to_end(args):
    # set-up probes before and after the measured loop, so that the median
    # spans the whole run rather than the few seconds before it
    probes = [run_worker("setup", args)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    res = run_worker("measure", args, args.seconds)
    probes += [run_worker("setup", args)["setup_s"] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    tail_s, pct, n = tail(res["call_s"])
    metrics = {
        "setup_s": statistics.median(probes + [res["setup_s"]]),
        "throughput_mpts": throughput(res),
        "call_ms_p50": statistics.median(res["call_s"]) * 1e3,
        "call_ms_tail": tail_s * 1e3,
        "call_rel_wofz": rel_wofz(res),
        "k_rel_err_max": res["k_err"],
        "l_rel_err_max": res["l_err"],
        "peak_rss_mb": res["peak_rss_mb"],
        "failed_frac": res["failed"] / res["attempted"],
    }
    notes = {
        "setup_s samples": probes + [res["setup_s"]],
        "call_ms_tail": f"p{pct:.2f} of {n} calls ({TAIL_BEYOND} beyond)",
        "worst K error (x, y)": res["worst"],
        "worst K error over x >= 0 (x, y)": res["worst_right"],
        "oracle vs scipy wofz": res["oracle_err"],
    }
    return metrics, END_TO_END, res, [res], notes


def per_layer(args):
    half = args.seconds / 2.0
    plain = run_worker("measure", args, half)
    traced = run_worker("trace", args, half)
    metrics = dict(traced["layers"])
    # the two processes run one after the other, so compare call times
    # relative to wofz, which cancels the drift of the machine between them
    metrics["trace.overhead_frac"] = rel_wofz(traced) / rel_wofz(plain) - 1.0
    notes = {
        "spans": traced["spans"],
        "nesting_errors": traced["nesting_errors"],
        "calls (untraced, traced)": [plain["attempted"], traced["attempted"]],
    }
    return metrics, PER_LAYER, traced, [plain, traced], notes



def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "voigt2dom" / "__init__.py").is_file():
        print(f"no voigt2dom source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    facts = machine_facts()
    metrics, units, main_res, runs, notes = (per_layer if args.trace else end_to_end)(args)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and notes.get("nesting_errors", 0) == 0
    facts.update(main_res["versions"], threads=main_res["threads"])

    for name, unit in units.items():
        print(f"{args.workload:>12}  {name:<34} {metrics[name]:<14.6g} {unit}")
    if not args.trace:
        for name, unit in REPORTED.items():
            print(f"{args.workload:>12}  {name:<34} {metrics[name]:<14.6g} {unit}  (not gated)")
    for key, value in notes.items():
        print(f"{args.workload:>12}  {key}: {value}")
    for r in runs:
        for err in r["errors"]:
            print(f"{args.workload:>12}  failed {err}")
    print(f"{args.workload:>12}  machine: {json.dumps(facts)}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "metrics": metrics, "notes": notes,
              "attempted": attempted, "failed": failed,
              "call_s": [r["call_s"] for r in runs]}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
