"""One workload run in a fresh process; prints its raw figures as one JSON line.

    python3 perfbench/worker.py --workload line_core --seed 1 --seconds 10 --mode measure

``--mode setup`` imports voigt2dom and makes the first, untimed call only;
``measure`` goes on to the timed closed loop with the correctness gate;
``trace`` runs the same loop with spans around every layer call and writes
them to ``.perfbench/spans-<workload>-seed<n>.json``.  run.py starts these
processes and turns their output into the benchmark's metrics.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from unittest import mock

# one thread per process; must be set before numpy loads its BLAS
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _os_threads():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args(argv)

    # the program under test is the checkout's own source tree, never an
    # installed copy
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import voigt2dom
    t1 = time.perf_counter()
    if Path(voigt2dom.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"voigt2dom imported from {voigt2dom.__file__}, not {SRC}")

    import numpy as np
    import scipy
    from scipy.special import wofz

    import tracer as tracing
    import workloads

    spec = workloads.SPECS[args.workload]
    inputs = workloads.Inputs(spec, args.seed)
    first = inputs.batch(0)
    t2 = time.perf_counter()
    workloads.call(voigt2dom, spec, first)
    t3 = time.perf_counter()
    result = {"setup_s": (t1 - t0) + (t3 - t2)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    # the gate and the baselines use the functions as imported, never the
    # trace wrappers
    gate = workloads.Gate(spec, voigt2dom.reference_values, wofz)
    fadsamp = voigt2dom.fadsamp
    tr = tracing.Tracer() if args.mode == "trace" else None
    branches = [0, 0, 0]
    call_s = []
    wofz_s = []
    ok_points = attempted = failed = 0
    errors = []

    with contextlib.ExitStack() as stack:
        if tr is not None:
            stack.enter_context(tracing.instrument(tr, voigt2dom))
            # the plane workload's own error-map step, so that its time is not
            # left unexplained
            errmap = tr.wrap("bench.errmap", workloads.errmap, 0)
            stack.enter_context(mock.patch.object(workloads, "errmap", errmap))
        deadline = time.perf_counter() + args.seconds
        k = 1
        while time.perf_counter() < deadline:
            batch = inputs.batch(k)
            n = int(np.size(batch[0]))
            out = None
            start = time.perf_counter()
            try:
                with tr.root(k, n) if tr is not None else contextlib.nullcontext():
                    out = workloads.call(voigt2dom, spec, batch)
            except Exception as exc:  # a failed call is counted, not fatal
                errors.append(f"call {k}: {exc!r}")
            call_s.append(time.perf_counter() - start)
            z = batch[0] + 1j * batch[1] if spec.kind == "line" else batch[0]
            start = time.perf_counter()
            with tr.span("baseline.wofz", n) if tr is not None else contextlib.nullcontext():
                wofz(z)
            wofz_s.append(time.perf_counter() - start)
            attempted += 1
            if out is not None and gate.check(inputs, k, batch, out):
                ok_points += n
            else:
                failed += 1
            if tr is not None:
                if spec.kind == "line":
                    with tr.span("baseline.fadsamp", n):
                        fadsamp(z)
                else:
                    b = voigt2dom.wtrap_branches(z)
                    for i in range(3):
                        branches[i] += int(np.count_nonzero(b == i + 1))
            k += 1

    result.update(
        call_s=call_s,
        wofz_s=wofz_s,
        points=ok_points,
        attempted=attempted,
        failed=failed,
        errors=errors[:5],
        k_err=gate.k_err,
        l_err=gate.l_err,
        oracle_err=gate.oracle_err,
        worst=gate.worst,
        worst_right=gate.worst_right,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"numpy": np.__version__, "scipy": scipy.__version__,
                  "longdouble_eps": float(np.finfo(np.longdouble).eps)},
        threads={"os_threads": _os_threads(), **{v: os.environ[v] for v in THREAD_VARS}},
    )
    if tr is not None:
        result["layers"] = tracing.layer_metrics(tr.spans, branches)
        result["nesting_errors"] = len(tracing.check_nesting(tr.spans))
        spans = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "call", "points", "info"],
                       "spans": tr.spans}, fh)
        result["spans"] = str(spans.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
