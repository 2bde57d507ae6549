"""Tests of the benchmark itself: seeded inputs, names, the gate and the spans.

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import voigt2dom  # noqa: E402
import workloads  # noqa: E402
from scipy.special import wofz  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    spec = workloads.SPECS[name]
    a, b, c = (workloads.Inputs(spec, seed) for seed in (7, 7, 8))
    for k in (0, 1, 17):
        assert _equal(a.batch(k), b.batch(k))
        assert not _equal(a.batch(k), c.batch(k))
        n = 10 * spec.checked
        np.testing.assert_array_equal(a.check_index(k, n), b.check_index(k, n))
    assert not _equal(a.batch(1), a.batch(2))


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_inputs_stay_in_the_stated_ranges(name):
    spec = workloads.SPECS[name]
    inputs = workloads.Inputs(spec, 3)
    for k in range(200):
        batch = inputs.batch(k)
        if spec.kind == "line":
            xs, y = batch
            assert xs.size == spec.points and np.all(np.diff(xs) >= 0)
            assert np.all(np.abs(xs) <= spec.x_half)
        else:
            (z,) = batch
            assert z.size == spec.points and np.all(np.abs(z.real) <= spec.x_half)
            y = z.imag
        assert np.all((spec.y_lo <= y) & (y <= spec.y_hi))


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.SPECS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == table
    tables = (run.END_TO_END, run.REPORTED, run.PER_LAYER)
    names = [name for table in tables for name in table] + list(run.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in (unit for table in tables for unit in table.values()):
        assert UNIT.match(unit), unit
    layer_keys = set(tracer.layer_metrics([])) | {"trace.overhead_frac"}
    assert layer_keys == set(run.PER_LAYER)


def test_tail_has_exactly_ten_calls_beyond_it():
    calls = list(range(100, 0, -1))
    value, pct, n = run.tail(calls)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(c > value for c in calls) == run.TAIL_BEYOND
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_gate_accepts_the_program_and_rejects_perturbed_values():
    spec = workloads.SPECS["many_lines"]
    inputs = workloads.Inputs(spec, 5)
    xs, y = inputs.batch(1)
    w = voigt2dom.evaluate(xs, y, opt=3)
    gate = workloads.Gate(spec, voigt2dom.reference_values, wofz)
    assert gate.check(inputs, 1, (xs, y), w)
    assert 0 < gate.k_err < 1e-3 and 0 < gate.l_err < 1e-3
    assert not gate.check(inputs, 1, (xs, y), w * (1 + 1e-6))
    bad = w.copy()
    bad[0] = np.nan
    assert not gate.check(inputs, 1, (xs, y), bad)


def _traced_calls():
    """Trace a few small calls covering the bypass, interior, exterior and plane paths."""
    tr = tracer.Tracer()
    xs = np.linspace(-50.0, 50.0, 2001)
    rng = np.random.default_rng(0)
    z = rng.uniform(-60, 60, 3000) + 1j * 10 ** rng.uniform(-8, np.log10(60), 3000)
    line = workloads.SPECS["many_lines"]
    plane = workloads.SPECS["plane_errmap"]
    calls = [(line, (xs, y)) for y in (1e-9, 1e-5, 50.0)] + [(plane, (z,))]
    with tracer.instrument(tr, voigt2dom):
        for k, (spec, args) in enumerate(calls):
            with tr.root(k, np.size(args[0])):
                workloads.call(voigt2dom, spec, args)
    return tr.spans


def test_spans_nest_inside_their_parent_and_wrappers_are_removed():
    spans = _traced_calls()
    assert tracer.check_nesting(spans) == []
    assert all(s[tracer.PARENT] >= 0 for s in spans if s[tracer.NAME] != tracer.ROOT)
    assert min(tracer.self_times(spans)) >= 0
    names = {s[tracer.NAME] for s in spans}
    assert {"twodomain.build", "spline.eval", "core.cf_external", "core.fadsamp",
            "trapezoid.wtrap", "oracle.reference"} <= names
    assert voigt2dom.twodomain.build_spline is voigt2dom.spline.build_spline
    assert voigt2dom.core.w_sampling.__module__ == "voigt2dom.core"
    assert "__wrapped__" not in vars(voigt2dom.fadsamp)


def test_layer_times_close_over_build_and_call():
    spans = _traced_calls()
    m = tracer.layer_metrics(spans)
    parts = m["twodomain.grid_ms"] + m["core.nodegen_ms"] + m["spline.build_ms"]
    assert parts <= m["twodomain.build_ms"]
    assert m["twodomain.build_unexplained_frac"] == pytest.approx(
        1 - parts / m["twodomain.build_ms"])
    call = m["spline.eval_ms"] + m["core.cf_external_ms"] + m["core.bypass_ms"]
    assert call + m["twodomain.dispatch_ms"] == pytest.approx(m["twodomain.call_ms"])
    # y = 1e-9 bypasses, y = 50 builds a spline that no point reaches
    assert m["twodomain.bypass_frac"] == pytest.approx(1 / 3)
    assert m["twodomain.useful_build_frac"] == pytest.approx(1 / 2)


def test_fadsamp_branch_shares_follow_the_documented_partition():
    rng = np.random.default_rng(1)
    z = rng.uniform(-12, 12, 5000) + 1j * 10 ** rng.uniform(-8, 1, 5000)
    tr = tracer.Tracer()
    with tracer.instrument(tr, voigt2dom):
        with tr.root(0, z.size):
            voigt2dom.fadsamp(z)
    m = tracer.layer_metrics(tr.spans)
    inner = np.abs(z) <= 8.0
    sampling = inner & (z.imag > 0.05 * z.real)
    assert m["core.sampling_frac"] == np.count_nonzero(sampling) / z.size
    assert m["core.symmetrized_frac"] == np.count_nonzero(inner & ~sampling) / z.size
    assert m["core.cf11_frac"] == np.count_nonzero(~inner) / z.size


def _run(tmp, *argv):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=tmp,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=120)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "many_lines", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric_in_its_last_line(trace):
    proc = _run(ROOT, "--workload", "many_lines", "--seed", "0",
                "--seconds", "0.4", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    table = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in last["metrics"].items()} == table
