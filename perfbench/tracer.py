"""Spans around the calls into each voigt2dom module, and the layer metrics.

The tracer wraps public functions where the calling module looks them up
(``twodomain.build_spline``, ``core.w_sampling``, ...), so the program's
sources are untouched and the wrappers exist only inside a traced run.  Each
span records its name, start, end, parent span, the workload call it belongs
to, and the number of points passed in.  Spans stay in memory and are written
out when the run ends.

Span names are ``<module>.<operation>``; the module is the layer.
"""

import contextlib
import time

import numpy as np

# Span record fields.
NAME, START, END, PARENT, CALL, POINTS, INFO = range(7)

ROOT = "bench.call"


class Tracer:
    def __init__(self):
        self.spans = []
        self.call_id = -1
        self._stack = []

    def _open(self, name, points):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter_ns(), 0, parent, self.call_id, points, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, points=0):
        rec = self._open(name, points)
        try:
            yield rec
        finally:
            self._close(rec)

    def root(self, call_id, points):
        """Span of one workload call; its children share ``call_id``."""
        self.call_id = call_id
        return self.span(ROOT, points)

    def wrap(self, name, fn, points_arg, info=None):
        """Return ``fn`` recording a span per call.

        ``points_arg`` is the index of the positional argument whose size is
        the span's point count (None for no count); ``info(args, result)``
        may attach a small dict to the span.
        """

        def wrapper(*args, **kwargs):
            n = 0 if points_arg is None else int(np.size(args[points_arg]))
            rec = self._open(name, n)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if info is not None:
                rec[INFO] = info(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _spline_info(args, spline):
    return {
        "knots": int(spline.knots.size),
        "table_bytes": int(spline.knots.nbytes + spline.coeffs.nbytes),
    }


def _build_info(args, _result):
    return {"bypass": bool(args[0].bypass)}


@contextlib.contextmanager
def instrument(tracer, api):
    """Wrap the layer entry points of the ``voigt2dom`` package ``api``.

    The two-domain evaluator reaches its layers through names bound in
    ``twodomain``; ``fadsamp`` reaches its branches through names bound in
    ``core``; the plane workload calls the package-level functions.  The
    oracle's own bindings of ``wtrap`` and ``w_continued_fraction`` are left
    alone, so ``oracle.reference`` is one opaque layer.
    """
    twodomain, core = api.twodomain, api.core
    targets = [
        (twodomain.TwoDomainEvaluator, "__init__", "twodomain.build", None, _build_info),
        (twodomain.TwoDomainEvaluator, "__call__", "twodomain.call", 1, None),
        (twodomain, "build_grid", "twodomain.grid", None, None),
        (twodomain, "fadsamp", "core.fadsamp", 0, None),
        (twodomain, "build_spline", "spline.build", 0, _spline_info),
        (twodomain, "eval_spline", "spline.eval", 1, None),
        (twodomain, "w_cf_external", "core.cf_external", 0, None),
        (core, "w_sampling", "core.sampling", 0, None),
        (core, "w_symmetrized", "core.symmetrized", 0, None),
        (core, "w_continued_fraction", "core.cf11", 0, None),
        (api, "fadsamp", "core.fadsamp", 0, None),
        (api, "wtrap", "trapezoid.wtrap", 0, None),
        (api, "reference_values", "oracle.reference", 0, None),
    ]
    saved = []
    try:
        for owner, attr, name, points_arg, info in targets:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, points_arg, info))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def self_times(spans):
    """Span duration minus the durations of its direct children, in ns."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def check_nesting(spans):
    """Return the indices of spans that do not lie inside their parent."""
    bad = []
    for i, s in enumerate(spans):
        if s[END] < s[START]:
            bad.append(i)
            continue
        p = s[PARENT]
        if p < 0:
            continue
        ps = spans[p]
        if not (ps[START] <= s[START] and s[END] <= ps[END] and ps[CALL] == s[CALL]):
            bad.append(i)
    return bad


def layer_metrics(spans, branch_counts=None):
    """Per-layer metrics from the spans of a traced run.

    Every ``*_ms`` figure is milliseconds per workload call (total span time
    over the number of root spans), so the layers of one call add up:
    ``twodomain.build_ms = twodomain.grid_ms + core.nodegen_ms +
    spline.build_ms + remainder`` and ``twodomain.call_ms = spline.eval_ms +
    core.cf_external_ms + core.bypass_ms + twodomain.dispatch_ms``.
    """
    own = self_times(spans)
    n_calls = max(sum(s[NAME] == ROOT for s in spans), 1)
    # parents precede their children, so one pass finds every span's root;
    # spans below a baseline root (the branches of a baseline fadsamp) are
    # not part of any workload call and are left out
    root = []
    for i, s in enumerate(spans):
        root.append(i if s[PARENT] < 0 else root[s[PARENT]])
    total = {}
    points = {}
    count = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0 and spans[root[i]][NAME] != ROOT:
            continue
        name = s[NAME]
        if name == "core.fadsamp" and s[PARENT] >= 0:
            parent = spans[s[PARENT]][NAME]
            if parent == "twodomain.build":
                name = "core.nodegen"
            elif parent == "twodomain.call":
                name = "core.bypass"
        for key in {name, s[NAME]}:
            total[key] = total.get(key, 0) + (s[END] - s[START])
            points[key] = points.get(key, 0) + s[POINTS]
            count[key] = count.get(key, 0) + 1

    def ms(key):
        return total.get(key, 0) / 1e6 / n_calls

    def self_ms(key):
        return sum(own[i] for i, s in enumerate(spans) if s[NAME] == key) / 1e6 / n_calls

    def share(num, den):
        return num / den if den else 0.0

    # a span whose call raised has no INFO
    builds = [s for s in spans if s[NAME] == "twodomain.build" and s[INFO]]
    splines = [s for s in spans if s[NAME] == "spline.build" and s[INFO]]
    served = {s[CALL] for s in spans if s[NAME] == "spline.eval" and s[POINTS] > 0}
    fad_pts = points.get("core.fadsamp", 0)
    root_ms = ms(ROOT)

    m = {
        "twodomain.build_ms": ms("twodomain.build"),
        "twodomain.grid_ms": ms("twodomain.grid"),
        "twodomain.build_unexplained_frac": share(self_ms("twodomain.build"), ms("twodomain.build")),
        "twodomain.knots": share(sum(s[INFO]["knots"] for s in splines), len(splines)),
        "twodomain.call_ms": ms("twodomain.call"),
        "twodomain.dispatch_ms": self_ms("twodomain.call"),
        "twodomain.interior_frac": share(points.get("spline.eval", 0), points.get("twodomain.call", 0)),
        "twodomain.bypass_frac": share(sum(s[INFO]["bypass"] for s in builds), len(builds)),
        "twodomain.useful_build_frac": share(sum(s[CALL] in served for s in splines), len(splines)),
        "spline.build_ms": ms("spline.build"),
        "spline.eval_ms": ms("spline.eval"),
        "spline.eval_ns_per_pt": share(total.get("spline.eval", 0), points.get("spline.eval", 0)),
        "spline.table_kib": share(sum(s[INFO]["table_bytes"] for s in splines), len(splines)) / 1024,
        "core.nodegen_ms": ms("core.nodegen"),
        "core.bypass_ms": ms("core.bypass"),
        "core.cf_external_ms": ms("core.cf_external"),
        "core.fadsamp_ms": ms("core.fadsamp"),
        "core.sampling_ms": ms("core.sampling"),
        "core.sampling_frac": share(points.get("core.sampling", 0), fad_pts),
        "core.symmetrized_ms": ms("core.symmetrized"),
        "core.symmetrized_frac": share(points.get("core.symmetrized", 0), fad_pts),
        "core.cf11_ms": ms("core.cf11"),
        "core.cf11_frac": share(points.get("core.cf11", 0), fad_pts),
        "trapezoid.wtrap_ms": ms("trapezoid.wtrap"),
        "oracle.reference_ms": ms("oracle.reference"),
        "baseline.wofz_ms": share(total.get("baseline.wofz", 0) / 1e6, count.get("baseline.wofz", 0)),
        "baseline.fadsamp_ms": share(total.get("baseline.fadsamp", 0) / 1e6, count.get("baseline.fadsamp", 0)),
        "trace.unexplained_frac": share(self_ms(ROOT), root_ms),
    }
    bc = branch_counts if branch_counts is not None else [0, 0, 0]
    for b in range(3):
        m[f"trapezoid.branch{b + 1}_frac"] = share(bc[b], sum(bc))
    return m
