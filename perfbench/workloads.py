"""The workloads: seeded inputs, the timed call, and the correctness gate.

Every input is derived from the seed alone, and the program receives only the
generated arrays through its public API.  Each workload is a closed loop with
one caller: call ``k + 1`` starts only after call ``k`` has returned.

Per-call ``y`` values of the line workloads follow a seeded golden-ratio
(Weyl) sequence mapped log-uniformly onto the range.  It has the same
log-uniform distribution as independent draws, but any run of n calls covers
the range evenly, so the y-dependent figures spread about half as much between
seeds.  The first timed call sits at the bottom of the y range, the line with
the most knots and, at the time of writing, the worst real-part error, so
every run measures that case instead of approaching it by chance.
"""

import math
from dataclasses import dataclass

import numpy as np
from voigt2dom.cli import part_error

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Correctness gate, from the README accuracy summary.  A part passes when
# |value - reference| <= ATOL + RTOL * |reference|, checked separately for
# the real part (K) and the imaginary part (L).  ATOL is the README's absolute
# bound for both parts (two-domain and fadsamp along y = 1e-8); RTOL is the
# README's relative figure for the evaluator: two-domain ~3e-9 (real part,
# basic density), fadsamp ~4e-14, wtrap part-wise 1e-13.  The oracle itself
# is checked against scipy.special.wofz by complex relative error, against the
# README's "better than 1e-13" agreement with a 40-digit computation.
ATOL = 2.5e-13
RTOL = {"twodomain": 3e-9, "fadsamp": 4e-14, "wtrap": 1e-13}
ORACLE_RTOL = 1e-13


@dataclass(frozen=True)
class Spec:
    """Shape of a workload.  ``kind`` is 'line' (one y per call) or 'plane'."""

    name: str
    kind: str
    points: int          # abscissas (line) or scattered z (plane) per call
    x_half: float        # abscissas uniform in [-x_half, x_half]
    y_lo: float          # y log-uniform in [y_lo, y_hi]
    y_hi: float
    checked: int         # points per call checked against the oracle


SPECS = {
    s.name: s
    for s in (
        Spec("line_core", "line", 1_000_000, 10.0, 1e-8, 10.0, 16384),
        Spec("line_wing", "line", 1_000_000, 1000.0, 1e-8, 10.0, 16384),
        Spec("many_lines", "line", 4096, 50.0, 1e-9, 100.0, 512),
        Spec("plane_errmap", "plane", 32768, 60.0, 1e-8, 60.0, 32768),
    )
}


def _log_uniform(u, lo, hi):
    return 10.0 ** (math.log10(lo) + (math.log10(hi) - math.log10(lo)) * u)


class Inputs:
    """Seeded inputs of one workload run; ``batch(k)`` gives call k's arrays.

    Line workloads share one sorted abscissa array across the run and draw a
    fresh y per call; the plane workload draws a fresh batch of z per call.
    """

    def __init__(self, spec, seed):
        self.spec = spec
        self.seed = int(seed)
        rng = np.random.default_rng([self.seed, 0])
        self._u0 = float(rng.random())
        if spec.kind == "line":
            self.xs = np.sort(rng.uniform(-spec.x_half, spec.x_half, spec.points))

    def y(self, k):
        u = 0.0 if k == 1 else (self._u0 + k * GOLDEN) % 1.0
        return _log_uniform(u, self.spec.y_lo, self.spec.y_hi)

    def batch(self, k):
        """Arguments of call k: ``(xs, y)`` for a line workload, ``(z,)`` for the plane."""
        s = self.spec
        if s.kind == "line":
            return self.xs, self.y(k)
        rng = np.random.default_rng([self.seed, 1, k])
        x = rng.uniform(-s.x_half, s.x_half, s.points)
        ly = rng.uniform(math.log10(s.y_lo), math.log10(s.y_hi), s.points)
        return (x + 1j * 10.0 ** ly,)

    def check_index(self, k, n):
        """Seeded subsample of call k's points that the gate checks."""
        if self.spec.checked >= n:
            return np.arange(n)
        return np.random.default_rng([self.seed, 2, k]).integers(0, n, self.spec.checked)


def call(api, spec, args):
    """The timed call.  ``api`` is the imported voigt2dom package."""
    if spec.kind == "line":
        xs, y = args
        return api.evaluate(xs, y, opt=3)
    (z,) = args
    f = api.fadsamp(z)
    t = api.wtrap(z)
    r = api.reference_values(z)
    return f, t, r, errmap(f, t, r)


def errmap(f, t, r):
    """The error-map step of the plane workload: worst part-wise errors."""
    return [float(part_error(v, r, part, "rel").max()) for v in (f, t) for part in ("re", "im")]


class Gate:
    """Untimed correctness check of each call, plus the worst errors seen.

    ``k_err``/``l_err`` are the worst part-wise relative errors of the checked
    evaluator outputs against the oracle; ``worst``/``worst_right`` hold the
    (x, y) of the worst real-part error overall and over x >= 0, the half
    plane the README's error maps probe.
    """

    def __init__(self, spec, reference, wofz):
        self.spec = spec
        self.reference = reference
        self.wofz = wofz
        self.k_err = 0.0
        self.l_err = 0.0
        self.oracle_err = 0.0
        self.worst = (0.0, math.nan, math.nan)
        self.worst_right = (0.0, math.nan, math.nan)

    def check(self, inputs, k, args, out):
        """Return True when call k's output is finite and within tolerance."""
        if self.spec.kind == "line":
            xs, y = args
            w = np.asarray(out)
            if w.shape != xs.shape or not np.all(np.isfinite(w)):
                return False
            idx = inputs.check_index(k, xs.size)
            z = xs[idx] + 1j * y
            ref = self.reference(z)
            checks = [("twodomain", w[idx], ref, z)]
        else:
            (z,) = args
            f, t, ref, _ = out
            if not all(np.all(np.isfinite(a)) for a in (f, t, ref)):
                return False
            idx = inputs.check_index(k, z.size)
            ref = ref[idx]
            z = z[idx]
            checks = [("fadsamp", f[idx], ref, z), ("wtrap", t[idx], ref, z)]

        ok = self._check_oracle(z, ref)
        for name, values, r, zz in checks:
            ok &= self._check_values(name, values, r, zz)
        return bool(ok)

    def _check_oracle(self, z, ref):
        w = self.wofz(z)
        err = float(np.max(np.abs(ref - w) / np.abs(w)))
        self.oracle_err = max(self.oracle_err, err)
        return err <= ORACLE_RTOL

    def _check_values(self, name, values, ref, z):
        ek, el = (part_error(values, ref, part, "rel") for part in ("re", "im"))
        i = int(np.argmax(ek))
        if ek[i] > self.worst[0]:
            self.worst = (float(ek[i]), float(z[i].real), float(z[i].imag))
        right = z.real >= 0
        if right.any():
            j = int(np.argmax(np.where(right, ek, -1.0)))
            if ek[j] > self.worst_right[0]:
                self.worst_right = (float(ek[j]), float(z[j].real), float(z[j].imag))
        self.k_err = max(self.k_err, float(ek[i]))
        self.l_err = max(self.l_err, float(el.max()))
        tol = RTOL[name]
        return bool(
            np.all(np.abs(values.real - ref.real) <= ATOL + tol * np.abs(ref.real))
            and np.all(np.abs(values.imag - ref.imag) <= ATOL + tol * np.abs(ref.imag))
        )
