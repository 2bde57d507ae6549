"""Command-line harness: point evaluation, error maps and run-time benchmarks.

All outputs are CSV with 17 significant digits (binary64 round-trip safe),
'.' decimal separator and newline-terminated rows.  Exit codes: 0 success,
1 math/domain error, 2 usage error.
"""

import argparse
import sys
import time
from dataclasses import dataclass

import numpy as np

from ._common import positive
from .core import fadsamp, w_continued_fraction
from .exceptions import ParameterError, VoigtError
from .oracle import reference_values
from .trapezoid import wtrap
from .twodomain import OutputOption, TwoDomainConfig, evaluate

__all__ = ["BenchSpec", "run_benchmark", "main"]

# name -> whole-array evaluator f(xs, y, config) -> complex ndarray
_ALGORITHMS = {
    "twodom": lambda xs, y, config: evaluate(xs, y, opt=OutputOption.COMPLEX_FULL, config=config),
    "fadsamp": lambda xs, y, config: fadsamp(xs + 1j * y),
    "wtrap": lambda xs, y, config: wtrap(xs + 1j * y),
    "cf": lambda xs, y, config: w_continued_fraction(xs + 1j * y, 11),
}

# eval --part -> (CSV header, the value columns after x)
_EVAL_PARTS = {
    "both": (("x", "re", "im"), lambda w: (w.real, w.imag)),
    "re": (("x", "k"), lambda w: (w.real,)),
    "im": (("x", "l"), lambda w: (w.imag,)),
}


@dataclass
class BenchSpec:
    """Benchmark protocol: equidistant points, repeated whole-array calls."""

    point_count: int = 10_000_000
    x_half_ranges: tuple = (10.0, 100.0, 1000.0)
    y: float = 1e-8
    repeats: int = 10
    algorithms: tuple = ("twodom", "fadsamp", "wtrap")

    def __post_init__(self):
        self.point_count = positive(self.point_count, "point_count", integer=True)
        self.repeats = positive(self.repeats, "repeats", integer=True)
        self.y = positive(self.y, "y")
        for name in ("x_half_ranges", "algorithms"):
            seq = getattr(self, name)
            if not isinstance(seq, (tuple, list)) or not seq:
                raise ParameterError(f"{name} must be a non-empty sequence, got {seq!r}")
        self.x_half_ranges = tuple(positive(a, "x_half_ranges") for a in self.x_half_ranges)
        bad = [a for a in self.algorithms if not isinstance(a, str) or a not in _ALGORITHMS]
        if bad:
            raise ParameterError(f"unknown algorithms: {bad}")


def _parse_triplet(text, log=False):
    """'A:B:N' -> N points from A to B, linearly or (``log``) geometrically spaced."""
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be A:B:N, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError("N must be >= 1")
    if log and (a <= 0 or b <= 0):
        raise argparse.ArgumentTypeError("log spacing needs positive bounds")
    return np.geomspace(a, b, n) if log else np.linspace(a, b, n)


def _parse_log_triplet(text):
    return _parse_triplet(text, log=True)


def _read_x_csv(path):
    xs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            token = line.split(",")[0]
            try:
                xs.append(float(token))
            except ValueError:
                continue  # header or comment row
    if not xs:
        raise VoigtError(f"no numeric x values found in {path}")
    return np.asarray(xs, dtype=float)


def _write_csv(path, header, *columns):
    """One row per index of the equal-length float ``columns``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter=",",
                   header=",".join(header), comments="")


def cmd_eval(args, parser):
    xs = args.x_range if args.x_range is not None else _read_x_csv(args.input)

    config = TwoDomainConfig(density=args.density)
    if args.opt == 1 and args.part != "re":
        parser.error("--opt 1 produces the real part only; use --part re")
    if args.opt == 2 and args.part != "im":
        parser.error("--opt 2 produces the imaginary part only; use --part im")
    # opt 1 and 2 are projections of the full complex values, so the part
    # written below is the same either way
    w = _ALGORITHMS[args.algo](xs, args.y, config)
    header, parts = _EVAL_PARTS[args.part]
    _write_csv(args.out, header, xs, *parts(w))
    return 0


def part_error(values, reference, part, metric):
    """Per-point error of one part; 'rel' falls back to the absolute
    difference wherever the reference part is exactly zero (e.g. the
    imaginary part on the x = 0 axis)."""
    a = values.real if part == "re" else values.imag
    b = reference.real if part == "re" else reference.imag
    diff = np.abs(a - b)
    if metric == "abs":
        return diff
    scale = np.abs(b)
    return np.divide(diff, scale, out=diff, where=scale != 0)


def cmd_errmap(args, parser):
    xs, ys = args.x_range, args.y_range
    config = TwoDomainConfig(density=args.density)

    err = np.stack([
        part_error(_ALGORITHMS[args.algo](xs, y, config), reference_values(xs + 1j * y),
                   args.part, args.metric)
        for y in ys
    ])
    _write_csv(args.out, ("x", "y", "err"), np.tile(xs, len(ys)), np.repeat(ys, len(xs)),
               err.ravel())
    print(f"max_err={float(err.max()):.17g}")
    return 0


def run_benchmark(spec):
    """Execute the benchmark protocol; returns rows of
    (algorithm, half_range, mean_seconds)."""
    results = []
    for name in spec.algorithms:
        fn = _ALGORITHMS[name]
        for a in spec.x_half_ranges:
            xs = np.linspace(-a, a, spec.point_count)
            t0 = time.perf_counter()
            for _ in range(spec.repeats):
                fn(xs, spec.y, None)
            mean = (time.perf_counter() - t0) / spec.repeats
            results.append((name, a, mean))
    return results


def _format_bench_table(spec, results):
    means = {(name, a): mean for name, a, mean in results}
    header = ["algorithm"] + [f"x in [-{a:g}, {a:g}]" for a in spec.x_half_ranges]
    widths = [max(12, len(h) + 2) for h in header]
    lines = ["".join(h.ljust(w) for h, w in zip(header, widths))]
    for name in spec.algorithms:
        cells = [name] + [f"{means[name, a]:.6f}" for a in spec.x_half_ranges]
        lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)


def cmd_bench(args, parser):
    try:
        spec = BenchSpec(
            point_count=args.points,
            x_half_ranges=tuple(args.ranges),
            y=args.y,
            repeats=args.repeats,
            algorithms=tuple(args.algos),
        )
    except VoigtError as exc:
        parser.error(str(exc))
    results = run_benchmark(spec)
    print(f"{spec.point_count} points, {spec.repeats} repeats, y = {spec.y:g}")
    print(_format_bench_table(spec, results))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("algorithm,half_range,points,repeats,mean_seconds\n")
            for name, a, mean in results:
                fh.write(f"{name},{a:.17g},{spec.point_count},{spec.repeats},{mean:.17g}\n")
    return 0


def _comma_list(conv):
    def parse(text):
        try:
            return [conv(tok) for tok in text.split(",") if tok]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad list: {text!r}") from None
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="voigt2dom",
        description="Voigt / complex error function evaluation, error maps and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    density = dict(choices=("basic", "enhanced"), default="basic",
                   help="node density of --algo twodom; fadsamp, wtrap and cf ignore it")

    p_eval = sub.add_parser("eval", help="evaluate an algorithm on a set of abscissas")
    p_eval.add_argument("--algo", required=True, choices=_ALGORITHMS)
    p_eval.add_argument("--y", type=float, required=True)
    source = p_eval.add_mutually_exclusive_group(required=True)
    source.add_argument("--x-range", type=_parse_triplet, metavar="A:B:N",
                        help="linear abscissa grid")
    source.add_argument("--input", metavar="CSV", help="read abscissas from a CSV first column")
    p_eval.add_argument("--part", choices=("re", "im", "both"), default="both")
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--density", **density)
    p_eval.add_argument("--opt", type=int, choices=(1, 2, 3))
    p_eval.set_defaults(func=cmd_eval)

    p_map = sub.add_parser("errmap", help="error map against the reference oracle")
    p_map.add_argument("--algo", required=True, choices=_ALGORITHMS)
    p_map.add_argument("--x-range", required=True, type=_parse_triplet, metavar="A:B:N")
    p_map.add_argument("--y-range", required=True, type=_parse_log_triplet,
                       metavar="A:B:N", help="log-spaced")
    p_map.add_argument("--metric", choices=("abs", "rel"), default="rel")
    p_map.add_argument("--part", choices=("re", "im"), default="re")
    p_map.add_argument("--out", required=True)
    p_map.add_argument("--density", **density)
    p_map.set_defaults(func=cmd_errmap)

    p_bench = sub.add_parser("bench", help="run-time comparison of the algorithms")
    p_bench.add_argument("--points", type=int, default=1_000_000,
                         help="points per call (desk-scale default 1e6)")
    p_bench.add_argument("--ranges", type=_comma_list(float), default=BenchSpec.x_half_ranges)
    p_bench.add_argument("--y", type=float, default=BenchSpec.y)
    p_bench.add_argument("--repeats", type=int, default=BenchSpec.repeats)
    p_bench.add_argument("--algos", type=_comma_list(str), default=BenchSpec.algorithms)
    p_bench.add_argument("--out")
    p_bench.set_defaults(func=cmd_bench)
    return parser


_RANGE_FLAGS = ("--x-range", "--y-range", "--ranges")


def _glue_range_values(argv):
    """Join range flags with their value so '-5:5:1001' is not parsed as a flag."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _RANGE_FLAGS:
            value = next(it, None)
            if value is None:
                out.append(tok)
            else:
                out.append(f"{tok}={value}")
        else:
            out.append(tok)
    return out


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_glue_range_values(list(argv)))
    try:
        return args.func(args, parser)
    except (VoigtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
