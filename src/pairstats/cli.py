"""Command-line front-end over the package's text file formats.

Exit codes: 0 success, 2 usage error or a file that cannot be opened, read
or written (``OSError``), 3 validation error (including a malformed or
non-ASCII input file), 4 numerical error.  Errors are printed to stderr as
one line: ``error: <Kind>: <message>``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis, loop_detector, model, pipeline, reconstruction
from ._fileio import fmt, format_mapping
from .errors import ClassicalRegimeError, PairStatsError, ValidationError

_VALIDATION = (ValidationError, ClassicalRegimeError, UnicodeDecodeError)


def _echo_config(args: argparse.Namespace) -> None:
    for key in sorted(vars(args)):
        if key != "func":
            value = getattr(args, key)
            print(f"config: {key}={fmt(value) if isinstance(value, np.ndarray) else value}")


def grid(spec: str) -> np.ndarray:
    """Argparse type of a grid: 'lin:start:stop:num', 'log:start:stop:num' or 'v1,v2,...'."""
    kind, _, rest = spec.strip().partition(":")
    if kind not in ("lin", "log"):
        return np.array([float(v) for v in spec.split(",")])
    start, stop, num = rest.split(":")
    if int(num) < 1:
        raise ValueError(num)
    space = np.linspace if kind == "lin" else np.geomspace
    return space(float(start), float(stop), int(num))


def _cmd_model(args) -> int:
    src = model.EffectiveSource(
        N=args.N, eta=args.eta, eta_prime=args.eta_prime, M=args.M
    )
    dist = model.joint_distribution(src, args.n_max, tail_bound=args.tail_bound)
    Path(args.out).write_text(model.format_distribution(dist), encoding="ascii")
    print(f"sum={dist.probs.sum():.17g}")
    print(f"tail_mass={dist.tail_mass:.17g}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = pipeline.parse_config(Path(args.config).read_text(encoding="ascii"))
    hist = pipeline.simulate_experiment(cfg)
    Path(args.out).write_text(reconstruction.format_histogram(hist), encoding="ascii")
    print(f"pulses={hist.pulses}")
    print(f"counts={int(hist.f.sum())}")
    if args.responses_dir is not None:
        out = Path(args.responses_dir)
        out.mkdir(parents=True, exist_ok=True)
        for arm, weights in (("a", cfg.weights_a), ("b", cfg.weights_b)):
            resp = loop_detector.response_matrix(weights, cfg.n_max)
            text = loop_detector.format_response(resp)
            (out / f"response_{arm}.txt").write_text(text, encoding="ascii")
        print(f"responses_dir={out}")
    return 0


def _print_em(result: reconstruction.ReconstructionResult) -> str:
    """Print and return the ``em_*`` record; warn on stderr if EM did not converge."""
    text = format_mapping(reconstruction.em_record(result))
    print(text, end="")
    if not result.converged:
        print(
            f"warning: not converged after {result.iterations} iterations",
            file=sys.stderr,
        )
    return text


def _cmd_reconstruct(args) -> int:
    hist = reconstruction.parse_histogram(Path(args.hist).read_text(encoding="ascii"))
    resp_a = loop_detector.parse_response(Path(args.resp_a).read_text(encoding="ascii"))
    resp_b = loop_detector.parse_response(Path(args.resp_b).read_text(encoding="ascii"))
    result = reconstruction.em_reconstruct(
        hist, resp_a, resp_b, args.n_max, tol=args.tol, max_iter=args.max_iter
    )
    Path(args.rho_out).write_text(model.format_distribution(result.rho), encoding="ascii")
    text = _print_em(result)
    if args.report_out is not None:
        Path(args.report_out).write_text(text, encoding="ascii")
    return 0


def _cmd_analyze(args) -> int:
    rho = model.parse_distribution(Path(args.rho).read_text(encoding="ascii"))
    char = analysis.characterize(rho)
    text = format_mapping(analysis.characterization_record(char))
    if args.out is not None:
        Path(args.out).write_text(text, encoding="ascii")
    print(text, end="")
    return 0


def _cmd_map(args) -> int:
    eps = analysis.contamination_map(
        args.eta_grid, args.rate_grid, M=args.M, which=args.which
    )
    text = analysis.format_map(eps, args.eta_grid, args.rate_grid, args.M, args.which)
    Path(args.out).write_text(text, encoding="ascii")
    print(f"cells={eps.size}")
    print(f"unachievable={int(np.isnan(eps).sum())}")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = pipeline.parse_config(Path(args.config).read_text(encoding="ascii"))
    report = pipeline.run_full(cfg)
    report.write(args.out_dir)
    for stage, message in report.failures.items():
        print(f"failed: {stage}: {message}", file=sys.stderr)
    if report.reconstruction is not None:
        _print_em(report.reconstruction)
    if report.characterization is not None:
        print(f"M_hat={report.characterization.M_hat:.17g}")
        print(f"eta_hat={report.characterization.eta_hat:.17g}")
    print(format_mapping(report.timings), end="")
    print(f"out_dir={args.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairstats",
        description="Joint photon-number statistics of pulsed twin-beam sources.",
        epilog="exit codes: 0 success, 2 usage or unopenable file, 3 validation, 4 numerical",
    )
    sub = parser.add_subparsers(
        dest="subcommand",
        required=True,
        parser_class=lambda **kw: argparse.ArgumentParser(
            formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kw
        ),
    )

    p = sub.add_parser("model", help="write the joint photon-number distribution")
    p.add_argument("--N", type=float, required=True, help="mean pairs per mode")
    p.add_argument("--eta", type=float, required=True, help="arm-a transmission")
    p.add_argument("--eta-prime", type=float, required=True, dest="eta_prime")
    p.add_argument("--M", type=float, default=1.0, help="equivalent mode number")
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--tail-bound", type=float, default=None, dest="tail_bound")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("simulate", help="simulate a click histogram from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="histogram output path")
    p.add_argument(
        "--responses-dir",
        default=None,
        dest="responses_dir",
        help="also write the true-weight response matrices at the config's n_max here",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="invert a histogram by maximum likelihood")
    p.add_argument("--hist", required=True)
    p.add_argument("--resp-a", required=True, dest="resp_a")
    p.add_argument("--resp-b", required=True, dest="resp_b")
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--tol", type=float, default=reconstruction.EM_TOL)
    p.add_argument("--max-iter", type=int, default=reconstruction.EM_MAX_ITER, dest="max_iter")
    p.add_argument("--rho-out", required=True, dest="rho_out")
    p.add_argument("--report-out", default=None, dest="report_out")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("analyze", help="source parameters from a distribution file")
    p.add_argument("--rho", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("map", help="contamination contour matrix")
    p.add_argument("--which", type=int, choices=(2, 4), required=True)
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--eta-grid", type=grid, required=True, dest="eta_grid")
    p.add_argument("--rate-grid", type=grid, required=True, dest="rate_grid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("pipeline", help="full run: calibrate, collect, reconstruct")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _echo_config(args)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError, PairStatsError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, OSError):
            return 2
        return 3 if isinstance(exc, _VALIDATION) else 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
