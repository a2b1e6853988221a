"""Command-line front end.

Subcommands: bench, train, grid, smooth, gen-phases, sites, approx.
Exits 0 on success; argument and domain errors print a typed one-line
message to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import sys

from .bench import compare, save_bench_csv
from .dataio import gen_synthetic_phases, load_phase_csv, save_phase_csv
from .errors import ActkitError, ConfigError
from .experiments import emit_report, load_config, run_experiment, run_grid
from .kernels import ActivationKind, max_approx_error
from .modelspec import GroupSelector, list_sites, preset
from .smoother import save_sweep_csv, sweep_window


def _parse_list(text: str, parse) -> list:
    """`parse` applied to each item of a comma-separated list. actkit's own errors pass
    through; any other ValueError (say, from int) becomes a ConfigError."""
    try:
        return [parse(part.strip()) for part in text.split(",") if part.strip()]
    except ActkitError:
        raise
    except ValueError as exc:
        raise ConfigError(f"cannot parse the list {text!r}: {exc}") from None


def _cmd_bench(args: argparse.Namespace) -> int:
    kinds = _parse_list(args.kinds, ActivationKind.from_name)
    results = compare(kinds, n_elements=args.n, repeats=args.repeats, seed=args.seed)
    print(f"{'kind':<10} {'n':>10} {'repeats':>7} {'ns/elem':>10} {'vs relu':>8}")
    for res in results:
        print(
            f"{res.kind.value:<10} {res.n_elements:>10} {res.repeats:>7} "
            f"{res.median_ns_per_element:>10.4f} {res.ratio_vs_relu:>8.3f}"
        )
    if args.out:
        save_bench_csv(results, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    report = run_experiment(cfg)
    emit_report([report], args.out)
    print(
        f"{report.label}: mean_accuracy={report.mean_accuracy:.4f} "
        f"mean_train_seconds={report.mean_train_seconds:.1f}"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    placements = _parse_list(args.placements, GroupSelector)
    reports = run_grid(cfg, placements, ActivationKind.from_name(args.to))
    emit_report(reports, args.out)
    for rep in reports:
        print(f"{rep.label}: mean_accuracy={rep.mean_accuracy:.4f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_smooth(args: argparse.Namespace) -> int:
    seq = load_phase_csv(args.input)
    rows, best_w = sweep_window(seq, _parse_list(args.windows, int))
    save_sweep_csv(rows, args.out)
    for row in rows:
        marker = "  <- best" if row.w == best_w else ""
        print(f"w={row.w:<6} accuracy={row.accuracy:.4f}{marker}")
    print(f"wrote {args.out}")
    return 0


def _cmd_gen_phases(args: argparse.Namespace) -> int:
    seq = gen_synthetic_phases(
        num_phases=args.phases,
        segment_len=args.segment,
        frames=args.frames,
        noise=args.noise,
        confusion_spread=args.spread,
        seed=args.seed,
    )
    save_phase_csv(seq, args.out)
    print(f"wrote {args.out} ({seq.num_frames} frames, {seq.num_classes} phases)")
    return 0


def _cmd_sites(args: argparse.Namespace) -> int:
    spec = preset(args.preset, blocks_per_stage=tuple(_parse_list(args.blocks, int)))
    sites = list_sites(spec)
    print(f"{'site':<24} {'band':<5} kind")
    for site in sites:
        print(f"{site.site_id:<24} {site.band or '-':<5} {site.kind.value}")
    print(f"{len(sites)} sites")
    return 0


def _cmd_approx(args: argparse.Namespace) -> int:
    a = ActivationKind.from_name(args.a)
    b = ActivationKind.from_name(args.b)
    x_at_max, err = max_approx_error(a, b, lo=args.lo, hi=args.hi, step=args.step)
    print(f"max |{a.value} - {b.value}| on [{args.lo}, {args.hi}] = {err:.10g} at x={x_at_max:.10g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="actkit", description="Activation engineering toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="Throughput-benchmark activation kernels.")
    p_bench.add_argument("--kinds", default="relu,relu6,sigmoid,swish,hardswish")
    p_bench.add_argument("--n", type=int, default=10_000_000)
    p_bench.add_argument("--repeats", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=_cmd_bench)

    p_train = sub.add_parser("train", help="Run one experiment config over its seeds.")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(func=_cmd_train)

    p_grid = sub.add_parser("grid", help="Baseline plus one run per placement selector.")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--placements", default="initial,middle,last,all")
    p_grid.add_argument("--to", default="hardswish")
    p_grid.add_argument("--out", required=True)
    p_grid.set_defaults(func=_cmd_grid)

    p_smooth = sub.add_parser("smooth", help="Sweep SMA window sizes over a phase CSV.")
    p_smooth.add_argument("--in", dest="input", required=True)
    p_smooth.add_argument("--windows", default="1,2,4,8,16,32,64,128,256,512,1024,2048")
    p_smooth.add_argument("--out", required=True)
    p_smooth.set_defaults(func=_cmd_smooth)

    p_gen = sub.add_parser("gen-phases", help="Generate a synthetic phase-probability CSV.")
    p_gen.add_argument("--phases", type=int, default=10)
    p_gen.add_argument("--segment", type=int, default=200)
    p_gen.add_argument("--frames", type=int, default=2000)
    p_gen.add_argument("--noise", type=float, default=0.25)
    p_gen.add_argument("--spread", type=float, default=0.1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen_phases)

    p_sites = sub.add_parser("sites", help="List a preset's activation sites.")
    p_sites.add_argument("--preset", required=True)
    p_sites.add_argument("--blocks", default="1,1,1,1", help="Blocks per stage, e.g. 3,5,11,7.")
    p_sites.set_defaults(func=_cmd_sites)

    p_approx = sub.add_parser("approx", help="Max pointwise gap between two activations.")
    p_approx.add_argument("--a", required=True)
    p_approx.add_argument("--b", required=True)
    p_approx.add_argument("--lo", type=float, default=-10.0)
    p_approx.add_argument("--hi", type=float, default=10.0)
    p_approx.add_argument("--step", type=float, default=1e-4)
    p_approx.set_defaults(func=_cmd_approx)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ActkitError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
