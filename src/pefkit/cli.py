"""Command-line front end.

Subcommands wire the pipeline end to end: generate -> erase -> evaluate,
plus funnel/mec/pic utilities. Each subcommand returns the config its run
records, and ``main`` writes it as ``run_config.json`` next to the outputs,
so any result directory can be regenerated from its flags alone.

Exit codes: 0 ok, 2 config error, 3 data-constraint violation,
4 misaligned inputs, 5 I/O failure.

Each subcommand imports the modules it runs, so ``generate`` loads only
``dist``, ``synth`` and ``sample_io``. ``synth`` stays a top-level import:
perfbench's tracer wraps only modules already loaded when it installs.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import synth
from .dist import (
    EXACT_TOL,
    AlignmentError,
    Categorical,
    DataConstraintError,
    DistError,
    erasure_feasible,
    funnel_bounds,
    load_grouped_json,
    pic_spectrum,
    read_json,
    write_json,
)
from .sample_io import write_samples_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ALIGN = 4
EXIT_IO = 5


def _flags(args) -> dict:
    """Every parsed flag but ``--out-dir``."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func", "out_dir")}


def cmd_generate(args) -> dict:
    cfg = synth.SynthConfig(
        n_groups=args.groups,
        support_per_group=args.support,
        n_samples_per_group=args.samples,
        setting=args.setting,
        seed=args.seed,
        dirichlet_alpha=args.dirichlet_alpha,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    g, samples = synth.generate(cfg)
    write_samples_csv(samples, os.path.join(args.out_dir, "samples.csv"))
    write_json(g.to_json(), os.path.join(args.out_dir, "true_dists.json"))
    print(f"wrote {len(samples)} samples for {cfg.n_groups} groups to {args.out_dir}")
    return cfg.to_json()


def cmd_erase(args) -> dict:
    from . import pef
    from .qopt import BoConfig

    # Philox's key range; checked here so the equal branch, which draws
    # nothing, rejects the seeds the unequal branch cannot take.
    if not 0 <= args.seed < 2**128:
        raise DistError(f"seed must be in [0, 2**128), got {args.seed}")
    samples = pef.read_samples_csv(args.samples)
    if not len(samples):
        raise DataConstraintError("empty sample set")
    bo = BoConfig(args.bo_budget, args.bo_acq_candidates, args.bo_seed) if args.use_bo else None
    if args.dists:
        g = load_grouped_json(args.dists)
        pef.check_sample_concepts(g, samples)
        tol = args.tol if args.tol is not None else EXACT_TOL
        f, report = pef.build_pef(g, tol, bo)
    else:
        f, report = pef.run_algorithm1(samples, args.tol, bo)
    erased = pef.apply(f, samples, args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    pef.write_erased_csv(erased, os.path.join(args.out_dir, "erased.csv"))
    pef.save_function_json(f, os.path.join(args.out_dir, "function.json"))
    write_json(report.to_json(), os.path.join(args.out_dir, "report.json"))
    print(
        f"branch={report.branch} I(Z;A)={report.i_za_analytic:.6g} "
        f"I(Z;X)={report.i_zx_analytic:.6g} bits"
    )
    config = {k: v for k, v in _flags(args).items() if not k.startswith("bo_")}
    return {**config, "bo": bo.to_json() if bo else None}


def cmd_evaluate(args) -> dict:
    from . import evaluate as ev
    from . import pef

    g = load_grouped_json(args.dists)
    f = pef.load_function_json(args.function)
    erased = pef.read_erased_csv(args.erased)
    original = pef.read_samples_csv(args.samples)
    points, tvs, report = ev.evaluate_run(g, f, erased, original)
    curve = funnel_bounds(g, args.funnel_points)
    os.makedirs(args.out_dir, exist_ok=True)
    ev.emit_tradeoff_csv(points, curve, args.out_dir)
    ev.write_report_json(points=points, tvs=tvs, report=report,
                         path=os.path.join(args.out_dir, "report.json"))
    for p in points:
        print(
            f"{p.method}/{p.mode}: utility={p.utility_bits:.4f} "
            f"privacy={p.privacy_bits:.4f} bits"
        )
    return _flags(args)


def cmd_funnel(args) -> dict:
    g = load_grouped_json(args.dists)
    curve = funnel_bounds(g, args.points)
    os.makedirs(args.out_dir, exist_ok=True)
    curve.write_csv(os.path.join(args.out_dir, "funnel.csv"))
    print(
        f"H(X)={curve.h_x:.4f} H(X|A)={curve.h_x_given_a:.4f} "
        f"I(A;X)={curve.i_ax:.4f} bits"
    )
    return _flags(args)


def cmd_mec(args) -> dict:
    from .coupling import coupling_entropy, greedy_mec, mec_oracle

    p = Categorical.from_json(read_json(args.p))
    q = Categorical.from_json(read_json(args.q))
    c = mec_oracle(p, q, args.max_cells) if args.oracle else greedy_mec(p, q)
    os.makedirs(args.out_dir, exist_ok=True)
    c.write_csv(os.path.join(args.out_dir, "coupling.csv"))
    print(f"coupling entropy {coupling_entropy(c):.5f} bits")
    return _flags(args)


def cmd_pic(args) -> dict:
    g = load_grouped_json(args.dists)
    spec = pic_spectrum(g)
    verdict = erasure_feasible(g)
    os.makedirs(args.out_dir, exist_ok=True)
    obj = {
        "singular_values": [float(v) for v in spec.singular_values],
        "pics": [float(v) for v in spec.pics],
        "lambda_d": spec.lambda_d,
        "shared_support": spec.shared_support,
        "feasible": verdict.feasible,
        "reason": verdict.reason,
    }
    write_json(obj, os.path.join(args.out_dir, "pic.json"))
    print(f"pics={np.round(spec.pics, 6).tolist()} feasible={verdict.feasible} ({verdict.reason})")
    return _flags(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pefkit",
        description="Perfect erasure functions over finite categorical distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out-dir", default=".", help="directory for the output files")

    p_gen = sub.add_parser("generate", parents=[out], help="generate synthetic grouped data")
    p_gen.add_argument("--setting", required=True, choices=synth.SETTINGS)
    p_gen.add_argument("--groups", type=int, default=2)
    p_gen.add_argument("--support", type=int, default=100)
    p_gen.add_argument("--samples", type=int, default=10000)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--dirichlet-alpha", type=float, default=1.0)
    p_gen.set_defaults(func=cmd_generate)

    p_erase = sub.add_parser("erase", parents=[out], help="build and apply an erasure function")
    p_erase.add_argument("--samples", required=True)
    p_erase.add_argument(
        "--dists",
        default=None,
        help="optional ground-truth distribution JSON; bypasses estimation",
    )
    p_erase.add_argument(
        "--tol",
        type=float,
        default=None,
        help=f"permutation tolerance (default: concentration bound; {EXACT_TOL:g} with --dists)",
    )
    p_erase.add_argument("--use-bo", action="store_true")
    p_erase.add_argument("--bo-budget", type=int, default=100)
    p_erase.add_argument("--bo-acq-candidates", type=int, default=1024)
    p_erase.add_argument("--bo-seed", type=int, default=0)
    p_erase.add_argument("--seed", type=int, default=0)
    p_erase.set_defaults(func=cmd_erase)

    p_eval = sub.add_parser("evaluate", parents=[out], help="measure an erasure run")
    p_eval.add_argument("--dists", required=True)
    p_eval.add_argument("--function", required=True)
    p_eval.add_argument("--erased", required=True)
    p_eval.add_argument("--samples", required=True)
    p_eval.add_argument("--funnel-points", type=int, default=101)
    p_eval.set_defaults(func=cmd_evaluate)

    p_funnel = sub.add_parser("funnel", parents=[out], help="emit the funnel envelope")
    p_funnel.add_argument("--dists", required=True)
    p_funnel.add_argument("--points", type=int, default=101)
    p_funnel.set_defaults(func=cmd_funnel)

    p_mec = sub.add_parser("mec", parents=[out], help="couple two distributions")
    p_mec.add_argument("--p", required=True, help="distribution JSON")
    p_mec.add_argument("--q", required=True, help="distribution JSON")
    p_mec.add_argument("--oracle", action="store_true")
    p_mec.add_argument("--max-cells", type=int, default=20)
    p_mec.set_defaults(func=cmd_mec)

    p_pic = sub.add_parser("pic", parents=[out], help="principal inertia component diagnostics")
    p_pic.add_argument("--dists", required=True)
    p_pic.set_defaults(func=cmd_pic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = args.func(args)
        record = {"subcommand": args.command, "config": config}
        write_json(record, os.path.join(args.out_dir, "run_config.json"))
        return EXIT_OK
    except DataConstraintError as exc:
        print(f"data constraint violated: {exc}", file=sys.stderr)
        return EXIT_DATA
    except AlignmentError as exc:
        print(f"misaligned inputs: {exc}", file=sys.stderr)
        return EXIT_ALIGN
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
