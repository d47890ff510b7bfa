"""Command-line interface.

Subcommands: filter | pipeline (alias train) | eval | sweep-alpha |
sweep-epsilon | bench | spectral. `pipeline` is the one training run;
with --n-epochs 0 its checkpoint.npz holds the pretrained encoder and
decoder that --ae-checkpoint reads. Options can come from a config file
(--config, "key = value" lines or JSON, including a previous run's
manifest.json) with explicit flags taking precedence. Exit code is 0 on
success and a stable per-stage nonzero code on failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING
from pathlib import Path

from .errors import PipelineStageError, run_stage
from .filters import FilterConfig, filtered_cache_header, save_filtered_cache
from .graph import (augment_self_loops, load_edge_list, load_features,
                    load_labels, rmat_generate, save_features)
from .metrics import evaluate_all
from .pipeline import (DESK_SCALE_CEILING, bench_fit_lines, bench_rows_to_csv,
                       bench_scalability, check_bench_sizes, config_fields, filter_features,
                       load_config_file, resolve_run_config, run_pipeline,
                       spectral_run, split_config, sweep_alpha, sweep_epsilon,
                       write_csv, write_json, write_metric_report_csv)

# argparse type per config field annotation; other annotations take a string
_FLAG_TYPES = {"int": int, "float": float}

# edges per node of the R-MAT graph `rwsl spectral` reports on without --edges
_SPECTRAL_EDGE_FACTOR = 4.0

# hops of the truncated filter `rwsl spectral` checks without --hops
_SPECTRAL_HOPS = 100


def _collect_config(args: argparse.Namespace) -> dict:
    """Layer config sources: file values first, explicit flags on top."""
    values = run_stage("config", load_config_file, args.config) if args.config else {}
    for _section, f in config_fields():
        if getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)
    return values


def _require(values: dict, keys) -> None:
    missing = [k for k in keys if not values.get(k) and values.get(k) != 0]
    if missing:
        raise PipelineStageError("config", ValueError(f"missing required options: {missing}"))


def _number_list(text: str, parse) -> list:
    values = [parse(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]
    if not values:
        raise ValueError(f"no values in {text!r}")
    return values


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_filter(args) -> int:
    values = _collect_config(args)
    _require(values, ("edges", "n_nodes", "features", "out"))
    run, filter_cfg, train_cfg = run_stage("config", split_config, values)
    out_dir = Path(run["out"])
    run_stage("write", out_dir.mkdir, parents=True, exist_ok=True)
    g = run_stage("load", load_edge_list, run["edges"], run["n_nodes"])
    x = run_stage("load", load_features, run["features"])
    g = run_stage("filter", augment_self_loops, g)
    xf = run_stage("filter", filter_features, g, x, filter_cfg, seed=train_cfg.seed)
    header = filtered_cache_header(g, filter_cfg, x, seed=train_cfg.seed)
    run_stage("write", save_filtered_cache, out_dir / "filtered.npz", xf, header)
    if args.text:
        run_stage("write", save_features, xf, out_dir / "filtered.txt")
    print(f"filtered {xf.shape[0]}x{xf.shape[1]} -> {out_dir / 'filtered.npz'}")
    return 0


def _cmd_pipeline(args) -> int:
    values = _collect_config(args)
    _require(values, ("edges", "n_nodes", "features", "k", "out"))
    cfg = run_stage("config", resolve_run_config, values)
    if args.filtered and not args.filtered.endswith(".npz"):
        raise PipelineStageError("config", ValueError(
            f"--filtered takes a .npz filtered-feature cache, not {args.filtered!r}"))
    outcome = run_pipeline(cfg, filtered=args.filtered, ae_checkpoint=args.ae_checkpoint)
    if args.export_distributions:
        for name in ("p_h", "p_z"):
            matrix = getattr(outcome.result, name)
            run_stage("write", write_csv, outcome.out_dir / f"{name}.csv",
                      [f"cluster_{j}" for j in range(matrix.shape[1])], matrix)
    print(f"assignments -> {outcome.out_dir / 'assignments.txt'}")
    if outcome.summary is not None:
        print(json.dumps(outcome.summary["mean"]))
    return 0


def _cmd_eval(args) -> int:
    values = _collect_config(args)
    _require(values, ("edges", "n_nodes", "labels", "out"))
    if not args.pred:
        raise PipelineStageError("config", ValueError("--pred is required"))
    g_plain = run_stage("load", load_edge_list, values["edges"], values["n_nodes"])
    pred = run_stage("load", load_labels, args.pred)
    labels = run_stage("load", load_labels, values["labels"])
    report = run_stage("eval", evaluate_all, g_plain, pred, labels)
    out_dir = Path(values["out"])
    run_stage("write", out_dir.mkdir, parents=True, exist_ok=True)
    run_stage("write", write_json, out_dir / "metrics.json", report.as_dict())
    run_stage("write", write_metric_report_csv, [report.as_dict()], out_dir / "metrics.csv")
    print(json.dumps(report.as_dict()))
    return 0


def _cmd_sweep(args, which: str) -> int:
    values = _collect_config(args)
    _require(values, ("edges", "n_nodes", "features", "labels", "k", "out"))
    cfg = run_stage("config", resolve_run_config, values)
    sweep = sweep_epsilon if which == "epsilon" else sweep_alpha
    # the sweep's stages keep their codes; only the value checks are untagged
    result = run_stage("config", lambda: sweep(cfg, _number_list(args.values, float)))
    print(f"sweep CSV -> {result.csv_path}")
    return 0


def _cmd_bench(args) -> int:
    sizes = run_stage("config", _number_list, args.sizes, int)
    run_stage("bench", check_bench_sizes, sizes, args.repeats, max_nodes=args.max_nodes)
    out_dir = Path(args.out)
    run_stage("write", out_dir.mkdir, parents=True, exist_ok=True)
    rows = run_stage("bench", bench_scalability, sizes, args.edge_factor, args.feat_dim,
                     args.epochs, repeats=args.repeats, seed=args.seed,
                     max_nodes=args.max_nodes)
    run_stage("write", bench_rows_to_csv, rows, out_dir / "bench.csv")
    for line in [*rows, *bench_fit_lines(rows)]:
        print(line)
    return 0


def _cmd_spectral(args) -> int:
    values = _collect_config(args)
    _require(values, ("n_nodes", "out"))
    alphas = (run_stage("config", _number_list, args.alphas, float) if args.alphas
              else [values.get("alpha", 0.1)])
    hops = values.get("hops", _SPECTRAL_HOPS)
    for alpha in alphas:
        run_stage("config", FilterConfig, alpha=alpha, hops=hops, rrz=0.5)
    if len(set(alphas)) != len(alphas):
        raise PipelineStageError("config", ValueError(f"alpha values repeat: {alphas}"))
    run_stage("write", Path(values["out"]).mkdir, parents=True, exist_ok=True)
    if values.get("edges"):
        g_plain = run_stage("load", load_edge_list, values["edges"], values["n_nodes"])
    else:
        g_plain = run_stage("load", rmat_generate, values["n_nodes"], _SPECTRAL_EDGE_FACTOR,
                            values.get("seed", 0))
    summary = run_stage("spectral", spectral_run, g_plain, alphas, hops, values["out"])
    print((Path(values["out"]) / "claims.txt").read_text().strip())
    print(json.dumps(summary["max_abs_gap"]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwsl",
        description="Attributed-graph clustering with teleport-filtered features "
                    "and a self-supervised co-trained autoencoder.")
    sub = parser.add_subparsers(dest="command", required=True)

    def config_flags(**defaults):
        """A parent parser with the --config flag and one flag per config
        field; ``defaults`` names the defaults a subcommand uses in place of
        the field's own."""
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument("--config", type=str, default=None,
                       help="config file: 'key = value' lines, JSON, or a manifest.json")
        for _section, f in config_fields():
            default = defaults.get(f.name, f.default)
            p.add_argument("--" + f.name.replace("_", "-"), type=_FLAG_TYPES.get(f.type, str),
                           help=None if default is MISSING else f"default: {default}")
        return p

    common = [config_flags()]

    p = sub.add_parser("filter", parents=common, help="compute and cache filtered features")
    p.add_argument("--text", action="store_true", help="also dump a text matrix")

    p = sub.add_parser("pipeline", aliases=["train"], parents=common,
                       help="filter + pretrain + train, evaluated with --labels")
    p.add_argument("--filtered", type=str, default=None,
                   help="precomputed filtered features: a .npz cache, checked "
                        "against this run's graph, features, filter options and seed")
    p.add_argument("--ae-checkpoint", type=str, default=None,
                   help="pretrained autoencoder checkpoint, such as the checkpoint.npz "
                        "of a --n-epochs 0 run (skips pretraining)")
    p.add_argument("--export-distributions", action="store_true",
                   help="also write the soft assignment matrices as CSV")

    p = sub.add_parser("eval", parents=common, help="score saved assignments against labels")
    p.add_argument("--pred", type=str, default=None, help="assignments file to score")

    p = sub.add_parser("sweep-alpha", parents=common,
                       help="repeat the pipeline over teleport values")
    p.add_argument("--values", type=str, required=True, help="comma-separated alphas")

    p = sub.add_parser("sweep-epsilon", parents=common,
                       help="repeat the pipeline over blend weights")
    p.add_argument("--values", type=str, required=True, help="comma-separated epsilons")

    p = sub.add_parser("bench", help="linear-scaling benchmark on synthetic graphs")
    p.add_argument("--sizes", type=str, required=True, help="comma-separated node counts")
    p.add_argument("--edge-factor", type=float, default=20.0)
    p.add_argument("--feat-dim", type=int, default=100)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=".")
    p.add_argument("--max-nodes", type=int, default=DESK_SCALE_CEILING,
                   help="desk-scale ceiling; raise to opt in to larger runs")

    p = sub.add_parser("spectral", parents=[config_flags(hops=_SPECTRAL_HOPS)],
                       help="eigenvalue report and claim checks; "
                       "without --edges, on an R-MAT graph of --n-nodes nodes")
    p.add_argument("--alphas", type=str, default=None, help="comma-separated alphas")

    return parser


_HANDLERS = {
    "filter": _cmd_filter,
    "pipeline": _cmd_pipeline,
    "train": _cmd_pipeline,
    "eval": _cmd_eval,
    "sweep-alpha": lambda a: _cmd_sweep(a, "alpha"),
    "sweep-epsilon": lambda a: _cmd_sweep(a, "epsilon"),
    "bench": _cmd_bench,
    "spectral": _cmd_spectral,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
