"""Command-line interface.

Subcommands: filter | pretrain | train | eval | pipeline | sweep-alpha |
sweep-epsilon | bench | spectral. Options can come from a config file
(--config, "key = value" lines or JSON, including a previous run's
manifest.json) with explicit flags taking precedence. Exit code is 0 on
success and a stable per-stage nonzero code on failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import CacheMismatchError, PipelineStageError
from .filters import load_filtered_cache, save_filtered_cache
from .graph import (augment_self_loops, load_edge_list, load_features,
                    load_labels, save_features, save_labels)
from .metrics import evaluate_all
from .pipeline import (_filter_features, bench_rows_to_csv, bench_scalability,
                       load_config_file, resolve_run_config, run_pipeline,
                       spectral_run, sweep_alpha, sweep_epsilon,
                       write_distribution_csv, write_metric_report_csv,
                       write_metric_report_json)
from .training import (load_checkpoint, loss_history_to_csv,
                       pretrain_autoencoder, save_checkpoint, train_rwsl)

_RUN_FLAGS = [
    ("--edges", str, "edge-list file, one 'u v' pair per line"),
    ("--n-nodes", int, "number of nodes in the graph"),
    ("--features", str, "dense feature matrix file, one row per node"),
    ("--labels", str, "ground-truth labels file, one integer per line"),
    ("--k", int, "number of clusters"),
    ("--out", str, "output directory"),
    ("--repeat", int, "repetitions with consecutive seeds for mean/std"),
    ("--filter-method", str, "exact | randomwalk"),
]
_FILTER_FLAGS = [
    ("--alpha", float, "teleport probability in (0,1)"),
    ("--hops", int, "propagation depth of the exact filter"),
    ("--rrz", float, "degree-normalization exponent in [0,1]"),
    ("--r-max", float, "walk budget per node = ceil(1/r_max)"),
    ("--n-walks", int, "explicit walks per node for the estimator"),
]
_TRAIN_FLAGS = [
    ("--learning-rate", float, "co-train learning rate"),
    ("--pretrain-lr", float, "autoencoder pretraining learning rate"),
    ("--n-epochs", int, "co-train iterations"),
    ("--pretrain-n-epochs", int, "autoencoder pretraining epochs"),
    ("--batch-size", int, "mini-batch size"),
    ("--beta", float, "weight of the DNN KL loss"),
    ("--gamma", float, "weight of the encoder KL loss"),
    ("--epsilon", float, "blend weight of encoder activations in the DNN"),
    ("--v", float, "Student-t degrees of freedom"),
    ("--update-p", int, "target-distribution refresh period"),
    ("--dropout-rate", float, "dropout rate in [0,1)"),
    ("--weight-decay", float, "decoupled weight decay"),
    ("--seed", int, "base RNG seed"),
    ("--ae-input", str, "autoencoder input: filtered | raw"),
    ("--architecture", str, "layer widths, e.g. 512-2048-32"),
    ("--kmeans-sample-cap", int, "max embeddings used for centroid init (0 = all)"),
]


def _add_flags(parser: argparse.ArgumentParser, flags) -> None:
    for name, typ, help_text in flags:
        parser.add_argument(name, type=typ, default=None, help=help_text)


def _collect_config(args: argparse.Namespace) -> dict:
    """Layer config sources: file values first, explicit flags on top."""
    values = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for name, _typ, _h in _RUN_FLAGS + _FILTER_FLAGS + _TRAIN_FLAGS:
        key = name.lstrip("-").replace("-", "_")
        val = getattr(args, key, None)
        if val is not None:
            values[key] = val
    return values


def _require(values: dict, keys) -> None:
    missing = [k for k in keys if not values.get(k) and values.get(k) != 0]
    if missing:
        raise PipelineStageError("config", ValueError(f"missing required options: {missing}"))


def _matrix_from(path: str) -> np.ndarray:
    if str(path).endswith(".npz"):
        with np.load(path) as blob:
            return np.asarray(blob["values"], dtype=np.float64)
    return load_features(path)


def _float_list(text: str):
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _int_list(text: str):
    return [int(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_filter(args) -> int:
    values = _collect_config(args)
    _require(values, ("edges", "n_nodes", "features", "out"))
    values.setdefault("k", 2)
    cfg = resolve_run_config({k: v for k, v in values.items()
                              if k in _known_keys()})
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    g = augment_self_loops(load_edge_list(cfg.edges, cfg.n_nodes))
    x = load_features(cfg.features)
    xf = _filter_features(g, x, cfg, cfg.train.seed, None)
    save_filtered_cache(out_dir / "filtered.npz", xf, g, cfg.filter,
                        method=cfg.filter_method, features=x, seed=cfg.train.seed)
    if args.text:
        save_features(xf, out_dir / "filtered.txt")
    print(f"filtered {xf.shape[0]}x{xf.shape[1]} -> {out_dir / 'filtered.npz'}")
    return 0


def _cmd_pretrain(args) -> int:
    values = _collect_config(args)
    _require(values, ("features", "out"))
    cfg = resolve_run_config({k: v for k, v in values.items() if k in _known_keys()}
                             | {"edges": values.get("edges", ""),
                                "n_nodes": values.get("n_nodes", 0),
                                "k": values.get("k", 2)})
    x = _matrix_from(values["features"])
    out_dir = Path(values["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    encoder, decoder = pretrain_autoencoder(x, (x.shape[1], *cfg.train.architecture),
                                            cfg.train)
    save_checkpoint(out_dir / "pretrain.npz", {"encoder": encoder, "decoder": decoder},
                    {"phase": "pretrain", "seed": cfg.train.seed})
    print(f"pretrained autoencoder -> {out_dir / 'pretrain.npz'}")
    return 0


def _cmd_train(args) -> int:
    values = _collect_config(args)
    _require(values, ("edges", "n_nodes", "features", "k", "out"))
    cfg = resolve_run_config({k: v for k, v in values.items() if k in _known_keys()})
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    g_plain = load_edge_list(cfg.edges, cfg.n_nodes)
    g_aug = augment_self_loops(g_plain)
    x_raw = load_features(cfg.features)
    if args.filtered and str(args.filtered).endswith(".npz"):
        try:
            x_filtered = load_filtered_cache(args.filtered, g_aug, cfg.filter, x_raw,
                                             cfg.filter_method, seed=cfg.train.seed)
        except (CacheMismatchError, OSError, KeyError, ValueError) as exc:
            raise PipelineStageError("load", exc) from exc
    elif args.filtered:
        x_filtered = load_features(args.filtered)
    else:
        x_filtered = _filter_features(g_aug, x_raw, cfg, cfg.train.seed,
                                      out_dir / "filtered.npz"
                                      if cfg.filter_method == "exact" else None)
    encoder = decoder = None
    if args.ae_checkpoint:
        models, _, _ = load_checkpoint(args.ae_checkpoint)
        encoder, decoder = models["encoder"], models["decoder"]
    result = train_rwsl(g_plain, x_filtered, x_raw, cfg.k, cfg.train,
                        encoder=encoder, decoder=decoder)
    loss_history_to_csv(result.loss_history, out_dir / "loss.csv")
    save_labels(result.assignments, out_dir / "assignments.txt")
    if args.export_distributions:
        write_distribution_csv(result.p_h, out_dir / "p_h.csv")
        write_distribution_csv(result.p_z, out_dir / "p_z.csv")
    save_checkpoint(out_dir / "checkpoint.npz",
                    {"encoder": result.encoder, "decoder": result.decoder,
                     "dnn": result.dnn},
                    {"seed": cfg.train.seed, "k": cfg.k},
                    {"centroids": result.cluster.centroids})
    if cfg.labels:
        report = evaluate_all(g_plain, result.assignments, load_labels(cfg.labels))
        write_metric_report_json(report, out_dir / "metrics.json")
        write_metric_report_csv([report.as_dict()], out_dir / "metrics.csv")
        print(json.dumps(report.as_dict()))
    print(f"assignments -> {out_dir / 'assignments.txt'}")
    return 0


def _cmd_eval(args) -> int:
    values = _collect_config(args)
    _require(values, ("edges", "n_nodes", "labels", "out"))
    if not args.pred:
        raise PipelineStageError("config", ValueError("--pred is required"))
    g_plain = load_edge_list(values["edges"], values["n_nodes"])
    report = evaluate_all(g_plain, load_labels(args.pred), load_labels(values["labels"]))
    out_dir = Path(values["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metric_report_json(report, out_dir / "metrics.json")
    write_metric_report_csv([report.as_dict()], out_dir / "metrics.csv")
    print(json.dumps(report.as_dict()))
    return 0


def _cmd_pipeline(args) -> int:
    values = _collect_config(args)
    _require(values, ("edges", "n_nodes", "features", "labels", "k", "out"))
    cfg = resolve_run_config(values)
    outcome = run_pipeline(cfg)
    print(json.dumps(outcome.summary["mean"]))
    return 0


def _cmd_sweep(args, which: str) -> int:
    values = _collect_config(args)
    _require(values, ("edges", "n_nodes", "features", "labels", "k", "out"))
    cfg = resolve_run_config(values)
    sweep_values = _float_list(args.values)
    result = (sweep_epsilon if which == "epsilon" else sweep_alpha)(cfg, sweep_values)
    print(f"sweep CSV -> {result.csv_path}")
    return 0


def _cmd_bench(args) -> int:
    sizes = _int_list(args.sizes)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = bench_scalability(sizes, args.edge_factor, args.feat_dim, args.epochs,
                             repeats=args.repeats, seed=args.seed or 0,
                             max_nodes=args.max_nodes)
    bench_rows_to_csv(rows, out_dir / "bench.csv")
    for row in rows:
        print(row)
    return 0


def _cmd_spectral(args) -> int:
    values = _collect_config(args)
    _require(values, ("edges", "n_nodes", "out"))
    g_plain = load_edge_list(values["edges"], values["n_nodes"])
    alphas = _float_list(args.alphas) if args.alphas else [values.get("alpha", 0.1)]
    hops = values.get("hops", 100)
    summary = spectral_run(g_plain, alphas, hops, values["out"],
                           dense_limit=args.dense_limit)
    print((Path(values["out"]) / "claims.txt").read_text().strip())
    print(json.dumps(summary["max_abs_gap"]))
    return 0


def _known_keys():
    keys = {name.lstrip("-").replace("-", "_") for name, _t, _h in
            _RUN_FLAGS + _FILTER_FLAGS + _TRAIN_FLAGS}
    return keys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwsl",
        description="Attributed-graph clustering with teleport-filtered features "
                    "and a self-supervised co-trained autoencoder.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, flags=(_RUN_FLAGS, _FILTER_FLAGS, _TRAIN_FLAGS)):
        p.add_argument("--config", type=str, default=None,
                       help="config file: 'key = value' lines, JSON, or a manifest.json")
        for group in flags:
            _add_flags(p, group)

    p = sub.add_parser("filter", help="compute and cache filtered features")
    common(p)
    p.add_argument("--text", action="store_true", help="also dump a text matrix")

    p = sub.add_parser("pretrain", help="pretrain the autoencoder on a feature matrix")
    common(p)

    p = sub.add_parser("train", help="co-train and write assignments")
    common(p)
    p.add_argument("--filtered", type=str, default=None,
                   help="precomputed filtered features: a .npz cache, checked "
                        "against this run's graph, features and filter options, "
                        "or a text matrix")
    p.add_argument("--ae-checkpoint", type=str, default=None,
                   help="pretrained autoencoder checkpoint (skips pretraining)")
    p.add_argument("--export-distributions", action="store_true",
                   help="also write the soft assignment matrices as CSV")

    p = sub.add_parser("eval", help="score saved assignments against labels")
    common(p)
    p.add_argument("--pred", type=str, default=None, help="assignments file to score")

    p = sub.add_parser("pipeline", help="filter + pretrain + train + evaluate")
    common(p)

    p = sub.add_parser("sweep-alpha", help="repeat the pipeline over teleport values")
    common(p)
    p.add_argument("--values", type=str, required=True, help="comma-separated alphas")

    p = sub.add_parser("sweep-epsilon", help="repeat the pipeline over blend weights")
    common(p)
    p.add_argument("--values", type=str, required=True, help="comma-separated epsilons")

    p = sub.add_parser("bench", help="linear-scaling benchmark on synthetic graphs")
    p.add_argument("--sizes", type=str, required=True, help="comma-separated node counts")
    p.add_argument("--edge-factor", type=float, default=20.0)
    p.add_argument("--feat-dim", type=int, default=100)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=".")
    p.add_argument("--max-nodes", type=int, default=100_000,
                   help="desk-scale ceiling; raise to opt in to larger runs")

    p = sub.add_parser("spectral", help="eigenvalue report and claim checks")
    common(p, flags=(_RUN_FLAGS, _FILTER_FLAGS))
    p.add_argument("--alphas", type=str, default=None, help="comma-separated alphas")
    p.add_argument("--dense-limit", type=int, default=3000)

    return parser


_HANDLERS = {
    "filter": _cmd_filter,
    "pretrain": _cmd_pretrain,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "pipeline": _cmd_pipeline,
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
