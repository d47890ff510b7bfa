"""End-to-end orchestration: filter -> pretrain -> co-train -> evaluate,
parameter sweeps, the linear-scaling benchmark, and artifact/manifest IO.

Every pipeline run writes a fixed artifact set under its output directory
(metrics.json, metrics.csv, loss.csv, assignments.txt, checkpoint.npz,
filtered.npz, manifest.json; the metric files need labels, and a run given
``--filtered`` writes no filtered.npz). Every CSV and JSON artifact goes through
``write_csv`` or ``write_json``. The manifest embeds the fully resolved
configuration and seeds, so re-running from it reproduces the metric values
bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
import tracemalloc
from dataclasses import dataclass, field, fields, replace
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import CacheMismatchError, PipelineStageError, run_stage
from .filters import (FilterConfig, _features_sha256, filter_exact, filter_randomwalk,
                      filtered_cache_header, load_filtered_cache, save_filtered_cache)
from .graph import (CsrGraph, augment_self_loops, load_edge_list,
                    load_features, load_labels, rmat_generate, save_labels)
from .metrics import MetricReport, evaluate_all
from .spectral import spectral_report, verify_claim1, verify_claim2
from .training import (TrainConfig, TrainResult, load_checkpoint, pretrain_autoencoder,
                       save_checkpoint, train_rwsl)

MANIFEST_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved pipeline configuration."""

    edges: str
    n_nodes: int
    features: str
    k: int
    out: str
    labels: str = ""
    repeat: int = 1
    filter: FilterConfig = field(default_factory=FilterConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")
        if not 2 <= self.k <= self.n_nodes:
            raise ValueError(f"k must be in [2, n_nodes={self.n_nodes}], got {self.k}")
        if 0 < self.train.kmeans_sample_cap < self.k:
            raise ValueError(f"kmeans_sample_cap must be 0 or >= k={self.k}")


# ---------------------------------------------------------------------------
# configuration files: flat "key = value" text or JSON (plain or manifest)


def _coerce(token: str):
    try:
        return json.loads(token)
    except (json.JSONDecodeError, ValueError):
        return token


def parse_config_text(text: str) -> dict:
    """Parse "key = value" lines; '#' starts a comment, blanks are skipped."""
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, val = line.split(sep, 1)
                break
        else:
            raise ValueError(f"config line {line_no}: expected 'key = value', got {raw!r}")
        values[key.strip()] = _coerce(val.strip())
    return values


def load_config_file(path) -> dict:
    """Load a config from key=value text, a JSON object, or a manifest."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        if "config" in doc and isinstance(doc["config"], dict):
            return dict(doc["config"])
        return doc
    return parse_config_text(text)


def parse_architecture(value) -> tuple:
    """Accept "512-2048-32", comma lists, or sequences of ints."""
    if isinstance(value, str):
        parts = value.replace(",", "-").split("-")
        return tuple(int(p) for p in parts if p.strip())
    if isinstance(value, (list, tuple)):
        return tuple(int(p) for p in value)
    return (int(value),)


_SECTIONS = {"filter": FilterConfig, "train": TrainConfig}


def config_fields() -> list:
    """``(section, field)`` for every flat config key, the key being the
    field's name: RunConfig's own fields (section ``None``), then
    FilterConfig's (``"filter"``) and TrainConfig's (``"train"``)."""
    own = [(None, f) for f in fields(RunConfig) if f.name not in _SECTIONS]
    return own + [(name, f) for name, cls in _SECTIONS.items() for f in fields(cls)]


def split_config(values: dict) -> tuple:
    """Sort a flat key dict into RunConfig's own keys (a dict) and its
    built FilterConfig and TrainConfig; unknown keys are rejected."""
    values = dict(values)
    if "architecture" in values:
        values["architecture"] = parse_architecture(values["architecture"])
    parts = {None: {}, **{name: {} for name in _SECTIONS}}
    for section, f in config_fields():
        if f.name in values:
            parts[section][f.name] = values.pop(f.name)
    if values:
        raise ValueError(f"unknown config keys: {sorted(values)}")
    return parts[None], FilterConfig(**parts["filter"]), TrainConfig(**parts["train"])


def resolve_run_config(values: dict) -> RunConfig:
    """Build a RunConfig from a flat key dict (unknown keys are rejected)."""
    run, filter_cfg, train_cfg = split_config(values)
    return RunConfig(filter=filter_cfg, train=train_cfg, **run)


def run_config_to_flat(cfg: RunConfig) -> dict:
    """Inverse of ``resolve_run_config``; used by the manifest."""
    flat = {f.name: getattr(cfg if section is None else getattr(cfg, section), f.name)
            for section, f in config_fields()}
    flat["architecture"] = "-".join(str(d) for d in cfg.train.architecture)
    return flat


# ---------------------------------------------------------------------------
# artifact helpers


def _sha256(path: Path) -> str:
    """sha256 of a file, read in 1 MiB blocks so memory stays flat."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _aggregate(reports: list, seeds: list) -> dict:
    """Mean/std per metric over repeated runs, then each seed's report; std
    flagged zero for repeat=1 (the std of one row, which metric validation
    keeps finite, is 0.0)."""
    table = np.array([[getattr(r, f) for f in MetricReport.FIELDS] for r in reports])
    mean = table.mean(axis=0)
    std = table.std(axis=0)
    return {
        "repeat": len(reports),
        "std_is_zero_flagged": len(reports) < 2,
        "mean": dict(zip(MetricReport.FIELDS, map(float, mean))),
        "std": dict(zip(MetricReport.FIELDS, map(float, std))),
        "per_seed": [{"seed": s} | r.as_dict() for s, r in zip(seeds, reports)],
    }


def write_csv(path, header, rows) -> None:
    """CSV with a ``header`` line, then one line per row: numbers as ``.17g``
    (which reads back to the same float64) and strings as given."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n")


def write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def write_metric_report_csv(rows: list, path) -> None:
    """CSV with the fixed metric column order; one row per dict in ``rows``."""
    write_csv(path, MetricReport.FIELDS, ([row[f] for f in MetricReport.FIELDS] for row in rows))


def loss_history_to_csv(history: np.ndarray, path) -> None:
    """Loss curve CSV with columns iteration, L_MSE, L_H, L_Z, L_tot."""
    write_csv(path, ("iteration", "L_MSE", "L_H", "L_Z", "L_tot"), history)


@dataclass
class PipelineOutcome:
    summary: dict | None           # aggregate mean/std block; None without labels
    reports: list                  # per-seed MetricReport
    seeds: list
    out_dir: Path
    result: TrainResult            # the first seed's co-train outputs


def filter_features(g_aug: CsrGraph, x_raw: np.ndarray, cfg: FilterConfig, *,
                    seed: int = 0) -> np.ndarray:
    """Filter ``x_raw`` on the self-loop-augmented graph with
    ``cfg.filter_method``; ``seed`` draws the random walks. ``rwsl filter``
    and ``run_pipeline`` both filter through here."""
    if cfg.filter_method == "randomwalk":
        return filter_randomwalk(g_aug, x_raw, cfg, seed)
    return filter_exact(g_aug, x_raw, cfg)


def run_pipeline(cfg: RunConfig, *, filtered=None, ae_checkpoint=None,
                 _data=None) -> PipelineOutcome:
    """Execute the full pipeline and write the artifact set.

    The run filters once, before its seed loop (a random-walk estimate is
    drawn with ``cfg.train.seed``, as ``rwsl filter`` draws it), then
    repeats the pretrain/train/evaluate segment with seeds
    seed .. seed+repeat-1 on that matrix and aggregates the metric reports;
    each seed passes one autoencoder input (``ae_input``) to pretraining and
    training. The top-level loss/assignment/checkpoint artifacts come from
    the first seed. Without labels, evaluation and the metric files are
    skipped.

    A run writes the ``filtered.npz`` it computed and never reads a file
    already in ``out``: ``filtered`` (a cache written by
    ``save_filtered_cache``, checked against this run's graph, features,
    filter options and seed) is the one way to reuse a filter, and replaces
    the filter stage. ``ae_checkpoint`` (a checkpoint holding an encoder, a
    decoder and the sha256 of this run's autoencoder input, or stage
    ``load`` fails) replaces pretraining; the manifest records the sha256 of
    each under ``inputs``.

    ``_data`` is how a sweep passes inputs it loaded once: ``(graph, raw
    features, labels, group)``, where ``group`` is ``cfg`` followed by the
    configs that equal it apart from ``out`` and ``epsilon``. Per seed the
    run pretrains and co-trains one autoencoder with one DNN per member in
    one ``train_rwsl`` call, and each member's evaluation and artifacts come
    from its own DNN: every member's directory holds the bytes a run of its
    own writes, ``filtered.npz`` copied from ``cfg.out``. A member's results
    are dropped once written; the outcome is ``cfg``'s.

    The augmented graph, and unless ``ae_input = "raw"`` the raw features,
    are released after the filter stage, so they are not held through
    training and evaluation; a sweep keeps the raw matrix its runs share.
    """
    out_dir = Path(cfg.out)
    run_stage("write", out_dir.mkdir, parents=True, exist_ok=True)

    if _data is None:
        g_plain = run_stage("load", load_edge_list, cfg.edges, cfg.n_nodes)
        x_raw = run_stage("load", load_features, cfg.features)
        labels = run_stage("load", load_labels, cfg.labels) if cfg.labels else None
        group = [cfg]
    else:
        g_plain, x_raw, labels, group = _data
    if x_raw.shape[0] != g_plain.n_nodes or (labels is not None
                                             and len(labels) != g_plain.n_nodes):
        raise PipelineStageError("load", ValueError("row counts disagree with n_nodes"))

    g_aug = run_stage("filter", augment_self_loops, g_plain)
    header = filtered_cache_header(g_aug, cfg.filter, x_raw, seed=cfg.train.seed)
    inputs = {}
    if filtered is not None:
        x_filtered = run_stage("load", load_filtered_cache, filtered, header)
        inputs["filtered"] = _sha256(Path(filtered))
    if ae_checkpoint is not None:
        models, _, meta = run_stage("load", load_checkpoint, ae_checkpoint)
        autoencoder = run_stage("load", itemgetter("encoder", "decoder"), models)
        pretrained_on = meta.get("ae_x_sha256", "<absent>")
        inputs["ae_checkpoint"] = _sha256(Path(ae_checkpoint))
    if filtered is None:
        x_filtered = run_stage("filter", filter_features, g_aug, x_raw, cfg.filter,
                               seed=cfg.train.seed)
        run_stage("write", save_filtered_cache, out_dir / "filtered.npz", x_filtered, header)
    # nothing reads g_aug after this, nor x_raw unless it is the autoencoder input
    ae_x = x_filtered if cfg.train.ae_input == "filtered" else x_raw
    g_aug = x_raw = None
    ae_x_sha256 = _features_sha256(ae_x)
    if ae_checkpoint is not None and pretrained_on != ae_x_sha256:
        raise PipelineStageError("load", CacheMismatchError(
            f"{ae_checkpoint} was pretrained on another autoencoder input: "
            f"ae_x_sha256 {pretrained_on} != {ae_x_sha256}"))
    # in write order; a run writes the filtered.npz it computes
    written = ["filtered.npz"] if filtered is None else []
    seeds = [cfg.train.seed + i for i in range(cfg.repeat)]

    reports = [[] for _ in group]
    first = None
    for seed in seeds:
        train_cfg = replace(cfg.train, seed=seed)
        if ae_checkpoint is None:
            encoder, decoder = run_stage("pretrain", pretrain_autoencoder, ae_x, train_cfg)
        else:
            encoder, decoder = (model.copy() for model in autoencoder)
        results = run_stage("train", train_rwsl, x_filtered, ae_x, cfg.k, train_cfg,
                            encoder, decoder, epsilons=[m.train.epsilon for m in group])
        # only cfg's soft assignments are read after this (--export-distributions)
        results[1:] = [replace(r, p_z=None, p_h=None) for r in results[1:]]
        first = first or results[0]
        for member, member_reports in zip(group, reports):
            result = results.pop(0)     # freed after this member unless it is first
            if labels is not None:
                member_reports.append(run_stage("eval", evaluate_all, g_plain,
                                                result.assignments, labels))
            if seed > seeds[0]:
                continue
            dest = Path(member.out)
            run_stage("write", dest.mkdir, parents=True, exist_ok=True)
            run_stage("write", loss_history_to_csv, result.loss_history, dest / "loss.csv")
            run_stage("write", save_labels, result.assignments, dest / "assignments.txt")
            run_stage("write", save_checkpoint, dest / "checkpoint.npz",
                      {"encoder": result.encoder, "decoder": result.decoder, "dnn": result.dnn},
                      {"seed": seed, "k": cfg.k, "ae_x_sha256": ae_x_sha256},
                      {"centroids": result.centroids})
    written += ["loss.csv", "assignments.txt", "checkpoint.npz"]
    if labels is not None:
        written += ["metrics.json", "metrics.csv"]

    summaries = [_aggregate(r, seeds) if r else None for r in reports]
    for member, summary in zip(group, summaries):
        dest = Path(member.out)
        if dest != out_dir and "filtered.npz" in written:
            run_stage("write", shutil.copyfile, out_dir / "filtered.npz", dest / "filtered.npz")
        if summary is not None:
            run_stage("write", write_json, dest / "metrics.json", summary)
            run_stage("write", write_metric_report_csv, [summary["mean"]], dest / "metrics.csv")
        run_stage("write", _write_manifest, member, seeds, dest, inputs, written)
    return PipelineOutcome(summaries[0], reports[0], seeds, out_dir, first)


def _write_manifest(cfg: RunConfig, seeds: list, out_dir: Path, inputs: dict,
                    written: list) -> None:
    """Write manifest.json, hashing the artifacts named in ``written``: this
    run's files, not older ones left in ``out_dir``."""
    artifacts = {name: _sha256(out_dir / name) for name in written}
    manifest = {
        "kind": "manifest",
        "version": MANIFEST_VERSION,
        "config": run_config_to_flat(cfg),
        "seeds": seeds,
        "artifacts": artifacts,
    }
    if inputs:
        manifest["inputs"] = inputs
    write_json(out_dir / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepResult:
    values: list
    summaries: list                 # aggregate block per value
    csv_path: Path


def _sweep(cfg: RunConfig, parameter: str, values, make_cfg) -> SweepResult:
    """Pipeline output for each value in ``<out>/<parameter>_<value>``, on
    inputs loaded once, then the long CSV from each value's metrics.json.
    Values whose configs differ only in ``out`` and ``epsilon`` are one
    ``run_pipeline`` call's group, which writes all their directories. The
    values are checked, by building every value's config, before anything
    is created or loaded."""
    values = list(values)
    if not values:
        raise ValueError(f"a {parameter} sweep needs at least one value")
    if len(set(values)) != len(values):
        raise ValueError(f"{parameter} values repeat: {values}")
    if not cfg.labels:
        raise ValueError("a sweep needs labels: its CSV holds the metrics of each value")
    out_dir = Path(cfg.out)
    subs = [replace(make_cfg(cfg, value), out=str(out_dir / f"{parameter}_{value}"))
            for value in values]
    groups = {}
    for sub in subs:
        key = replace(sub, out="", train=replace(sub.train, epsilon=0.0))
        groups.setdefault(key, []).append(sub)
    run_stage("write", out_dir.mkdir, parents=True, exist_ok=True)
    g_plain = run_stage("load", load_edge_list, cfg.edges, cfg.n_nodes)
    x_raw = run_stage("load", load_features, cfg.features)
    labels = run_stage("load", load_labels, cfg.labels)
    for group in groups.values():
        run_pipeline(group[0], _data=(g_plain, x_raw, labels, group))
    summaries = [json.loads((Path(sub.out) / "metrics.json").read_text()) for sub in subs]
    csv_path = out_dir / f"sweep_{parameter}.csv"
    run_stage("write", write_csv, csv_path, (parameter, "metric", "mean", "std"),
              ((str(value), metric, summary["mean"][metric], summary["std"][metric])
               for value, summary in zip(values, summaries) for metric in MetricReport.FIELDS))
    return SweepResult(values, summaries, csv_path)


def sweep_epsilon(cfg: RunConfig, values) -> SweepResult:
    """One pipeline output directory per blend weight; emits sweep_epsilon.csv.

    Only the co-train DNN reads epsilon, so the sweep is one pipeline run:
    it filters once, co-trains one autoencoder per seed with one DNN per
    value, and writes each value's directory with the bytes a run of its
    own writes. A value whose DNN diverges fails the train stage before any
    value's co-train outputs are written.
    """
    return _sweep(cfg, "epsilon", values,
                  lambda c, v: replace(c, train=replace(c.train, epsilon=v)))


def sweep_alpha(cfg: RunConfig, values) -> SweepResult:
    """One pipeline per teleport probability (features re-filtered each time)."""
    return _sweep(cfg, "alpha", values,
                  lambda c, v: replace(c, filter=replace(c.filter, alpha=v)))


# ---------------------------------------------------------------------------
# scalability benchmark

BENCH_TRAIN_CONFIG = TrainConfig(
    architecture=(256, 64),
    learning_rate=1e-3,
    pretrain_n_epochs=0,
    batch_size=512,
    dropout_rate=0.0,
    kmeans_sample_cap=10000,
    kmeans_max_iters=20,
)


DESK_SCALE_CEILING = 100_000


def check_bench_sizes(sizes, repeats: int, k: int = 8, max_nodes=DESK_SCALE_CEILING) -> list:
    """``sizes`` as a list, once ``bench_scalability``'s options pass its checks."""
    sizes = list(sizes)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending")
    if sizes and sizes[0] < k:
        raise ValueError(f"size {sizes[0]} is below k={k}")
    if sizes and sizes[-1] > max_nodes:
        raise ValueError(f"size {sizes[-1]} exceeds max_nodes={max_nodes}; "
                         "raise max_nodes to opt in to larger runs")
    return sizes


def bench_scalability(sizes, edge_factor: float, feat_dim: int, epochs: int,
                      repeats: int = 3, seed: int = 0, k: int = 8,
                      max_nodes: int = DESK_SCALE_CEILING) -> list:
    """Time filter and 5-epoch-style co-training across synthetic graph sizes.

    Per size: generate a random graph (edge count ~ edge_factor * n) and a
    uniform feature matrix, time ``repeats`` filter runs, release the graph
    and features, then time ``repeats`` co-trains on the filtered features
    (medians reported; ``total_s`` pairs the i-th filter with the i-th
    co-train). Graph/feature generation and IO are excluded from the
    timings. Training-stage peak memory is tracked via tracemalloc.
    MemoryError yields a failure row and the remaining sizes continue.

    ``sizes`` must be ascending, none below ``k``. Runs are capped at the
    desk-scale ceiling of 100k nodes by default; pass a larger ``max_nodes`` to opt in.
    """
    sizes = check_bench_sizes(sizes, repeats, k, max_nodes)
    filter_cfg = FilterConfig()
    train_cfg = replace(BENCH_TRAIN_CONFIG, n_epochs=epochs)
    rows = []
    for n in sizes:
        try:
            g = augment_self_loops(rmat_generate(n, edge_factor, seed))
            x = np.random.default_rng(seed).random((n, feat_dim))
            filter_times, train_times, peaks = [], [], []
            for _ in range(repeats):
                xf = None       # one filtered matrix at a time
                t0 = time.perf_counter()
                xf = filter_exact(g, x, filter_cfg)
                filter_times.append(time.perf_counter() - t0)
            # the filter is deterministic: every co-train reads the last
            # output, and the graph is not held through them
            del g, x
            for _ in range(repeats):
                started_here = not tracemalloc.is_tracing()
                if started_here:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                t0 = time.perf_counter()
                train_rwsl(xf, xf, k, train_cfg, *pretrain_autoencoder(xf, train_cfg))
                train_times.append(time.perf_counter() - t0)
                _, peak = tracemalloc.get_traced_memory()
                if started_here:
                    tracemalloc.stop()
                peaks.append(peak / 1e6)
            del xf
            rows.append({
                "n_nodes": n,
                "filter_s": float(np.median(filter_times)),
                "train_s": float(np.median(train_times)),
                "total_s": float(np.median(np.add(filter_times, train_times))),
                "train_peak_mb": float(np.median(peaks)),
                "status": "ok",
            })
        except MemoryError:
            rows.append({"n_nodes": n, "filter_s": float("nan"),
                         "train_s": float("nan"), "total_s": float("nan"),
                         "train_peak_mb": float("nan"), "status": "oom"})
    return rows


def bench_rows_to_csv(rows: list, path) -> None:
    """The benchmark rows as CSV, timings and peaks to 6 significant digits."""
    measured = ("filter_s", "train_s", "total_s", "train_peak_mb")
    write_csv(path, ("n_nodes", *measured, "status"),
              ([r["n_nodes"], *(f"{r[m]:.6g}" for m in measured), r["status"]] for r in rows))


def bench_fit_lines(rows: list) -> list:
    """The scaling fits over the rows with status ok: the R^2 of a linear fit
    of train_s against n, and the log-log slope of train_peak_mb against n.
    Empty with fewer than two such rows."""
    ok = [r for r in rows if r["status"] == "ok"]
    if len(ok) < 2:
        return []
    n = np.array([r["n_nodes"] for r in ok], dtype=float)
    t = np.array([r["train_s"] for r in ok])
    resid = t - np.polyval(np.polyfit(n, t, 1), n)
    ss_tot = float(((t - t.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    slope = np.polyfit(np.log(n), np.log([r["train_peak_mb"] for r in ok]), 1)[0]
    return [f"train_s vs n: R^2 = {r2:.4f}",
            f"train peak memory log-log slope = {slope:.3f} (sublinear < 1)"]


# ---------------------------------------------------------------------------
# spectral report + claim checks for the CLI


def spectral_run(g_plain: CsrGraph, alphas, hops: int, out_dir) -> dict:
    """Write eigenvalue CSVs and claim PASS/FAIL lines; returns the summary.
    A failed write is a ``write`` stage failure (exit code 8)."""
    out_dir = Path(out_dir)
    run_stage("write", out_dir.mkdir, parents=True, exist_ok=True)
    alphas = sorted(alphas)
    g_aug = augment_self_loops(g_plain)
    reports = {a: spectral_report(g_aug, a, hops) for a in alphas}

    first = reports[alphas[0]]
    columns = {"index": np.arange(g_plain.n_nodes),
               "eigenvalue_gcn": first.eigenvalues_gcn,
               "laplacian_sym": 1.0 - first.eigenvalues_gcn}
    for a in alphas:
        columns[f"ppr_closed_a{a}"] = reports[a].eigenvalues_ppr_closed
        columns[f"ppr_laplacian_a{a}"] = 1.0 - reports[a].eigenvalues_ppr_closed
        columns[f"ppr_direct_a{a}"] = reports[a].eigenvalues_ppr_direct
    run_stage("write", write_csv, out_dir / "spectrum.csv", columns, zip(*columns.values()))

    claim_lines = []
    claim1_ok = True
    for a1, a2 in zip(alphas[:-1], alphas[1:]):
        try:
            l0 = verify_claim1(a1, a2, l_max=5000)
            claim_lines.append(f"claim1 alpha=({a1},{a2}) PASS crossover={l0}")
        except Exception as exc:
            claim1_ok = False
            claim_lines.append(f"claim1 alpha=({a1},{a2}) FAIL {exc}")
    grid_alphas = np.round(np.arange(0.05, 0.951, 0.01), 10)
    grid_lambdas = np.round(np.arange(0.01, 1.991, 0.01), 10)
    claim2_ok = verify_claim2(grid_alphas, grid_lambdas)
    claim_lines.append(f"claim2 grid {len(grid_alphas)}x{len(grid_lambdas)} "
                       f"{'PASS' if claim2_ok else 'FAIL'}")
    run_stage("write", (out_dir / "claims.txt").write_text, "\n".join(claim_lines) + "\n")

    summary = {
        "alphas": list(alphas),
        "hops": hops,
        "max_abs_gap": {str(a): reports[a].max_abs_gap for a in alphas},
        "claim1_pass": claim1_ok,
        "claim2_pass": bool(claim2_ok),
    }
    run_stage("write", write_json, out_dir / "spectral.json", summary)
    return summary
