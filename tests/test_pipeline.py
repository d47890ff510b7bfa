import hashlib
import json
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from rwsl.cli import _collect_config, build_parser, main as cli_main
from rwsl.errors import PipelineStageError
from rwsl import filters
from rwsl.filters import (FilterConfig, filter_exact, filter_randomwalk,
                          filtered_cache_header, load_filtered_cache, save_filtered_cache)
from rwsl.graph import (augment_self_loops, load_edge_list, load_features,
                        rmat_generate, save_edge_list, save_features, save_labels)
from rwsl.pipeline import (_sha256, bench_rows_to_csv, bench_scalability,
                           load_config_file, parse_architecture,
                           parse_config_text, resolve_run_config,
                           run_config_to_flat, run_pipeline, spectral_run,
                           sweep_alpha, sweep_epsilon)
from rwsl.metrics import MetricReport
from rwsl.spectral import spectral_report
from rwsl.training import TrainConfig, load_checkpoint, save_checkpoint, train_rwsl

from test_filters import walk_budget

ARTIFACTS = ("metrics.json", "metrics.csv", "loss.csv", "assignments.txt",
             "checkpoint.npz", "filtered.npz", "manifest.json")


# every flat config key (the manifest's key set), each away from its default
NON_DEFAULT_CONFIG = {
    "edges": "e.txt", "n_nodes": 7, "features": "f.txt", "k": 3, "out": "o",
    "labels": "l.txt", "repeat": 2, "filter_method": "randomwalk",
    "alpha": 0.3, "hops": 5, "rrz": 0.5, "r_max": 1e-3,
    "architecture": "16-4", "learning_rate": 0.02, "pretrain_lr": 0.03, "n_epochs": 4,
    "pretrain_n_epochs": 6, "batch_size": 8, "beta": 0.2, "gamma": 0.3, "epsilon": 0.4,
    "v": 2.0, "update_p": 3, "dropout_rate": 0.1, "weight_decay": 0.05, "seed": 11,
    "ae_input": "raw", "kmeans_sample_cap": 50, "kmeans_max_iters": 7,
}


def _flags(values: dict) -> list:
    return [a for k, v in values.items() for a in (f"--{k.replace('_', '-')}", str(v))]


def load_sweep_validator():
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "scripts" / "validate_sweep_csv.py"
    spec = importlib.util.spec_from_file_location("validate_sweep_csv", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestConfigParsing:
    def test_key_value_text(self):
        values = parse_config_text("alpha = 0.2 # teleport\nn_epochs: 5\n\nae_input = raw\n")
        assert values == {"alpha": 0.2, "n_epochs": 5, "ae_input": "raw"}

    def test_bad_line(self):
        with pytest.raises(ValueError):
            parse_config_text("just-a-token\n")

    def test_architecture_forms(self):
        assert parse_architecture("512-2048-32") == (512, 2048, 32)
        assert parse_architecture("16,8") == (16, 8)
        assert parse_architecture([32, 8]) == (32, 8)
        assert parse_architecture(64) == (64,)

    def test_resolve_and_flatten_round_trip(self, fixture_run_values):
        cfg = resolve_run_config(fixture_run_values)
        flat = run_config_to_flat(cfg)
        cfg2 = resolve_run_config({k: v for k, v in flat.items() if v is not None})
        assert cfg2 == cfg

    def test_every_config_field_round_trips(self):
        cfg = resolve_run_config(NON_DEFAULT_CONFIG)
        flat = run_config_to_flat(cfg)
        assert len(flat) == 29 and set(flat) == set(NON_DEFAULT_CONFIG)
        section_keys = [f.name for cls in (FilterConfig, TrainConfig) for f in fields(cls)]
        assert set(section_keys) <= set(flat)
        assert resolve_run_config(flat) == cfg
        required = {k: NON_DEFAULT_CONFIG[k] for k in ("edges", "n_nodes", "features", "k", "out")}
        defaults = run_config_to_flat(resolve_run_config(required))
        assert [k for k in section_keys if flat[k] == defaults[k]] == []
        args = build_parser().parse_args(["pipeline", *_flags(flat)])
        assert resolve_run_config(_collect_config(args)) == cfg

    def test_unknown_key_rejected(self, fixture_run_values):
        with pytest.raises(ValueError, match="unknown config keys"):
            resolve_run_config({**fixture_run_values, "bogus": 1})

    def test_json_and_manifest_loading(self, tmp_path):
        (tmp_path / "plain.json").write_text(json.dumps({"alpha": 0.3}))
        assert load_config_file(tmp_path / "plain.json") == {"alpha": 0.3}
        manifest = {"kind": "manifest", "config": {"alpha": 0.4, "k": 2}}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert load_config_file(tmp_path / "manifest.json") == {"alpha": 0.4, "k": 2}

    def test_repeat_validation(self, fixture_run_values):
        with pytest.raises(ValueError):
            resolve_run_config({**fixture_run_values, "repeat": 0})


class TestRunPipeline:
    def test_artifacts_and_perfect_metrics(self, fixture_run_values):
        cfg = resolve_run_config(fixture_run_values)
        outcome = run_pipeline(cfg)
        out = Path(cfg.out)
        for name in ARTIFACTS:
            assert (out / name).exists(), name
        assert outcome.summary["mean"]["accuracy"] == 1.0
        assert outcome.summary["mean"]["conductance"] == 0.0
        assert outcome.summary["std_is_zero_flagged"] is True
        assert outcome.summary["std"]["accuracy"] == 0.0

    def test_repeat_seeds_and_per_seed_block(self, fixture_run_values):
        cfg = resolve_run_config({**fixture_run_values, "repeat": 3,
                                  "n_epochs": 40, "pretrain_n_epochs": 30})
        outcome = run_pipeline(cfg)
        assert outcome.seeds == [0, 1, 2]
        assert len(outcome.summary["per_seed"]) == 3
        assert outcome.summary["std_is_zero_flagged"] is False

    def test_manifest_rerun_reproduces_bit_exact(self, fixture_run_values, tmp_path):
        cfg = resolve_run_config(fixture_run_values)
        run_pipeline(cfg)
        out = Path(cfg.out)
        first = (out / "metrics.json").read_bytes()
        manifest_cfg = resolve_run_config(load_config_file(out / "manifest.json"))
        run_pipeline(manifest_cfg)
        assert (out / "metrics.json").read_bytes() == first

    def test_filtered_cache_rewritten_and_valid(self, fixture_run_values):
        cfg = resolve_run_config(fixture_run_values)
        run_pipeline(cfg)
        g_aug = augment_self_loops(load_edge_list(cfg.edges, cfg.n_nodes))
        header = filtered_cache_header(g_aug, cfg.filter, load_features(cfg.features))
        cache_path = Path(cfg.out) / "filtered.npz"
        cached = load_filtered_cache(cache_path, header)
        assert cached.shape == (10, 2)
        first = cache_path.read_bytes()
        # a second run into the same out filters again and writes the same bytes
        run_pipeline(cfg)
        assert cache_path.read_bytes() == first

    def test_run_never_reads_filtered_npz_in_out(self, fixture_run_values, monkeypatch):
        import rwsl.pipeline as pl
        loads = []

        def loading(*args):
            loads.append(args)
            return load_filtered_cache(*args)

        monkeypatch.setattr(pl, "load_filtered_cache", loading)
        cfg = resolve_run_config(fixture_run_values)
        run_pipeline(cfg)
        run_pipeline(cfg)
        assert loads == []

    def test_filtered_cache_rejects_changed_features(self, fixture_run_values, tmp_path):
        cfg = resolve_run_config(fixture_run_values)
        run_pipeline(cfg)
        x_new = np.repeat(np.eye(2)[::-1], 5, axis=0) * 3.0
        save_features(x_new, tmp_path / "features_new.txt")
        cfg = resolve_run_config({**fixture_run_values,
                                  "features": str(tmp_path / "features_new.txt")})
        run_pipeline(cfg)
        g_aug = augment_self_loops(load_edge_list(cfg.edges, cfg.n_nodes))
        with np.load(Path(cfg.out) / "filtered.npz") as blob:
            cached = blob["values"]
        assert np.array_equal(cached, filter_exact(g_aug, x_new, cfg.filter))

    def test_unreadable_filtered_cache_overwritten(self, fixture_run_values):
        cfg = resolve_run_config(fixture_run_values)
        Path(cfg.out).mkdir(parents=True, exist_ok=True)
        (Path(cfg.out) / "filtered.npz").write_bytes(b"not an npz archive")
        run_pipeline(cfg)
        g_aug = augment_self_loops(load_edge_list(cfg.edges, cfg.n_nodes))
        x = load_features(cfg.features)
        assert np.array_equal(load_filtered_cache(Path(cfg.out) / "filtered.npz",
                                                  filtered_cache_header(g_aug, cfg.filter, x)),
                              filter_exact(g_aug, x, cfg.filter))

    def test_stale_cache_hashes_inputs_once(self, fixture_run_values, monkeypatch):
        # an exact run hashes its graph and its features once each, whatever
        # filtered.npz its out already holds
        cfg = resolve_run_config(fixture_run_values)
        g_aug = augment_self_loops(load_edge_list(cfg.edges, cfg.n_nodes))
        x = load_features(cfg.features)
        cache_path = Path(cfg.out) / "filtered.npz"
        cache_path.parent.mkdir(parents=True)
        save_filtered_cache(cache_path, x, filtered_cache_header(g_aug, cfg.filter, 2 * x))
        calls = []
        for name in ("_features_sha256", "graph_hash"):
            def counting(*args, _name=name, _fn=getattr(filters, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(filters, name, counting)
        run_pipeline(cfg)
        assert sorted(calls) == ["_features_sha256", "graph_hash"]
        header = filtered_cache_header(g_aug, cfg.filter, x)
        assert np.array_equal(load_filtered_cache(cache_path, header),
                              filter_exact(g_aug, x, cfg.filter))

    @pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, 3 * (1 << 20) + 7])
    def test_sha256_streams_same_digest(self, tmp_path, size):
        path = tmp_path / "blob"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        assert _sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_missing_labels_fails_in_load_stage(self, fixture_run_values, tmp_path):
        cfg = resolve_run_config({**fixture_run_values,
                                  "labels": str(tmp_path / "no_such_labels.txt")})
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "load"

    def test_no_labels_skips_evaluation(self, fixture_run_values):
        cfg = resolve_run_config({**fixture_run_values, "labels": ""})
        outcome = run_pipeline(cfg)
        out = Path(cfg.out)
        assert outcome.summary is None and outcome.reports == []
        assert not (out / "metrics.json").exists() and not (out / "metrics.csv").exists()
        artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
        assert sorted(artifacts) == ["assignments.txt", "checkpoint.npz", "filtered.npz",
                                     "loss.csv"]

    def test_bad_edge_file_tagged_load(self, fixture_run_values, tmp_path):
        bad = tmp_path / "bad_edges.txt"
        bad.write_text("0 1 junk\n")
        cfg = resolve_run_config({**fixture_run_values, "edges": str(bad)})
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "load"
        assert err.value.exit_code == 3

    def test_metrics_csv_schema(self, fixture_run_values):
        cfg = resolve_run_config(fixture_run_values)
        run_pipeline(cfg)
        lines = (Path(cfg.out) / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "accuracy,nmi,ari,macro_f1,modularity,conductance"
        assert len(lines) == 2

    def test_randomwalk_filter_method(self, fixture_run_values):
        cfg = resolve_run_config({**fixture_run_values, "filter_method": "randomwalk",
                                  "rrz": 0.5, "r_max": walk_budget(2000),
                                  "n_epochs": 60, "pretrain_n_epochs": 50})
        outcome = run_pipeline(cfg)
        assert outcome.summary["mean"]["accuracy"] == 1.0
        # the run writes the estimate it trained on, drawn with its seed
        g_aug = augment_self_loops(load_edge_list(cfg.edges, cfg.n_nodes))
        x = load_features(cfg.features)
        header = filtered_cache_header(g_aug, cfg.filter, x, seed=cfg.train.seed)
        assert np.array_equal(load_filtered_cache(Path(cfg.out) / "filtered.npz", header),
                              filter_randomwalk(g_aug, x, cfg.filter, cfg.train.seed))


    def test_manifest_lists_only_this_runs_artifacts(self, fixture_run_values, tmp_path,
                                                     capsys):
        out = tmp_path / "shared"
        run_pipeline(resolve_run_config({**fixture_run_values, "out": str(out)}))
        assert (out / "metrics.json").exists()
        unlabelled = {k: v for k, v in fixture_run_values.items() if k != "labels"}
        assert cli_main(["train", *_flags({**unlabelled, "out": str(out), "seed": 3})]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["artifacts"]) == ["assignments.txt", "checkpoint.npz",
                                                 "filtered.npz", "loss.csv"]
        run_pipeline(resolve_run_config({**fixture_run_values, "out": str(out),
                                         "filter_method": "randomwalk", "rrz": 0.5,
                                         "r_max": walk_budget(200)}))
        # a random-walk run writes its own filtered.npz over the exact one
        with np.load(out / "filtered.npz") as blob:
            assert json.loads(str(blob["header"]))["seed"] == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["artifacts"]) == ["assignments.txt", "checkpoint.npz",
                                                 "filtered.npz", "loss.csv", "metrics.csv",
                                                 "metrics.json"]
        for name, digest in manifest["artifacts"].items():
            assert digest == _sha256(out / name)

    @pytest.mark.parametrize("changes, released", [
        ({}, True),
        ({"ae_input": "raw"}, False),
        ({"filter_method": "randomwalk", "rrz": 0.5, "r_max": walk_budget(200)}, True),
    ])
    def test_raw_features_released_after_filtering(self, changes, released,
                                                   fixture_run_values, monkeypatch):
        import rwsl.pipeline as pl
        refs, alive = [], []

        def loading(path):
            x = load_features(path)
            refs.append(weakref.ref(x))
            return x

        def training(*args, **kwargs):
            alive.append(refs[0]() is not None)
            return train_rwsl(*args, **kwargs)

        monkeypatch.setattr(pl, "load_features", loading)
        monkeypatch.setattr(pl, "train_rwsl", training)
        outcome = run_pipeline(resolve_run_config({**fixture_run_values, **changes}))
        assert alive == [not released]
        assert outcome.summary["mean"]["accuracy"] == 1.0


class TestSweeps:
    def test_epsilon_sweep_csv(self, fixture_run_values):
        cfg = resolve_run_config({**fixture_run_values, "n_epochs": 40,
                                  "pretrain_n_epochs": 30})
        result = sweep_epsilon(cfg, [0.0, 1.0])
        lines = result.csv_path.read_text().strip().splitlines()
        assert lines[0] == "epsilon,metric,mean,std"
        assert len(lines) == 1 + 2 * 6
        assert load_sweep_validator().validate(result.csv_path) == []

    def test_epsilon_range_check(self, fixture_run_values):
        cfg = resolve_run_config(fixture_run_values)
        with pytest.raises(ValueError):
            sweep_epsilon(cfg, [0.5, 1.5])

    def test_alpha_sweep_refilters(self, fixture_run_values):
        cfg = resolve_run_config({**fixture_run_values, "n_epochs": 40,
                                  "pretrain_n_epochs": 30})
        result = sweep_alpha(cfg, [0.1, 0.5])
        assert len(result.summaries) == 2
        for summary in result.summaries:
            assert summary["mean"]["accuracy"] == 1.0
        caches = sorted(Path(cfg.out).glob("alpha_*/filtered.npz"))
        assert len(caches) == 2

    def test_single_point_alpha_sweep_matches_pipeline(self, fixture_run_values):
        cfg = resolve_run_config({**fixture_run_values, "n_epochs": 40,
                                  "pretrain_n_epochs": 30})
        result = sweep_alpha(cfg, [0.1])
        direct = run_pipeline(replace(cfg, out=str(Path(cfg.out) / "direct")))
        assert result.summaries[0]["mean"] == direct.summary["mean"]

    def test_alpha_grid_csv_shape(self, fixture_run_values):
        values = [0.05, 0.1, 0.2, 0.4, 0.8]
        cfg = resolve_run_config({**fixture_run_values, "n_epochs": 40,
                                  "pretrain_n_epochs": 30})
        result = sweep_alpha(cfg, values)
        lines = result.csv_path.read_text().strip().splitlines()
        assert lines[0] == "alpha,metric,mean,std"
        assert len(lines) == 1 + 5 * 6
        assert load_sweep_validator().validate(result.csv_path) == []
        for summary in result.summaries:
            assert summary["mean"]["accuracy"] == 1.0

    def test_alpha_range_check(self, fixture_run_values):
        cfg = resolve_run_config(fixture_run_values)
        with pytest.raises(ValueError):
            sweep_alpha(cfg, [0.0])

    @pytest.mark.parametrize("sweep, values, calls", [
        (sweep_epsilon, [0.0, 0.5, 1.0], 1),
        (sweep_alpha, [0.1, 0.5], 2),
    ])
    def test_exact_filter_runs_once_per_filter_config(self, sweep, values, calls,
                                                      fixture_run_values, monkeypatch):
        import rwsl.pipeline as pl
        counted = []

        def counting(*args):
            counted.append(args)
            return filter_exact(*args)

        monkeypatch.setattr(pl, "filter_exact", counting)
        cfg = resolve_run_config({**fixture_run_values, "n_epochs": 40,
                                  "pretrain_n_epochs": 30})
        sweep(cfg, values)
        assert len(counted) == calls

    @pytest.mark.parametrize("sweep, values, calls", [
        (sweep_epsilon, [0.0, 0.5, 1.0], 1),
        (sweep_alpha, [0.1, 0.5], 2),
    ])
    def test_graph_augmented_once_per_run(self, sweep, values, calls,
                                          fixture_run_values, monkeypatch):
        import rwsl.pipeline as pl
        counted = []

        def augmenting(g):
            counted.append(g)
            return augment_self_loops(g)

        monkeypatch.setattr(pl, "augment_self_loops", augmenting)
        cfg = resolve_run_config({**fixture_run_values, "n_epochs": 10,
                                  "pretrain_n_epochs": 5})
        sweep(cfg, values)
        assert len(counted) == calls

    def check_sub_runs_match_standalone_runs(self, cfg, tmp_path):
        """Every file a sub-run's manifest lists is the bytes a run of its own
        writes, and the manifests differ only in the out path."""
        values = [0.0, 0.5, 1.0]
        sweep_epsilon(cfg, values)
        for value in values:
            swept = Path(cfg.out) / f"epsilon_{value}"
            alone = tmp_path / f"alone_{value}"
            run_pipeline(replace(cfg, out=str(alone),
                                 train=replace(cfg.train, epsilon=value)))
            manifest, alone_manifest = (json.loads((d / "manifest.json").read_text())
                                        for d in (swept, alone))
            listed = manifest["artifacts"]
            assert {"checkpoint.npz", "loss.csv", "metrics.csv", "metrics.json",
                    "assignments.txt"} <= set(listed)
            for name in listed:
                assert (swept / name).read_bytes() == (alone / name).read_bytes(), (value, name)
                assert listed[name] == _sha256(swept / name)
            assert manifest["config"].pop("out") == str(swept)
            assert alone_manifest["config"].pop("out") == str(alone)
            assert manifest == alone_manifest

    def test_epsilon_sub_runs_match_standalone_runs(self, fixture_run_values, tmp_path):
        cfg = resolve_run_config({**fixture_run_values, "n_epochs": 40,
                                  "pretrain_n_epochs": 30})
        self.check_sub_runs_match_standalone_runs(cfg, tmp_path)
        assert "filtered.npz" in json.loads(
            (Path(cfg.out) / "epsilon_0.0" / "manifest.json").read_text())["artifacts"]

    @pytest.mark.parametrize("changes", [
        {"repeat": 2, "dropout_rate": 0.1, "ae_input": "raw"},
        {"filter_method": "randomwalk", "rrz": 0.5, "r_max": walk_budget(200), "repeat": 2},
    ], ids=["repeat-dropout-raw", "randomwalk"])
    def test_epsilon_sub_runs_match_standalone_runs_with(self, changes, fixture_run_values,
                                                        tmp_path):
        cfg = resolve_run_config({**fixture_run_values, "n_epochs": 20,
                                  "pretrain_n_epochs": 10, **changes})
        self.check_sub_runs_match_standalone_runs(cfg, tmp_path)

    @pytest.mark.parametrize("sweep, values, runs", [
        (sweep_epsilon, [0.0, 0.5, 1.0], 1),
        (sweep_alpha, [0.1, 0.5], 2),
    ])
    def test_autoencoder_trained_once_per_filter_and_seed(self, sweep, values, runs,
                                                          fixture_run_values, monkeypatch):
        import rwsl.pipeline as pl
        from rwsl.training import pretrain_autoencoder
        calls = []

        def pretraining(ae_x, cfg):
            calls.append(("pretrain", cfg.seed))
            return pretrain_autoencoder(ae_x, cfg)

        def training(x_filtered, ae_x, k, cfg, *args, epsilons):
            calls.append(("train", cfg.seed, tuple(epsilons)))
            return train_rwsl(x_filtered, ae_x, k, cfg, *args, epsilons=epsilons)

        monkeypatch.setattr(pl, "pretrain_autoencoder", pretraining)
        monkeypatch.setattr(pl, "train_rwsl", training)
        cfg = resolve_run_config({**fixture_run_values, "repeat": 2, "n_epochs": 10,
                                  "pretrain_n_epochs": 5})
        sweep(cfg, values)
        weights = tuple(values) if sweep is sweep_epsilon else (cfg.train.epsilon,)
        assert calls == runs * [("pretrain", 0), ("train", 0, weights),
                                ("pretrain", 1), ("train", 1, weights)]

    def test_stale_cache_in_later_sub_run_replaced(self, fixture_run_values):
        cfg = resolve_run_config({**fixture_run_values, "n_epochs": 40,
                                  "pretrain_n_epochs": 30})
        g_aug = augment_self_loops(load_edge_list(cfg.edges, cfg.n_nodes))
        x = load_features(cfg.features)
        stale = Path(cfg.out) / "epsilon_1.0" / "filtered.npz"
        stale.parent.mkdir(parents=True)
        save_filtered_cache(stale, x, filtered_cache_header(g_aug, cfg.filter, 2 * x))
        sweep_epsilon(cfg, [0.0, 1.0])
        assert np.array_equal(load_filtered_cache(stale,
                                                  filtered_cache_header(g_aug, cfg.filter, x)),
                              filter_exact(g_aug, x, cfg.filter))

    def test_randomwalk_epsilon_sweep_filters_per_run_and_seed(self, fixture_run_values,
                                                              monkeypatch):
        import rwsl.pipeline as pl
        seeds = []

        def walking(g, x, cfg, seed):
            seeds.append(seed)
            return filter_randomwalk(g, x, cfg, seed)

        monkeypatch.setattr(pl, "filter_randomwalk", walking)
        cfg = resolve_run_config({**fixture_run_values, "filter_method": "randomwalk",
                                  "rrz": 0.5, "r_max": walk_budget(200), "repeat": 2,
                                  "n_epochs": 20, "pretrain_n_epochs": 10})
        sweep_epsilon(cfg, [0.0, 1.0])
        assert seeds == [0]     # one draw for both values and both seeds

    def test_diverging_value_fails_first_sub_run(self, fixture_run_values, monkeypatch):
        from rwsl import training
        forward = training.mlp_forward

        def diverging(model, x, dropout=0.0, masks=None, mix=None, mix_eps=0.0):
            out, hidden, cache = forward(model, x, dropout, masks, mix, mix_eps)
            return (np.full_like(out, np.nan) if mix_eps == 1.0 else out), hidden, cache

        monkeypatch.setattr(training, "mlp_forward", diverging)
        cfg = resolve_run_config({**fixture_run_values, "n_epochs": 5, "pretrain_n_epochs": 5})
        with pytest.raises(PipelineStageError) as failed:
            sweep_epsilon(cfg, [0.0, 1.0])
        assert failed.value.stage == "train" and failed.value.exit_code == 6
        written = sorted(str(p.relative_to(cfg.out)) for p in Path(cfg.out).rglob("*"))
        assert written == ["epsilon_0.0", str(Path("epsilon_0.0") / "filtered.npz")]

    @pytest.mark.parametrize("values, changes", [
        ([], {}),
        ([0.5, 0.5], {}),
        ([0.5, 1.5], {}),
        ([0.0, 1.0], {"labels": ""}),
    ], ids=["empty", "repeated", "out-of-range", "no-labels"])
    def test_bad_sweep_arguments_rejected_before_loading(self, values, changes,
                                                         fixture_run_values, monkeypatch):
        import rwsl.pipeline as pl

        def loading(*args):
            raise AssertionError("loaded inputs for a sweep that cannot run")

        monkeypatch.setattr(pl, "load_edge_list", loading)
        cfg = resolve_run_config({**fixture_run_values, **changes})
        with pytest.raises(ValueError):
            sweep_epsilon(cfg, values)
        assert list(Path(cfg.out).glob("**/*.csv")) == []


class TestBench:
    def test_empty_sizes(self):
        assert bench_scalability([], 4, 8, 1) == []

    def test_sizes_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            bench_scalability([500, 100], 4, 8, 1)

    def test_desk_scale_ceiling(self):
        with pytest.raises(ValueError, match="max_nodes"):
            bench_scalability([200_000], 4, 8, 1)

    def test_size_below_k_rejected_before_any_graph(self, monkeypatch, tmp_path, capsys):
        import rwsl.pipeline as pl

        def no_graph(*args, **kwargs):
            raise AssertionError("rmat_generate called")

        monkeypatch.setattr(pl, "rmat_generate", no_graph)
        with pytest.raises(ValueError, match="size 5 is below k=8"):
            bench_scalability([5, 300], 4, 8, 1)
        assert cli_main(["bench", "--sizes", "5", "--epochs", "1", "--repeats", "1",
                         "--out", str(tmp_path / "b5")]) == 9
        assert "stage 'bench' failed: size 5 is below k=8" in capsys.readouterr().err
        assert not (tmp_path / "b5").exists()
        # valid options and an --out that names a file: a write error, still no graph
        (tmp_path / "taken").write_text("")
        assert cli_main(["bench", "--sizes", "300", "--epochs", "1", "--repeats", "1",
                         "--out", str(tmp_path / "taken")]) == 8

    def test_oom_yields_failure_row_and_continues(self, monkeypatch):
        import rwsl.pipeline as pl
        real = pl.filter_exact
        def exploding(g, x, cfg):
            if g.n_nodes == 150:
                raise MemoryError("simulated")
            return real(g, x, cfg)
        monkeypatch.setattr(pl, "filter_exact", exploding)
        rows = bench_scalability([150, 200], edge_factor=3, feat_dim=4,
                                 epochs=1, repeats=1, seed=0, k=2)
        assert rows[0]["status"] == "oom" and np.isnan(rows[0]["train_s"])
        assert rows[1]["status"] == "ok"

    def test_graph_released_before_cotrain(self, monkeypatch):
        import rwsl.pipeline as pl
        graphs, events = [], []
        augment, filtering, training = pl.augment_self_loops, pl.filter_exact, pl.train_rwsl

        def augmenting(g):
            g_aug = augment(g)
            graphs.append(weakref.ref(g_aug))
            return g_aug

        def filtered(*args):
            events.append("filter")
            return filtering(*args)

        def trained(*args, **kwargs):
            events.append("train" if graphs[-1]() is None else "train holding the graph")
            return training(*args, **kwargs)

        monkeypatch.setattr(pl, "augment_self_loops", augmenting)
        monkeypatch.setattr(pl, "filter_exact", filtered)
        monkeypatch.setattr(pl, "train_rwsl", trained)
        rows = bench_scalability([300], edge_factor=4, feat_dim=8, epochs=1,
                                 repeats=3, seed=0, k=2)
        assert events == 3 * ["filter"] + 3 * ["train"]
        assert rows[0]["status"] == "ok"

    def test_tiny_run_row(self, tmp_path):
        rows = bench_scalability([300], edge_factor=4, feat_dim=8, epochs=1,
                                 repeats=1, seed=0, k=2)
        assert rows[0]["status"] == "ok"
        assert rows[0]["train_s"] > 0 and rows[0]["filter_s"] > 0
        assert rows[0]["train_peak_mb"] > 0
        bench_rows_to_csv(rows, tmp_path / "bench.csv")
        lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
        assert lines[0] == "n_nodes,filter_s,train_s,total_s,train_peak_mb,status"
        assert len(lines) == 2


class TestSpectralRun:
    def test_artifacts_and_claims(self, two_cliques, tmp_path):
        g, _, _ = two_cliques
        summary = spectral_run(g, [0.1, 0.3], hops=80, out_dir=tmp_path / "spec")
        assert summary["claim1_pass"] and summary["claim2_pass"]
        spectrum = (tmp_path / "spec" / "spectrum.csv").read_text().splitlines()
        assert len(spectrum) == 1 + g.n_nodes
        claims = (tmp_path / "spec" / "claims.txt").read_text()
        assert "PASS" in claims and "FAIL" not in claims
        for alpha in ("0.1", "0.3"):
            assert summary["max_abs_gap"][alpha] <= (1 - float(alpha)) ** 81 + 1e-8

    def test_two_node_report_has_two_eigenvalues(self, tmp_path):
        from rwsl.graph import from_edge_array
        g = from_edge_array(2, np.array([0]), np.array([1]))
        spectral_run(g, [0.2], hops=30, out_dir=tmp_path / "spec2")
        lines = (tmp_path / "spec2" / "spectrum.csv").read_text().strip().splitlines()
        assert len(lines) == 3


class TestCli:
    def test_pipeline_subcommand(self, fixture_run_values, capsys):
        args = ["pipeline"]
        for key, val in fixture_run_values.items():
            args += [f"--{key.replace('_', '-')}", str(val)]
        assert cli_main(args) == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed["accuracy"] == 1.0

    def test_config_file_with_flag_override(self, fixture_run_values, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("\n".join(f"{k} = {v}" for k, v in fixture_run_values.items()))
        out2 = str(tmp_path / "out2")
        assert cli_main(["pipeline", "--config", str(cfg_file), "--out", out2]) == 0
        assert (Path(out2) / "metrics.json").exists()

    def test_missing_required_exit_code(self, capsys):
        assert cli_main(["pipeline", "--k", "2"]) == 2

    def test_eval_subcommand(self, fixture_run_values, tmp_path, capsys):
        cfg = resolve_run_config(fixture_run_values)
        run_pipeline(cfg)
        rc = cli_main(["eval", "--edges", cfg.edges, "--n-nodes", "10",
                       "--labels", fixture_run_values["labels"],
                       "--pred", str(Path(cfg.out) / "assignments.txt"),
                       "--out", str(tmp_path / "eval_out")])
        assert rc == 0
        report = json.loads((tmp_path / "eval_out" / "metrics.json").read_text())
        assert report["accuracy"] == 1.0

    def test_bench_subcommand(self, tmp_path, capsys):
        rc = cli_main(["bench", "--sizes", "200,300", "--edge-factor", "3",
                       "--feat-dim", "6", "--epochs", "1", "--repeats", "1",
                       "--out", str(tmp_path / "bench")])
        assert rc == 0
        assert len((tmp_path / "bench" / "bench.csv").read_text().splitlines()) == 3
        r2_line, slope_line = capsys.readouterr().out.strip().splitlines()[-2:]
        assert r2_line.startswith("train_s vs n: R^2 = ")
        assert slope_line.startswith("train peak memory log-log slope = ")
        assert slope_line.endswith(" (sublinear < 1)")
        assert float(r2_line.rsplit(" ", 1)[1]) <= 1.0
        assert np.isfinite(float(slope_line.split(" = ")[1].split()[0]))

    def test_train_distribution_export(self, fixture_run_values, tmp_path, capsys):
        values = {**fixture_run_values, "out": str(tmp_path / "train_out"),
                  "n_epochs": 30, "pretrain_n_epochs": 20}
        args = ["train", "--export-distributions"]
        for key, val in values.items():
            args += [f"--{key.replace('_', '-')}", str(val)]
        assert cli_main(args) == 0
        for name in ("p_h.csv", "p_z.csv"):
            lines = (tmp_path / "train_out" / name).read_text().strip().splitlines()
            assert lines[0] == "cluster_0,cluster_1"
            assert len(lines) == 11
            sums = [sum(float(c) for c in line.split(",")) for line in lines[1:]]
            assert all(abs(s - 1.0) < 1e-9 for s in sums)

    def test_train_filtered_cache_checked(self, fixture_run_values, tmp_path, capsys):
        assert cli_main(["filter", "--text", *_flags(fixture_run_values)]) == 0
        cache = str(Path(fixture_run_values["out"]) / "filtered.npz")
        other = tmp_path / "other_features.txt"
        save_features(2 * load_features(fixture_run_values["features"]), other)
        values = {**fixture_run_values, "features": str(other), "out": str(tmp_path / "t")}
        assert cli_main(["train", "--filtered", cache, *_flags(values)]) == 3
        assert "features_sha256" in capsys.readouterr().err
        values = {**fixture_run_values, "out": str(tmp_path / "t2")}
        text_matrix = str(Path(fixture_run_values["out"]) / "filtered.txt")
        assert cli_main(["train", "--filtered", text_matrix, *_flags(values)]) == 2
        assert cli_main(["train", "--filtered", cache, *_flags(values)]) == 0
        manifest = json.loads((tmp_path / "t2" / "manifest.json").read_text())
        assert manifest["inputs"] == {"filtered": _sha256(Path(cache))}

    def test_train_ae_checkpoint_recorded(self, fixture_run_values, tmp_path, capsys):
        ckpt_dir = tmp_path / "ae"
        assert cli_main(["train", *_flags({**fixture_run_values, "n_epochs": 0,
                                           "out": str(ckpt_dir)})]) == 0
        ckpt = ckpt_dir / "checkpoint.npz"
        before = ckpt.read_bytes()
        values = {**fixture_run_values, "repeat": 2}
        assert cli_main(["train", "--ae-checkpoint", str(ckpt), *_flags(values)]) == 0
        assert ckpt.read_bytes() == before
        manifest = json.loads((Path(values["out"]) / "manifest.json").read_text())
        assert manifest["inputs"] == {"ae_checkpoint": _sha256(ckpt)}
        per_seed = json.loads((Path(values["out"]) / "metrics.json").read_text())["per_seed"]
        assert [row["seed"] for row in per_seed] == [0, 1]

    def test_zero_epoch_checkpoint_reproduces_the_run(self, fixture_run_values, tmp_path,
                                                      capsys):
        # a zero-epoch run's checkpoint holds the encoder and decoder the
        # pretrain stage wrote; reusing it changes no byte of a full run
        pre, plain, reuse = (tmp_path / name for name in ("pre", "plain", "reuse"))
        assert cli_main(["pipeline", *_flags({**fixture_run_values, "n_epochs": 0,
                                              "out": str(pre)})]) == 0
        assert cli_main(["pipeline", *_flags({**fixture_run_values, "out": str(plain)})]) == 0
        assert cli_main(["pipeline", "--ae-checkpoint", str(pre / "checkpoint.npz"),
                         *_flags({**fixture_run_values, "out": str(reuse)})]) == 0
        for name in ("assignments.txt", "loss.csv", "checkpoint.npz", "metrics.json"):
            assert (reuse / name).read_bytes() == (plain / name).read_bytes()

    @pytest.mark.parametrize("pretrained", ["raw-input", "unrecorded"])
    def test_ae_checkpoint_of_another_input_exits_load(self, pretrained, fixture_run_values,
                                                       tmp_path, capsys):
        # a pair pretrained on the raw features, or on this run's input by a
        # checkpoint that records no hash of it, is not taken by a run whose
        # autoencoder reads the filtered features
        pre, out = tmp_path / "pre", tmp_path / "reuse"
        ae_input = "raw" if pretrained == "raw-input" else "filtered"
        assert cli_main(["train", *_flags({**fixture_run_values, "n_epochs": 0,
                                           "ae_input": ae_input, "out": str(pre)})]) == 0
        ckpt = pre / "checkpoint.npz"
        if pretrained == "unrecorded":
            models, arrays, meta = load_checkpoint(ckpt)
            del meta["ae_x_sha256"]
            save_checkpoint(ckpt, models, meta, arrays)
        assert cli_main(["train", "--ae-checkpoint", str(ckpt),
                         *_flags({**fixture_run_values, "out": str(out)})]) == 3
        assert "ae_x_sha256" in capsys.readouterr().err
        assert not (out / "checkpoint.npz").exists()

    def test_randomwalk_run_draws_once_and_writes_its_filter(self, fixture_run_values,
                                                             tmp_path, monkeypatch, capsys):
        # the clique features give every walk seed the same estimate, so the
        # run reads random features, on which seeds 0 and 1 differ
        import rwsl.pipeline as pl
        features = tmp_path / "random_features.txt"
        save_features(np.random.default_rng(0).random((10, 3)), features)
        values = {**fixture_run_values, "features": str(features), "repeat": 2,
                  "filter_method": "randomwalk", "rrz": 0.5, "r_max": walk_budget(200)}
        cfg = resolve_run_config(values)
        g_aug = augment_self_loops(load_edge_list(cfg.edges, cfg.n_nodes))
        x = load_features(features)
        assert not np.array_equal(filter_randomwalk(g_aug, x, cfg.filter, 0),
                                  filter_randomwalk(g_aug, x, cfg.filter, 1))
        draws = []

        def walking(g, x, cfg, seed):
            draws.append(seed)
            return filter_randomwalk(g, x, cfg, seed)

        monkeypatch.setattr(pl, "filter_randomwalk", walking)
        run, filt, reuse = (tmp_path / name for name in ("run", "filter", "reuse"))
        assert cli_main(["train", *_flags({**values, "out": str(run)})]) == 0
        assert draws == [0]
        assert cli_main(["filter", *_flags({**values, "out": str(filt)})]) == 0
        assert (filt / "filtered.npz").read_bytes() == (run / "filtered.npz").read_bytes()
        assert cli_main(["train", "--filtered", str(filt / "filtered.npz"),
                         *_flags({**values, "out": str(reuse)})]) == 0
        assert draws == [0, 0]      # the run's draw and rwsl filter's
        for name in ("metrics.json", "checkpoint.npz", "assignments.txt", "loss.csv"):
            assert (reuse / name).read_bytes() == (run / name).read_bytes()

    def test_pipeline_without_labels_exports_distributions(self, fixture_run_values, tmp_path,
                                                            capsys):
        out = tmp_path / "unlabelled"
        values = {k: v for k, v in fixture_run_values.items() if k != "labels"}
        assert cli_main(["pipeline", "--export-distributions",
                         *_flags({**values, "out": str(out)})]) == 0
        assert (out / "assignments.txt").exists() and (out / "p_h.csv").exists()
        assert not (out / "metrics.json").exists()

    @pytest.mark.parametrize("method", ["exact", "randomwalk"])
    def test_train_writes_pipeline_artifacts(self, method, fixture_run_values, tmp_path,
                                             capsys):
        values = {**fixture_run_values, "filter_method": method, "rrz": 0.5,
                  "r_max": walk_budget(500)}
        names = ("loss.csv", "assignments.txt", "checkpoint.npz", "filtered.npz",
                 "metrics.json", "metrics.csv")
        written = {}
        for command in ("train", "pipeline"):
            out = tmp_path / command
            assert cli_main([command, *_flags({**values, "out": str(out)})]) == 0
            written[command] = {n: (out / n).read_bytes() for n in names if (out / n).exists()}
        assert written["train"] == written["pipeline"]
        assert set(written["train"]) == set(names)
        out = tmp_path / "repeat"
        assert cli_main(["train", *_flags({**values, "out": str(out), "repeat": 2})]) == 0
        assert len(json.loads((out / "metrics.json").read_text())["per_seed"]) == 2

    def test_train_config_keeps_kmeans_max_iters(self, tmp_path, capsys):
        # a noisy R-MAT graph, where one k-means iteration moves the assignments
        save_edge_list(rmat_generate(60, 4, 1), tmp_path / "edges.txt")
        save_features(np.random.default_rng(0).random((60, 6)), tmp_path / "features.txt")
        save_labels(np.arange(60) % 4, tmp_path / "labels.txt")
        values = {"edges": str(tmp_path / "edges.txt"), "n_nodes": 60, "k": 4,
                  "features": str(tmp_path / "features.txt"),
                  "labels": str(tmp_path / "labels.txt"), "architecture": "8-4",
                  "learning_rate": 0.01, "pretrain_lr": 0.01, "n_epochs": 5,
                  "pretrain_n_epochs": 5, "batch_size": 16, "dropout_rate": 0.0}
        run_pipeline(resolve_run_config({**values, "out": str(tmp_path / "default")}))
        run_pipeline(resolve_run_config({**values, "kmeans_max_iters": 1,
                                         "out": str(tmp_path / "km1")}))
        assert cli_main(["train", "--config", str(tmp_path / "km1" / "manifest.json"),
                         "--out", str(tmp_path / "t")]) == 0

        def read(run, name):
            return (tmp_path / run / name).read_bytes()
        assert read("km1", "assignments.txt") != read("default", "assignments.txt")
        for name in ("assignments.txt", "loss.csv"):
            assert read("t", name) == read("km1", name)

    @pytest.mark.parametrize("command, bad_input", [
        ("filter", "edges"), ("train", "features"), ("train", "edges"), ("eval", "edges"),
        ("spectral", "edges"),
    ], ids=["filter", "train-missing-features", "train", "eval", "spectral"])
    def test_stage_exit_codes(self, command, bad_input, fixture_run_values, tmp_path, capsys):
        bad = tmp_path / "bad_edges.txt"
        bad.write_text("0 1 junk\n")
        values = {**fixture_run_values, "edges": str(bad)}
        if bad_input == "features":
            values = {**fixture_run_values, "features": str(tmp_path / "missing.txt")}
        extra = ["--pred", fixture_run_values["labels"]] if command == "eval" else []
        assert cli_main([command, *_flags(values), *extra]) == 3

    # the fixture has 10 nodes and k 2; the k and k-means values used to
    # fail only after filtering and pretraining, in stage train
    @pytest.mark.parametrize("command, extra", [
        ("filter", ["--filter-method", "bogus"]),
        ("sweep-epsilon", ["--values", "0.5,0.5"]),
        ("pipeline", ["--k", "1"]),
        ("pipeline", ["--k", "11"]),
        ("pipeline", ["--kmeans-max-iters", "0"]),
        ("pipeline", ["--kmeans-sample-cap", "1"]),
    ], ids=["unknown-filter-method", "repeated-sweep-value", "k-below-2", "k-above-n-nodes",
            "no-kmeans-iterations", "kmeans-sample-below-k"])
    def test_bad_option_values_exit_config(self, command, extra, fixture_run_values, capsys):
        assert cli_main([command, *_flags(fixture_run_values), *extra]) == 2
        assert "stage 'config' failed" in capsys.readouterr().err
        assert not Path(fixture_run_values["out"]).exists()

    @pytest.mark.parametrize("which", ["pred", "labels"])
    def test_eval_bad_labels_exit_load(self, which, fixture_run_values, tmp_path, capsys):
        bad = tmp_path / "bad_labels.txt"
        bad.write_text("0\nx\n")
        values = dict(fixture_run_values)
        pred = fixture_run_values["labels"]
        if which == "pred":
            pred = str(bad)
        else:
            values["labels"] = str(bad)
        assert cli_main(["eval", *_flags(values), "--pred", pred]) == 3

    def test_spectral_help_names_its_hops_default(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["spectral", "--help"])
        assert " ".join(capsys.readouterr().out.split()).count("--hops HOPS default: 100 ") == 1

    def test_spectral_without_edges_uses_rmat(self, tmp_path, capsys):
        out = tmp_path / "spec"
        assert cli_main(["spectral", "--n-nodes", "60", "--seed", "2",
                         "--alphas", "0.1,0.2", "--hops", "60", "--out", str(out)]) == 0
        claims = (out / "claims.txt").read_text()
        assert "claim1 alpha=(0.1,0.2)" in claims and "claim2 grid" in claims
        summary = json.loads((out / "spectral.json").read_text())
        assert summary["alphas"] == [0.1, 0.2] and summary["hops"] == 60
        want = spectral_run(rmat_generate(60, 4.0, 2), [0.1, 0.2], 60, tmp_path / "ref")
        assert summary == want
        assert (out / "spectrum.csv").read_bytes() == (tmp_path / "ref" / "spectrum.csv").read_bytes()

    def test_spectral_stage_exit_code(self, tmp_path, capsys):
        # past the dense eigensolver's 3000-node limit
        assert cli_main(["spectral", "--n-nodes", "3500", "--out", str(tmp_path / "s")]) == 10
        assert "stage 'spectral' failed" in capsys.readouterr().err

    def test_config_naming_n_walks_exits_config(self, fixture_run_values, tmp_path, capsys):
        # manifests written while FilterConfig had an n_walks field hold "n_walks": null
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"kind": "manifest",
                                        "config": {**fixture_run_values, "n_walks": None}}))
        out = tmp_path / "rerun"
        assert cli_main(["pipeline", "--config", str(manifest), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "stage 'config' failed: unknown config keys: ['n_walks']" in err
        assert not out.exists()

    def test_bench_stage_exit_code(self, tmp_path, capsys):
        assert cli_main(["bench", "--sizes", "300,200", "--out", str(tmp_path / "b")]) == 9
        assert "stage 'bench' failed: sizes must be strictly ascending" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_bench_zero_repeats_exit_bench(self, tmp_path, capsys):
        assert cli_main(["bench", "--sizes", "200", "--repeats", "0",
                         "--out", str(tmp_path / "b")]) == 9
        assert "stage 'bench' failed: repeats must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("command", ["pipeline", "train", "filter", "eval", "bench",
                                         "sweep-epsilon", "spectral"])
    def test_out_is_a_file_exits_write(self, command, fixture_run_values, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        extra = {
            "eval": ["--pred", fixture_run_values["labels"]],
            "sweep-epsilon": ["--values", "0.0,0.5"],
        }.get(command, [])
        argv = [command, *_flags({**fixture_run_values, "out": str(taken)}), *extra]
        if command == "bench":
            argv = ["bench", "--sizes", "200", "--epochs", "1", "--repeats", "1",
                    "--out", str(taken)]
        if command == "spectral":
            argv = ["spectral", "--n-nodes", "30", "--out", str(taken)]
        assert cli_main(argv) == 8
        assert "stage 'write' failed" in capsys.readouterr().err
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command, artifact", [("pipeline", "filtered.npz"),
                                                   ("spectral", "spectrum.csv")])
    def test_unwritable_artifact_exits_write(self, command, artifact, fixture_run_values,
                                             tmp_path, capsys):
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        argv = [command, *_flags({**fixture_run_values, "out": str(out)})]
        if command == "spectral":
            argv = ["spectral", "--n-nodes", "30", "--out", str(out)]
        assert cli_main(argv) == 8
        assert "stage 'write' failed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["bench", "--sizes", "1,x"],
                                      ["spectral", "--n-nodes", "30", "--alphas", "0.1,y"],
                                      ["bench", "--sizes", ","],
                                      ["spectral", "--n-nodes", "30", "--alphas", ","],
                                      ["spectral", "--n-nodes", "30", "--alphas", "0.1,0.1"],
                                      ["spectral", "--n-nodes", "30", "--alphas", "0.1,1.5"],
                                      ["spectral", "--n-nodes", "30", "--hops", "-1"]])
    def test_bad_number_list_exits_config(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main([*argv, "--out", str(out)]) == 2
        assert "stage 'config' failed" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_wrong_length_prediction_exits_eval(self, fixture_run_values, tmp_path,
                                                     capsys):
        short = tmp_path / "short_pred.txt"
        save_labels(np.zeros(7, dtype=np.int64), short)
        assert cli_main(["eval", *_flags(fixture_run_values), "--pred", str(short)]) == 7
        assert "stage 'eval' failed" in capsys.readouterr().err
        assert not Path(fixture_run_values["out"]).exists()

    def test_load_stage_exit_code(self, fixture_run_values, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense here\n")
        values = {**fixture_run_values, "edges": str(bad)}
        args = ["pipeline"]
        for key, val in values.items():
            args += [f"--{key.replace('_', '-')}", str(val)]
        assert cli_main(args) == 3


def _read_csv(path) -> tuple:
    header, *lines = Path(path).read_text().splitlines()
    return header.split(","), [line.split(",") for line in lines]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestCsvArtifacts:
    def test_numbers_read_back_bit_identical(self, tmp_path, capsys):
        # a noisy R-MAT graph, so the metrics, losses and soft assignments
        # are not round numbers
        save_edge_list(rmat_generate(60, 4, 1), tmp_path / "edges.txt")
        save_features(np.random.default_rng(0).random((60, 6)), tmp_path / "features.txt")
        save_labels(np.arange(60) % 4, tmp_path / "labels.txt")
        values = {"edges": str(tmp_path / "edges.txt"), "n_nodes": 60, "k": 4,
                  "features": str(tmp_path / "features.txt"),
                  "labels": str(tmp_path / "labels.txt"), "architecture": "8-4",
                  "learning_rate": 0.01, "pretrain_lr": 0.01, "n_epochs": 5,
                  "pretrain_n_epochs": 5, "batch_size": 16, "repeat": 2}
        cfg = resolve_run_config({**values, "out": str(tmp_path / "lib")})
        outcome = run_pipeline(cfg)
        cli_out = tmp_path / "cli"
        assert cli_main(["train", "--export-distributions",
                         *_flags({**values, "out": str(cli_out)})]) == 0

        def numbers(path):
            header, rows = _read_csv(path)
            return header, [[float(v) for v in row] for row in rows]

        _, loss = numbers(cli_out / "loss.csv")
        assert _bits(loss) == _bits(outcome.result.loss_history)
        header, [metrics] = numbers(cli_out / "metrics.csv")
        assert _bits(metrics) == _bits([outcome.summary["mean"][f] for f in header])
        _, p_h = numbers(cli_out / "p_h.csv")
        assert _bits(p_h) == _bits(outcome.result.p_h)

        result = sweep_epsilon(replace(cfg, out=str(tmp_path / "sweep")), [0.0, 0.5])
        _, rows = _read_csv(result.csv_path)
        want = [(str(v), m, s["mean"][m], s["std"][m])
                for v, s in zip(result.values, result.summaries) for m in MetricReport.FIELDS]
        assert [row[:2] for row in rows] == [list(w[:2]) for w in want]
        assert _bits([[float(v) for v in row[2:]] for row in rows]) == _bits(
            [w[2:] for w in want])

        g = rmat_generate(60, 4.0, 2)
        spectral_run(g, [0.1], 40, tmp_path / "spec")
        header, spectrum = numbers(tmp_path / "spec" / "spectrum.csv")
        report = spectral_report(augment_self_loops(g), 0.1, 40)
        columns = {"index": np.arange(60), "eigenvalue_gcn": report.eigenvalues_gcn,
                   "laplacian_sym": 1.0 - report.eigenvalues_gcn,
                   "ppr_closed_a0.1": report.eigenvalues_ppr_closed,
                   "ppr_laplacian_a0.1": 1.0 - report.eigenvalues_ppr_closed,
                   "ppr_direct_a0.1": report.eigenvalues_ppr_direct}
        assert header == list(columns)
        assert _bits(spectrum) == _bits(np.column_stack(list(columns.values())))
