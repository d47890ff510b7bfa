"""Run one benchmark operation in this (fresh) process and write its result.

Usage: python3 perfbench/op.py '<spec JSON>'

The spec names the workload, the input directory, an empty output
directory, the result file, and whether to trace. The operation is timed
with ``time.perf_counter`` from the call of the public entry point (which
reads the input files) until it returns (artifacts written). Peak memory
is this process's ``ru_maxrss``, read right after the operation. When the
spec asks for it, the load of the workload's files (set-up) is timed
afterwards.
"""

import json
import resource
import statistics
import sys
import time
from pathlib import Path

from benchenv import pin_threads

pin_threads()


def _operation(w, inputs: Path, out: Path):
    import rwsl.cli
    import rwsl.pipeline

    from workloads import EPSILON_VALUES

    if w.operation == "cli-filter":
        argv = ["filter", "--edges", str(inputs / "edges.txt"),
                "--n-nodes", str(w.n_nodes), "--features", str(inputs / "features.txt"),
                "--out", str(out)]
        for key, value in w.config.items():
            argv += ["--" + key.replace("_", "-"), str(value)]

        def run():
            code = rwsl.cli.main(argv)
            if code != 0:
                raise SystemExit(f"rwsl filter exited with {code}")
        return run

    cfg = rwsl.pipeline.resolve_run_config({
        "edges": str(inputs / "edges.txt"), "n_nodes": w.n_nodes,
        "features": str(inputs / "features.txt"), "labels": str(inputs / "labels.txt"),
        "k": w.k, "out": str(out), **w.config})
    if w.operation == "sweep":
        return lambda: rwsl.pipeline.sweep_epsilon(cfg, list(EPSILON_VALUES))
    return lambda: rwsl.pipeline.run_pipeline(cfg)


def _time_setup(w, inputs: Path) -> float:
    """Median time to load the workload's files into memory, repeated (up
    to five times) until at least a third of a second has been measured."""
    from rwsl.graph import augment_self_loops, load_edge_list, load_features, load_labels

    times = []
    while len(times) < 5 and sum(times) < 0.33:
        t0 = time.perf_counter()
        g = load_edge_list(inputs / "edges.txt", w.n_nodes)
        load_features(inputs / "features.txt")
        if w.has_labels:
            load_labels(inputs / "labels.txt")
        augment_self_loops(g)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv) -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from workloads import WORKLOADS

    w = WORKLOADS[spec["workload"]]
    inputs, out = Path(spec["inputs"]), Path(spec["out"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    run = _operation(w, inputs, out)

    t0 = time.perf_counter()
    run()
    wall = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"wall_s": wall, "peak_rss_mb": peak_mb,
              "setup_s": _time_setup(w, inputs) if spec["setup"] else None,
              "trace": tracer.to_json() if tracer else None}
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
