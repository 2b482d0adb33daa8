"""The benchmark of record: one command, three workloads, checked answers.

Run from the root of a checkout::

    python3 recordbench/run.py --workload selective-zipf --seed 20060912 \
        --seconds 40 --trace 0

``--trace 0`` times the workload with tracing off and prints every
end-to-end metric; ``--trace 1`` runs the same requests with spans
recorded around each layer's public functions on every other request,
prints the per-layer metrics and the tracing overhead, and writes the
span file beside the result file under ``recordbench/out/``. The last
line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

See ``recordbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

from spans import (CHOSEN_LABELS, EXEC_VARIANTS, Tracer, install,
                   query_layers, served_layers, span_summary)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: The seed of record and the held-out seed a gain must also hold on.
DEFAULT_SEED = 20060912
HELD_OUT_SEED = 1
DEFAULT_SCALE = 12

#: End-to-end metrics of the final JSON line (every workload has them).
END_TO_END = (("setup_s", "s"), ("query_p50_ms", "ms"),
              ("query_p90_ms", "ms"), ("query_qps", "1/s"),
              ("peak_rss_mb", "MB"))
#: End-to-end metrics that are printed and recorded but not in the JSON
#: line: ``error_rate`` is 0 on a healthy run, the rest exist only where
#: the workload appends to disk storage.
REPORTED = (("error_rate", "fraction"), ("append_p50_ms", "ms"),
            ("append_p90_ms", "ms"), ("disk_bytes_per_row", "B"))


#: Per-layer metrics of the traced run's JSON line (see README.md).
PER_LAYER = (
    ("parse.ms", "ms"), ("parse.calls", "count"),
    ("rewrite.ms", "ms"), ("rewrite.candidates", "count"),
    *((f"rewrite.chosen.{label}", "count") for label in CHOSEN_LABELS),
    ("plan.ms", "ms"), ("plan.calls", "count"),
    ("plan.cache_hit_ratio", "fraction"),
    ("exec.ms", "ms"),
    *((f"exec.ms.{variant}", "ms") for variant in EXEC_VARIANTS),
    ("exec.rows_sorted", "count"), ("exec.sort_ops", "count"),
    ("exec.filter_density", "fraction"), ("exec.rows_emitted", "count"),
    ("exec.batches", "count"), ("exec.decode_fallbacks", "count"),
    ("exec.encoded_columns", "count"), ("exec.fused_pipelines", "count"),
    ("append.ms", "ms"), ("append.rows", "count"),
    ("storage.pages_read", "count"), ("storage.pages_written", "count"),
    ("storage.pages_evicted", "count"),
    ("storage.buffer_hit_ratio", "fraction"),
    ("storage.wal_bytes_per_row", "B"), ("storage.wal_syncs", "count"),
    ("storage.checkpoints", "count"), ("storage.checkpoint_ms", "ms"),
    ("server.overhead_ms.query", "ms"),
    ("server.overhead_ms.append", "ms"), ("server.sheds", "count"),
    ("setup.generate_s", "s"), ("setup.load_s", "s"),
    ("setup.rules_s", "s"), ("loadgen.late_ms", "ms"),
)


def git_commit() -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def latency_stats(samples) -> tuple[float, float]:
    from workloads import percentile

    values = [sample.latency * 1000.0 for sample in samples]
    if not values:
        return 0.0, 0.0
    return statistics.median(values), percentile(values, 0.9)


def balanced(samples, traced: bool):
    """The *traced* (or untraced) half of a like-for-like subset: for
    each key, as many samples of each kind as the scarcer kind has."""
    by_key: dict[str, list[list]] = {}
    for sample in samples:
        by_key.setdefault(sample.key, [[], []])[sample.traced].append(sample)
    return [sample for untraced, traced_ in by_key.values()
            for sample in (traced_ if traced else untraced)[
                :min(len(untraced), len(traced_))]]


def end_to_end(workload, traced: bool | None) -> dict[str, float]:
    """End-to-end metrics over every request (*traced* None), or over the
    traced or untraced half of a like-for-like subset of requests."""
    def pick(samples):
        return samples if traced is None else balanced(samples, traced)

    queries, appends = pick(workload.queries), pick(workload.appends)
    metrics = {
        "setup_s": statistics.median(
            round_["total"] for round_ in workload.setup_rounds),
        "query_qps": (len(workload.queries) / workload.timed_seconds
                      if workload.timed_seconds else 0.0),
        "peak_rss_mb": workload.peak_rss_mb,
        "error_rate": len(workload.failures) / max(1, workload.attempted),
    }
    metrics["query_p50_ms"], metrics["query_p90_ms"] = latency_stats(queries)
    if workload.appends:
        metrics["append_p50_ms"], metrics["append_p90_ms"] = \
            latency_stats(appends)
        metrics["disk_bytes_per_row"] = workload.info["disk_bytes_per_row"]
    return metrics


def layer_metrics(workload) -> dict[str, float]:
    spans = workload.tracer.spans
    setup = {span.request_id for span in spans if span.name == "setup"}
    spans = [span for span in spans if span.request_id not in setup]
    traced_queries = sum(sample.traced for sample in workload.queries)
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update(query_layers(spans, traced_queries))
    metrics.update(served_layers(spans))
    metrics.update(workload.storage_layer(spans))
    for phase in ("generate", "load", "rules"):
        metrics[f"setup.{phase}_s"] = statistics.median(
            round_.get(phase, 0.0) for round_ in workload.setup_rounds)
    return metrics


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig-grid", "selective-zipf",
                                 "durable-ingest"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE,
                        help="RFIDGen scale (anything but 12 is off-record)")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="self-test: corrupt one reference answer")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"recordbench: no program sources under {ROOT / 'src'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    repro_env = {name: value for name, value in sorted(os.environ.items())
                 if name.startswith("REPRO_")}
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import DATA_SEED, KNOWN_DIVERGENCES, WORKLOADS

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / "work"
    work_dir.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](
        args.seed, args.seconds, args.scale, tracer, work_dir,
        perturb_reference=args.perturb_reference)
    if tracer is not None:
        with install(tracer):
            workload.execute()
    else:
        workload.execute()
    shutil.rmtree(work_dir, ignore_errors=True)

    stamp = {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "data_seed": DATA_SEED,
        "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": git_commit(), "repro_env": repro_env,
        "default_config": not repro_env and args.scale == DEFAULT_SCALE
        and not args.perturb_reference,
        **({"append_rate_per_s": workload.info["rate_per_s"],
            "append_batch_rows": workload.info["batch_rows"]}
           if args.workload == "durable-ingest" else {}),
    }
    unexpected = [failure for failure in workload.failures
                  if not failure["known"]]
    report = {"stamp": stamp, "info": workload.info,
              "attempted": workload.attempted,
              "queries": len(workload.queries),
              "appends": len(workload.appends),
              "failures": workload.failures,
              "known_divergences": list(KNOWN_DIVERGENCES)}
    tag = f"{args.workload}-s{args.seed}"
    print(f"recordbench {args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace} nproc={stamp['nproc']} "
          f"python={stamp['python']} commit={stamp['commit'][:12]} "
          f"default={'yes' if stamp['default_config'] else 'NO'} "
          f"repro_env={repro_env}")
    units = dict(END_TO_END + REPORTED)
    if args.trace:
        untraced = end_to_end(workload, traced=False)
        traced = end_to_end(workload, traced=True)
        overhead = {
            name: {"untraced": untraced[name], "traced": traced[name],
                   "delta": traced[name] - untraced[name],
                   "share": ((traced[name] - untraced[name]) / untraced[name]
                             if untraced[name] else 0.0),
                   "unit": units[name]}
            for name in ("query_p50_ms", "query_p90_ms", "append_p50_ms",
                         "append_p90_ms") if name in untraced}
        layers = layer_metrics(workload)
        report.update(tracing_overhead=overhead, per_layer={
            name: {"value": layers[name], "unit": unit}
            for name, unit in PER_LAYER}, spans=span_summary(tracer.spans))
        tracer.dump(OUT / f"{tag}.spans.jsonl")
        for name, unit in PER_LAYER:
            print(f"  {name:<30} {layers[name]:>14.4f} {unit}")
        for name, entry in overhead.items():
            print(f"  overhead {name:<21} {entry['delta']:+.3f} {entry['unit']}"
                  f" ({entry['share']:+.1%} of untraced "
                  f"{entry['untraced']:.3f} {entry['unit']})")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = end_to_end(workload, traced=None)
        report["end_to_end"] = values
        for name, unit in END_TO_END + REPORTED:
            if name in values:
                print(f"  {name:<20} {values[name]:>14.4f} {unit}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(f"  queries={len(workload.queries)} appends={len(workload.appends)}"
          f" attempted={workload.attempted} failed={len(workload.failures)}"
          f" (known standing divergences: "
          f"{len(workload.failures) - len(unexpected)})")
    for failure in workload.failures[:10]:
        print(f"  failure: {json.dumps(failure, default=str)}")
    (OUT / f"{tag}-t{args.trace}.json").write_text(
        json.dumps(report, indent=2, default=str))
    print(json.dumps({"correct": not unexpected,
                      "attempted": workload.attempted,
                      "failed": len(workload.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
