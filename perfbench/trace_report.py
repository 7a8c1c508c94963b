#!/usr/bin/env python3
"""Turns an fvl_perfbench trace file into the per-layer metrics.

    python3 perfbench/trace_report.py .bench_build/perfbench/traces/hot_point-seed1.jsonl

A traced run writes one JSON object per line: a "meta" record (workload and
stamp), one "phase" record per phase (an untraced half and a traced half of
the run, with the server's counter deltas), and the spans. Spans are
net.<op> around each client call, service.<op> around the in-process replay
of the same request against a separate index, and leaf spans
(label_store.*, decoder.*, index.*, run_labeler.*) under it. Replays run
after their parent call, so a span's self time is its duration minus the
durations of its children.

Each metric uses the spans of the workload's own requests and set-up
(source "replay" or "setup"). An op the workload never issues falls back to
the layer probes the traced run makes on its data (source "probe"), so
every metric exists on every workload; the table says which source each
value came from. The tracing overhead is the traced half's query
throughput against the untraced half's.
"""

import collections
import json
import statistics
import sys

SOURCES = ("replay", "setup", "probe")
QUERY_NET = ("net.depends", "net.query_across_runs")
QUERY_SERVICE = ("service.depends_many", "service.query_across_runs")


def load(path):
    meta, phases, spans = {}, [], []
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            kind = record.pop("type")
            if kind == "meta":
                meta = record
            elif kind == "phase":
                phases.append(record)
            else:
                spans.append(record)
    return meta, phases, spans


class Trace:
    def __init__(self, path):
        self.meta, self.phases, spans = load(path)
        self.by_name = collections.defaultdict(list)
        self.children = collections.defaultdict(list)
        for span in spans:
            self.by_name[span["name"]].append(span)
            if span["parent"]:
                self.children[span["parent"]].append(span)

    def pick(self, *names):
        """Spans named `names` from the most direct source that has any."""
        for source in SOURCES:
            found = [s for n in names for s in self.by_name[n] if s["source"] == source]
            if found:
                return found, source
        return [], "none"

    def self_ns(self, span):
        return span["dur_ns"] - sum(c["dur_ns"] for c in self.children[span["id"]])

    def counter(self, key, traced=None):
        return sum(p[key] for p in self.phases if traced is None or p["traced"] == traced)


def median(values):
    return statistics.median(values) if values else float("nan")


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(path):
    """Per-layer metrics of one trace: {name: (value, unit, samples, source)}."""
    t = Trace(path)
    out = {}

    def put(name, value, unit, n, source):
        out[name] = (value, unit, n, source)

    def span_median(name, unit, scale, *span_names):
        spans, source = t.pick(*span_names)
        put(name, median([s["dur_ns"] / scale for s in spans]), unit, len(spans), source)

    def per_unit(name, unit, span_name, field):
        spans, source = t.pick(span_name)
        total = sum(s[field] for s in spans)
        put(name, ratio(sum(s["dur_ns"] for s in spans), total), unit, total, source)

    # Server counters come from the untraced half, whose load is the real one.
    answers = t.counter("answers", 0)
    put("net.mean_batch", ratio(t.counter("point_queries", 0), t.counter("point_batches", 0)),
        "count", t.counter("point_batches", 0), "server")
    put("net.frames_per_query", ratio(t.counter("frames", 0), answers), "count", answers,
        "server")
    nets = [s for n in QUERY_NET for s in t.by_name[n]]
    put("net.self_us", median([t.self_ns(s) / 1e3 for s in nets]), "us", len(nets), "replay")
    put("net.self_share", median([ratio(t.self_ns(s), s["dur_ns"]) for s in nets]), "ratio",
        len(nets), "replay")

    for name, unit, scale, span in (
            ("service.depends_many_us", "us", 1e3, "service.depends_many"),
            ("service.query_across_runs_us", "us", 1e3, "service.query_across_runs"),
            ("service.sweep_ms", "ms", 1e6, "service.sweep"),
            ("service.compact_ms", "ms", 1e6, "service.compact"),
            ("service.open_ms", "ms", 1e6, "service.open"),
            ("service.apply_us", "us", 1e3, "service.apply"),
            ("service.snapshot_delta_us", "us", 1e3, "service.snapshot_delta"),
            ("label_store.decode_random_us", "us", 1e3, "label_store.decode_random"),
            ("label_store.freeze_delta_us", "us", 1e3, "label_store.freeze_delta"),
            ("index.map_ms", "ms", 1e6, "index.map"),
            ("index.compact_ms", "ms", 1e6, "index.compact"),
            ("index.serialize_ms", "ms", 1e6, "index.serialize")):
        span_median(name, unit, scale, span)

    for kind in ("reach", "label"):
        hits, misses = t.counter(kind + "_hits", 0), t.counter(kind + "_misses", 0)
        put(f"serving_cache.{kind}_hit_rate", ratio(hits, hits + misses), "ratio",
            hits + misses, "server")

    services, source = t.pick(*QUERY_SERVICE)
    shares, arena_bytes, pairs = [], 0, 0
    for svc in services:
        decodes = [c for c in t.children[svc["id"]] if c["name"] == "label_store.decode_random"]
        shares.append(ratio(sum(c["dur_ns"] for c in decodes), svc["dur_ns"]))
        arena_bytes += sum(c["bytes"] for c in decodes)
        pairs += svc["pairs"]
    put("label_store.decode_share", median(shares), "ratio", len(shares), source)
    put("label_store.arena_bytes_per_query", ratio(arena_bytes, pairs), "B", pairs, source)
    per_unit("label_store.decode_seq_ns", "ns/item", "label_store.decode_seq", "items")
    per_unit("decoder.depends_ns", "ns/pair", "decoder.depends", "pairs")
    per_unit("run_labeler.apply_ns_per_item", "ns/item", "run_labeler.apply", "items")

    def qps(traced):
        return ratio(t.counter("answers", traced), t.counter("seconds", traced))
    untraced, traced = qps(0), qps(1)
    put("trace.overhead_pct", 100.0 * ratio(untraced - traced, untraced), "%",
        len(t.phases), f"{untraced:.0f} vs {traced:.0f} answers/s")
    return out, t.meta


def print_table(metrics, meta, stream=sys.stdout):
    print(f"# per-layer metrics, workload {meta.get('workload')}, stamp "
          f"{json.dumps(meta.get('stamp', {}), sort_keys=True)}", file=stream)
    for name, (value, unit, n, source) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit:<8} n={n:<9} [{source}]", file=stream)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics, meta = per_layer(argv[1])
    print_table(metrics, meta)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
