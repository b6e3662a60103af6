#!/usr/bin/env python3
"""Validate the JSON Lines streams emitted by the telemetry layer.

Default mode reads `harness -- metrics` output from the file given as
argv[1] (or stdin) and enforces the telemetry schema plus the PR's
acceptance floor:

* every line is a JSON object with "type" in {"epoch", "histogram"};
* epoch lines carry integer epoch/instructions/cycle (both monotone
  non-decreasing) and a flat metrics object of numbers or nulls;
* histogram lines carry count/sum/max/mean/p50/p99 and aligned
  buckets/bounds arrays;
* across the stream, >= 12 distinct metric names drawn from >= 5 distinct
  top-level components (crates).

`--spans` validates a span-tree JSONL stream (`harness -- spans ID` /
the `trace-job` protocol command):

* every line is `{"type":"span", ...}` with integer id/start_us, a
  parent id that is null or refers to an earlier span, end_us/dur_us
  both null (open) or both integers with dur_us == end_us - start_us,
  and an attrs object;
* span ids are unique and the stream contains exactly one root.

`--prom` validates a Prometheus text exposition (the `metrics --prom`
protocol command):

* every non-comment line is `name[{labels}] value` with a numeric value
  and a name declared by a preceding `# TYPE` comment;
* the chunk-cache instrumentation is present: `chunk_cache_hit_total`,
  `chunk_cache_miss_total` and `chunk_cache_eviction_total` counters,
  and the `chunk_cache_bytes` gauge.

`--postmortem` validates a flight-recorder dump (`harness -- serve
--postmortem-dir`, the `postmortem` protocol command):

* the first line is `{"type":"postmortem", ...}` carrying reason/seq/
  lines/dropped, with "lines" matching the body length;
* every body line is a JSON object with a "type" of "span" or "event";
* event lines carry an integer t_us and a string event name (workers
  stamp t_us before enqueueing, so cross-thread order is not checked).

Exits 0 on success, 1 with a diagnostic on the first violation.
"""

import json
import sys

MIN_METRICS = 12
MIN_CRATES = 5


def fail(lineno, msg):
    print(f"check_telemetry_schema: line {lineno}: {msg}", file=sys.stderr)
    sys.exit(1)


def parsed_lines(stream):
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(lineno, f"invalid JSON: {e}")
        if not isinstance(rec, dict):
            fail(lineno, "record is not an object")
        yield lineno, rec


def check_span(lineno, rec, seen_ids, roots):
    for key in ("id", "start_us"):
        if not isinstance(rec.get(key), int):
            fail(lineno, f"span record missing integer '{key}'")
    if not isinstance(rec.get("name"), str) or not rec["name"]:
        fail(lineno, "span record missing non-empty 'name'")
    if not isinstance(rec.get("attrs"), dict):
        fail(lineno, "span record missing 'attrs' object")
    sid = rec["id"]
    if sid in seen_ids:
        fail(lineno, f"duplicate span id {sid}")
    parent = rec.get("parent")
    if parent is None:
        roots.append(sid)
    elif not isinstance(parent, int) or parent not in seen_ids:
        fail(lineno, f"span {sid} parent {parent!r} does not refer to an earlier span")
    seen_ids.add(sid)
    end, dur = rec.get("end_us"), rec.get("dur_us")
    if end is None or dur is None:
        if not (end is None and dur is None):
            fail(lineno, f"span {sid} has mismatched open end_us/dur_us")
    else:
        if not isinstance(end, int) or not isinstance(dur, int):
            fail(lineno, f"span {sid} end_us/dur_us are not integers")
        if dur != end - rec["start_us"]:
            fail(lineno, f"span {sid} dur_us {dur} != end_us - start_us")


def check_spans_stream(stream, require_nonempty=True):
    seen_ids, roots = set(), []
    n = 0
    for lineno, rec in parsed_lines(stream):
        if rec.get("type") != "span":
            fail(lineno, f"expected a span record, got type {rec.get('type')!r}")
        check_span(lineno, rec, seen_ids, roots)
        n += 1
    if require_nonempty and n == 0:
        fail(0, "stream contained no span records")
    if n > 0 and len(roots) != 1:
        fail(0, f"expected exactly one root span, found {len(roots)}")
    print(f"check_telemetry_schema: OK — {n} spans, root id {roots[0] if roots else '-'}")


def check_postmortem_stream(stream):
    lines = list(parsed_lines(stream))
    if not lines:
        fail(0, "empty post-mortem dump")
    lineno, header = lines[0]
    if header.get("type") != "postmortem":
        fail(lineno, f"first line must be the postmortem header, got {header.get('type')!r}")
    if not isinstance(header.get("reason"), str) or not header["reason"]:
        fail(lineno, "header missing non-empty 'reason'")
    for key in ("seq", "lines", "dropped"):
        if not isinstance(header.get(key), int):
            fail(lineno, f"header missing integer '{key}'")
    body = lines[1:]
    if header["lines"] != len(body):
        fail(lineno, f"header declares {header['lines']} lines, body has {len(body)}")
    span_ids, roots = set(), []
    spans = events = 0
    for lineno, rec in body:
        kind = rec.get("type")
        if kind == "span":
            # Post-mortem rings interleave spans from many jobs: parent
            # links may point outside the ring, so only check shape.
            for key in ("id", "start_us"):
                if not isinstance(rec.get(key), int):
                    fail(lineno, f"span record missing integer '{key}'")
            if not isinstance(rec.get("name"), str) or not rec["name"]:
                fail(lineno, "span record missing non-empty 'name'")
            spans += 1
            span_ids.add(rec["id"])
            if rec.get("parent") is None:
                roots.append(rec["id"])
        elif kind == "event":
            if not isinstance(rec.get("t_us"), int):
                fail(lineno, "event record missing integer 't_us'")
            if not isinstance(rec.get("event"), str) or not rec["event"]:
                fail(lineno, "event record missing non-empty 'event'")
            events += 1
        else:
            fail(lineno, f"unknown post-mortem record type {kind!r}")
    print(
        f"check_telemetry_schema: OK — postmortem '{header['reason']}' seq {header['seq']}: "
        f"{events} events, {spans} spans, {header['dropped']} dropped"
    )


PROM_REQUIRED = {
    "chunk_cache_hit_total": "counter",
    "chunk_cache_miss_total": "counter",
    "chunk_cache_eviction_total": "counter",
    "chunk_cache_bytes": "gauge",
}


def check_prom_stream(stream):
    declared = {}
    samples = 0
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                declared[parts[2]] = parts[3]
            continue
        if "{" in line.split()[0]:
            name = line.split("{", 1)[0]
            value = line.rsplit("}", 1)[1].strip()
        else:
            parts = line.split()
            name = parts[0]
            value = parts[1] if len(parts) > 1 else ""
        try:
            float(value)
        except ValueError:
            fail(lineno, f"sample '{name}' has non-numeric value {value!r}")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base[: -len(suffix)] in declared:
                base = base[: -len(suffix)]
                break
        if base not in declared:
            fail(lineno, f"sample '{name}' has no preceding # TYPE declaration")
        samples += 1
    if samples == 0:
        fail(0, "exposition contained no samples")
    for name, kind in PROM_REQUIRED.items():
        if name not in declared:
            fail(0, f"required metric '{name}' missing from exposition")
        if declared[name] != kind:
            fail(0, f"metric '{name}' declared as {declared[name]!r}, expected {kind!r}")
    print(
        f"check_telemetry_schema: OK — prometheus exposition: {samples} samples, "
        f"{len(declared)} metrics, chunk-cache instrumentation present"
    )


def check_metrics_stream(stream):
    metric_names = set()
    epochs = 0
    histograms = 0
    prev_epoch = -1
    prev_instructions = -1
    prev_cycle = -1
    for lineno, rec in parsed_lines(stream):
        kind = rec.get("type")
        if kind == "epoch":
            epochs += 1
            for key in ("epoch", "instructions", "cycle"):
                if not isinstance(rec.get(key), int):
                    fail(lineno, f"epoch record missing integer '{key}'")
            if rec["epoch"] <= prev_epoch:
                fail(lineno, f"epoch {rec['epoch']} not increasing")
            if rec["instructions"] < prev_instructions:
                fail(lineno, "instructions went backwards")
            if rec["cycle"] < prev_cycle:
                fail(lineno, "cycle went backwards")
            prev_epoch = rec["epoch"]
            prev_instructions = rec["instructions"]
            prev_cycle = rec["cycle"]
            metrics = rec.get("metrics")
            if not isinstance(metrics, dict) or not metrics:
                fail(lineno, "epoch record has no metrics object")
            for name, value in metrics.items():
                if "." not in name:
                    fail(lineno, f"metric '{name}' has no component path")
                if value is not None and not isinstance(value, (int, float)):
                    fail(lineno, f"metric '{name}' is not numeric or null")
                metric_names.add(name)
        elif kind == "histogram":
            histograms += 1
            if not isinstance(rec.get("metric"), str):
                fail(lineno, "histogram record missing 'metric'")
            for key in ("count", "sum", "max", "mean", "p50", "p99"):
                if not isinstance(rec.get(key), (int, float)):
                    fail(lineno, f"histogram missing numeric '{key}'")
            buckets = rec.get("buckets")
            bounds = rec.get("bounds")
            if not isinstance(buckets, list) or not isinstance(bounds, list):
                fail(lineno, "histogram missing buckets/bounds arrays")
            if len(buckets) != len(bounds) + 1:
                fail(lineno, "buckets must have one more entry than bounds (overflow)")
        else:
            fail(lineno, f"unknown record type {kind!r}")
    if epochs == 0:
        fail(0, "stream contained no epoch records")
    if len(metric_names) < MIN_METRICS:
        fail(0, f"only {len(metric_names)} distinct metrics (need >= {MIN_METRICS})")
    crates = {name.split(".", 1)[0] for name in metric_names}
    if len(crates) < MIN_CRATES:
        fail(0, f"metrics span only {sorted(crates)} (need >= {MIN_CRATES} crates)")
    print(
        f"check_telemetry_schema: OK — {epochs} epochs, {histograms} histograms, "
        f"{len(metric_names)} metrics across {len(crates)} crates {sorted(crates)}"
    )


def main():
    args = sys.argv[1:]
    mode = "metrics"
    if args and args[0] in ("--spans", "--postmortem", "--prom"):
        mode = args.pop(0)[2:]
    stream = open(args[0]) if args else sys.stdin
    if mode == "spans":
        check_spans_stream(stream)
    elif mode == "postmortem":
        check_postmortem_stream(stream)
    elif mode == "prom":
        check_prom_stream(stream)
    else:
        check_metrics_stream(stream)


if __name__ == "__main__":
    main()
