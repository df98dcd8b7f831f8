#!/usr/bin/env python3
"""Validate a bench --trace-out artifact (CI trace smoke).

Checks, per segment of the Chrome export written by bench_fig4:
  1. the file is well-formed JSON with traceEvents + parbccReports;
  2. every B(egin) has a matching E(nd) per (pid, tid) stack — spans
     balance, so the rollup the drivers derive StepTimes from saw the
     same tree the viewer renders;
  3. each algorithm's rollup contains every paper step it performs
     exactly once (the rollup must aggregate repeated spans such as
     TV-filter's two "filtering" stretches into one phase);
  4. the TV-filter segment carries the telemetry counters the paper's
     discussion leans on (SV rounds, BFS inspections, arena peak);
  5. every TV segment ran the fused aux kernel: the label_edge /
     connected_components paper steps nest the fused sub-spans
     (aux_hook, aux_gather) instead of the materialized chain
     (aux_stage, aux_compact), and the aux_vertices / aux_hooks /
     aux_find_depth counters are populated;
  6. the FastBCC segment bypassed the aux pipeline entirely (no aux_*
     span at all), ran exactly one skeleton_hook sweep, and carries the
     skeleton counters (fastbcc_hooks, fastbcc_find_depth,
     fastbcc_cross_edges) plus the shared BFS/arena telemetry;
  7. every parallel segment's fork-join loops forked (sched_tasks and
     sched_splits counters positive, sched_steals present);
  8. dynamic segments (label `dynamic:<family>:p<p>`, written by
     bench_dynamic) carry the batch-dynamic engine's telemetry: a
     batch_apply span with damage_probe nested per batch, the
     batch_touched_vertices / batch_fallbacks counters, and a
     region_solve span whenever at least one batch took the
     incremental path (batch_fallbacks < batch_apply calls).  Static
     segments must carry no batch span at all, and the
     all-segments-present check of step 3 applies only to artifacts
     that contain static segments (a dynamic-only or io-only artifact
     is legal);
  9. io segments (label `io:<mult>n`, written by bench_io) trace one
     mmap load plus one solve of the mapped graph: an io_map span with
     io_prefault nested inside (one prefaulted load each) and positive
     io_mapped_bytes / io_prefault_bytes counters, with no more bytes
     prefaulted than mapped.  Static segments must carry no io_* span:
     the solvers never load files themselves.

Usage: validate_trace.py <trace.json>
"""

import json
import sys

# Fig. 4 steps each algorithm performs (rollup phase *names*).
EXPECTED_STEPS = {
    "sequential": {"conversion"},
    "TV-SMP": {
        "spanning_tree",
        "euler_tour",
        "root_tree",
        "low_high",
        "label_edge",
        "connected_components",
    },
    "TV-opt": {
        "conversion",
        "spanning_tree",
        "euler_tour",
        "root_tree",
        "low_high",
        "label_edge",
        "connected_components",
    },
    "TV-filter": {
        "conversion",
        "spanning_tree",
        "euler_tour",
        "root_tree",
        "low_high",
        "label_edge",
        "connected_components",
        "filtering",
    },
    "FastBCC": {
        "conversion",
        "spanning_tree",
        "euler_tour",
        "root_tree",
        "low_high",
        "label_edge",
        "connected_components",
    },
}

REQUIRED_FILTER_COUNTERS = [
    "sv_rounds",
    "bfs_inspected_edges",
    "peak_workspace_bytes",
]

# Sub-spans of the default (fused) aux pipeline, present in every TV
# segment; the materialized chain's spans must be absent — if they show
# up, a driver regressed to the staged route.
FUSED_AUX_SPANS = ["aux_vertex_map", "aux_hook", "aux_gather"]
MATERIALIZED_AUX_SPANS = ["aux_stage", "aux_compact"]
REQUIRED_TV_AUX_COUNTERS = ["aux_vertices", "aux_hooks", "aux_find_depth"]
TV_SEGMENTS = {"TV-SMP", "TV-opt", "TV-filter"}

# Parallel segments must show a forked schedule: a segment without
# sched_* counters ran every loop serially.
WS_SEGMENTS = {"TV-SMP", "TV-opt", "TV-filter", "FastBCC"}

# FastBCC replaces the aux pipeline with skeleton hooking on the tree:
# its segment must carry these counters and exactly one skeleton_hook
# sweep, and must contain no aux_* span of either route.
REQUIRED_FASTBCC_COUNTERS = [
    "fastbcc_hooks",
    "fastbcc_find_depth",
    "fastbcc_cross_edges",
    "bfs_inspected_edges",
    "peak_workspace_bytes",
]

# The batch-dynamic engine's spans (batch_dynamic.hpp): required in
# dynamic segments, forbidden in static ones.
BATCH_SPANS = ["batch_apply", "damage_probe", "region_solve"]
REQUIRED_DYNAMIC_COUNTERS = ["batch_touched_vertices", "batch_fallbacks"]

# The mmap loader's spans (io_binary.hpp): required in io segments,
# forbidden in static ones (the solvers never open files).
IO_SPANS = ["io_map", "io_prefault"]
REQUIRED_IO_COUNTERS = [
    "io_mapped_bytes",
    "io_prefault_bytes",
]


def check_io_segment(label, report):
    suffix = label.split(":", 1)[1]
    if not suffix.endswith("n") or not suffix[:-1].isdigit():
        fail(f"io segment label {label!r} is not io:<mult>n")
    calls = {p["name"]: p["calls"] for p in report.get("phases", [])}
    for span in IO_SPANS:
        if calls.get(span, 0) != 1:
            fail(
                f"{label}: span {span!r} appears {calls.get(span, 0)} "
                "times in the rollup (want exactly 1 prefaulted load)"
            )
    counters = report.get("counters", {})
    for counter in REQUIRED_IO_COUNTERS:
        if counters.get(counter, 0) <= 0:
            fail(f"{label}: counter {counter!r} missing or zero")
    # The loader maps whole files: every prefaulted byte was mapped.
    if counters["io_prefault_bytes"] > counters["io_mapped_bytes"]:
        fail(
            f"{label}: io_prefault_bytes "
            f"({counters['io_prefault_bytes']:.0f}) exceeds io_mapped_bytes "
            f"({counters['io_mapped_bytes']:.0f})"
        )
    for phase in report.get("phases", []):
        if phase.get("inclusive", -1) < 0:
            fail(f"{label}: phase {phase['name']!r} negative inclusive")


def check_dynamic_segment(label, report):
    parts = label.split(":")
    if len(parts) != 3 or not parts[1] or not parts[2].startswith("p") or \
            not parts[2][1:].isdigit():
        fail(f"dynamic segment label {label!r} is not dynamic:<family>:p<p>")
    calls = {p["name"]: p["calls"] for p in report.get("phases", [])}
    for span in ("batch_apply", "damage_probe"):
        if calls.get(span, 0) <= 0:
            fail(f"{label}: span {span!r} missing from the rollup")
    if calls["damage_probe"] != calls["batch_apply"]:
        fail(
            f"{label}: damage_probe ran {calls['damage_probe']} times for "
            f"{calls['batch_apply']} batches (want one probe per batch)"
        )
    counters = report.get("counters", {})
    for counter in REQUIRED_DYNAMIC_COUNTERS:
        if counter not in counters:
            fail(f"{label}: counter {counter!r} missing")
    # batch_fallbacks totals the fallen-back batches; any batch that did
    # not fall back must have opened a region_solve span.
    if counters["batch_fallbacks"] < calls["batch_apply"] and \
            calls.get("region_solve", 0) <= 0:
        fail(
            f"{label}: {calls['batch_apply']} batches, only "
            f"{counters['batch_fallbacks']:.0f} fell back, yet no "
            "region_solve span — the incremental path went untraced"
        )


def fail(msg):
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_span_balance(events):
    stacks = {}
    for e in events:
        key = (e.get("pid"), e.get("tid"))
        ph = e.get("ph")
        if ph == "B":
            stacks.setdefault(key, []).append(e["name"])
        elif ph == "E":
            stack = stacks.setdefault(key, [])
            if not stack:
                fail(f"E event {e['name']!r} with no open span on {key}")
            stack.pop()
    for key, stack in stacks.items():
        if stack:
            fail(f"unclosed spans {stack!r} on {key}")


def main():
    if len(sys.argv) != 2:
        fail("usage: validate_trace.py <trace.json>")
    with open(sys.argv[1], encoding="utf-8") as f:
        doc = json.load(f)

    events = doc.get("traceEvents")
    reports = doc.get("parbccReports")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")
    if not isinstance(reports, list) or not reports:
        fail("parbccReports missing or empty")

    check_span_balance(events)

    seen = set()
    saw_static = False
    for report in reports:
        label = report.get("label")
        if isinstance(label, str) and label.startswith("dynamic:"):
            for phase in report.get("phases", []):
                if phase.get("inclusive", -1) < 0:
                    fail(f"{label}: phase {phase['name']!r} negative inclusive")
            check_dynamic_segment(label, report)
            continue
        if isinstance(label, str) and label.startswith("io:"):
            check_io_segment(label, report)
            continue
        if label not in EXPECTED_STEPS:
            fail(f"unexpected segment label {label!r}")
        seen.add(label)
        saw_static = True
        names = [p["name"] for p in report.get("phases", [])]
        batch_present = [s for s in BATCH_SPANS if s in names]
        if batch_present:
            fail(
                f"{label}: batch-dynamic spans {batch_present!r} present in "
                "a static segment"
            )
        io_present = [s for s in IO_SPANS if s in names]
        if io_present:
            fail(
                f"{label}: io spans {io_present!r} present in a static "
                "segment — the solvers must not load files"
            )
        for step in EXPECTED_STEPS[label]:
            count = names.count(step)
            if count != 1:
                fail(
                    f"{label}: step {step!r} appears {count} times in the "
                    f"rollup (want exactly 1; phases: {names})"
                )
        for phase in report.get("phases", []):
            if phase.get("inclusive", -1) < 0:
                fail(f"{label}: phase {phase['name']!r} negative inclusive")
        counters = report.get("counters", {})
        if label in WS_SEGMENTS:
            for counter in ("sched_tasks", "sched_splits"):
                if counters.get(counter, 0) <= 0:
                    fail(
                        f"{label}: counter {counter!r} missing or zero — "
                        "the work-stealing schedule never forked"
                    )
            if "sched_steals" not in counters:
                fail(f"{label}: counter 'sched_steals' missing")
        if label in TV_SEGMENTS:
            for span in FUSED_AUX_SPANS:
                if names.count(span) != 1:
                    fail(
                        f"{label}: fused aux span {span!r} appears "
                        f"{names.count(span)} times (want exactly 1)"
                    )
            for span in MATERIALIZED_AUX_SPANS:
                if span in names:
                    fail(
                        f"{label}: materialized aux span {span!r} present — "
                        "driver fell back to the staged route"
                    )
            for counter in REQUIRED_TV_AUX_COUNTERS:
                if counters.get(counter, 0) <= 0:
                    fail(f"{label}: counter {counter!r} missing or zero")
        if label == "FastBCC":
            if names.count("skeleton_hook") != 1:
                fail(
                    f"FastBCC: 'skeleton_hook' appears "
                    f"{names.count('skeleton_hook')} times (want exactly 1)"
                )
            aux_spans = [s for s in names if s.startswith("aux_")]
            if aux_spans:
                fail(
                    f"FastBCC: aux pipeline spans present {aux_spans!r} — "
                    "the skeleton engine must not materialize G'"
                )
            for counter in REQUIRED_FASTBCC_COUNTERS:
                if counters.get(counter, 0) <= 0:
                    fail(f"FastBCC: counter {counter!r} missing or zero")
        if label == "TV-filter":
            for counter in REQUIRED_FILTER_COUNTERS:
                if counters.get(counter, 0) <= 0:
                    fail(f"{label}: counter {counter!r} missing or zero")
            # The rollup must have folded both filtering stretches.
            calls = {
                p["name"]: p["calls"] for p in report.get("phases", [])
            }
            if calls.get("filtering", 0) != 2:
                fail(
                    f"{label}: 'filtering' should aggregate 2 calls, got "
                    f"{calls.get('filtering', 0)}"
                )

    # A dynamic-only artifact (bench_dynamic --trace-out) is complete by
    # itself; the all-algorithms check applies to static artifacts.
    if saw_static:
        missing = set(EXPECTED_STEPS) - seen
        if missing:
            fail(f"segments missing from artifact: {sorted(missing)}")

    print(
        f"validate_trace: OK ({len(events)} events, "
        f"{len(reports)} segments)"
    )


if __name__ == "__main__":
    main()
