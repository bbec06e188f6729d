#!/usr/bin/env python
"""Append a benchmark run to the throughput history and render it.

``bench_kernel.py`` measures one commit; this helper turns those
point-in-time reports into a tracked series.  The CI benchmark job
restores the previous ``bench-history`` artifact (via the actions
cache), appends the current run's *normalized* throughput — ips
divided by the machine calibration index, so runner-speed drift does
not masquerade as a kernel trend — and re-uploads the file.  The
last-N trajectory is rendered as a Markdown table into
``$GITHUB_STEP_SUMMARY`` so the trend is visible on every run without
downloading anything.

The history file is JSON-lines: one object per run with the commit
sha, the schema number, and a normalized throughput per channel.
Unknown fields are preserved for forward compatibility; rendering
skips lines it cannot parse rather than failing the job.

Usage::

    python benchmarks/bench_history.py \
        --report bench-output/BENCH_polyflow.json \
        --history bench-history/history.jsonl \
        --sha "$GITHUB_SHA" \
        --summary-md "$GITHUB_STEP_SUMMARY" \
        --last 20
"""

import argparse
import json
import os
import sys

#: Channels whose normalized aggregate throughput is tracked, in
#: render order.  Older history lines may carry retired channels
#: (the three engine-layer channels of schema v3-v6); rendering
#: ignores them.
CHANNELS = ("serial",)


def history_entry(report, sha=None):
    """One history line for ``report`` (a bench_kernel report dict)."""
    index = report["machine_index"]
    entry = {
        "sha": (sha or "")[:12] or None,
        "schema": report.get("schema"),
        "scale": report.get("scale"),
        "machine_index": index,
    }
    for channel in CHANNELS:
        if channel in report:
            entry[channel] = report[channel]["aggregate_ips"] / index
    if "efficiency" in report:
        entry["efficiency"] = report["efficiency"]["ratio"]
    if "estimator" in report:
        entry["estimator_mae"] = report["estimator"]["mean_mae"]
    if "fabric" in report:
        # Normalized so runner-speed drift doesn't read as a fabric
        # trend; the mode rides along because single-core ratios are
        # not comparable to multi-core ones.
        entry["fabric"] = report["fabric"]["cells_per_second"] / index
        entry["fabric_mode"] = report["fabric"].get("mode")
    return entry


def append_entry(history_path, entry):
    """Append ``entry`` as one JSONL line, creating parents as needed."""
    parent = os.path.dirname(history_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(history_path, "a") as handle:
        json.dump(entry, handle, sort_keys=True)
        handle.write("\n")


def load_history(history_path):
    """All parseable entries, oldest first; tolerant of corrupt lines."""
    if not os.path.exists(history_path):
        return []
    entries = []
    with open(history_path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except ValueError:
                continue
    return entries


def render_markdown(entries, last=20):
    """The last-``last`` runs as a Markdown trajectory table."""
    window = entries[-last:]
    lines = [
        "### Benchmark trajectory (last {} of {} runs, normalized ips)".format(
            len(window), len(entries)
        ),
        "",
        "| run | sha | "
        + " | ".join(CHANNELS)
        + " | efficiency | est. MAE | fabric |",
        "|---:|---|" + "---:|" * (len(CHANNELS) + 3),
    ]
    first_run = len(entries) - len(window) + 1
    for offset, entry in enumerate(window):
        cells = []
        for channel in CHANNELS:
            value = entry.get(channel)
            cells.append("{:.6f}".format(value) if value is not None else "—")
        ratio = entry.get("efficiency")
        cells.append("{:.2f}x".format(ratio) if ratio is not None else "—")
        mae = entry.get("estimator_mae")
        cells.append("{:.1f}".format(mae) if mae is not None else "—")
        fabric = entry.get("fabric")
        cells.append(
            "{:.6f} ({})".format(fabric, entry.get("fabric_mode") or "?")
            if fabric is not None
            else "—"
        )
        lines.append(
            "| {} | {} | {} |".format(
                first_run + offset, entry.get("sha") or "—", " | ".join(cells)
            )
        )
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True, help="a bench_kernel report JSON")
    parser.add_argument(
        "--history", required=True, help="the JSONL history file to append to"
    )
    parser.add_argument("--sha", default=os.environ.get("GITHUB_SHA"))
    parser.add_argument(
        "--summary-md",
        help="append the trajectory table here (CI: $GITHUB_STEP_SUMMARY)",
    )
    parser.add_argument(
        "--last", type=int, default=20, help="runs to render (default 20)"
    )
    arguments = parser.parse_args(argv)

    with open(arguments.report) as handle:
        report = json.load(handle)
    append_entry(arguments.history, history_entry(report, arguments.sha))
    entries = load_history(arguments.history)
    rendered = render_markdown(entries, arguments.last)
    print(rendered, end="")
    if arguments.summary_md:
        with open(arguments.summary_md, "a") as handle:
            handle.write(rendered)
    print("history: {} runs in {}".format(len(entries), arguments.history))
    return 0


if __name__ == "__main__":
    sys.exit(main())
