"""Reference outputs the benchmark checks every run against.

The references are recorded from the serial
:class:`~repro.experiments.runner.ExperimentRunner` with no cache: one
process, one cell at a time, nothing shared with the dispatch paths
the benchmark times.  Regenerate them (about two minutes) only when a
change is *meant* to alter simulated results, and say so in the
change::

    PYTHONPATH=src python3 -m perfbench.reference

Files:

* ``reference/fig9.json`` — the Figure 9 grid at :data:`FIG9_SCALE`:
  the SHA-256 of the rendered table and one stats digest per cell.
* ``reference/synth.txt`` — every synth catalog scenario at
  :data:`SYNTH_SCALE` under :data:`SYNTH_SPECS`: per spec, the
  simulated cycles and the stats digest.  The cycles let the benchmark
  rebuild the expected coverage map of any seeded sample.
"""

import functools
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
FIG9_PATH = os.path.join(REFERENCE_DIR, "fig9.json")
SYNTH_PATH = os.path.join(REFERENCE_DIR, "synth.txt")

#: Workload scale of the fig9-cold grid.
FIG9_SCALE = 0.5
#: Workload scale of the synth-sweep (the ``synth`` CLI default).
SYNTH_SCALE = 1.0
#: The synth sweep's specs: the CLI defaults plus the superscalar
#: baseline ``synth_sweep.sweep`` always adds, baseline first.
SYNTH_SPECS = ("superscalar", "postdoms", "loop+procFT+loopFT")
#: Hex digits kept of each per-cell stats digest.
DIGEST_CHARS = 16


def stats_digest(stats):
    """Digest of one ``SimStats`` in its canonical wire form."""
    from repro.service import canonical_json, encode_stats

    return hashlib.sha256(canonical_json(encode_stats(stats))).hexdigest()[
        :DIGEST_CHARS
    ]


def text_digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fig9_cells():
    """``(workload, spec)`` of every Figure 9 cell, baseline included."""
    from repro.experiments.figures import FIGURE9_SPECS
    from repro.workloads import WORKLOAD_NAMES

    return [
        (name, spec)
        for name in WORKLOAD_NAMES
        for spec in ("superscalar",) + tuple(FIGURE9_SPECS)
    ]


def cell_key(name, spec):
    return "{}|{}".format(name, spec)


@functools.lru_cache(maxsize=1)
def load_fig9():
    with open(FIG9_PATH) as handle:
        return json.load(handle)


@functools.lru_cache(maxsize=1)
def load_synth():
    """``{scenario name: ((cycles, digest) per SYNTH_SPECS)}``."""
    table = {}
    with open(SYNTH_PATH) as handle:
        for line in handle:
            if line.startswith("#") or not line.strip():
                continue
            fields = line.split()
            cells = tuple(
                (int(cycles), digest)
                for cycles, digest in (field.split(":") for field in fields[1:])
            )
            table["synth/" + fields[0]] = cells
    return table


def expected_digests(fig9):
    """``{(workload, spec): stats digest}`` of the fig9 or synth reference."""
    if fig9:
        return {
            tuple(key.split("|")): digest
            for key, digest in load_fig9()["cells"].items()
        }
    return {
        (name, spec): entry[1]
        for name, entries in load_synth().items()
        for spec, entry in zip(SYNTH_SPECS, entries)
    }


def _write_fig9():
    from repro.experiments import figures
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(scale=FIG9_SCALE)
    cells = {
        cell_key(name, spec): stats_digest(runner.run_policy(name, spec))
        for name, spec in fig9_cells()
    }
    table = figures.figure9(runner).render()
    payload = {
        "scale": FIG9_SCALE,
        "source": "serial ExperimentRunner, no cache",
        "table_sha256": text_digest(table),
        "cells": cells,
    }
    with open(FIG9_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _write_synth():
    from repro.experiments.runner import ExperimentRunner
    from repro.workloads.synth import catalog_names

    runner = ExperimentRunner(scale=SYNTH_SCALE)
    with open(SYNTH_PATH, "w") as handle:
        handle.write(
            "# synth catalog at scale {} (serial ExperimentRunner, no cache)\n"
            "# scenario then cycles:stats-digest per spec: {}\n".format(
                SYNTH_SCALE, " ".join(SYNTH_SPECS)
            )
        )
        for name in catalog_names():
            fields = [name[len("synth/"):]]
            for spec in SYNTH_SPECS:
                stats = runner.run_policy(name, spec)
                fields.append("{}:{}".format(stats.cycles, stats_digest(stats)))
            handle.write(" ".join(fields) + "\n")


def main():
    _write_fig9()
    _write_synth()
    return 0


if __name__ == "__main__":
    sys.exit(main())
