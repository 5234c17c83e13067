#!/usr/bin/env python3
"""Append one line per workload to the committed benchmark trajectory.

Reads the result file the benchmark writes for each workload,
``benchmark/out/<workload>.json``, and appends one JSON line to
``BENCH_<workload>.json`` at the repository root with:

* ``env``: the measured commit (``git_commit``), ``nproc``, and the run
  length (``seconds``, ``passes``);
* ``host.calib_ms``: the host calibration kernel's median, min and max;
* ``metrics``: the six end-to-end metrics, each as median, min and max
  over the invocation's passes.

Usage::

    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \\
        --workload sb_zipf --passes 5 --seconds 20
    python3 scripts/bench_trajectory.py sb_zipf

With no workload named, every ``benchmark/out/<workload>.json`` present is
recorded. ``--out DIR`` reads result files from another directory (a run
made in a second checkout, say); ``--commit REV`` replaces the recorded
commit when the result file's own is wrong (a run of an uncommitted tree
reports its parent); ``--label TEXT`` adds a free-form ``label`` field.
"""

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
END_TO_END = [
    "goodput_tps",
    "abort_share",
    "commit_p50_ms",
    "commit_p99_ms",
    "peak_rss_mb",
    "setup_s",
]


def spread(summary, name):
    entry = summary.get(name)
    if entry is None:
        return None
    return {k: entry[k] for k in ("median", "min", "max")}


def line_for(doc, commit, label):
    env = doc["env"]
    summary = doc["summary"]
    line = {
        "workload": doc["workload"],
        "env": {
            "git_commit": commit or env["git_commit"],
            "nproc": env["nproc"],
            "seconds": env["seconds"],
            "passes": env["passes"],
        },
        "host": {"calib_ms": spread(summary, "host.calib_ms")},
        "metrics": {name: spread(summary, name) for name in END_TO_END},
    }
    if label:
        line["label"] = label
    return line


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", help="workloads to record (default: all present)")
    parser.add_argument("--out", type=pathlib.Path, default=ROOT / "benchmark" / "out")
    parser.add_argument("--commit", help="commit to record instead of the result file's")
    parser.add_argument("--label", help="free-form label stored with the line")
    args = parser.parse_args()

    if args.workloads:
        files = [args.out / f"{w}.json" for w in args.workloads]
    else:
        files = sorted(args.out.glob("*.json"))
    if not files:
        sys.exit(f"no result files in {args.out}")
    for path in files:
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as e:
            sys.exit(f"{path}: {e}")
        line = line_for(doc, args.commit, args.label)
        target = ROOT / f"BENCH_{doc['workload']}.json"
        with target.open("a") as f:
            f.write(json.dumps(line, sort_keys=True) + "\n")
        print(f"{target.name}: {json.dumps(line['metrics']['goodput_tps'])} goodput_tps")


if __name__ == "__main__":
    main()
