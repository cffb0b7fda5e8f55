#!/usr/bin/env python3
"""Perf-regression gate: run the hot-path benches, record the trajectory.

Runs ``bench_e11_micro`` (column-kernel and unfused synapse probe
micro-benches, google-benchmark), ``bench_e2_throughput_sst``
(whole-detector throughput vs SST size) and ``spot_loadgen
--spawn-server`` (end-to-end pts/s + latency through the network ingest
layer, real loopback sockets) with ``--json``, normalizes everything into
one spot-bench-v1 document, and compares the column-kernel pts/s counters
against the latest checked-in ``BENCH_*.json``: a drop of more than
``--threshold`` (default 15%) on any column-kernel row fails the run.

Only the column-kernel table gates — it times
``SynapseShard::ProcessColumn``, the probe loop every detection runs, and
is the purpose-built hot-path counter with the least noise. The E2
whole-detector and loadgen end-to-end tables ride along in the document
for trend reading but never fail the job.

Usage:
    tools/bench_regression.py --build-dir build --out BENCH_pr5.json
    tools/bench_regression.py --validate BENCH_pr4.json

Exit codes: 0 ok, 1 regression detected, 2 usage/environment error.
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import tempfile

SCHEMA = "spot-bench-v1"
GATE_TABLE = "E11: column kernel SynapseShard::ProcessColumn (hot-path gate)"
UNFUSED_TABLE = "E11: unfused synapse Add+Query (context)"
GATE_COLUMN = "pts/s"


def fail(msg: str, code: int = 2) -> "NoReturn":  # noqa: F821
    print(f"bench_regression: {msg}", file=sys.stderr)
    sys.exit(code)


def run_e11(build_dir: str) -> list:
    """Runs the synapse micro-benches; returns the two normalized tables."""
    binary = os.path.join(build_dir, "bench", "bench_e11_micro")
    if not os.path.exists(binary):
        fail(f"{binary} not found (build with SPOT_BUILD_BENCH=ON and "
             "google-benchmark installed)")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        raw_path = tmp.name
    try:
        subprocess.run(
            [binary, "--benchmark_filter=BM_Synapse", f"--json={raw_path}"],
            check=True, stdout=subprocess.DEVNULL)
        with open(raw_path) as f:
            raw = json.load(f)
    finally:
        os.unlink(raw_path)

    tables = {GATE_TABLE: [], UNFUSED_TABLE: []}
    for bench in raw.get("benchmarks", []):
        name = bench.get("name", "")
        match = re.fullmatch(
            r"BM_Synapse(ShardProcessColumn|UnfusedAddThenQuery)/(\d+)",
            name)
        if not match:
            continue
        title = (GATE_TABLE if match.group(1) == "ShardProcessColumn"
                 else UNFUSED_TABLE)
        tables[title].append([
            match.group(2),                                   # SST size
            str(int(round(bench["items_per_second"]))),       # pts/s
            f"{bench.get('probes/pt', 0):.0f}",
        ])
    for title, rows in tables.items():
        if not rows:
            fail(f"no rows extracted for {title!r} — bench output changed?")
        rows.sort(key=lambda r: int(r[0]))
    return [
        {"title": title,
         "headers": ["SST size", GATE_COLUMN, "probes/pt"],
         "rows": rows}
        for title, rows in tables.items()
    ]


def run_e2(build_dir: str) -> list:
    """Runs the E2 throughput sweep; returns its tables verbatim."""
    binary = os.path.join(build_dir, "bench", "bench_e2_throughput_sst")
    if not os.path.exists(binary):
        fail(f"{binary} not found (build with SPOT_BUILD_BENCH=ON)")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        raw_path = tmp.name
    try:
        subprocess.run([binary, f"--json={raw_path}"], check=True,
                       stdout=subprocess.DEVNULL)
        with open(raw_path) as f:
            raw = json.load(f)
    finally:
        os.unlink(raw_path)
    if raw.get("schema") != SCHEMA:
        fail(f"{binary} emitted schema {raw.get('schema')!r}, "
             f"expected {SCHEMA!r}")
    return raw["tables"]


def run_loadgen(build_dir: str) -> list:
    """Runs the network loadgen against in-process servers it spawns.

    The end-to-end serving-boundary metric: pts/s and flush round-trip
    latency percentiles through real loopback sockets, with --verify
    asserting the wire verdicts are byte-identical to an in-process
    reference. Three passes — a single reactor, a two-reactor server,
    and a two-reactor feedback-heavy mix (supervised kFeedback rounds +
    kQueryTopK interleaved with the ingest, still under --verify) —
    merged into one table (the "mix" and "reactors" columns tell them
    apart), so the trajectory records the serving tier at both scales
    and the cost of the wire-v3 request plane. Context only — it never
    gates.

    The spawned servers always profile their pipeline stages; the scraped
    CPU ns per point of the process stage (``cpu_ns/pt``) comes back in
    the loadgen document's ``counters`` block (merged into the trajectory
    document). Profiling runs under --verify here, so this doubles as a
    regression check that it never perturbs verdict bytes.
    """
    binary = os.path.join(build_dir, "tools", "spot_loadgen")
    if not os.path.exists(binary):
        fail(f"{binary} not found (build with SPOT_BUILD_TOOLS=ON)")
    merged = None
    counters = {}
    for reactors, mix in (("1", "alarm-heavy"), ("2", "alarm-heavy"),
                          ("2", "feedback-heavy")):
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
            raw_path = tmp.name
        try:
            subprocess.run(
                [binary, "--spawn-server", "--connections", "2",
                 "--points", "6000", "--batch", "200", "--dims", "8",
                 "--reactors", reactors, "--mix", mix, "--verify",
                 f"--json={raw_path}"],
                check=True, stdout=subprocess.DEVNULL)
            with open(raw_path) as f:
                raw = json.load(f)
        finally:
            os.unlink(raw_path)
        if raw.get("schema") != SCHEMA:
            fail(f"{binary} emitted schema {raw.get('schema')!r}, "
                 f"expected {SCHEMA!r}")
        counters.update(raw.get("counters", {}))
        if merged is None:
            merged = raw["tables"]
        else:
            for into, more in zip(merged, raw["tables"]):
                into["rows"].extend(more["rows"])
    return merged, counters


def validate(path: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    if not isinstance(doc.get("tables"), list) or not doc["tables"]:
        fail(f"{path}: no tables")
    for table in doc["tables"]:
        for key in ("title", "headers", "rows"):
            if key not in table:
                fail(f"{path}: table missing {key!r}")
    return doc


def find_baseline(baseline_dir: str, out_path: str) -> "str | None":
    """Latest checked-in BENCH_*.json other than the file being written."""
    out_abs = os.path.abspath(out_path) if out_path else None
    candidates = []
    for path in glob.glob(os.path.join(baseline_dir, "BENCH_*.json")):
        if out_abs and os.path.abspath(path) == out_abs:
            continue
        match = re.search(r"BENCH_pr(\d+)\.json$", path)
        order = int(match.group(1)) if match else -1
        candidates.append((order, path))
    if not candidates:
        return None
    return max(candidates)[1]


def gate_rows(doc: dict) -> dict:
    """{(row key): pts/s} for every column-kernel row of the document."""
    rows = {}
    for table in doc.get("tables", []):
        if table["title"] != GATE_TABLE:
            continue
        if GATE_COLUMN not in table["headers"]:
            continue
        col = table["headers"].index(GATE_COLUMN)
        for row in table["rows"]:
            rows[row[0]] = float(row[col])
    return rows


def check(current: dict, baseline: dict, baseline_name: str,
          threshold: float) -> bool:
    base_rows = gate_rows(baseline)
    cur_rows = gate_rows(current)
    if not base_rows:
        print(f"baseline {baseline_name} has no column-kernel table; "
              "nothing to gate against")
        return True
    ok = True
    for key, base in sorted(base_rows.items(), key=lambda kv: int(kv[0])):
        cur = cur_rows.get(key)
        if cur is None:
            print(f"  SST={key}: missing from current run — FAIL")
            ok = False
            continue
        delta = (cur - base) / base
        verdict = "ok"
        if cur < base * (1.0 - threshold):
            verdict = f"FAIL (allowed -{threshold:.0%})"
            ok = False
        print(f"  SST={key}: {base:.0f} -> {cur:.0f} pts/s "
              f"({delta:+.1%}) {verdict}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default="",
                        help="write the normalized spot-bench-v1 document "
                             "here (e.g. BENCH_pr5.json)")
    parser.add_argument("--baseline-dir", default=".",
                        help="directory holding checked-in BENCH_*.json")
    parser.add_argument("--threshold", type=float,
                        default=float(os.environ.get(
                            "BENCH_REGRESSION_THRESHOLD", "0.15")),
                        help="max allowed fractional pts/s drop "
                             "(default 0.15)")
    parser.add_argument("--validate", metavar="FILE",
                        help="only validate FILE against the schema and "
                             "exit")
    args = parser.parse_args()

    if args.validate:
        validate(args.validate)
        print(f"{args.validate}: valid {SCHEMA}")
        return 0

    loadgen_tables, loadgen_counters = run_loadgen(args.build_dir)
    current = {
        "schema": SCHEMA,
        "bench": "bench_regression",
        "tables": run_e11(args.build_dir) + run_e2(args.build_dir) +
                  loadgen_tables,
    }
    if loadgen_counters:
        # Per-stage CPU rates scraped from the spawned server (the
        # process stage's cpu_ns/pt). Trend data only — never gated.
        current["counters"] = loadgen_counters

    if args.out:
        with open(args.out, "w") as f:
            json.dump(current, f, indent=1)
            f.write("\n")
        print(f"wrote {args.out}")

    baseline_path = find_baseline(args.baseline_dir, args.out)
    if baseline_path is None:
        print("no checked-in BENCH_*.json baseline yet — starting the "
              "trajectory, nothing to compare")
        return 0
    print(f"comparing column-kernel pts/s against {baseline_path} "
          f"(threshold {args.threshold:.0%}):")
    if not check(current, validate(baseline_path),
                 os.path.basename(baseline_path), args.threshold):
        print("performance regression on the column-kernel hot path",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
