"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload trial_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics (and writes the spans under
``perfbench/_runs/``).  Without ``--workload`` every workload runs in
turn, each in its own child process.  The last line of the output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when the outputs were correct, 1 when
the output oracle rejected one, and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / "perfbench" / "_runs"


def bootstrap() -> None:
    """Make ``repro``, ``perfbench`` and the sweep helpers importable."""
    for path in (ROOT / "benchmarks", ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    # End-to-end runs time the program with its own telemetry off.
    os.environ.pop("REPRO_TELEMETRY", None)


def load_spec() -> dict:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as fh:
        return json.load(fh)


def _result_line(spec: dict, report) -> str:
    declared = spec["per_layer"] if report.traced else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in report.metrics]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": float(report.metrics[m["name"]]), "unit": m["unit"]}
               for m in declared}
    return json.dumps({"correct": True, "attempted": report.attempted,
                       "failed": 0, "metrics": metrics})


def _print_table(spec: dict, report) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in sorted(report.metrics.items()):
        print(f"  {name:<48} {value:>14.6g} {units.get(name, '')}")
    for name, value in sorted(report.details.items()):
        print(f"  {name:<48} {value}")


def run_one(args: argparse.Namespace, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r} (known: {', '.join(names)})", file=sys.stderr)
        return 2
    start = perf_counter()
    import numpy

    from perfbench import workloads
    from repro.telemetry.events import run_metadata

    import_s = perf_counter() - start
    spans = RUNS / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    try:
        report = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            workdir=RUNS, import_s=import_s, spans_out=spans,
        )
    except workloads.OracleError as exc:
        print(f"ORACLE VIOLATION: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    report.provenance.update({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": run_metadata().get("git_rev", "") or "unknown",
    })
    if not report.provenance["comparable"]:
        print("WARNING: fault_campaign ran on one effective process; its serve and "
              "throughput figures are not comparable with a pooled run", file=sys.stderr)
    print("provenance: " + json.dumps(report.provenance, sort_keys=True))
    _print_table(spec, report)
    if spans is not None:
        print(f"spans: {spans.relative_to(ROOT)}")
    print(_result_line(spec, report))
    return 0


def run_all(args: argparse.Namespace, spec: dict) -> int:
    status = 0
    for workload in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", workload["name"], "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-phase length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "benchmarks" / "sweeps.py").is_file():
        print(f"perfbench: no program to benchmark under {ROOT}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    bootstrap()
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
