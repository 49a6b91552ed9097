"""Benchmark entry point.

One workload per process::

    python3 perfbench/run.py --workload site-profile --seed 1 --seconds 20 --trace 0

prints its metrics by name with their units and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A run record (seed, host, versions, sample counts, every
workload-specific number) and, for traced runs, the spans are written
under ``.perfbench_run/records``.

Every workload, untraced and then traced, each in its own process::

    python3 perfbench/run.py --all --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    __package__ = "perfbench"

from perfbench import metrics  # noqa: E402
from perfbench.common import (  # noqa: E402
    RUN_DIR,
    ProgramMissing,
    RunContext,
    environment_record,
    require_program,
)
from perfbench.spans import SpanRecorder  # noqa: E402

WORKLOADS = ("site-profile", "trace-query", "service-mix")


def _workload_module(name: str):
    from perfbench import service_mix, site_profile, trace_query

    return {
        "site-profile": site_profile,
        "trace-query": trace_query,
        "service-mix": service_mix,
    }[name]


def run_workload(ctx: RunContext) -> Dict[str, Any]:
    """Run one workload in this process; return the run record."""
    recorder = SpanRecorder()
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(ctx.workdir / "tmp")
    ctx.env()  # creates the tmp directory
    try:
        _workload_module(ctx.workload).run(ctx, recorder)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        tempfile.tempdir = None
    record: Dict[str, Any] = {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": int(ctx.trace),
        **environment_record(),
        "attempted": len(ctx.ops),
        "failed": len(ctx.failures),
        "failed_fraction": len(ctx.failures) / len(ctx.ops) if ctx.ops else 1.0,
        "failures": ctx.failures[:50],
        "setup_samples_s": ctx.setup_samples,
        "passes": ctx.passes,
        "ops": [
            [op.kind, op.cls, op.pass_index, op.traced, op.ok, op.latency_s, op.scale]
            for op in ctx.ops
        ],
        "details": ctx.details,
    }
    if ctx.trace:
        values, seconds = metrics.per_layer(ctx, recorder)
        record["metrics"] = values
        record["layer_self_s"] = seconds
        table = metrics.PER_LAYER
    else:
        values, samples = metrics.end_to_end(ctx)
        record["metrics"] = values
        record["samples"] = samples
        table = metrics.END_TO_END
    record["units"] = dict(table)
    out = RUN_DIR / "records"
    stem = f"{ctx.workload}-seed{ctx.seed}-trace{int(ctx.trace)}"
    out.mkdir(parents=True, exist_ok=True)
    with (out / f"{stem}.json").open("w") as handle:
        json.dump(record, handle, indent=1, default=str)
    if ctx.trace:
        recorder.write(out / f"{stem}-spans.json")
    record["record_path"] = str(out / f"{stem}.json")
    return record


def result_line(record: Dict[str, Any]) -> Dict[str, Any]:
    units = record["units"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }


def _print_record(record: Dict[str, Any]) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"nproc={record['nproc']} python={record['python']} "
          f"numpy={record['numpy']} sha={record['git_sha'][:12]}")
    for name, unit in record["units"].items():
        print(f"{name:32s} {record['metrics'][name]:>14.6g} {unit}")
    print(f"{'failed_fraction':32s} {record['failed_fraction']:>14.6g} ratio")
    for name, value in record.get("samples", {}).items():
        print(f"  {name}: {json.dumps(value, default=str)}")
    for name, value in sorted(record["details"].items()):
        print(f"  {name}: {json.dumps(value, default=str)}")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}")
    print(f"  record: {record['record_path']}")


def _run_all(args: argparse.Namespace) -> int:
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [
                    sys.executable,
                    str(Path(__file__).resolve()),
                    "--workload", workload,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                    *(["--quick"] if args.quick else []),
                ],
                capture_output=True,
                text=True,
                timeout=600,
            )
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                status = 1
                continue
            if not json.loads(proc.stdout.strip().splitlines()[-1])["correct"]:
                status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="reduced sites, for the self-test"
    )
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("one of --workload or --all is required")
    try:
        require_program()
    except ProgramMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.all:
        return _run_all(args)
    os.chdir(RUN_DIR.parent)
    ctx = RunContext(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        quick=args.quick,
        workdir=RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}",
    )
    record = run_workload(ctx)
    _print_record(record)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
