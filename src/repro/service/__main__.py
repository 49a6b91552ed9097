"""Profiling-service CLI: run the daemon or talk to one.

Usage::

    python -m repro.service serve --socket=/tmp/repro.sock --cache-dir=/tmp/repro-cache \\
        [--tcp=HOST:PORT] [--auth-token=SECRET] [--workers=2] [--queue-size=16] \\
        [--job-timeout=300] [--cache-max-bytes=N] [--cache-ttl=SECONDS]
    python -m repro.service submit --socket=/tmp/repro.sock --workload=wiki_article \\
        [--criteria=pixels] [--engine=auto] [--frame=N] [--no-wait]
    python -m repro.service submit --socket=/tmp/repro.sock --trace=/tmp/amazon.ucwa ...
    python -m repro.service submit --socket=tcp:HOST:PORT --auth-token=SECRET \\
        --upload=/tmp/amazon.ucwa [--stream] ...
    python -m repro.service submit --socket=... --trace-ref=SHA256 ...
    python -m repro.service status --socket=/tmp/repro.sock JOB_ID
    python -m repro.service stats --socket=/tmp/repro.sock
    python -m repro.service shutdown --socket=/tmp/repro.sock [--now]
    python -m repro.service loadtest [--shards=4] [--clients=64] [--jobs=2000] \\
        [--rounds=2] [--traces=4] [--p99-budget=0.5] [--warm-target=0.9] [--json]

``--socket`` accepts a Unix path, ``unix:PATH``, or ``tcp:HOST:PORT``
(TCP servers with a shared secret also need ``--auth-token``).
``submit`` waits for the result by default and prints a one-line summary
plus the cache disposition and the engine that ran: ``--engine``
defaults to ``auto`` (``vectorized`` on a UCWA3 trace carrying its
stored slice index, ``sequential`` otherwise; ``incremental`` must be
asked for).  ``--no-wait`` returns the job id immediately
(poll with ``status``).  ``--upload`` streams a local trace file to the
server in bounded chunks and submits it by content address; with
``--stream`` (incremental engine) every frame is sliced as its epoch
arrives and the per-frame results print instead.  ``loadtest`` boots an
ephemeral localhost fleet and replays a mixed cold/warm submit storm
against the documented budgets (zero drops, warm-hit rate, p99); it
exits 1 if any budget is violated.  Protocol, cache-key recipe, fleet
mode, and failure semantics are documented in
docs/profiling-service.md.  Unknown subcommands, options, and values
exit with status 2; a job that fails (timeout, crash, error) exits with
status 1.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Tuple

from .client import ServiceClient, ServiceError
from .jobs import JobSpec, SpecError

_COMMANDS = ("serve", "submit", "status", "stats", "shutdown", "loadtest")


def _parse_options(argv: List[str]) -> Optional[Tuple[Dict[str, str], List[str]]]:
    """Split ``--key=value`` / ``--flag`` options from positionals."""
    options: Dict[str, str] = {}
    positional: List[str] = []
    for arg in argv:
        if arg.startswith("--"):
            key, sep, value = arg[2:].partition("=")
            if not key:
                print(f"malformed option {arg!r}", file=sys.stderr)
                return None
            options[key] = value if sep else "true"
        else:
            positional.append(arg)
    return options, positional


def _take_int(options: Dict[str, str], key: str) -> Optional[int]:
    raw = options.pop(key, None)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise SpecError(f"--{key} expects an integer, got {raw!r}") from None


def _take_float(options: Dict[str, str], key: str) -> Optional[float]:
    raw = options.pop(key, None)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise SpecError(f"--{key} expects a number, got {raw!r}") from None


def _require_socket(options: Dict[str, str]) -> Optional[str]:
    path = options.pop("socket", None)
    if not path:
        print("--socket=ENDPOINT is required (PATH, unix:PATH, or tcp:HOST:PORT)",
              file=sys.stderr)
        return None
    return path


def _make_client(options: Dict[str, str], endpoint: str) -> Optional[ServiceClient]:
    auth_token = options.pop("auth-token", None)
    try:
        return ServiceClient(endpoint, auth_token=auth_token)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return None


def _reject_leftovers(options: Dict[str, str], positional: List[str]) -> bool:
    if options:
        print(f"unknown option(s): {', '.join(sorted(options))}", file=sys.stderr)
        return False
    if positional:
        print(f"unexpected argument(s): {', '.join(positional)}", file=sys.stderr)
        return False
    return True


def _serve(argv: List[str]) -> int:
    from .server import ProfilingServer

    parsed = _parse_options(argv)
    if parsed is None:
        return 2
    options, positional = parsed
    socket_path = options.pop("socket", None)
    tcp_raw = options.pop("tcp", None)
    auth_token = options.pop("auth-token", None)
    cache_dir = options.pop("cache-dir", None)
    if not cache_dir:
        print("--cache-dir=DIR is required", file=sys.stderr)
        return 2
    if not socket_path and not tcp_raw:
        print("--socket=PATH and/or --tcp=HOST:PORT is required", file=sys.stderr)
        return 2
    tcp_addr: Optional[Tuple[str, int]] = None
    if tcp_raw:
        host, sep, port_text = tcp_raw.rpartition(":")
        try:
            tcp_addr = (host, int(port_text))
        except ValueError:
            sep = ""
        if not sep or not host:
            print(f"--tcp expects HOST:PORT, got {tcp_raw!r}", file=sys.stderr)
            return 2
    try:
        workers = _take_int(options, "workers") or 2
        queue_size = _take_int(options, "queue-size") or 16
        timeout_s = _take_float(options, "job-timeout") or 300.0
        cache_max_bytes = _take_int(options, "cache-max-bytes")
        cache_ttl_s = _take_float(options, "cache-ttl")
    except SpecError as err:
        print(str(err), file=sys.stderr)
        return 2
    if not _reject_leftovers(options, positional):
        return 2
    server = ProfilingServer(
        socket_path,
        cache_dir,
        workers=workers,
        queue_size=queue_size,
        default_timeout_s=timeout_s,
        tcp_addr=tcp_addr,
        auth_token=auth_token,
        cache_max_bytes=cache_max_bytes,
        cache_ttl_s=cache_ttl_s,
    )
    server.start()
    listening = " and ".join(
        part
        for part in (
            socket_path,
            f"tcp:{tcp_addr[0]}:{server.tcp_port}" if tcp_addr else None,
        )
        if part
    )
    print(
        f"profiling service listening on {listening} "
        f"(workers={workers}, queue={queue_size}, cache={cache_dir})"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.close()
    print("profiling service stopped")
    return 0


def _print_result(status: Dict) -> int:
    outcome = status.get("outcome")
    if outcome in ("ok", "cache-memory", "cache-disk"):
        result = status["result"]
        via = "sliced" if outcome == "ok" else f"cache hit ({status['cache']})"
        shard = status.get("shard")
        where = f", shard={shard}" if shard else ""
        print(
            f"{status['id']}: {result['criteria']} slice "
            f"{result['fraction']:.1%} of {result['total']} records "
            f"[{via}, engine={result['engine']}{where}]"
        )
        return 0
    error = status.get("error") or {}
    print(
        f"{status.get('id', '?')}: {outcome or status.get('state')} — "
        f"{error.get('code', '?')}: {error.get('message', '')}",
        file=sys.stderr,
    )
    return 1


def _print_streamed(response: Dict) -> int:
    frames = response.get("frames") or []
    print(
        f"streamed {response.get('bytes', 0)} bytes "
        f"(digest {str(response.get('digest', ''))[:16]}…, "
        f"checkpoint {response.get('checkpoint')}), "
        f"{len(frames)} frame(s) sliced in {response.get('slice_s', 0.0):.3f}s"
    )
    for frame in frames:
        print(
            f"  frame {frame['frame_id']}: {frame['in_slice']}/{frame['n_records']} "
            f"records in slice [{frame['criteria']}]"
        )
    return 0


def _submit(argv: List[str]) -> int:
    parsed = _parse_options(argv)
    if parsed is None:
        return 2
    options, positional = parsed
    endpoint = _require_socket(options)
    if endpoint is None:
        return 2
    no_wait = options.pop("no-wait", None) is not None
    upload = options.pop("upload", None)
    stream = options.pop("stream", None) is not None
    try:
        spec = JobSpec(
            workload=options.pop("workload", None),
            trace_path=options.pop("trace", None),
            trace_ref=options.pop("trace-ref", None),
            criteria=options.pop("criteria", "pixels"),
            engine=options.pop("engine", "auto"),
            frame=_take_int(options, "frame"),
            timeout_s=_take_float(options, "timeout"),
            fault=options.pop("fault", None),
        )
        if upload is None:
            spec = spec.validate()
        else:
            # The uploaded bytes are the target; reject a second one but
            # validate everything else (engine, criteria, frame...) so
            # bad values still exit 2 before any bytes move.
            if spec.workload or spec.trace_path or spec.trace_ref:
                raise SpecError(
                    "--upload provides the analysis target; drop "
                    "--workload/--trace/--trace-ref"
                )
            placeholder = "0" * 64  # replaced by the real digest server-side
            JobSpec(**{**spec.to_dict(), "trace_ref": placeholder}).validate()
        if stream and upload is None:
            raise SpecError("--stream requires --upload=FILE")
        if stream and spec.engine != "incremental":
            raise SpecError("--stream requires --engine=incremental")
    except SpecError as err:
        print(f"invalid job spec: {err}", file=sys.stderr)
        return 2
    client = _make_client(options, endpoint)
    if client is None or not _reject_leftovers(options, positional):
        return 2
    try:
        if upload is not None:
            wire = spec.to_dict()
            for target_field in ("workload", "trace_path", "trace_ref"):
                wire.pop(target_field, None)
            response = client.upload_trace(
                upload, spec=wire, wait=not no_wait, stream=stream
            )
        else:
            response = client.submit(spec, wait=not no_wait)
    except OSError as err:
        print(f"submit failed — cannot read {upload!r}: {err}", file=sys.stderr)
        return 2
    except ServiceError as err:
        print(f"submit failed — {err}", file=sys.stderr)
        return 2 if err.code in ("invalid-spec", "unreachable") else 1
    if stream:
        return _print_streamed(response)
    if no_wait:
        print(f"{response['id']}: {response['state']}")
        return 0
    return _print_result(response)


def _status(argv: List[str]) -> int:
    parsed = _parse_options(argv)
    if parsed is None:
        return 2
    options, positional = parsed
    endpoint = _require_socket(options)
    if endpoint is None:
        return 2
    client = _make_client(options, endpoint)
    if client is None:
        return 2
    if len(positional) != 1 or options:
        print("usage: status --socket=ENDPOINT JOB_ID", file=sys.stderr)
        return 2
    try:
        status = client.status(positional[0])
    except ServiceError as err:
        print(f"status failed — {err}", file=sys.stderr)
        return 1
    if status.get("state") != "done":
        print(f"{status['id']}: {status['state']}")
        return 0
    return _print_result(status)


def _stats(argv: List[str]) -> int:
    parsed = _parse_options(argv)
    if parsed is None:
        return 2
    options, positional = parsed
    endpoint = _require_socket(options)
    if endpoint is None:
        return 2
    client = _make_client(options, endpoint)
    if client is None or not _reject_leftovers(options, positional):
        return 2
    try:
        stats = client.stats()
    except ServiceError as err:
        print(f"stats failed — {err}", file=sys.stderr)
        return 1
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def _shutdown(argv: List[str]) -> int:
    parsed = _parse_options(argv)
    if parsed is None:
        return 2
    options, positional = parsed
    endpoint = _require_socket(options)
    if endpoint is None:
        return 2
    now = options.pop("now", None) is not None
    client = _make_client(options, endpoint)
    if client is None or not _reject_leftovers(options, positional):
        return 2
    try:
        response = client.shutdown(drain=not now)
    except ServiceError as err:
        print(f"shutdown failed — {err}", file=sys.stderr)
        return 1
    print("draining" if response.get("draining") else "stopping now")
    return 0


def _loadtest(argv: List[str]) -> int:
    from .fleet.loadtest import LoadtestConfig, render_report, run_loadtest

    parsed = _parse_options(argv)
    if parsed is None:
        return 2
    options, positional = parsed
    as_json = options.pop("json", None) is not None
    defaults = LoadtestConfig()
    try:
        config = LoadtestConfig(
            shards=_take_int(options, "shards") or defaults.shards,
            clients=_take_int(options, "clients") or defaults.clients,
            jobs=_take_int(options, "jobs") or defaults.jobs,
            rounds=_take_int(options, "rounds") or defaults.rounds,
            traces=_take_int(options, "traces") or defaults.traces,
            workers=_take_int(options, "workers") or defaults.workers,
            queue_size=_take_int(options, "queue-size") or defaults.queue_size,
            seed=_take_int(options, "seed") or defaults.seed,
            records_per_frame=_take_int(options, "records-per-frame")
            or defaults.records_per_frame,
            p99_budget_s=_take_float(options, "p99-budget")
            or defaults.p99_budget_s,
            warm_hit_target=_take_float(options, "warm-target")
            or defaults.warm_hit_target,
        )
    except SpecError as err:
        print(str(err), file=sys.stderr)
        return 2
    if not _reject_leftovers(options, positional):
        return 2
    report = run_loadtest(
        config, log=None if as_json else lambda line: print(line, file=sys.stderr)
    )
    if as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_report(report))
    return 1 if report.check() else 0


def main(argv: List[str]) -> int:
    if not argv or argv[0] not in _COMMANDS:
        print(__doc__)
        return 2
    command, rest = argv[0], argv[1:]
    if command == "serve":
        return _serve(rest)
    if command == "submit":
        return _submit(rest)
    if command == "status":
        return _status(rest)
    if command == "stats":
        return _stats(rest)
    if command == "loadtest":
        return _loadtest(rest)
    return _shutdown(rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
