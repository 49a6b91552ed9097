"""CLI contract: invalid specs exit 2 *client-side*, loadtest entry point.

The invalid-spec tests point at an endpoint that does not exist — the
only way they can exit 2 with a spec message (rather than an
unreachable error) is if validation happens before any connection is
attempted, which is the satellite contract: bad ``--engine``/values
never reach a daemon, and with ``--upload`` no bytes move.
"""

import json

import pytest

from repro.service.__main__ import main

NOWHERE = "unix:/tmp/no-such-repro-daemon.sock"


@pytest.mark.parametrize(
    "bad_option",
    [
        "--engine=warp",
        "--engine=",
        "--criteria=vibes",
        "--frame=notanint",
        "--engine=parallel",
        "--timeout=soon",
    ],
)
def test_invalid_submit_values_exit_2_before_any_connection(bad_option, capsys):
    code = main(
        ["submit", f"--socket={NOWHERE}", "--workload=wiki_article", bad_option]
    )
    assert code == 2
    err = capsys.readouterr().err
    # A spec message, not a transport one: the daemon was never dialed.
    assert "unreachable" not in err
    assert "invalid job spec" in err or "expects" in err


def test_invalid_engine_with_upload_exits_2_before_bytes_move(
    fuzz_trace_path, capsys
):
    code = main(
        [
            "submit",
            f"--socket={NOWHERE}",
            f"--upload={fuzz_trace_path}",
            "--engine=warp",
        ]
    )
    assert code == 2
    assert "invalid job spec" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["submit", f"--socket={NOWHERE}"],  # no target at all
        ["submit", f"--socket={NOWHERE}", "--upload=/tmp/x", "--trace=/tmp/y"],
        ["submit", f"--socket={NOWHERE}", "--workload=wiki_article", "--stream"],
        ["submit", f"--socket={NOWHERE}", "--upload=/tmp/x", "--stream"],  # not incremental
        ["submit", f"--socket={NOWHERE}", "--workload=wiki_article", "--bogus=1"],
        ["submit", "--workload=wiki_article"],  # no endpoint
        ["serve", "--socket=/tmp/x.sock"],  # no cache dir
        ["serve", "--cache-dir=/tmp/c", "--tcp=nohostport"],
        ["serve", "--cache-dir=/tmp/c"],  # no transport
        ["status", f"--socket={NOWHERE}"],  # job id missing
        ["loadtest", "--shards=abc"],
        ["loadtest", "--surprise=1"],
        ["frobnicate"],
        [],
        ["submit", f"--socket={NOWHERE}", "--workload=wiki_article", "--slicer-workers=4"],
    ],
)
def test_malformed_invocations_exit_2(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()  # drain


def test_submit_over_tcp_with_auth(service_factory, fuzz_trace_path, capsys):
    server = service_factory(tcp_addr=("127.0.0.1", 0), auth_token="sekrit")
    code = main(
        [
            "submit",
            f"--socket=tcp:127.0.0.1:{server.tcp_port}",
            "--auth-token=sekrit",
            f"--trace={fuzz_trace_path}",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "slice" in out and "engine=sequential" in out


def test_upload_stream_prints_per_frame_lines(
    service_factory, frame_trace_path, capsys
):
    server = service_factory(tcp_addr=("127.0.0.1", 0))
    code = main(
        [
            "submit",
            f"--socket=tcp:127.0.0.1:{server.tcp_port}",
            f"--upload={frame_trace_path}",
            "--engine=incremental",
            "--stream",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "streamed" in out and "checkpoint cold" in out
    assert out.count("frame ") == 4  # one line per sliced frame


def test_unreadable_upload_file_exits_2(service_factory, capsys):
    server = service_factory(tcp_addr=("127.0.0.1", 0))
    code = main(
        [
            "submit",
            f"--socket=tcp:127.0.0.1:{server.tcp_port}",
            "--upload=/tmp/definitely-not-a-trace.ucwa",
        ]
    )
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_loadtest_reduced_run_emits_json_and_passes_budgets(capsys):
    code = main(
        [
            "loadtest",
            "--shards=1",
            "--clients=4",
            "--jobs=12",
            "--rounds=2",
            "--traces=1",
            "--records-per-frame=120",
            "--json",
        ]
    )
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 0, report.get("violations")
    assert report["violations"] == []
    assert len(report["rounds"]) == 2
    assert report["rounds"][0]["dropped"] == 0
    assert report["rounds"][1]["warm_hit_rate"] >= 0.9
