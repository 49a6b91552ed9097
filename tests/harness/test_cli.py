"""Tests for the harness CLI entry point."""

import pytest

from repro.harness.__main__ import _TARGETS, main


def test_usage_on_no_args(capsys):
    assert main([]) == 2
    assert "Usage" in capsys.readouterr().out


def test_usage_on_unknown_target(capsys):
    assert main(["nope"]) == 2


def test_targets_cover_every_artifact():
    assert set(_TARGETS) == {
        "table1", "table2", "fig2", "fig4", "fig5", "bing-partial", "static",
        "tsan", "frames", "service", "optimize", "all",
    }


@pytest.mark.parametrize("target", _TARGETS)
def test_unknown_workload_name_exits_2_on_every_subcommand(target, capsys):
    """The exit code and message are uniform across all subcommands."""
    assert main([target, "no_such_workload"]) == 2
    err = capsys.readouterr().err
    assert "unknown workload(s): no_such_workload" in err
    assert "available" in err


def test_extra_args_rejected_for_table_targets(capsys):
    assert main(["table2", "amazon_desktop"]) == 2
    err = capsys.readouterr().err
    assert "takes no workload arguments" in err


def test_service_rejects_unknown_options(capsys):
    assert main(["service", "--banana=1"]) == 2
    assert "unknown option(s): banana" in capsys.readouterr().err
    assert main(["service", "--rounds=zero"]) == 2
    assert "--rounds expects a positive integer" in capsys.readouterr().err
    assert main(["frames", "--golden=x"]) == 2
    assert "takes no options" in capsys.readouterr().err
    assert main(["frames", "--engine=incremental"]) == 2
    assert "takes no options" in capsys.readouterr().err
    assert main(["table2", "--engine=sequential"]) == 2
    assert "takes no options" in capsys.readouterr().err


def test_service_target_smoke(capsys):
    """The service smoke target end-to-end on one real workload."""
    assert main(["service", "wiki_article"]) == 0
    out = capsys.readouterr().out
    assert "Profiling-service smoke" in out
    assert "cache-memory" in out
    assert "hit rate 100%" in out


def test_frames_target_runs(capsys):
    assert main(["frames", "ticker"]) == 0
    out = capsys.readouterr().out
    assert "Cross-frame redundancy" in out
    assert "steady-state" in out


@pytest.mark.parametrize("command", ["run", "plan"])
def test_optimize_cli_unknown_workload_exits_2(command, capsys):
    """repro.optimize subcommands share the uniform exit-2 contract."""
    from repro.optimize.__main__ import main as optimize_main

    assert optimize_main([command, "no_such_workload"]) == 2
    err = capsys.readouterr().err
    assert "unknown workload(s): no_such_workload" in err
    assert "available" in err


def test_optimize_cli_usage_on_bad_args(capsys):
    from repro.optimize.__main__ import main as optimize_main

    assert optimize_main([]) == 2
    assert "Usage" in capsys.readouterr().out
    assert optimize_main(["run"]) == 2
    assert optimize_main(["nope", "wiki_article"]) == 2


def test_optimize_plan_json_is_machine_readable(capsys):
    import json

    from repro.optimize.__main__ import main as optimize_main

    assert optimize_main(["plan", "--json", "wiki_article"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["benchmark"] for p in payload] == ["wiki_article"]
    plan = payload[0]
    assert set(plan) == {"benchmark", "applied", "refused", "summary"}
    for rewrite in plan["applied"] + plan["refused"]:
        assert set(rewrite) == {
            "pass", "script", "target", "span", "category", "obligation",
            "evidence",
        }
    # The refusal list is the diffable artifact: sorted deterministically.
    keys = [(r["pass"], r["script"], tuple(r["span"])) for r in plan["refused"]]
    assert keys == sorted(keys)
    assert plan["summary"]["applied"] == len(plan["applied"])
    assert plan["summary"]["refused"] == len(plan["refused"])


def test_optimize_run_rejects_json(capsys):
    from repro.optimize.__main__ import main as optimize_main

    assert optimize_main(["run", "--json", "wiki_article"]) == 2


@pytest.mark.parametrize("command", ["report", "analyze", "callgraph"])
def test_jsstatic_cli_unknown_workload_exits_2(command, capsys):
    """repro.jsstatic subcommands share the uniform exit-2 contract."""
    from repro.jsstatic.__main__ import main as jsstatic_main

    assert jsstatic_main([command, "no_such_workload"]) == 2
    err = capsys.readouterr().err
    assert "unknown workload(s): no_such_workload" in err
    assert "available" in err


def test_jsstatic_callgraph_dumps_edges_with_provenance(capsys):
    from repro.jsstatic.__main__ import main as jsstatic_main

    assert jsstatic_main(["callgraph", "wiki_article"]) == 0
    out = capsys.readouterr().out
    assert "callgraph wiki_article" in out
    assert "--" in out and "-->" in out
    assert "call sites:" in out
    assert "resolved" in out


def test_jsstatic_callgraph_json_shape(capsys):
    import json

    from repro.jsstatic.__main__ import main as jsstatic_main

    assert jsstatic_main(["callgraph", "--json", "wiki_article"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["benchmark"] for p in payload] == ["wiki_article"]
    graph = payload[0]
    assert graph["valueflow"]["ok"] is True
    assert graph["liveness"] == "value-flow resolved"
    kinds = {e["kind"] for e in graph["edges"]}
    assert "vflow" in kinds
    for edge in graph["edges"]:
        assert {"region", "kind", "target"} <= set(edge)
        if edge["kind"] == "vflow":
            assert edge["provenance"]
    for site in graph["call_sites"]:
        assert site["status"] in ("resolved", "fallback")
        assert {"script", "region", "span", "callee", "kind", "targets",
                "chains"} <= set(site)


def test_trace_collect_unknown_workload_exits_nonzero(tmp_path, capsys):
    from repro.trace.__main__ import main as trace_main

    assert trace_main(["collect", "no_such_workload", str(tmp_path / "x.ucwa")]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


@pytest.mark.slow
def test_bing_partial_target_runs(capsys):
    # The cheapest full-pipeline target (one benchmark, cached thereafter).
    assert main(["bing-partial"]) == 0
    out = capsys.readouterr().out
    assert "partial-slice" in out
