"""Fleet integration: routing, forwarding, failover, handoff, identity.

Two shards on localhost TCP are enough to exercise every fleet
mechanism; the load harness covers scale.  The differential test is the
acceptance gate: a fleet must return byte-identical results (flags
sha256) to a single-node AF_UNIX daemon for the same trace digests.
That both return the in-process reference's flags under every engine
is checked by ``tests/conformance/test_surfaces.py``.
"""

import itertools

import pytest

from repro.service.cache import cache_key
from repro.service.client import ServiceClient
from repro.service.fleet.router import FleetClient

TOKEN = "test-fleet-secret"


def _fleet_client(supervisor):
    return FleetClient(supervisor.config, auth_token=TOKEN)


def test_routed_submit_lands_on_the_owner(fleet_factory, fuzz_trace_path):
    supervisor = fleet_factory(n_shards=2)
    fc = _fleet_client(supervisor)
    response = fc.submit_trace(fuzz_trace_path, wait=True)
    assert response["outcome"] == "ok"
    owner = fc.owner_for(fc.trace_digest(fuzz_trace_path))
    assert response["shard"] == owner
    assert "forwarded_by" not in response  # client-side routing: no hop
    # A repeat is a warm hit on the same shard.
    warm = fc.submit_trace(fuzz_trace_path, wait=True)
    assert warm["outcome"].startswith("cache-")
    assert warm["shard"] == owner


def test_misrouted_submit_is_forwarded_to_the_owner(fleet_factory, fuzz_trace_path):
    supervisor = fleet_factory(n_shards=2)
    fc = _fleet_client(supervisor)
    digest = fc.trace_digest(fuzz_trace_path)
    owner = fc.owner_for(digest)
    wrong = next(s for s in supervisor.config.shards if s.id != owner)

    # Talk to the wrong shard directly: upload there, submit there.
    client = ServiceClient(wrong.endpoint, auth_token=TOKEN)
    client.upload_trace(fuzz_trace_path)
    response = client.submit({"trace_ref": digest}, wait=True)
    assert response["outcome"] == "ok"
    assert response["shard"] == owner  # executed on the owner...
    assert response["forwarded_by"] == wrong.id  # ...via one proxy hop
    # The forwarding shipped the trace bytes server-to-server.
    owner_server = supervisor.server(owner)
    assert owner_server.uploads.has(digest)
    # And the owner now holds the warm entry where routed clients look.
    warm = fc.submit_trace(fuzz_trace_path, wait=True)
    assert warm["outcome"].startswith("cache-")


def test_fleet_results_byte_identical_to_single_node(
    fleet_factory, service_factory, fuzz_trace_path, frame_trace_path
):
    """The acceptance differential: same digests, same flags, any topology."""
    single_server = service_factory()
    single = ServiceClient(single_server.socket_path)
    supervisor = fleet_factory(n_shards=2)
    fc = _fleet_client(supervisor)

    jobs = [
        (fuzz_trace_path, "pixels", None),
        (fuzz_trace_path, "syscalls", None),
        (fuzz_trace_path, "pixels+syscalls", None),
        (frame_trace_path, "pixels", None),
        (frame_trace_path, "pixels", 0),
        (frame_trace_path, "pixels", 2),
    ]
    for path, criteria, frame in jobs:
        spec = {"trace_path": str(path), "criteria": criteria}
        if frame is not None:
            spec["frame"] = frame
        reference = single.submit(spec, wait=True)
        fleet = fc.submit_trace(path, criteria=criteria, frame=frame, wait=True)
        assert reference["outcome"] in ("ok", "cache-memory", "cache-disk")
        assert fleet["outcome"] in ("ok", "cache-memory", "cache-disk")
        assert (
            fleet["result"]["flags_sha256"] == reference["result"]["flags_sha256"]
        ), f"fleet diverged from single node on {criteria}/frame={frame}"
        assert fleet["result"]["trace_digest"] == reference["result"]["trace_digest"]
        assert fleet["result"]["slice_size"] == reference["result"]["slice_size"]


def test_shard_death_fails_over_along_the_ring(fleet_factory, fuzz_trace_path):
    supervisor = fleet_factory(n_shards=3)
    fc = _fleet_client(supervisor)
    digest = fc.trace_digest(fuzz_trace_path)
    owner = fc.owner_for(digest)

    supervisor.kill(owner)

    # The client walks the preference order past the dead owner; the
    # job completes on the next shard with an identical result.
    response = fc.submit_trace(fuzz_trace_path, wait=True)
    assert response["outcome"] == "ok"
    successor = fc.ring.preference(fc.key_for(digest))[1]
    assert response["shard"] == successor
    # Repeats stay warm on the successor.
    warm = fc.submit_trace(fuzz_trace_path, wait=True)
    assert warm["outcome"].startswith("cache-")
    assert warm["shard"] == successor


def test_server_side_failover_when_owner_dies(fleet_factory, fuzz_trace_path):
    """A misrouted submit whose owner is dead executes locally."""
    supervisor = fleet_factory(n_shards=2)
    fc = _fleet_client(supervisor)
    digest = fc.trace_digest(fuzz_trace_path)
    owner = fc.owner_for(digest)
    other = next(s for s in supervisor.config.shards if s.id != owner)

    client = ServiceClient(other.endpoint, auth_token=TOKEN)
    client.upload_trace(fuzz_trace_path)
    supervisor.kill(owner)

    response = client.submit({"trace_ref": digest}, wait=True)
    assert response["outcome"] == "ok"
    assert response["shard"] == other.id  # served locally, no hang
    assert supervisor.server(other.id).metrics.counter("forward_failovers") == 1


def test_drain_hands_warm_state_to_ring_successors(fleet_factory, frame_trace_path):
    supervisor = fleet_factory(n_shards=2)
    fc = _fleet_client(supervisor)
    digest = fc.trace_digest(frame_trace_path)
    owner = fc.owner_for(digest)
    survivor = next(s.id for s in supervisor.config.shards if s.id != owner)

    cold = fc.submit_trace(frame_trace_path, wait=True)
    assert cold["outcome"] == "ok"
    # Warm an incremental checkpoint on the owner too.
    ckpt_owner = fc.owner_for(digest, engine="incremental", frame=1)
    fc.submit_trace(frame_trace_path, engine="incremental", frame=1, wait=True)

    drained = fc.drain(owner)
    assert drained["draining"] is True
    assert drained["handed_off"] >= 1
    assert drained.get("handoff_failed", 0) == 0

    # The survivor now answers the same question from cache — the warm
    # replica moved with the departing shard's keys.
    survivor_client = ServiceClient(
        supervisor.config.shard(survivor).endpoint, auth_token=TOKEN
    )
    key = fc.key_for(digest)
    found = supervisor.server(survivor).cache.lookup(key)
    assert found is not None
    payload, _tier = found
    assert payload["flags_sha256"] == cold["result"]["flags_sha256"]
    if ckpt_owner == owner:
        # The checkpoint shipped too (when the drained shard held it).
        received = supervisor.server(survivor).metrics.counter("handoff_received")
        assert received >= 1
    assert survivor_client.ping()  # survivor unaffected


def test_locally_computed_results_replicate_to_their_owner(fleet_factory):
    """Workload jobs (digest unknown at submit) replicate post-hoc.

    Whether a job's routing pseudo-key and its digest key land on
    different shards is down to hashing, and the digest key hashes the
    analyzer's sources too, so pick a question for which they differ.
    """
    from repro.harness.experiments import run_engine
    from repro.trace.store import trace_digest
    from repro.workloads import benchmark

    supervisor = fleet_factory(n_shards=2)
    fc = _fleet_client(supervisor)
    digest = trace_digest(
        run_engine(benchmark("wiki_article"), metrics_ticks=2).trace_store()
    )
    questions = itertools.product(
        ("pixels", "syscalls", "pixels+syscalls"), ("auto", "sequential", "vectorized")
    )
    for criteria, engine in questions:
        key = cache_key(digest, criteria, engine, None)
        routed_to = fc.ring.owner(f"workload:wiki_article:{criteria}:{engine}:None")
        if fc.ring.owner(key) != routed_to:
            break
    else:
        pytest.skip("every question routes to its digest key's owner")
    response = fc.submit_workload(
        "wiki_article", criteria=criteria, engine=engine, wait=True
    )
    assert response["outcome"] == "ok"
    assert response["result"]["trace_digest"] == digest
    ran_on = response["shard"]
    assert ran_on == routed_to
    owner = fc.ring.owner(key)
    found = supervisor.server(owner).cache.lookup(key)
    assert found is not None  # replica arrived at the digest-keyed owner
    assert supervisor.server(ran_on).metrics.counter("replicated") == 1


def test_fleet_stats_are_labelled_and_merge(fleet_factory, fuzz_trace_path):
    supervisor = fleet_factory(n_shards=2)
    fc = _fleet_client(supervisor)
    fc.submit_trace(fuzz_trace_path, wait=True)
    fc.submit_trace(fuzz_trace_path, wait=True)

    view = fc.stats()
    assert sorted(view["shards"]) == ["shard-0", "shard-1"]
    assert view["unreachable"] == []
    for shard_id, snapshot in view["shards"].items():
        assert snapshot["labels"] == {"shard": shard_id}
        assert snapshot["shard"] == shard_id
        assert snapshot["fleet"]["shards"] == ["shard-0", "shard-1"]
    merged = view["fleet"]
    assert merged["shards_merged"] == 2
    assert merged["counters"]["submits"] == 2
    total_outcomes = sum(merged["outcomes"].values())
    assert total_outcomes == 2  # one ok + one cache hit, summed across shards
    assert {"shard": "shard-0"} in merged["shards"]


def test_ring_op_exposes_the_topology(fleet_factory):
    supervisor = fleet_factory(n_shards=2)
    client = ServiceClient(supervisor.config.shards[0].endpoint, auth_token=TOKEN)
    response = client.ring()
    assert response["shard"] == "shard-0"
    assert [s["id"] for s in response["fleet"]["shards"]] == [
        "shard-0",
        "shard-1",
    ]
    # A client can reconstruct the identical ring from the wire form.
    from repro.service.fleet.ring import FleetConfig

    clone = FleetConfig.from_dict(response["fleet"])
    assert clone == supervisor.config


def test_stats_merge_handles_dead_shards(fleet_factory, fuzz_trace_path):
    supervisor = fleet_factory(n_shards=2)
    fc = _fleet_client(supervisor)
    fc.submit_trace(fuzz_trace_path, wait=True)
    supervisor.kill("shard-1")
    view = fc.stats()
    assert view["unreachable"] == ["shard-1"]
    assert view["fleet"]["shards_merged"] == 1
