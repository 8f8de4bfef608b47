"""Registry-level tests: FSM edges, quotas, namespacing, fair shares.

These exercise the control plane *below* HTTP — the same registry the
daemon serves, driven directly. The HTTP surface is covered by
``test_server.py``; the doc-sync contract by ``test_api_doc.py``.
"""

import gc
import threading
import weakref

import pytest

from repro.datastore.base import StoreError, StoreUnavailable, open_store
from repro.datastore.namespaced import (NamespacedStore,
                                        validate_namespace_segment)
from repro.datastore.netkv import NetKVStore
from repro.sched.jobspec import JobSpec, JobState
from repro.sched.shares import FairShareAdapter, StrideScheduler
from repro.service.registry import (CampaignRegistry, CampaignSpec,
                                    CampaignState, Draining,
                                    IllegalTransition, QuotaExceeded,
                                    RegistryError, ServiceConfig,
                                    StoreDegraded, UnknownCampaign,
                                    _TRANSITIONS)

TINY = {"rounds": 1}


@pytest.fixture
def registry():
    reg = CampaignRegistry(open_store("kv://1"), config=ServiceConfig(pool_workers=2))
    yield reg
    reg.shutdown()


# ---------------------------------------------------------------------------
# the FSM edge table
# ---------------------------------------------------------------------------

class TestLifecycleFSM:
    def test_terminal_states_have_no_outgoing_edges(self):
        for state in CampaignState:
            if state.is_terminal:
                assert _TRANSITIONS[state] == set()
            else:
                assert _TRANSITIONS[state], f"{state} is a dead end"

    def test_every_state_can_reach_a_terminal(self):
        # BFS over the edge table: no live state may be inescapable.
        for start in CampaignState:
            seen, frontier = {start}, [start]
            while frontier:
                seen.update(nxt := set().union(
                    *(_TRANSITIONS[s] for s in frontier)) - seen)
                frontier = list(nxt)
            assert any(s.is_terminal for s in seen), f"{start} traps campaigns"

    def test_pause_resume_cancel_through_registry(self, registry):
        handle = registry.submit({"tenant": "alice", "rounds": 5000})
        # Submission starts the control thread; wait for RUNNING.
        deadline = threading.Event()
        for _ in range(200):
            if handle.state is CampaignState.RUNNING:
                break
            deadline.wait(0.01)
        handle.request("pause")
        assert handle.state is CampaignState.PAUSED
        with pytest.raises(IllegalTransition):
            handle.request("pause")  # already paused
        handle.request("resume")
        assert handle.state is CampaignState.RUNNING
        with pytest.raises(IllegalTransition):
            handle.request("resume")  # not paused
        handle.request("cancel")
        assert handle.wait(timeout=30.0) is CampaignState.CANCELLED

    def test_terminal_campaign_rejects_lifecycle_verbs(self, registry):
        handle = registry.submit({"tenant": "alice", **TINY})
        assert handle.wait(timeout=30.0) is CampaignState.DONE
        for verb in ("pause", "resume", "cancel"):
            with pytest.raises(IllegalTransition):
                handle.request(verb)

    def test_unknown_verb_is_a_bad_request(self, registry):
        handle = registry.submit({"tenant": "alice", **TINY})
        with pytest.raises(RegistryError, match="unknown lifecycle action"):
            handle.request("restart")
        handle.wait(timeout=30.0)


# ---------------------------------------------------------------------------
# submission validation and admission control
# ---------------------------------------------------------------------------

class TestSubmission:
    @pytest.mark.parametrize("body", [
        {},                                        # tenant missing
        {"tenant": "Bad Tenant!"},                 # illegal characters
        {"tenant": "alice", "rounds": 0},          # below minimum
        {"tenant": "alice", "rounds": "many"},     # wrong type
        {"tenant": "alice", "surprise": 1},        # unknown field
        {"tenant": "alice", "advance_us": -1.0},   # non-positive
        {"tenant": "alice", "workflow": {"nope": 1}},  # unknown wf key
        {"tenant": "alice", "name": "x" * 200},    # name too long
    ])
    def test_bad_requests_are_rejected(self, body):
        with pytest.raises(RegistryError):
            CampaignSpec.from_request(body, ServiceConfig())

    def test_rounds_cap_comes_from_config(self):
        cfg = ServiceConfig(max_rounds=7)
        with pytest.raises(RegistryError, match=r"\[1, 7\]"):
            CampaignSpec.from_request({"tenant": "alice", "rounds": 8}, cfg)

    def test_defaults_are_merged(self):
        spec = CampaignSpec.from_request({"tenant": "alice"}, ServiceConfig())
        assert spec.rounds == ServiceConfig().default_rounds
        assert spec.workflow.beads_per_type == 6

    def test_per_tenant_quota(self):
        cfg = ServiceConfig(max_campaigns_per_tenant=1, pool_workers=2)
        reg = CampaignRegistry(open_store("kv://1"), config=cfg)
        try:
            reg.submit({"tenant": "alice", "rounds": 5000})
            with pytest.raises(QuotaExceeded):
                reg.submit({"tenant": "alice", "rounds": 5000})
            # A different tenant is not affected by alice's quota.
            reg.submit({"tenant": "bob", "rounds": 5000})
        finally:
            reg.shutdown()

    def test_total_quota(self):
        cfg = ServiceConfig(max_campaigns_total=1, pool_workers=2)
        reg = CampaignRegistry(open_store("kv://1"), config=cfg)
        try:
            reg.submit({"tenant": "alice", "rounds": 5000})
            with pytest.raises(QuotaExceeded):
                reg.submit({"tenant": "bob", "rounds": 5000})
        finally:
            reg.shutdown()

    def test_terminal_campaigns_do_not_count_against_quota(self, registry):
        cfg = ServiceConfig(max_campaigns_per_tenant=1, pool_workers=2)
        reg = CampaignRegistry(open_store("kv://1"), config=cfg)
        try:
            first = reg.submit({"tenant": "alice", **TINY})
            assert first.wait(timeout=30.0) is CampaignState.DONE
            reg.submit({"tenant": "alice", **TINY}).wait(timeout=30.0)
        finally:
            reg.shutdown()

    def test_draining_rejects_submissions(self, registry):
        registry.drain()
        assert not registry.ready()
        with pytest.raises(Draining):
            registry.submit({"tenant": "alice", **TINY})


# ---------------------------------------------------------------------------
# lookup, deletion, tenancy reporting
# ---------------------------------------------------------------------------

class TestRegistryBookkeeping:
    def test_get_unknown_campaign(self, registry):
        with pytest.raises(UnknownCampaign):
            registry.get("c999999")

    def test_delete_requires_terminal_state(self, registry):
        handle = registry.submit({"tenant": "alice", "rounds": 5000})
        with pytest.raises(IllegalTransition):
            registry.delete(handle.campaign_id)
        handle.request("cancel")
        handle.wait(timeout=30.0)
        handle.join(timeout=30.0)
        registry.delete(handle.campaign_id)
        with pytest.raises(UnknownCampaign):
            registry.get(handle.campaign_id)

    def test_delete_purges_the_campaign_keyspace(self, registry):
        handle = registry.submit({"tenant": "alice", **TINY})
        handle.wait(timeout=30.0)
        handle.join(timeout=30.0)
        prefix = handle.store_view.prefix
        assert registry.store.keys(prefix), "campaign wrote nothing?"
        result = registry.delete(handle.campaign_id)
        assert result["purged_keys"] > 0
        assert registry.store.keys(prefix) == []

    def test_delete_with_store_down_is_retryable(self):
        """A purge that cannot scan (replica window down) must map to a
        retryable 503 and leave the campaign deletable, not half-forget
        it with its keyspace still on the shards."""

        class FlakyStore(NetKVStore):
            down = False

            def keys(self, prefix=""):
                if self.down:
                    raise StoreUnavailable("replica window fully down")
                return super().keys(prefix)

        store = FlakyStore(open_store("kv://1").cluster)
        reg = CampaignRegistry(store, config=ServiceConfig(pool_workers=2))
        try:
            handle = reg.submit({"tenant": "alice", **TINY})
            handle.wait(timeout=30.0)
            handle.join(timeout=30.0)
            prefix = handle.store_view.prefix

            store.down = True
            with pytest.raises(StoreDegraded) as err:
                reg.delete(handle.campaign_id)
            assert err.value.http_status == 503
            assert "retry" in str(err.value)
            # Not half-deleted: still visible, keyspace untouched.
            assert reg.get(handle.campaign_id) is handle

            store.down = False  # shard healed: the retry succeeds
            result = reg.delete(handle.campaign_id)
            assert result["purged_keys"] > 0
            assert store.keys(prefix) == []
            with pytest.raises(UnknownCampaign):
                reg.get(handle.campaign_id)
        finally:
            reg.shutdown()

    def test_deleted_campaigns_leave_no_job_record_behind(self, registry):
        # The daemon holds only live work: once a campaign is deleted,
        # no pool table, tracker or handle keeps its job records.
        refs = []
        submit_for = registry.adapter.submit_for

        def spy(tenant, spec, *args, **kwargs):
            record = submit_for(tenant, spec, *args, **kwargs)
            refs.append(weakref.ref(record))
            return record

        registry.adapter.submit_for = spy
        deleted = set()
        for n in range(4):
            handle = registry.submit({"tenant": "alice", "rounds": 2, "seed": n})
            assert handle.wait(timeout=60.0) is CampaignState.DONE, handle.error
            handle.join(timeout=30.0)
            registry.delete(handle.campaign_id)
            deleted.add(handle.campaign_id)
            del handle
            gc.collect()
            assert refs, "no job went through the pool"
            assert [r() for r in refs if r() is not None] == []
            assert deleted.isdisjoint(row["id"] for row in registry.list())

    def test_tenants_report_shows_usage_and_quota(self, registry):
        a = registry.submit({"tenant": "alice", **TINY})
        b = registry.submit({"tenant": "bob", **TINY})
        a.wait(timeout=30.0)
        b.wait(timeout=30.0)
        rows = {r["tenant"]: r for r in registry.tenants()}
        assert rows["alice"]["campaigns"].get("done") == 1
        assert rows["alice"]["quota"] == registry.config.max_campaigns_per_tenant
        assert "share" in rows["alice"]

    def test_health_reports_states_and_pool(self, registry):
        handle = registry.submit({"tenant": "alice", **TINY})
        handle.wait(timeout=30.0)
        health = registry.health()
        assert health["status"] == "ok"
        assert health["campaigns"].get("done") == 1
        assert health["store"]["ok"] is True
        assert "alice" in health["pool"]


# ---------------------------------------------------------------------------
# namespacing on the shared store
# ---------------------------------------------------------------------------

class TestNamespacing:
    def test_segment_validation(self):
        assert validate_namespace_segment("alice-1", "tenant") == "alice-1"
        for bad in ("", "Has Space", "UPPER", "a/b", "x" * 65, "..", "-lead"):
            with pytest.raises(StoreError):
                validate_namespace_segment(bad, "tenant")

    def test_views_are_disjoint(self):
        base = open_store("kv://1")
        a = NamespacedStore(base, "alice", "c000001")
        b = NamespacedStore(base, "bob", "c000001")
        a.write("frame", b"A")
        b.write("frame", b"B")
        assert a.read("frame") == b"A"
        assert b.read("frame") == b"B"
        assert sorted(base.keys("")) == [
            "tenants/alice/c000001/frame", "tenants/bob/c000001/frame"]
        assert a.keys("") == ["frame"]

    def test_batched_paths_stay_namespaced(self):
        base = open_store("kv://1")
        view = NamespacedStore(base, "alice", "c000001")
        view.write_many({"x/1": b"1", "x/2": b"2"})
        assert view.read_many(["x/1", "x/2"]) == {"x/1": b"1", "x/2": b"2"}
        assert view.read_present(["x/1", "x/9"]) == {"x/1": b"1"}
        assert view.exists("x/1") and not view.exists("x/9")
        assert sorted(view.keys("x/")) == ["x/1", "x/2"]
        assert view.nkeys() == 2
        view.delete_many(["x/1", "x/2"])
        assert base.keys("") == []

    def test_purge_only_touches_own_namespace(self):
        base = open_store("kv://1")
        mine = NamespacedStore(base, "alice", "c000001")
        other = NamespacedStore(base, "alice", "c000002")
        mine.write("k", b"m")
        other.write("k", b"o")
        assert mine.purge() == 1
        assert other.read("k") == b"o"


# ---------------------------------------------------------------------------
# fair shares
# ---------------------------------------------------------------------------

class TestFairShares:
    def test_stride_ratio(self):
        sched = StrideScheduler()
        sched.set_weight("heavy", 3.0)
        sched.set_weight("light", 1.0)
        picks = [sched.pick({"heavy": 1, "light": 1}) for _ in range(400)]
        heavy = picks.count("heavy")
        # 3:1 weights → heavy gets ~300 of 400 picks (integer strides
        # make this nearly exact; allow slack for rounding).
        assert 280 <= heavy <= 320

    def test_new_tenant_joins_at_current_pass(self):
        sched = StrideScheduler()
        for _ in range(50):
            sched.pick({"old": 1})
        for _ in range(10):
            sched.pick({"old": 1, "new": 1})
        # The newcomer must not get a monopoly to "catch up" on history.
        passes = sched.passes()
        assert passes["new"] <= passes["old"] * 2

    def test_view_wait_all_ignores_other_tenants(self):
        pool = FairShareAdapter(max_workers=2)
        release = threading.Event()
        done = []
        try:
            pool.view("slow").submit(JobSpec(name="s"),
                                     lambda: release.wait(10))
            fast = pool.view("fast")
            fast.submit(JobSpec(name="f"), lambda: done.append("f"))
            fast.wait_all(timeout=10.0)
            assert done == ["f"]  # returned without waiting on "slow"
        finally:
            release.set()
            pool.shutdown()

    def test_cancel_of_queued_job_fires_on_complete(self):
        pool = FairShareAdapter(max_workers=1)
        release = threading.Event()
        settled = []
        try:
            pool.view("a").submit(JobSpec(name="busy"),
                                  lambda: release.wait(10))
            queued = pool.view("a").submit(JobSpec(name="q"), lambda: None,
                                           on_complete=settled.append)
            pool.cancel(queued.job_id)
            assert [r.state for r in settled] == [JobState.CANCELLED]
            pool.cancel(queued.job_id)  # already settled: no second fire
            assert len(settled) == 1
            assert pool.share_stats()["a"]["queued"] == 0
        finally:
            release.set()
            pool.shutdown()

    def test_shutdown_fires_on_complete_for_queued_jobs(self):
        pool = FairShareAdapter(max_workers=1)
        release = threading.Event()
        settled = []

        def cancelled(record):
            settled.append(record)
            release.set()  # lets shutdown's drain of "busy" finish

        view = pool.view("a")
        view.submit(JobSpec(name="busy"), lambda: release.wait(10))
        view.submit(JobSpec(name="q"), lambda: None, on_complete=cancelled)
        pool.shutdown()
        assert [r.state for r in settled] == [JobState.CANCELLED]
        view.wait_all(timeout=1)  # the cancelled job no longer counts

    def test_share_stats_account_per_tenant(self):
        pool = FairShareAdapter(max_workers=2, shares={"alice": 2.0})
        try:
            view = pool.view("alice")
            for i in range(3):
                view.submit(JobSpec(name=f"j{i}"), lambda: None)
            view.wait_all(timeout=10.0)
            stats = pool.share_stats()["alice"]
            assert stats["weight"] == 2.0
            assert stats["completed"] == 3
            assert stats["queued"] == 0
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# same seed, same campaign
# ---------------------------------------------------------------------------

class TestSameSeedSameCampaign:
    """Through the daemon path, a campaign's outputs are fixed by its
    seed: the pool's size (and so the order jobs finish in) does not
    reach a launch decision, a selection or a feedback result."""

    @staticmethod
    def outputs(pool_workers):
        reg = CampaignRegistry(open_store("kv://2"),
                               config=ServiceConfig(pool_workers=pool_workers))
        try:
            handles = [reg.submit({"tenant": tenant, "rounds": 3, "seed": seed})
                       for tenant, seed in (("alice", 1), ("bob", 2))]
            out = {}
            for handle in handles:
                assert handle.wait(timeout=120) is CampaignState.DONE, handle.error
                macro = handle.app.macro
                out[handle.spec.tenant] = {
                    "counters": handle.snapshot()["counters"],
                    "ss_pattern": handle.app.forcefield.ss_pattern,
                    "coupling_version": macro.coupling_version,
                    "couplings": macro.g_inner.tobytes() + macro.g_outer.tobytes(),
                }
            return out
        finally:
            reg.shutdown()

    def test_one_and_two_pool_workers_agree(self):
        serial = self.outputs(pool_workers=1)
        assert self.outputs(pool_workers=2) == serial
        for run in serial.values():
            assert run["counters"]["aa_finished"] > 0
            assert run["coupling_version"] > 0
