"""Per-tenant quota accounting and eviction isolation.

The ledger is exercised directly (pure bookkeeping) and through the
server (real evictions from the shared serving cache).  The isolation
property under test: a tenant exceeding its quota evicts its *own*
least-recent entries and never another tenant's.
"""

from __future__ import annotations

import asyncio

from repro.serving import QuotaLedger, Request, ServingConfig, ServingServer, request_key

from tests.serving.conftest import memory_cache, submit_deferred


class TestQuotaLedger:
    def test_entry_bound_evicts_lru(self):
        ledger = QuotaLedger(max_entries=2)
        assert ledger.charge("a", "k1", 10) == []
        assert ledger.charge("a", "k2", 10) == []
        assert ledger.charge("a", "k3", 10) == ["k1"]
        assert ledger.holdings("a") == ["k2", "k3"]

    def test_byte_bound_evicts_until_under(self):
        ledger = QuotaLedger(max_bytes=100)
        ledger.charge("a", "k1", 40)
        ledger.charge("a", "k2", 40)
        assert ledger.charge("a", "k3", 60) == ["k1"]  # 40+60 fits again
        assert ledger.stats()["a"]["bytes"] == 100
        assert ledger.charge("a", "k4", 90) == ["k2", "k3"]  # both must go
        assert ledger.stats()["a"]["bytes"] == 90

    def test_touch_refreshes_recency(self):
        ledger = QuotaLedger(max_entries=2)
        ledger.charge("a", "k1", 1)
        ledger.charge("a", "k2", 1)
        ledger.touch("a", "k1")  # k2 is now the oldest
        assert ledger.charge("a", "k3", 1) == ["k2"]

    def test_recharge_same_key_no_double_count(self):
        ledger = QuotaLedger(max_entries=2)
        ledger.charge("a", "k1", 10)
        ledger.charge("a", "k1", 30)  # size update, not a second entry
        stats = ledger.stats()["a"]
        assert stats["entries"] == 1
        assert stats["bytes"] == 30

    def test_tenants_are_independent(self):
        ledger = QuotaLedger(max_entries=1)
        ledger.charge("a", "ka", 1)
        assert ledger.charge("b", "kb", 1) == []  # b's quota is b's own
        assert ledger.charge("a", "ka2", 1) == ["ka"]
        assert ledger.holdings("b") == ["kb"]

    def test_unlimited_by_default(self):
        ledger = QuotaLedger()
        assert not ledger.enforcing
        for i in range(100):
            assert ledger.charge("a", f"k{i}", 10**6) == []
        assert ledger.totals() == (100, 100 * 10**6)


class TestQuotaThroughServer:
    def test_noisy_tenant_evicts_only_its_own_entries(self, backend):
        """Tenant A overflows its quota; tenant B's cache entries survive."""

        async def scenario():
            cache = memory_cache()
            server = ServingServer(
                backend,
                config=ServingConfig(workers=2, tenant_max_entries=2),
                cache=cache,
            )
            b_requests = [
                Request(params={"scene": f"b{i}"}, tenant="B") for i in range(2)
            ]
            a_requests = [
                Request(params={"scene": f"a{i}"}, tenant="A") for i in range(4)
            ]
            async with server:
                for request in b_requests + a_requests:
                    await server.submit(request)
            return cache, server, a_requests, b_requests

        cache, server, a_requests, b_requests = asyncio.run(scenario())

        # B's working set is intact
        for request in b_requests:
            found, _ = cache.get(request_key(request))
            assert found, "tenant B lost an entry to tenant A's overflow"
        # A holds only its 2 most recent; the 2 oldest were evicted
        assert [cache.get(request_key(r))[0] for r in a_requests] == [
            False, False, True, True,
        ]
        stats = server.quota.stats()
        assert stats["A"] == {
            "entries": 2, "bytes": stats["A"]["bytes"], "charged": 4, "evicted": 2,
        }
        assert stats["B"]["evicted"] == 0

    def test_evicted_entry_reexecutes_on_next_request(self, backend):
        async def scenario():
            server = ServingServer(
                backend,
                config=ServingConfig(workers=1, tenant_max_entries=1),
                cache=memory_cache(),
            )
            first = Request(params={"scene": 0}, tenant="A")
            async with server:
                await server.submit(first)
                await server.submit(Request(params={"scene": 1}, tenant="A"))
                again = await server.submit(first)
            return again

        again = asyncio.run(scenario())
        assert again.status == "ok"
        assert again.source == "render"  # scene 0 was evicted, re-rendered
        assert backend.full_calls == 3

    def test_cache_hits_refresh_quota_recency(self, backend):
        """A hot entry served from cache is not the one evicted."""

        async def scenario():
            cache = memory_cache()
            server = ServingServer(
                backend,
                config=ServingConfig(workers=1, tenant_max_entries=2),
                cache=cache,
            )
            hot = Request(params={"scene": "hot"}, tenant="A")
            cold = Request(params={"scene": "cold"}, tenant="A")
            async with server:
                await server.submit(hot)
                await server.submit(cold)
                await server.submit(hot)  # cache hit; refreshes recency
                await server.submit(Request(params={"scene": "new"}, tenant="A"))
            return cache, hot, cold

        cache, hot, cold = asyncio.run(scenario())
        assert cache.get(request_key(hot))[0], "hot entry was wrongly evicted"
        assert not cache.get(request_key(cold))[0]

    def test_coalesced_fanout_charges_the_leader_tenant_once(self, backend):
        async def scenario():
            server = ServingServer(
                backend,
                config=ServingConfig(workers=2, tenant_max_entries=8),
                cache=memory_cache(),
            )
            requests = [
                Request(params={"scene": 0}, tenant=f"T{i}") for i in range(4)
            ]
            await submit_deferred(server, requests, close=False)
            stats = server.quota.stats()
            await server.aclose()
            return stats

        stats = asyncio.run(scenario())
        # exactly one tenant was charged, exactly once
        assert sum(s["charged"] for s in stats.values()) == 1
        assert sum(s["entries"] for s in stats.values()) == 1

    def test_no_quota_set_means_no_ledger_growth(self, backend):
        """With both bounds 0 nothing would ever leave the ledger (the
        cache's own LRU never tells it), so nothing may enter it."""

        async def scenario():
            cache = memory_cache(entries=8)
            server = ServingServer(backend, config=ServingConfig(), cache=cache)
            async with server:
                for i in range(200):
                    await server.submit(Request(params={"scene": i}))
                await server.submit(Request(params={"scene": 199}))  # a hit
            return cache, server

        cache, server = asyncio.run(scenario())
        assert cache.stats()["memory_entries"] == 8
        assert not server.quota.enforcing
        assert server.quota.totals() == (0, 0)
        assert server.quota.holdings("default") == []
