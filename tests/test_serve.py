"""repro.serve: micro-batched prediction service for the online path.

The contracts under test are the PR's acceptance gates:

* service predictions match direct ``model.predict`` — **bit-identical**
  for serial requests (single-request flushes run the same eager batch
  of one), within 1e-6 for batched/bulk paths, across the full zoo and
  under any worker/arrival interleaving;
* non-finite answers are returned but never cached;
* flushes trigger on max-batch-size OR the deadline, whichever first;
* the queue is bounded: overload sheds to the resilience fallback chain,
  counts the shed requests, and still resolves every ticket;
* repeated graphs hit the content-addressed result cache (no forward),
  and a miss re-encodes while its structure hits the SPD memo;
* scheduler runs (including chaos mode at fault rate 0) driven through
  ``PredictorService`` are bit-identical to direct-predictor runs.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro import obs
from repro.core import DNNOccu, DNNOccuConfig
from repro.features import encode_graph
from repro.gpu import get_device, plan_colocation
from repro.models import ModelConfig, build_model, list_models
from repro.obs.metrics import Histogram
from repro.perf import (bucket_by_size, cache_key, clear_spd_memo, collate,
                        ensure_spd, graph_key)
from repro.resilience import (FallbackPredictor, FaultConfig, FaultInjector,
                              constant_tier, default_fallback_chain,
                              gnn_tier)
from repro.sched import OccuPacking, generate_workload, simulate
from repro.serve import (MicroBatcher, PredictorService, QueueFullError,
                         Ticket)

A100 = get_device("A100")


def _counter_values(registry) -> dict[str, float]:
    return {m.name: m.value for m in registry if m.kind == "counter"}


def _model(hidden: int = 32, seed: int = 7) -> DNNOccu:
    return DNNOccu(DNNOccuConfig(hidden=hidden, num_heads=4), seed=seed)


def _zoo_graphs() -> list:
    return [build_model(n, ModelConfig(batch_size=16))
            for n in list_models()]


def _small_graphs(count: int = 8) -> list:
    names = ("lenet", "alexnet", "rnn", "lstm")
    return [build_model(names[i % len(names)],
                        ModelConfig(batch_size=2 ** (1 + i // len(names))))
            for i in range(count)]


# --------------------------------------------------------------------- #
# equivalence: service vs direct predict
# --------------------------------------------------------------------- #

class TestEquivalence:
    def test_serial_requests_bit_identical_across_zoo(self):
        graphs = _zoo_graphs()
        model = _model()
        direct = np.array([model.predict(encode_graph(g, A100))
                           for g in graphs])
        with PredictorService(model, A100) as svc:
            served = np.array([svc.predict(g) for g in graphs])
        np.testing.assert_array_equal(served, direct)

    def test_predict_many_matches_direct_within_1e6(self):
        graphs = _zoo_graphs()
        model = _model()
        direct = np.array([model.predict(encode_graph(g, A100))
                           for g in graphs])
        with PredictorService(model, A100) as svc:
            bulk = svc.predict_many(graphs)
        np.testing.assert_allclose(bulk, direct, atol=1e-6, rtol=0)

    @pytest.mark.parametrize("threads", (2, 5))
    def test_concurrent_interleavings_deterministic(self, threads):
        """Any worker/arrival interleaving lands within 1e-6 of direct."""
        graphs = _small_graphs(12)
        model = _model()
        direct = np.array([model.predict(encode_graph(g, A100))
                           for g in graphs])
        for _ in range(2):  # two runs: interleavings differ, results agree
            with PredictorService(model, A100, deadline_s=0.005) as svc:
                out = np.zeros(len(graphs))

                def client(ids):
                    for i in ids:
                        out[i] = svc.predict(graphs[i])

                workers = [threading.Thread(target=client,
                                            args=(range(i, len(graphs),
                                                        threads),))
                           for i in range(threads)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join()
            np.testing.assert_allclose(out, direct, atol=1e-6, rtol=0)

    def test_call_protocol_returns_mean_std(self):
        g = _small_graphs(1)[0]
        model = _model()
        with PredictorService(model, A100) as svc:
            assert svc.wants_graph
            mean, std = svc(g, A100)
        assert mean == model.predict(encode_graph(g, A100))
        assert std == 0.0


# --------------------------------------------------------------------- #
# micro-batcher flush behavior
# --------------------------------------------------------------------- #

class TestMicroBatcher:
    def test_full_batch_flush(self):
        with MicroBatcher(lambda items: [len(items)] * len(items),
                          max_batch_size=4, deadline_s=60.0) as mb:
            mb.pause()
            tickets = [mb.submit(i) for i in range(4)]
            mb.resume()
            assert [t.result(5.0) for t in tickets] == [4, 4, 4, 4]
            assert mb.flush_reasons["full"] == 1
            assert mb.flush_reasons["deadline"] == 0

    def test_deadline_flush_for_partial_batch(self):
        with MicroBatcher(lambda items: list(items),
                          max_batch_size=64, deadline_s=0.002) as mb:
            ticket = mb.submit("x")
            assert ticket.result(5.0) == "x"
            assert mb.flush_reasons["deadline"] == 1
            assert mb.flush_reasons["full"] == 0

    def test_oversized_backlog_splits_into_max_size_flushes(self):
        with MicroBatcher(lambda items: [len(items)] * len(items),
                          max_batch_size=3, deadline_s=60.0,
                          max_queue_depth=16) as mb:
            mb.pause()
            tickets = [mb.submit(i) for i in range(6)]
            mb.resume()
            sizes = [t.result(5.0) for t in tickets]
            assert sizes == [3, 3, 3, 3, 3, 3]
            assert mb.flush_reasons["full"] == 2

    def test_queue_bound_raises(self):
        with MicroBatcher(lambda items: list(items), max_batch_size=2,
                          deadline_s=60.0, max_queue_depth=2) as mb:
            mb.pause()
            mb.submit(1)
            mb.submit(2)
            with pytest.raises(QueueFullError):
                mb.submit(3)
            mb.resume()

    def test_close_drains_then_rejects(self):
        mb = MicroBatcher(lambda items: list(items),
                          max_batch_size=8, deadline_s=60.0)
        mb.pause()
        tickets = [mb.submit(i) for i in range(3)]
        mb.close()
        assert [t.result(5.0) for t in tickets] == [0, 1, 2]
        with pytest.raises(RuntimeError):
            mb.submit(4)

    def test_dispatch_error_fails_every_ticket(self):
        def boom(items):
            raise ValueError("kaput")

        with MicroBatcher(boom, max_batch_size=2, deadline_s=60.0) as mb:
            mb.pause()
            tickets = [mb.submit(i) for i in range(2)]
            mb.resume()
            for t in tickets:
                with pytest.raises(ValueError, match="kaput"):
                    t.result(5.0)

    def test_ticket_timeout(self):
        with pytest.raises(TimeoutError):
            Ticket().result(timeout=0.01)

    def test_invalid_knobs_rejected(self):
        for kw in (dict(max_batch_size=0), dict(deadline_s=0.0),
                   dict(max_batch_size=8, max_queue_depth=4)):
            with pytest.raises(ValueError):
                MicroBatcher(lambda items: items, **kw)

    def test_stats_snapshots_consistent_under_concurrent_dispatch(self):
        """Regression for the C002 race on the dispatch counters.

        Before `stats()` snapshotted under the batcher's condition, a
        poller could read `batches_dispatched` after a flush but
        `flush_reasons` before it, observing a torn state.  Hammer the
        batcher from several client threads while polling, and require
        every snapshot to be internally consistent.
        """
        graphs = _small_graphs(6)
        torn: list[dict] = []
        stop = threading.Event()
        with PredictorService(_model(), A100, max_batch_size=2,
                              deadline_s=0.001) as svc:
            def poller():
                while not stop.is_set():
                    snap = svc.batcher.stats()
                    if (snap["batches_dispatched"]
                            != sum(snap["flush_reasons"].values())
                            or snap["requests_dispatched"]
                            < snap["batches_dispatched"]):
                        torn.append(snap)

            def client():
                for _ in range(5):
                    for g in graphs:
                        svc.predict(g)

            threads = [threading.Thread(target=poller)] + \
                [threading.Thread(target=client) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads[1:]:
                t.join()
            stop.set()
            threads[0].join()
            final = svc.stats()
        assert torn == []
        # repeat rounds are result-cache hits, so only the lower bound is
        # exact: every graph was dispatched at least once
        assert final["requests_dispatched"] >= len(graphs)
        assert final["batches_dispatched"] == \
            sum(final["flush_reasons"].values())


# --------------------------------------------------------------------- #
# overload shedding into the resilience chain
# --------------------------------------------------------------------- #

class TestOverloadShedding:
    def test_flood_sheds_counts_and_resolves(self):
        graphs = _small_graphs(10)
        with obs.observed() as (_, registry):
            with PredictorService(_model(), A100, max_batch_size=2,
                                  max_queue_depth=3) as svc:
                svc.batcher.pause()
                tickets = [svc.predict_async(g) for g in graphs]
                shed = svc.stats()["shed"]
                assert shed == len(graphs) - 3
                # shed tickets resolve immediately via the constant tier
                assert svc.fallback.tier_counts["constant"] == shed
                svc.batcher.resume()
                values = [t.result(10.0) for t in tickets]
        assert all(0.0 <= v <= 1.0 for v in values)
        counts = _counter_values(registry)
        assert counts["serve_shed_total"] == shed
        assert counts["serve_requests_total"] == len(graphs)

    def test_shed_uses_configured_fallback_tiers(self):
        graphs = _small_graphs(6)
        oracle = _model(seed=99)
        chain = default_fallback_chain(model=oracle)
        with PredictorService(_model(), A100, max_batch_size=2,
                              max_queue_depth=2, fallback=chain) as svc:
            svc.batcher.pause()
            tickets = [svc.predict_async(g) for g in graphs]
            assert chain.tier_counts["gnn"] == svc.stats()["shed"] > 0
            svc.batcher.resume()
            [t.result(10.0) for t in tickets]

    def test_failing_tier_degrades_to_constant(self):
        def broken(graph, device):
            raise RuntimeError("tier down")

        chain = FallbackPredictor([("broken", broken),
                                   constant_tier(0.75)])
        with PredictorService(_model(), A100, max_batch_size=2,
                              max_queue_depth=2, fallback=chain) as svc:
            svc.batcher.pause()
            tickets = [svc.predict_async(g) for g in _small_graphs(4)]
            svc.batcher.resume()
            values = [t.result(10.0) for t in tickets]
        shed_values = values[2:]  # first 2 filled the queue
        assert shed_values == [0.75, 0.75]
        assert chain.tier_counts["constant"] == 2


# --------------------------------------------------------------------- #
# caches: result cache / SPD memo
# --------------------------------------------------------------------- #

class TestCaches:
    def test_result_cache_hit_skips_forward(self):
        g = _small_graphs(1)[0]
        model = _model()
        forwards = []
        original = model.forward_batch

        def counting_forward(batch):
            forwards.append(1)
            return original(batch)

        model.forward_batch = counting_forward
        with obs.observed() as (_, registry):
            with PredictorService(model, A100) as svc:
                first = svc.predict(g)
                n_after_first = len(forwards)
                second = svc.predict(g)
        assert first == second
        assert len(forwards) == n_after_first == 1
        counts = _counter_values(registry)
        assert counts["serve_result_cache_hits_total"] == 1
        assert counts["serve_result_cache_misses_total"] == 1

    def test_repredict_after_result_cache_clear_reencodes(self,
                                                         monkeypatch):
        import repro.serve.service as service_mod
        g = _small_graphs(1)[0]
        model = _model()
        encodes, forwards = [], []
        encode, forward = service_mod.encode_graph, model.forward_batch

        def counting_encode(graph, device):
            encodes.append(1)
            return encode(graph, device)

        def counting_forward(batch):
            forwards.append(1)
            return forward(batch)

        monkeypatch.setattr(service_mod, "encode_graph", counting_encode)
        model.forward_batch = counting_forward
        with obs.observed() as (_, registry):
            with PredictorService(model, A100) as svc:
                first = svc.predict(g)
                svc.session.results.clear()
                second = svc.predict(g)  # re-encodes and re-forwards
        assert first == second
        assert len(encodes) == len(forwards) == 2
        counts = _counter_values(registry)
        assert counts["serve_result_cache_misses_total"] == 2
        assert "serve_result_cache_hits_total" not in counts

    def test_spd_memo_shared_across_feature_objects(self):
        """Satellite bugfix: SPD is keyed by content, not per-object."""
        clear_spd_memo()
        g = build_model("alexnet", ModelConfig())
        f1, f2 = encode_graph(g, A100), encode_graph(g, A100)
        assert not hasattr(f2, "_spd_cache")
        with obs.observed() as (_, registry):
            spd1 = ensure_spd(f1)
            spd2 = ensure_spd(f2)
        assert spd1 is spd2  # same matrix object, no recompute
        counts = _counter_values(registry)
        assert counts["perf_spd_memo_misses_total"] == 1
        assert counts["perf_spd_memo_hits_total"] == 1

    def test_model_spd_delegates_to_memo(self):
        clear_spd_memo()
        g = build_model("lenet", ModelConfig())
        model = _model()
        model.predict(encode_graph(g, A100))  # computes + memoizes SPD
        fresh = encode_graph(g, A100)
        with obs.observed() as (_, registry):
            model.predict(fresh)
        counts = _counter_values(registry)
        assert counts.get("perf_spd_memo_hits_total") == 1
        assert "perf_spd_memo_misses_total" not in counts

    def test_graph_key_ignores_simulator_version(self, monkeypatch):
        g = build_model("lenet", ModelConfig())
        before_graph, before_cache = graph_key(g, A100), cache_key(g, A100)
        import repro.perf.cache as cache_mod
        monkeypatch.setattr(cache_mod, "SIMULATOR_VERSION", 999)
        assert graph_key(g, A100) == before_graph
        assert cache_key(g, A100) != before_cache

    def test_graph_key_separates_graph_and_device(self):
        g1 = build_model("lenet", ModelConfig())
        g2 = build_model("lenet", ModelConfig(batch_size=64))
        assert graph_key(g1, A100) != graph_key(g2, A100)
        assert graph_key(g1, A100) != graph_key(g1, get_device("P40"))


# --------------------------------------------------------------------- #
# non-finite answers are returned but never cached
# --------------------------------------------------------------------- #

def _poison(monkeypatch, session, graph) -> str:
    """Make serving encode ``graph`` with a NaN feature; returns its key."""
    import repro.serve.service as service_mod
    encode = service_mod.encode_graph

    def poisoned(g, device):
        feats = encode(g, device)
        if g is graph:
            feats.node_features[0, 0] = np.nan
        return feats

    monkeypatch.setattr(service_mod, "encode_graph", poisoned)
    return session.key_for(graph)


class TestNonFinite:
    def test_predict_does_not_cache_nan(self, monkeypatch):
        g = _small_graphs(1)[0]
        with PredictorService(_model(), A100) as svc:
            key = _poison(monkeypatch, svc.session, g)
            assert math.isnan(svc.predict(g))
            assert svc.session.results.get(key) is None
            assert math.isnan(svc.predict(g))  # recomputed, not cached

    def test_predict_many_does_not_cache_nan(self, monkeypatch):
        graphs = _small_graphs(3)
        with PredictorService(_model(), A100) as svc:
            key = _poison(monkeypatch, svc.session, graphs[1])
            out = svc.predict_many(graphs)
            assert math.isnan(out[1])
            assert np.isfinite(out[[0, 2]]).all()
            assert svc.session.results.get(key) is None
            assert len(svc.session.results) == 2

    def test_worker_does_not_publish_nan(self, tmp_path, monkeypatch):
        from repro.fleet.worker import WorkerCore, WorkerSpec
        core = WorkerCore(WorkerSpec(worker_id=0, device_name="A100",
                                     shared_cache_dir=str(tmp_path)))
        graphs = _small_graphs(3)
        key = _poison(monkeypatch, core.session, graphs[1])
        outs = core.handle_many([(g, None) for g in graphs])
        assert [tier for _, tier in outs] == ["forward"] * 3
        assert math.isnan(outs[1][0])
        assert core.session.results.get(key) is None
        assert core.shared.get(key) is None
        again = core.handle_many([(g, None) for g in graphs])
        assert [tier for _, tier in again] == ["lru", "forward", "lru"]


# --------------------------------------------------------------------- #
# size-bucketed collate (satellite perf fix)
# --------------------------------------------------------------------- #

class TestBucketedCollate:
    def test_bucketing_reduces_pad_waste(self):
        # Interleaved small/large arrivals: the case micro-batch queues
        # actually see, and the worst case for arrival-order collate.
        names = ("lenet", "bert", "alexnet", "vit-t") * 2
        feats = [encode_graph(build_model(n, ModelConfig()), A100)
                 for n in names]

        def total_waste(chunks) -> float:
            waste = 0.0
            for chunk in chunks:
                batch = collate(chunk)
                waste += batch.pad_waste * batch.num_graphs
            return waste / len(feats)

        arrival = total_waste([feats[i:i + 4]
                               for i in range(0, len(feats), 4)])
        bucketed = total_waste([chunk for _, chunk
                                in bucket_by_size(feats, 4)])
        # measured: 0.597 -> 0.206; require at least a 2x reduction
        assert bucketed < 0.5 * arrival, \
            f"bucketing did not reduce pad waste ({arrival:.3f} -> " \
            f"{bucketed:.3f})"

    def test_bucketed_predict_batch_preserves_order(self):
        feats = [encode_graph(build_model(n, ModelConfig()), A100)
                 for n in ("vit-t", "lenet", "rnn", "resnet-18")]
        model = _model()
        per = np.array([model.predict(f) for f in feats])
        bucketed = model.predict_batch(feats, batch_size=2)
        np.testing.assert_allclose(bucketed, per, atol=1e-6, rtol=0)

    @pytest.mark.parametrize("batch_size", (8, 32))
    def test_zoo_chunks_waste_at_most_half(self, batch_size):
        feats = [encode_graph(g, A100) for g in _zoo_graphs()]
        chunks = bucket_by_size(feats, batch_size)
        assert sorted(i for idx, _ in chunks for i in idx) \
            == list(range(len(feats)))
        for _, chunk in chunks:
            assert len(chunk) <= batch_size
            assert collate(chunk).pad_waste <= 0.5

    def test_bucket_by_size_partitions_all_indices(self):
        feats = [encode_graph(build_model(n, ModelConfig()), A100)
                 for n in ("vit-t", "lenet", "rnn")]
        chunks = bucket_by_size(feats, 2)
        seen = sorted(i for idx, _ in chunks for i in idx)
        assert seen == [0, 1, 2]
        for idx, chunk in chunks:
            assert [feats[i] for i in idx] == chunk

    def test_bucket_by_size_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            bucket_by_size([], 0)


# --------------------------------------------------------------------- #
# one serving forward: queued flushes run ModelSession.forward
# --------------------------------------------------------------------- #

def _mixed_flush_graphs() -> list:
    """Interleaved vit-t (347 nodes) and lenet: more than 2x apart."""
    return [build_model(n, ModelConfig(batch_size=b))
            for b in (4, 16) for n in ("vit-t", "lenet")]


def _paused_flush(svc, graphs) -> list:
    """Queue ``graphs`` behind a paused batcher; release one full flush."""
    svc.batcher.pause()
    tickets = [svc.predict_async(g) for g in graphs]
    svc.batcher.resume()
    return tickets


class TestOneServingForward:
    def test_flush_matches_predict_many_one_span_per_chunk(self):
        graphs = _mixed_flush_graphs()
        model = _model()
        feats = [encode_graph(g, A100) for g in graphs]
        chunks = bucket_by_size(feats, len(graphs))
        assert len(chunks) == 2
        with PredictorService(model, A100,
                              max_batch_size=len(graphs)) as bulk:
            expected = bulk.predict_many(graphs)
        with obs.observed() as (tracer, _registry):
            with PredictorService(model, A100, max_batch_size=len(graphs),
                                  deadline_s=60.0) as svc:
                got = [t.result(30.0)
                       for t in _paused_flush(svc, graphs)]
        np.testing.assert_array_equal(np.array(got), expected)
        forwards = [r.attrs["batch"] for r in tracer.events
                    if r.name == "serve.forward"]
        assert sorted(forwards) == sorted(len(c) for _, c in chunks)
        # the flight record still counts the whole flush
        assert all(r.batch_size == len(graphs)
                   for r in svc.flight.records())

    def test_second_chunk_failure_fails_each_ticket_once(self):
        graphs = _mixed_flush_graphs()
        with obs.observed() as (_tracer, registry):
            with PredictorService(_model(), A100,
                                  max_batch_size=len(graphs),
                                  deadline_s=60.0) as svc:
                original = svc.session.predict_features
                calls = []

                def second_chunk_raises(chunk):
                    calls.append(len(chunk))
                    if len(calls) == 2:
                        raise RuntimeError("chunk 2 failed")
                    return original(chunk)

                svc.session.predict_features = second_chunk_raises
                tickets = _paused_flush(svc, graphs)
                for t in tickets:
                    with pytest.raises(RuntimeError, match="chunk 2"):
                        t.result(30.0)
        assert len(calls) == 2
        assert not any(t.set_result(0.5) for t in tickets)
        assert _counter_values(registry)["serve_dispatch_errors_total"] \
            == len(graphs)
        records = svc.flight.records()
        assert len({r.request_id for r in records}) == len(records) \
            == len(graphs)
        assert all(r.outcome == "error" and r.error == "RuntimeError"
                   and r.batch_size == len(graphs) for r in records)


# --------------------------------------------------------------------- #
# scheduler / colocation adoption
# --------------------------------------------------------------------- #

class TestSchedulerAdoption:
    MIX = ("lenet", "alexnet", "rnn", "lstm")

    def _workloads(self):
        model = _model()

        def direct_predictor(feats):
            # serve: direct-predict-ok -- the pre-PR oracle path this
            # test asserts bit-identity against
            return model.predict(feats)

        jobs_direct = generate_workload(
            self.MIX, A100, 8, seed=3, predictor=direct_predictor,
            iterations_range=(50, 200))
        with PredictorService(model, A100) as svc:
            jobs_served = generate_workload(
                self.MIX, A100, 8, seed=3, predictor=svc,
                iterations_range=(50, 200))
        return jobs_direct, jobs_served

    def test_workload_predictions_bit_identical(self):
        jobs_direct, jobs_served = self._workloads()
        for a, b in zip(jobs_direct, jobs_served):
            assert a.predicted_occupancy == b.predicted_occupancy
            assert a.predicted_std == b.predicted_std == 0.0

    def test_simulation_bit_identical_incl_chaos_at_zero_faults(self):
        jobs_direct, jobs_served = self._workloads()
        for chaos in (False, True):
            kw = {"faults": FaultInjector(FaultConfig(crash_prob=0.0), 5)} \
                if chaos else {}
            res_a = simulate(jobs_direct, 2, OccuPacking(), **kw)
            res_b = simulate(jobs_served, 2, OccuPacking(), **kw)
            assert res_a.makespan_s == res_b.makespan_s
            assert res_a.avg_jct == res_b.avg_jct
            assert res_a.busy_integral_s == res_b.busy_integral_s
            assert res_a.nvml_integral_s == res_b.nvml_integral_s

    def test_plan_colocation_packs_under_cap(self):
        graphs = _small_graphs(8)
        with PredictorService(_model(), A100) as svc:
            groups = plan_colocation(svc, graphs, cap=1.0)
            occs = svc.predict_many(graphs)  # all cache hits
        seen = sorted(i for grp in groups for i in grp)
        assert seen == list(range(len(graphs)))
        for grp in groups:
            assert sum(occs[i] for i in grp) <= 1.0 + 1e-9

    def test_plan_colocation_max_residents(self):
        graphs = _small_graphs(6)
        with PredictorService(_model(), A100) as svc:
            groups = plan_colocation(svc, graphs, cap=10.0,
                                     max_residents=2)
        assert all(len(grp) <= 2 for grp in groups)
        assert plan_colocation.__module__ == "repro.gpu.colocation"

    def test_plan_colocation_empty(self):
        with PredictorService(_model(), A100) as svc:
            assert plan_colocation(svc, []) == []


# --------------------------------------------------------------------- #
# metrics: latency histogram + quantiles
# --------------------------------------------------------------------- #

class TestServeMetrics:
    def test_histogram_quantile_interpolates(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.quantile(0.0) == pytest.approx(0.0)
        # rank 2 of 4 lands mid-way through the (1, 2] bucket
        assert h.quantile(0.5) == pytest.approx(1.5)
        assert h.quantile(1.0) == pytest.approx(4.0)
        assert math.isnan(Histogram("e", buckets=(1.0,)).quantile(0.5))
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_histogram_quantile_overflow_clamps_to_last_bound(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(100.0)  # above every bucket
        assert h.quantile(0.99) == 1.0

    def test_latency_and_queue_metrics_recorded(self):
        graphs = _small_graphs(4)
        with obs.observed() as (_, registry):
            with PredictorService(_model(), A100) as svc:
                for g in graphs:
                    svc.predict(g)
                q = svc.latency_quantiles()
        assert 0.0 < q["p50"] <= q["p90"] <= q["p99"]
        names = {m.name for m in registry}
        assert {"serve_latency_seconds", "serve_batch_size",
                "serve_queue_depth", "serve_requests_total"} <= names

    def test_stats_snapshot_shape(self):
        with PredictorService(_model(), A100) as svc:
            svc.predict(_small_graphs(1)[0])
            stats = svc.stats()
        assert stats["requests"] == 1 and stats["shed"] == 0
        assert stats["result_cache_entries"] == 1
        assert stats["batches_dispatched"] == 1
        assert stats["flush_reasons"]["deadline"] == 1


# --------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------- #

class TestLifecycle:
    def test_close_degrades_new_requests_to_fallback(self):
        svc = PredictorService(_model(), A100)
        g = _small_graphs(1)[0]
        svc.predict(g)
        svc.close()
        # post-close submissions are not errors: they route
        # synchronously through the fallback chain
        value = svc.predict(_small_graphs(2)[1])
        assert 0.0 <= value <= 1.0
        assert svc.fallback.tier_counts["constant"] == 1
        assert svc.stats()["closed"]

    def test_cached_model_session_reusable_across_services(self):
        from repro.serve import ModelSession
        session = ModelSession(_model(), A100)
        g = _small_graphs(1)[0]
        with PredictorService(session=session) as svc:
            first = svc.predict(g)
        with PredictorService(session=session) as svc:
            # served from the shared session's result cache: no forward
            assert svc.predict(g) == first
            assert svc.stats()["batches_dispatched"] == 0

    def test_service_requires_model_or_session(self):
        with pytest.raises(ValueError):
            PredictorService()

    def test_gnn_tier_still_bit_identical_through_service(self):
        """A gnn fallback tier and the service agree exactly."""
        model = _model()
        g = _small_graphs(1)[0]
        name, fn = gnn_tier(model, preflight=False)
        with PredictorService(model, A100) as svc:
            assert svc.predict(g) == fn(g, A100)


# --------------------------------------------------------------------- #
# lifecycle: idempotent close, post-close degradation, deadlines
# --------------------------------------------------------------------- #

class TestCloseAndDeadlines:
    def test_close_is_idempotent(self):
        svc = PredictorService(_model(), A100)
        svc.predict(_small_graphs(1)[0])
        svc.close()
        svc.close()  # second close is a no-op, not an error
        assert svc.stats()["closed"]

    def test_close_with_concurrent_inflight_requests(self):
        """In-flight predict_async tickets resolve across close()."""
        graphs = _small_graphs(8)
        svc = PredictorService(_model(), A100, max_batch_size=4)
        tickets = [svc.predict_async(g) for g in graphs]
        svc.close()  # drain flush serves whatever is still queued
        values = [t.result(10.0) for t in tickets]
        assert all(0.0 <= v <= 1.0 for v in values)
        # post-close submissions degrade synchronously, never raise
        late = svc.predict_async(graphs[0])
        assert late.done()
        assert 0.0 <= late.result(0.0) <= 1.0

    def test_ticket_result_is_one_shot(self):
        t = Ticket()
        assert t.set_result(0.25)
        assert not t.set_result(0.75)
        assert not t.set_exception(RuntimeError("late"))
        assert t.result(0.0) == 0.25

    def test_ticket_exception_is_one_shot(self):
        t = Ticket()
        assert t.set_exception(RuntimeError("down"))
        assert not t.set_result(0.5)
        with pytest.raises(RuntimeError):
            t.result(0.0)

    def test_predict_timeout_sheds_to_fallback(self):
        g = _small_graphs(1)[0]
        with obs.observed() as (_, registry):
            with PredictorService(_model(), A100) as svc:
                svc.batcher.pause()
                value = svc.predict(g, timeout=0.05)
                assert 0.0 <= value <= 1.0
                assert svc.fallback.tier_counts["constant"] == 1
                assert svc.stats()["deadline_shed"] == 1
                svc.batcher.resume()
        counts = _counter_values(registry)
        assert counts["serve_deadline_shed_total"] == 1

    def test_late_result_after_deadline_is_discarded(self):
        """The dispatcher's late answer never double-resolves."""
        g = _small_graphs(1)[0]
        with PredictorService(_model(), A100) as svc:
            svc.batcher.pause()
            shed_value = svc.predict(g, timeout=0.05)
            svc.batcher.resume()
            # let the paused request flush; its result lands in the
            # result cache but must not rewrite the shed ticket
            direct = _model().predict(encode_graph(g, A100))
            second = svc.predict(g)
        assert shed_value == svc.fallback(g, A100)[0]
        assert second == direct  # fresh request sees the real answer

    def test_timeout_none_still_blocks_for_real_answer(self):
        g = _small_graphs(1)[0]
        model = _model()
        with PredictorService(model, A100) as svc:
            assert svc.predict(g) == model.predict(encode_graph(g, A100))
        assert svc.stats()["deadline_shed"] == 0
