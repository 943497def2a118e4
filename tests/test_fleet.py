"""repro.fleet: supervised multi-worker fleet with failover and chaos.

The contracts under test are the PR's acceptance gates:

* thread-mode fleet predictions are **bit-identical** to direct
  ``model.predict`` across the zoo, repeats hit the per-worker LRU, and
  a second fleet over the same disk tier pays zero forwards;
* the hash ring is stable (removing a worker only moves that worker's
  keys), balanced, and yields a deterministic failover order;
* under ``FaultInjector`` worker-kill + hang chaos every ticket still
  resolves (zero dropped requests), killed workers are restarted with
  backoff and re-join the ring, and stale results from a dead
  incarnation are discarded rather than double-resolving a ticket;
* when every retry is exhausted the ticket degrades through the shared
  tier into the fallback chain instead of raising;
* ``close()`` drains gracefully and is idempotent; post-close predicts
  degrade synchronously rather than raising;
* thread and process hosts run one serve step: fault verdicts drawn
  in arrival order, the clean prefix served, the faulted suffix lost;
* process mode spawns real child processes, matches thread mode, and
  survives its kill (``os._exit``) and silent-hang faults.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core import DNNOccu, DNNOccuConfig
from repro.features import encode_graph
from repro.gpu import get_device
from repro.models import ModelConfig, build_model, list_models
from repro.perf.cache import PredictionCache, graph_key
from repro.resilience import (ExponentialBackoff, FallbackPredictor,
                              FaultConfig, FaultInjector, constant_tier)
from repro.fleet import (FleetService, HashRing, Supervisor, WorkerCore,
                         WorkerSpec)

A100 = get_device("A100")


def _model(hidden: int = 32, seed: int = 7) -> DNNOccu:
    return DNNOccu(DNNOccuConfig(hidden=hidden, num_heads=4), seed=seed)


def _small_graphs(count: int = 8) -> list:
    names = ("lenet", "alexnet", "rnn", "lstm")
    return [build_model(names[i % len(names)],
                        ModelConfig(batch_size=2 ** (1 + i // len(names))))
            for i in range(count)]


def _wait_until(predicate, timeout_s: float = 30.0) -> bool:
    gate = threading.Event()
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        gate.wait(0.05)
    return predicate()


# --------------------------------------------------------------------- #
# hash ring
# --------------------------------------------------------------------- #

class TestHashRing:
    def test_add_remove_idempotent(self):
        ring = HashRing()
        ring.add(0)
        ring.add(0)
        ring.add(1)
        assert ring.members() == [0, 1]
        ring.remove(1)
        ring.remove(1)
        assert ring.members() == [0]
        assert 0 in ring and 1 not in ring

    def test_removal_only_moves_the_dead_workers_keys(self):
        ring = HashRing()
        for wid in range(4):
            ring.add(wid)
        keys = [f"key-{i}" for i in range(200)]
        before = {k: ring.candidates(k, limit=1)[0] for k in keys}
        ring.remove(2)
        for k in keys:
            owner = ring.candidates(k, limit=1)[0]
            if before[k] != 2:
                assert owner == before[k]
            else:
                assert owner != 2

    def test_distribution_is_roughly_balanced(self):
        ring = HashRing()
        for wid in range(4):
            ring.add(wid)
        loads = {wid: 0 for wid in range(4)}
        for i in range(400):
            loads[ring.candidates(f"key-{i}", limit=1)[0]] += 1
        # 64 virtual nodes per worker: no worker should starve or hog
        assert min(loads.values()) >= 40
        assert max(loads.values()) <= 200

    def test_candidates_are_distinct_and_failover_is_promotion(self):
        ring = HashRing()
        for wid in range(4):
            ring.add(wid)
        cands = ring.candidates("some-key")
        assert sorted(cands) == [0, 1, 2, 3]
        home, successor = cands[0], cands[1]
        ring.remove(home)
        assert ring.candidates("some-key", limit=1)[0] == successor

    def test_graph_keys_route_consistently(self):
        ring = HashRing()
        ring.add(0)
        ring.add(1)
        g = _small_graphs(1)[0]
        key = graph_key(g, A100)
        assert ring.candidates(key, limit=1)[0] == \
            ring.candidates(key, limit=1)[0]


# --------------------------------------------------------------------- #
# fault stream / shared disk tier
# --------------------------------------------------------------------- #

class TestWorkerFaultStream:
    def test_deterministic_per_worker_and_incarnation(self):
        cfg = FaultConfig(worker_kill_prob=0.3, worker_hang_prob=0.1)
        a = [FaultInjector(cfg, seed=5).worker_fault(1, 0, i)
             for i in range(50)]
        b = [FaultInjector(cfg, seed=5).worker_fault(1, 0, i)
             for i in range(50)]
        assert a == b
        c = [FaultInjector(cfg, seed=5).worker_fault(1, 1, i)
             for i in range(50)]
        assert a != c  # a restarted worker draws a fresh stream

    def test_zero_probability_never_faults(self):
        inj = FaultInjector(FaultConfig(), seed=5)
        assert all(inj.worker_fault(0, 0, i) is None for i in range(100))

    def test_serve_step_stops_at_the_first_fault(self):
        cfg = FaultConfig(worker_kill_prob=0.3, worker_hang_prob=0.1)
        inj = FaultInjector(cfg, seed=5)
        verdicts = [inj.worker_fault(1, 0, i) for i in range(50)]
        first = next(i for i, v in enumerate(verdicts) if v is not None)
        core = WorkerCore(WorkerSpec(worker_id=1, fault_config=cfg,
                                     fault_seed=5))
        drained = [(100 + i, g, None)
                   for i, g in enumerate(_small_graphs(first + 4))]
        emitted = []
        fault = core.serve(drained,
                           lambda *answer: emitted.append(answer))
        assert fault == verdicts[first]
        # the clean prefix is answered in order; the faulted request and
        # those behind it are not, and drew no verdicts: the stream
        # resumes right after the fault
        assert [rid for rid, _, _ in emitted] == \
            [100 + i for i in range(first)]
        assert [core.next_fault() for _ in range(20)] == \
            verdicts[first + 1:first + 21]


class TestPredictionCache:
    def test_roundtrip_and_miss(self, tmp_path):
        cache = PredictionCache(str(tmp_path))
        assert cache.get("a" * 64) is None
        cache.put("a" * 64, 0.625)
        assert cache.get("a" * 64) == 0.625
        assert len(cache) == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = PredictionCache(str(tmp_path))
        cache.put("b" * 64, 0.5)
        path = tmp_path / f"pred_{'b' * 64}.npz"
        path.write_bytes(b"not a checkpoint")
        assert cache.get("b" * 64) is None

    @pytest.mark.parametrize("bad", (float("nan"), float("inf")))
    def test_non_finite_entry_reads_as_miss(self, tmp_path, bad):
        cache = PredictionCache(str(tmp_path))
        cache.put("c" * 64, bad)
        assert cache.get("c" * 64) is None


# --------------------------------------------------------------------- #
# equivalence and cache tiers
# --------------------------------------------------------------------- #

class TestFleetEquivalence:
    def test_thread_fleet_bit_identical_across_zoo(self):
        graphs = [build_model(n, ModelConfig(batch_size=16))
                  for n in list_models()]
        model = _model()
        direct = np.array([model.predict(encode_graph(g, A100))
                           for g in graphs])
        with FleetService(num_workers=3, mode="thread") as svc:
            served = np.array([svc.predict(g) for g in graphs])
            st = svc.stats()
        np.testing.assert_array_equal(served, direct)
        assert st["served"]["forward"] == len(graphs)
        assert st["fallbacks"] == {}

    def test_repeats_hit_worker_lru(self):
        graphs = _small_graphs(4)
        with FleetService(num_workers=2, mode="thread") as svc:
            first = [svc.predict(g) for g in graphs]
            again = [svc.predict(g) for g in graphs]
            st = svc.stats()
        assert first == again
        assert st["served"]["forward"] == len(graphs)
        assert st["served"]["lru"] == len(graphs)

    def test_second_fleet_serves_from_shared_disk_tier(self, tmp_path):
        graphs = _small_graphs(6)
        with FleetService(num_workers=2, mode="thread",
                          shared_cache_dir=str(tmp_path)) as first:
            a = first.predict_many(graphs)
        with FleetService(num_workers=2, mode="thread",
                          shared_cache_dir=str(tmp_path)) as second:
            b = second.predict_many(graphs)
            st = second.stats()
        assert a == b
        assert st["served"].get("forward", 0) == 0
        assert st["served"]["shared"] == len(graphs)


# --------------------------------------------------------------------- #
# chaos: kills, hangs, retry exhaustion
# --------------------------------------------------------------------- #

class TestWorkerKillChaos:
    def test_zero_dropped_and_ring_rejoins(self):
        graphs = _small_graphs(8)
        num_workers = 4
        with FleetService(
                num_workers=num_workers, mode="thread",
                fault_config=FaultConfig(worker_kill_prob=0.2),
                fault_seed=11, hang_deadline_s=5.0) as svc:
            values = []
            for _ in range(6):
                values.extend(svc.predict(g) for g in graphs)
            assert all(isinstance(v, float) and 0.0 <= v <= 1.0
                       for v in values)
            assert len(values) == 48

            def recovered():
                st = svc.stats()
                return (len(st["ring_members"]) == num_workers
                        and st["restarts"] >= st["deaths"])

            assert _wait_until(recovered)
            st = svc.stats()
        assert st["deaths"] > 0
        assert st["restarts"] >= st["deaths"]
        assert st["retries"] > 0
        assert st["ring_members"] == list(range(num_workers))
        # late results from killed incarnations never double-resolve
        assert st["stale_results"] >= 0
        assert sum(st["served"].values()) + sum(
            st["fallbacks"].values()) >= len(values)

    def test_certain_death_degrades_to_fallback_chain(self):
        g = _small_graphs(1)[0]
        with FleetService(
                num_workers=2, mode="thread",
                fault_config=FaultConfig(worker_kill_prob=1.0),
                fault_seed=3, max_retries=2) as svc:
            value = svc.predict(g)
            st = svc.stats()
        assert 0.0 <= value <= 1.0
        assert st["fallbacks"].get("retries_exhausted", 0) >= 1
        assert st["deaths"] >= 1


class TestWorkerHangChaos:
    def test_hung_worker_is_detected_restarted_and_request_resolves(self):
        graphs = _small_graphs(4)
        with FleetService(
                num_workers=2, mode="thread",
                fault_config=FaultConfig(worker_hang_prob=1.0),
                fault_seed=7, hang_deadline_s=0.3, max_retries=1) as svc:
            # every attempt hangs; the heartbeat deadline detects each
            # and the ticket degrades instead of blocking forever
            value = svc.predict(graphs[0], timeout=30.0)
            assert 0.0 <= value <= 1.0
            st = svc.stats()
            assert st["deaths"] >= 1
            assert _wait_until(
                lambda: svc.stats()["restarts"] >= svc.stats()["deaths"])

    def test_deadline_shed_resolves_via_fallback(self):
        g = _small_graphs(2)[1]
        with FleetService(
                num_workers=1, mode="thread",
                fault_config=FaultConfig(worker_hang_prob=1.0),
                fault_seed=7, hang_deadline_s=60.0) as svc:
            # worker hangs and the deadline is far away: the caller's
            # own timeout sheds to the fallback chain
            value = svc.predict(g, timeout=0.2)
            st = svc.stats()
        assert 0.0 <= value <= 1.0
        assert st["fallbacks"].get("deadline", 0) == 1

    def test_deadline_shed_runs_the_fleet_fallback_span(self):
        g = _small_graphs(1)[0]
        with obs.observed() as (tracer, _registry):
            with FleetService(
                    num_workers=1, mode="thread",
                    fault_config=FaultConfig(worker_hang_prob=1.0),
                    fault_seed=7, hang_deadline_s=60.0) as svc:
                svc.predict(g, timeout=0.2)
        reasons = [r.attrs.get("reason") for r in tracer.events
                   if r.name == "fleet.fallback"]
        assert "deadline" in reasons


# --------------------------------------------------------------------- #
# lifecycle: drain, close, post-close degradation
# --------------------------------------------------------------------- #

class TestLifecycle:
    def test_close_is_idempotent_and_drains(self):
        graphs = _small_graphs(4)
        svc = FleetService(num_workers=2, mode="thread")
        values = svc.predict_many(graphs)
        svc.close()
        svc.close()
        assert all(0.0 <= v <= 1.0 for v in values)
        assert svc.stats()["closed"]

    def test_post_close_predict_degrades_not_raises(self):
        graphs = _small_graphs(2)
        svc = FleetService(num_workers=2, mode="thread")
        svc.predict(graphs[0])
        svc.close()
        value = svc.predict(graphs[1])
        assert 0.0 <= value <= 1.0
        assert svc.stats()["fallbacks"].get("closed", 0) >= 1

    def test_degradation_never_serves_nan_from_shared_tier(self, tmp_path):
        g = _small_graphs(1)[0]
        PredictionCache(str(tmp_path)).put(graph_key(g, A100),
                                           float("nan"))
        svc = FleetService(num_workers=1, mode="thread",
                           shared_cache_dir=str(tmp_path))
        svc.close()
        value = svc.predict(g)
        assert 0.0 <= value <= 1.0
        assert svc.stats()["fallbacks"] == {"closed": 1}

    def test_context_manager_closes(self):
        with FleetService(num_workers=1, mode="thread") as svc:
            svc.predict(_small_graphs(1)[0])
        assert svc.stats()["closed"]


class TestSupervisor:
    def test_backoff_grows_and_resets(self):
        restarted = []
        cond = threading.Condition()

        def on_restart(wid):
            with cond:
                restarted.append(wid)
                cond.notify_all()

        sup = Supervisor(health_cb=lambda now: None,
                         restart_cb=on_restart,
                         backoff=ExponentialBackoff(
                             base_s=0.01, factor=2.0, cap_s=0.05),
                         tick_s=0.01)
        try:
            d1 = sup.schedule_restart(3)
            with cond:
                cond.wait_for(lambda: restarted == [3], timeout=5.0)
            d2 = sup.schedule_restart(3)
            assert d2 > d1
            sup.note_healthy(3)
            with cond:
                cond.wait_for(lambda: restarted == [3, 3], timeout=5.0)
            d3 = sup.schedule_restart(3)
            assert d3 == d1  # attempts reset once healthy
        finally:
            sup.close()
        assert restarted[:2] == [3, 3]

    def test_callback_exception_does_not_kill_supervision(self):
        calls = []
        cond = threading.Condition()

        def broken_restart(wid):
            with cond:
                calls.append(wid)
                cond.notify_all()
            raise RuntimeError("boom")

        with Supervisor(health_cb=lambda now: None,
                        restart_cb=broken_restart, tick_s=0.01) as sup:
            sup.schedule_restart(0)
            with cond:
                cond.wait_for(lambda: calls == [0], timeout=5.0)
            sup.schedule_restart(1)
            with cond:
                cond.wait_for(lambda: calls == [0, 1], timeout=5.0)
        assert calls == [0, 1]


# --------------------------------------------------------------------- #
# process mode
# --------------------------------------------------------------------- #

class TestProcessMode:
    def test_spawned_workers_match_thread_mode(self):
        graphs = _small_graphs(2)
        model = _model()
        direct = [float(model.predict(encode_graph(g, A100)))
                  for g in graphs]
        with FleetService(num_workers=2, mode="process") as svc:
            served = [svc.predict(g, timeout=180.0) for g in graphs]
            st = svc.stats()
        assert served == direct
        assert st["served"]["forward"] == len(graphs)
        assert st["fallbacks"] == {}

    def _certain_fault(self, kind: str, fault: FaultConfig) -> None:
        """One spawned worker faults on its first request, every time.

        With no retries the orphaned ticket must resolve once, through
        the fallback chain; the death is counted under ``kind``; and
        close leaves no child process behind.
        """
        g = _small_graphs(1)[0]
        with obs.observed() as (_tracer, registry):
            svc = FleetService(
                num_workers=1, mode="process", fault_config=fault,
                fault_seed=5, max_retries=0, hang_deadline_s=1.0,
                fallback=FallbackPredictor([constant_tier(0.25)]))
            value = svc.predict(g, timeout=60.0)
            svc.close()
            st = svc.stats()
        assert value == 0.25
        assert st["fallbacks"] == {"retries_exhausted": 1}
        assert st["served"] == {} and st["stale_results"] == 0
        assert svc.fallback.counts() == {"constant": 1}
        deaths = {m.labels["kind"]: m.value for m in registry
                  if m.name == "fleet_worker_deaths_total"}
        assert deaths == {kind: 1.0}
        assert st["closed"] and st["pending"] == 0 and st["workers"] == {}
        assert not [p for p in mp.active_children()
                    if p.name.startswith("repro-fleet")]

    def test_kill_fault_exits_the_child_and_degrades(self):
        self._certain_fault("kill", FaultConfig(worker_kill_prob=1.0))

    def test_hang_fault_is_detected_and_degrades(self):
        self._certain_fault("hang", FaultConfig(worker_hang_prob=1.0))

