"""Resilience subsystem: deterministic fault injection, chaos-mode
simulation (bit-identical when faults are off), checksummed checkpoints,
bit-identical trainer resume, and the predictor fallback chain.
"""

from __future__ import annotations

import math
import shutil

import numpy as np
import pytest

from repro import obs
from repro.baselines import AnalyticalPredictor
from repro.core import DNNOccu, DNNOccuConfig, TrainConfig, Trainer
from repro.gpu import A100
from repro.graph import DataEdge, GraphBuilder
from repro.resilience import (CheckpointError, ExponentialBackoff,
                              FallbackPredictor, FaultConfig, FaultInjector,
                              analytical_tier, constant_tier,
                              default_fallback_chain, gnn_tier,
                              load_checkpoint, save_checkpoint)
from repro.sched import (Job, NvmlUtilPacking, OccuPacking, SlotPacking,
                         make_job, simulate)
from repro.models import ModelConfig


def job(jid=0, dur=10.0, occ=0.3, nvml=0.5, pred_occ=None, arrival=0.0):
    return Job(job_id=jid, model_name="m", duration_s=dur, occupancy=occ,
               nvml_utilization=nvml, predicted_occupancy=pred_occ,
               arrival_s=arrival)


def tiny_graph(broken=False):
    b = GraphBuilder("tiny")
    x = b.input((2, 3, 8, 8))
    y = b.conv2d(x, 4, 3, padding=1)
    y = b.relu(y)
    y = b.flatten(y)
    b.linear(y, 10)
    g = b.finish()
    if broken:
        # G002 self-loop: rejected by the lint preflight, but still
        # encodes to finite summary statistics (the analytical tier
        # can serve it).
        g.edges.append(DataEdge(src=2, dst=2,
                                tensor_shape=g.nodes[2].output_shape))
    return g


# --------------------------------------------------------------------- #
# Backoff
# --------------------------------------------------------------------- #

class TestBackoff:
    def test_caps_and_grows(self):
        b = ExponentialBackoff(base_s=1.0, factor=2.0, cap_s=10.0)
        assert b.schedule(6) == [1.0, 2.0, 4.0, 8.0, 10.0, 10.0]

    def test_large_attempt_does_not_overflow(self):
        b = ExponentialBackoff(base_s=1.0, factor=2.0, cap_s=30.0)
        assert b.delay(10_000) == 30.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialBackoff(base_s=0.0)
        with pytest.raises(ValueError):
            ExponentialBackoff(factor=0.5)
        with pytest.raises(ValueError):
            ExponentialBackoff(base_s=5.0, cap_s=1.0)
        with pytest.raises(ValueError):
            ExponentialBackoff().delay(0)


# --------------------------------------------------------------------- #
# FaultInjector
# --------------------------------------------------------------------- #

class TestFaultInjector:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(gpu_mtbf_s=-1.0)
        with pytest.raises(ValueError):
            FaultConfig(gpu_mttr_s=0.0)
        with pytest.raises(ValueError):
            FaultConfig(crash_prob=1.0)
        with pytest.raises(ValueError):
            FaultConfig(mispredict_std=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(checkpoint_interval_s=0.0)
        with pytest.raises(ValueError):
            FaultConfig(max_retries=-1)

    def test_transitions_deterministic_and_alternating(self):
        cfg = FaultConfig(gpu_mtbf_s=100.0, gpu_mttr_s=10.0)
        a = FaultInjector(cfg, seed=3)
        b = FaultInjector(cfg, seed=3)
        ta = [next(a.transitions(0)) for _ in range(1)]
        # Full streams, consumed independently, must agree event by event.
        ga, gb = a.transitions(0), b.transitions(0)
        events = [(next(ga), next(gb)) for _ in range(6)]
        assert all(x == y for x, y in events)
        times = [t for (t, _), _ in events]
        ups = [u for (_, u), _ in events]
        assert times == sorted(times)
        assert ups == [False, True, False, True, False, True]
        assert ta[0] == events[0][0]

    def test_transitions_order_independent(self):
        cfg = FaultConfig(gpu_mtbf_s=50.0)
        a = FaultInjector(cfg, seed=1)
        b = FaultInjector(cfg, seed=1)
        # Consuming GPU 1's stream first must not shift GPU 0's.
        _ = [next(b.transitions(1)) for _ in range(3)]
        assert next(a.transitions(0)) == next(b.transitions(0))

    def test_permanent_outage_ends_stream(self):
        inj = FaultInjector(
            FaultConfig(gpu_mtbf_s=10.0, gpu_mttr_s=math.inf), seed=0)
        events = list(inj.transitions(0))
        assert len(events) == 1 and events[0][1] is False

    def test_no_mtbf_no_outages(self):
        assert list(FaultInjector(FaultConfig(), 0).transitions(0)) == []

    def test_crash_fraction_bounds_and_determinism(self):
        inj = FaultInjector(FaultConfig(crash_prob=0.5), seed=2)
        for jid in range(20):
            frac = inj.crash_fraction(jid, 0)
            assert frac == inj.crash_fraction(jid, 0)
            if frac is not None:
                assert 0.05 <= frac <= 0.95
        assert FaultInjector(FaultConfig(), 0).crash_fraction(0, 0) is None

    def test_perturb_occupancy_clipped_and_identity(self):
        inj = FaultInjector(FaultConfig(mispredict_std=2.0), seed=0)
        for jid in range(30):
            assert 0.0 <= inj.perturb_occupancy(jid, 0.5) <= 1.0
        quiet = FaultInjector(FaultConfig(), 0)
        assert quiet.perturb_occupancy(0, 0.37) == 0.37

    def test_requeue_delay_follows_backoff(self):
        cfg = FaultConfig(backoff=ExponentialBackoff(base_s=2.0,
                                                     factor=3.0,
                                                     cap_s=50.0))
        inj = FaultInjector(cfg, seed=0)
        assert inj.requeue_delay(7, 1) == 2.0
        assert inj.requeue_delay(7, 3) == 18.0


# --------------------------------------------------------------------- #
# Chaos simulation
# --------------------------------------------------------------------- #

def chaos_jobs(n=8):
    return [job(i, dur=10.0 + 3.0 * i, occ=0.2 + 0.07 * (i % 4),
                nvml=0.5) for i in range(n)]


CRASHY = FaultConfig(crash_prob=0.5, checkpoint_interval_s=5.0,
                     backoff=ExponentialBackoff(base_s=0.5, factor=2.0,
                                                cap_s=8.0))


class TestChaosSimulation:
    @pytest.mark.parametrize("policy_cls", [SlotPacking, NvmlUtilPacking,
                                            OccuPacking])
    def test_zero_faults_bit_identical_to_plain(self, policy_cls):
        jobs = chaos_jobs()
        plain = simulate(jobs, 2, policy_cls())
        chaos = simulate(jobs, 2, policy_cls(),
                         faults=FaultInjector(FaultConfig(), seed=0))
        assert chaos.makespan_s == plain.makespan_s
        assert chaos.nvml_integral_s == plain.nvml_integral_s
        assert chaos.busy_integral_s == plain.busy_integral_s
        assert (chaos.evictions, chaos.retries, chaos.failed_jobs) \
            == (0, 0, 0)
        assert chaos.wasted_s == 0.0
        assert chaos.goodput_fraction == 1.0

    def test_same_seed_same_result(self):
        jobs = chaos_jobs()
        runs = [simulate(jobs, 2, OccuPacking(),
                         faults=FaultInjector(CRASHY, seed=5))
                for _ in range(2)]
        a, b = runs
        assert a.makespan_s == b.makespan_s
        assert a.evictions == b.evictions
        assert a.retries == b.retries
        assert a.wasted_s == b.wasted_s
        assert a.gpu_downtime_s == b.gpu_downtime_s

    def test_crashes_evict_and_still_complete(self):
        jobs = chaos_jobs()
        res = simulate(jobs, 2, OccuPacking(),
                       faults=FaultInjector(CRASHY, seed=5))
        assert res.evictions > 0
        assert res.retries == res.evictions  # budget never exhausted
        assert res.failed_jobs == 0
        assert all(j.finish_s is not None for j in res.jobs)
        assert res.wasted_s > 0.0
        assert 0.0 < res.goodput_fraction < 1.0
        assert res.goodput_s == pytest.approx(
            sum(j.duration_s for j in jobs))
        # Wasted work stretches the schedule beyond the fault-free one.
        assert res.makespan_s > simulate(jobs, 2, OccuPacking()).makespan_s

    def test_checkpointing_bounds_waste(self):
        jobs = chaos_jobs()
        base = dict(crash_prob=0.5,
                    backoff=ExponentialBackoff(base_s=0.5, factor=2.0,
                                               cap_s=8.0))
        with_ckpt = simulate(
            jobs, 2, OccuPacking(),
            faults=FaultInjector(
                FaultConfig(checkpoint_interval_s=2.0, **base), seed=5))
        without = simulate(
            jobs, 2, OccuPacking(),
            faults=FaultInjector(FaultConfig(**base), seed=5))
        # Identical crash schedule; checkpoints can only reduce rollback.
        assert with_ckpt.evictions == without.evictions
        assert with_ckpt.wasted_s < without.wasted_s

    def test_retry_budget_exhaustion_drops_jobs(self):
        jobs = chaos_jobs()
        cfg = FaultConfig(crash_prob=0.9, max_retries=1,
                          backoff=ExponentialBackoff(base_s=0.1,
                                                     cap_s=0.2))
        res = simulate(jobs, 2, OccuPacking(),
                       faults=FaultInjector(cfg, seed=11))
        assert res.failed_jobs > 0
        lost = [j for j in res.jobs if j.failed]
        assert len(lost) == res.failed_jobs
        assert all(j.finish_s is None for j in lost)
        assert all(j.evictions == 2 for j in lost)  # budget 1 -> 2nd kills
        # Lost jobs contribute nothing to goodput.
        assert res.goodput_s == pytest.approx(
            sum(j.duration_s for j in res.jobs if not j.failed))

    def test_gpu_outage_evicts_and_accumulates_downtime(self):
        jobs = chaos_jobs(4)
        cfg = FaultConfig(gpu_mtbf_s=15.0, gpu_mttr_s=5.0,
                          checkpoint_interval_s=4.0,
                          backoff=ExponentialBackoff(base_s=0.5, cap_s=4.0))
        res = simulate(jobs, 2, OccuPacking(),
                       faults=FaultInjector(cfg, seed=4))
        assert res.evictions > 0
        assert res.gpu_downtime_s > 0.0
        assert all(j.finish_s is not None for j in res.jobs)

    def test_mispredict_noise_changes_sched_view_only(self):
        jobs = [job(i, dur=5.0, occ=0.4, pred_occ=0.4) for i in range(6)]
        cfg = FaultConfig(mispredict_std=0.8)
        simulate(jobs, 2, OccuPacking(),
                 faults=FaultInjector(cfg, seed=9))
        assert any(j.noisy_occupancy is not None
                   and abs(j.noisy_occupancy - 0.4) > 1e-6 for j in jobs)
        # Ground truth and the prediction itself are untouched.
        assert all(j.occupancy == pytest.approx(0.4) for j in jobs)
        assert all(j.predicted_occupancy == pytest.approx(0.4)
                   for j in jobs)
        # Fault-free rerun of the same list clears the noise.
        simulate(jobs, 2, OccuPacking())
        assert all(j.noisy_occupancy is None for j in jobs)

    def test_fault_metrics_recorded(self):
        jobs = chaos_jobs()
        with obs.observed() as (_, registry):
            simulate(jobs, 2, OccuPacking(),
                     faults=FaultInjector(CRASHY, seed=5))
            dump = registry.to_dict()
        faults = dump.get("resilience_faults_total", [])
        assert any(m["labels"].get("kind") == "crash" and m["value"] > 0
                   for m in faults)
        retries = dump.get("resilience_retries", [])
        assert retries and retries[0]["value"]["count"] == len(jobs)


# --------------------------------------------------------------------- #
# Checkpoint container
# --------------------------------------------------------------------- #

class TestCheckpointContainer:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        arrays = {"w": np.arange(6, dtype=np.float64).reshape(2, 3),
                  "b": np.array([1.5, -2.5])}
        meta = {"epoch": 3, "note": "hi"}
        digest = save_checkpoint(path, arrays, meta, component="test")
        loaded, got_meta = load_checkpoint(path, component="test")
        assert got_meta == meta
        assert len(digest) == 64
        assert set(loaded) == {"w", "b"}
        np.testing.assert_array_equal(loaded["w"], arrays["w"])
        np.testing.assert_array_equal(loaded["b"], arrays["b"])

    @pytest.mark.parametrize("array", [
        np.asfortranarray(np.arange(12.0).reshape(3, 4)),
        np.zeros((0, 3)), np.float32(3.5), np.array([True, False]),
        np.arange(5, dtype=">i4"), np.arange(7, dtype=np.uint8),
        np.array(["ab", "c"]),
        np.zeros(2, dtype=[("a", "<i4"), ("b", "<f8")]),
    ], ids=["fortran", "empty", "scalar", "bool", "big-endian", "uint8",
            "unicode", "structured"])
    def test_loads_what_np_load_loads(self, tmp_path, array):
        path = str(tmp_path / "a.ckpt")
        save_checkpoint(path, {"x": array}, {})
        got = load_checkpoint(path)[0]["x"]
        assert got.dtype == array.dtype and got.shape == np.shape(array)
        assert got.flags.f_contiguous == np.asarray(array).flags.f_contiguous
        assert got.flags.writeable
        np.testing.assert_array_equal(got, array)

    def test_object_array_refused(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        save_checkpoint(path, {"x": np.array([{}, None])}, {})
        with pytest.raises(CheckpointError, match="failed to parse"):
            load_checkpoint(path)

    def test_no_temp_litter(self, tmp_path):
        save_checkpoint(str(tmp_path / "a.ckpt"), {"x": np.zeros(2)}, {})
        assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]

    def test_reserved_meta_key(self, tmp_path):
        with pytest.raises(ValueError):
            save_checkpoint(str(tmp_path / "a.ckpt"),
                            {"__meta__": np.zeros(1)}, {})

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(str(path), {"x": np.arange(100.0)}, {"k": 1})
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(str(path))

    def test_bad_magic_and_missing_file(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "missing"))

    def test_counters(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        with obs.observed() as (_, registry):
            save_checkpoint(path, {"x": np.zeros(1)}, {}, component="t")
            load_checkpoint(path, component="t")
            dump = registry.to_dict()
        assert dump["resilience_checkpoints_total"][0]["value"] == 1.0
        assert dump["resilience_restores_total"][0]["value"] == 1.0


# --------------------------------------------------------------------- #
# Trainer checkpoint/resume
# --------------------------------------------------------------------- #

CFG = TrainConfig(epochs=6, lr=1e-3, batch_size=4, seed=3)


def fresh_trainer(cfg=CFG):
    return Trainer(DNNOccu(DNNOccuConfig(hidden=8, num_heads=2), seed=1),
                   cfg)


class TestTrainerResume:
    def test_resume_is_bit_identical(self, tiny_dataset, tmp_path,
                                     monkeypatch):
        ckpt = str(tmp_path / "run.ckpt")
        mid = str(tmp_path / "mid.ckpt")
        orig = Trainer._save_checkpoint

        def spy(self, path, next_epoch, *args, **kwargs):
            orig(self, path, next_epoch, *args, **kwargs)
            if next_epoch == 3:
                shutil.copy(path, mid)

        monkeypatch.setattr(Trainer, "_save_checkpoint", spy)
        t_full = fresh_trainer()
        hist_full = t_full.fit(tiny_dataset, checkpoint_path=ckpt)

        # "Killed after epoch 3": a fresh process resumes from mid.ckpt.
        t_res = fresh_trainer()
        hist_res = t_res.fit(tiny_dataset, resume_from=mid)
        assert hist_res.train_loss == hist_full.train_loss
        full_sd = t_full.model.state_dict()
        for name, arr in t_res.model.state_dict().items():
            np.testing.assert_array_equal(arr, full_sd[name])

    def test_resume_restores_history_prefix(self, tiny_dataset, tmp_path):
        ckpt = str(tmp_path / "run.ckpt")
        cfg = TrainConfig(epochs=3, lr=1e-3, batch_size=4, seed=3)
        done = fresh_trainer(cfg).fit(tiny_dataset, checkpoint_path=ckpt)
        # Resuming a *finished* run trains zero further epochs.
        t = fresh_trainer(cfg)
        hist = t.fit(tiny_dataset, resume_from=ckpt)
        assert hist.train_loss == done.train_loss

    def test_corrupt_checkpoint_rejected(self, tiny_dataset, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        cfg = TrainConfig(epochs=2, lr=1e-3, batch_size=4, seed=3)
        fresh_trainer(cfg).fit(tiny_dataset, checkpoint_path=str(ckpt))
        raw = bytearray(ckpt.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        ckpt.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            fresh_trainer(cfg).fit(tiny_dataset, resume_from=str(ckpt))

    def test_config_mismatch_rejected(self, tiny_dataset, tmp_path):
        ckpt = str(tmp_path / "run.ckpt")
        cfg = TrainConfig(epochs=2, lr=1e-3, batch_size=4, seed=3)
        fresh_trainer(cfg).fit(tiny_dataset, checkpoint_path=ckpt)
        other = TrainConfig(epochs=2, lr=5e-4, batch_size=4, seed=3)
        with pytest.raises(ValueError, match="lr"):
            fresh_trainer(other).fit(tiny_dataset, resume_from=ckpt)

    def test_non_trainer_checkpoint_rejected(self, tiny_dataset, tmp_path):
        path = str(tmp_path / "other.ckpt")
        save_checkpoint(path, {"x": np.zeros(1)}, {"kind": "other"})
        with pytest.raises(CheckpointError, match="not a trainer"):
            fresh_trainer().fit(tiny_dataset, resume_from=path)

    def test_checkpoint_every_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            fresh_trainer().fit(tiny_dataset, checkpoint_every=0)

    def test_best_state_restore_counted(self, tiny_dataset):
        cfg = TrainConfig(epochs=5, lr=1e-3, batch_size=4, seed=3,
                          patience=1)
        with obs.observed() as (_, registry):
            fresh_trainer(cfg).fit(tiny_dataset, val=tiny_dataset)
            dump = registry.to_dict()
        assert dump["trainer_best_state_restores_total"][0]["value"] == 1.0


# --------------------------------------------------------------------- #
# Fallback chain
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def fitted_analytical(tiny_dataset):
    return AnalyticalPredictor().fit(tiny_dataset)


class TestFallbackChain:
    def test_validation(self):
        with pytest.raises(ValueError):
            FallbackPredictor([])
        with pytest.raises(ValueError):
            FallbackPredictor([("a", float), ("a", float)])
        with pytest.raises(ValueError):
            FallbackPredictor([constant_tier()], conservative=1.5)
        with pytest.raises(ValueError):
            constant_tier(2.0)

    def test_primary_serves_clean_graph(self, fitted_analytical):
        model = DNNOccu(DNNOccuConfig(hidden=8, num_heads=2), seed=1)
        chain = default_fallback_chain(model=model,
                                       analytical=fitted_analytical)
        mean, std = chain(tiny_graph(), A100)
        assert 0.0 <= mean <= 1.0 and std == 0.0
        assert chain.last_tier == "gnn"
        assert chain.counts() == {"gnn": 1, "analytical": 0, "constant": 0}

    def test_lint_failing_graph_degrades_to_analytical(
            self, fitted_analytical):
        model = DNNOccu(DNNOccuConfig(hidden=8, num_heads=2), seed=1)
        chain = default_fallback_chain(model=model,
                                       analytical=fitted_analytical)
        with obs.observed() as (_, registry):
            mean, _ = chain(tiny_graph(broken=True), A100)
            dump = registry.to_dict()
        assert 0.0 <= mean <= 1.0
        assert chain.last_tier == "analytical"
        fb = dump["resilience_fallbacks_total"]
        assert fb[0]["labels"] == {"tier": "analytical"}
        assert fb[0]["value"] == 1.0
        faults = dump["resilience_faults_total"]
        assert any(m["labels"] == {"component": "predictor", "tier": "gnn"}
                   for m in faults)

    def test_all_tiers_fail_serves_constant(self):
        def boom(graph, device=None):
            raise RuntimeError("down")
        chain = FallbackPredictor([("a", boom), constant_tier(0.8)])
        assert chain(tiny_graph(broken=True), A100) == (0.8, 0.0)
        assert chain.last_tier == "constant"

    def test_non_finite_tier_output_is_a_failure(self):
        chain = FallbackPredictor([("nan", lambda g, d=None: float("nan")),
                                   constant_tier(0.5)])
        assert chain(tiny_graph(), A100) == (0.5, 0.0)
        assert chain.last_tier == "constant"

    def test_defensive_terminal_when_every_tier_fails(self):
        def boom(graph, device=None):
            raise RuntimeError("down")
        chain = FallbackPredictor([("only", boom)], conservative=0.9)
        assert chain(tiny_graph(), A100) == (0.9, 0.0)
        assert chain.last_tier == "conservative"

    def test_mean_and_std_clipped(self):
        chain = FallbackPredictor([("wild",
                                    lambda g, d=None: (1.7, -0.2))])
        assert chain(tiny_graph(), A100) == (1.0, 0.0)

    def test_make_job_passes_graph_to_chain(self, fitted_analytical):
        seen = {}

        def probe(graph, device=None):
            seen["nodes"] = graph.num_nodes
            seen["device"] = device.name
            return 0.55

        chain = FallbackPredictor([("probe", probe)])
        j = make_job(0, "lenet", ModelConfig(batch_size=16), A100,
                     iterations=50, predictor=chain)
        assert seen["nodes"] > 0 and seen["device"] == "A100"
        assert j.predicted_occupancy == pytest.approx(0.55)
        # The degraded prediction flows into a completing simulation.
        res = simulate([j], 1, OccuPacking())
        assert res.jobs[0].finish_s is not None

    def test_analytical_predict_one_matches_batch_path(
            self, fitted_analytical, tiny_dataset):
        sample = tiny_dataset[0]
        one = fitted_analytical.predict_one(sample.features)
        batch = fitted_analytical.predict(
            type(tiny_dataset)([sample]))[0]
        assert one == pytest.approx(float(batch))
