"""Trace-and-replay executor tests (docs/compile.md).

Covers the satellite checklist of the compiled-executor tentpole:

* zoo-wide traced-vs-eager equivalence (<= 1e-6 per model/device);
* signature keying: hits, misses, replay-only refusal, eager fallback;
* bounded LRU trace cache with eviction accounting;
* the grad-mode hazard: tracing/replay under grad is a hard error;
* fused-vs-unfused tape equality and fusion actually shrinking tapes;
* coverage: every ``Tensor`` op that builds a tape node is interposed,
  so none of them can be captured as a constant;
* arena buffer reuse without aliasing between live slots;
* adoption: ``predict_batch(traced=True)`` is the one opt-in switch;
  ``PredictorService`` flushes, ``predict_many`` and ``WorkerCore``
  serve the eager batched forward and never compile a plan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DNNOccu, DNNOccuConfig
from repro.features import encode_graph
from repro.gpu import A100, P40
from repro.models import ModelConfig, build_model, list_models
from repro.perf.batching import collate, ensure_spd
from repro.tensor import Tensor, no_grad
from repro.tensor.trace import (_PATCHED_ATTRS, DEFAULT_CACHE_SIZE,
                                GradModeError,
                                TraceCache, TraceMissError, TracedExecutor,
                                batch_signature, compile_tape, fuse_tape,
                                trace_forward)


def _model(hidden: int = 32, seed: int = 7) -> DNNOccu:
    return DNNOccu(DNNOccuConfig(hidden=hidden, num_heads=4), seed=seed)


def _batch(names, batch_sizes, device=A100):
    feats = [encode_graph(build_model(n, ModelConfig(batch_size=bs)),
                          device)
             for n in names for bs in batch_sizes]
    for f in feats:
        ensure_spd(f)
    return collate(feats)


@pytest.fixture(scope="module")
def model():
    return _model()


class TestZooEquivalence:
    @pytest.mark.parametrize("name", list_models())
    @pytest.mark.parametrize("device", [A100, P40],
                             ids=lambda d: d.name)
    def test_traced_matches_eager(self, model, name, device):
        batch = _batch((name,), (1, 4), device)
        with no_grad():
            eager = np.asarray(model.forward_batch(batch).data)
            traced = model.traced_executor().run(batch)
        assert np.abs(traced - eager).max() <= 1e-6

    def test_mixed_family_batch(self, model):
        batch = _batch(("lenet", "rnn", "lstm", "alexnet"), (1, 2, 4))
        with no_grad():
            eager = np.asarray(model.forward_batch(batch).data)
            traced = model.traced_executor().run(batch)
        assert np.abs(traced - eager).max() <= 1e-6


class TestSignatureAndCache:
    def test_second_run_hits_cache(self):
        executor = TracedExecutor(_model())
        batch = _batch(("rnn",), (1, 2))
        with no_grad():
            first = executor.run(batch)
            assert len(executor.cache) == 1
            second = executor.run(batch)
        assert len(executor.cache) == 1
        assert np.array_equal(first, second)

    def test_replay_only_mode_refuses_unseen_signature(self):
        executor = TracedExecutor(_model())
        seen = _batch(("rnn",), (1, 2))
        unseen = _batch(("lenet", "alexnet"), (1, 2))
        with no_grad():
            executor.run(seen)
            with pytest.raises(TraceMissError):
                executor.run(unseen, allow_trace=False)
            # The default mode compiles the new signature instead.
            got = executor.run(unseen)
            want = np.asarray(_model().forward_batch(unseen).data)
        assert np.abs(got - want).max() <= 1e-6
        assert len(executor.cache) == 2

    def test_batch_size_changes_values_not_signature(self):
        # rnn@bs1 and rnn@bs8 differ only in feature *values*: same
        # signature, one compiled plan, correct per-batch outputs.
        executor = TracedExecutor(_model())
        a = _batch(("rnn",), (1, 2))
        b = _batch(("rnn",), (8, 16))
        assert batch_signature(a) == batch_signature(b)
        with no_grad():
            out_a = executor.run(a)
            out_b = executor.run(b)
            want_b = np.asarray(_model().forward_batch(b).data)
        assert len(executor.cache) == 1
        assert not np.array_equal(out_a, out_b)
        assert np.abs(out_b - want_b).max() <= 1e-6

    def test_padded_replay_recomputes_every_op(self):
        # A plan compiled on one padded batch replays another with the
        # same signature but different feature values: an op the tracer
        # missed would replay the first batch's value as a constant.
        executor = TracedExecutor(_model())
        a = _batch(("lenet", "alexnet"), (1,))
        b = _batch(("lenet", "alexnet"), (16,))
        assert batch_signature(a) == batch_signature(b)
        assert a.num_graphs * a.n_max != a.total_nodes
        assert not np.array_equal(a.node_features, b.node_features)
        with no_grad():
            executor.run(a)
            got = executor.run(b)
            want = np.asarray(_model().forward_batch(b).data)
        assert len(executor.cache) == 1
        assert np.abs(got - want).max() <= 1e-6

    def test_lru_eviction_is_bounded_and_counted(self):
        executor = TracedExecutor(_model(), capacity=2)
        batches = [_batch(("rnn",), (1,)),
                   _batch(("rnn", "lstm"), (1,)),
                   _batch(("lenet",), (1,))]
        sigs = [batch_signature(b) for b in batches]
        assert len(set(sigs)) == 3
        with no_grad():
            for b in batches:
                executor.run(b)
        assert len(executor.cache) == 2
        assert executor.cache.evictions == 1
        assert sigs[0] not in executor.cache.signatures()
        assert sigs[1] in executor.cache.signatures()
        assert sigs[2] in executor.cache.signatures()

    def test_cache_capacity_validation_and_default(self):
        with pytest.raises(ValueError):
            TraceCache(capacity=0)
        assert TraceCache().capacity == DEFAULT_CACHE_SIZE == 64

    def test_arena_bytes_accounting(self):
        executor = TracedExecutor(_model())
        batch = _batch(("rnn",), (1, 2))
        with no_grad():
            executor.run(batch)
        assert executor.cache.arena_bytes() > 0


class TestGradMode:
    def test_run_under_grad_raises(self, model):
        batch = _batch(("rnn",), (1, 2))
        with pytest.raises(GradModeError):
            model.traced_executor().run(batch)

    def test_trace_forward_under_grad_raises(self, model):
        batch = _batch(("rnn",), (1, 2))
        with pytest.raises(GradModeError):
            trace_forward(model, batch)

    def test_grad_mode_error_not_swallowed_by_fallback(self, model):
        # predict_batch's eager fallback must not mask the caller bug:
        # it catches TraceError, and GradModeError is deliberately not
        # one.  (predict_batch itself enters no_grad, so exercise the
        # hazard at the executor layer a trainer would hit.)
        from repro.tensor.trace import TraceError
        assert not issubclass(GradModeError, TraceError)

    def test_training_path_stays_eager_and_differentiable(self):
        model = _model()
        batch = _batch(("rnn",), (1, 2))
        with no_grad():
            model.predict_batch([], batch_size=None)  # no-op warm call
        preds = model.forward_batch(batch)
        (preds.sum()).backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads, "eager batched forward must keep autograd alive"


class TestFusion:
    def test_fusion_shrinks_tape_and_preserves_replay(self, model):
        batch = _batch(("rnn", "lstm"), (1, 2))
        with no_grad():
            tape, ref = trace_forward(model, batch)
            fused, eliminated = fuse_tape(tape)
            assert eliminated > 0
            assert len(fused.ops) == len(tape.ops) - eliminated
            plain = compile_tape(tape, model).replay(batch)
            merged = compile_tape(fused, model).replay(batch)
        assert np.array_equal(plain, merged)
        assert np.abs(plain - np.asarray(ref)).max() <= 1e-9

    def test_unfused_executor_matches(self, model):
        batch = _batch(("rnn",), (1, 2))
        with no_grad():
            fused_out = TracedExecutor(model).run(batch)
            plain_out = TracedExecutor(model, fuse=False).run(batch)
        assert np.array_equal(fused_out, plain_out)


class TestCoverage:
    def test_every_node_building_method_is_interposed(self):
        from tests.test_tensor_ops import _builds_node
        builders = {name for name, attr in vars(Tensor).items()
                    if _builds_node(attr)}
        assert {"__add__", "attention"} <= builders
        missing = builders - set(_PATCHED_ATTRS)
        assert not missing, \
            f"Tensor ops the tracer does not interpose: {sorted(missing)}"


class TestArena:
    def test_buffers_are_reused_without_live_aliasing(self, model):
        batch = _batch(("rnn", "lstm"), (1, 2))
        with no_grad():
            executor = TracedExecutor(model)
            executor.run(batch)
        plan = executor.cache.get(batch_signature(batch))
        ops = plan.tape.ops
        owners = [(i, plan.buffer_ids[i], plan.live_ranges[op.out])
                  for i, op in enumerate(ops)
                  if plan.buffer_ids[i] is not None]
        # Reuse happens: strictly fewer distinct buffers than ops.
        assert len({b for _, b, _ in owners}) < len(owners)
        # No aliasing: two ops sharing a buffer never have overlapping
        # live ranges (an op's write may coincide with the final read
        # of the previous tenant, never precede it).
        by_buffer: dict[int, list[tuple]] = {}
        for i, buf, rng in owners:
            by_buffer.setdefault(buf, []).append((i, rng))
        for tenants in by_buffer.values():
            tenants.sort()
            for (_, (_, prev_last)), (j, _) in zip(tenants, tenants[1:]):
                assert prev_last <= j, "buffer reassigned while live"

    def test_replay_reuses_plan_output_buffer_safely(self, model):
        # replay() hands back a copy: two replays must not alias.
        batch = _batch(("rnn",), (1, 2))
        with no_grad():
            executor = TracedExecutor(model)
            a = executor.run(batch)
            b = executor.run(batch)
        assert a is not b
        assert not np.shares_memory(a, b)


class TestAdoption:
    def test_session_serial_requests_bit_identical(self, model):
        from repro.serve.service import ModelSession
        session = ModelSession(model, A100)
        feats = encode_graph(build_model("rnn", ModelConfig()), A100)
        ensure_spd(feats)
        assert session.predict_features([feats]) == [model.predict(feats)]

    def test_session_batches_match_eager_within_1e6(self, model):
        from repro.serve.service import ModelSession
        feats = [encode_graph(
            build_model(n, ModelConfig(batch_size=bs)), A100)
            for n in ("rnn", "lstm") for bs in (1, 2)]
        for f in feats:
            ensure_spd(f)
        session = ModelSession(model, A100)
        eager = model.predict_batch(feats)
        assert session.predict_features(feats) == [float(v) for v in eager]
        traced = model.predict_batch(feats, traced=True)
        assert np.abs(traced - eager).max() <= 1e-6

    def test_worker_core_batches_and_caches(self):
        from repro.fleet.worker import _MAX_BATCH, WorkerCore, WorkerSpec
        assert _MAX_BATCH == 8
        core = WorkerCore(WorkerSpec(worker_id=0))
        graphs = [build_model(n, ModelConfig(batch_size=bs))
                  for n in ("rnn", "lstm") for bs in (1, 2)]
        outs = core.handle_many([(g, None) for g in graphs])
        assert [tier for _, tier in outs] == ["forward"] * len(graphs)
        again = core.handle_many([(g, None) for g in graphs])
        assert [tier for _, tier in again] == ["lru"] * len(graphs)
        assert [v for v, _ in again] == [v for v, _ in outs]
        single = core.handle_many([(graphs[0], None)])[0]
        assert single == again[0]

    def test_executor_emits_metrics(self):
        from repro.obs.metrics import install_registry, uninstall_registry
        registry = install_registry()
        try:
            executor = TracedExecutor(_model())
            batch = _batch(("rnn",), (1, 2))
            with no_grad():
                executor.run(batch)
                executor.run(batch)
            assert registry.counter(
                "trace_cache_misses_total").snapshot() == 1
            assert registry.counter(
                "trace_cache_hits_total").snapshot() == 1
            assert registry.counter(
                "trace_fused_ops_total").snapshot() > 0
            assert registry.gauge("trace_arena_bytes").snapshot() > 0
        finally:
            uninstall_registry()


class TestServingNeverCompiles:
    """Serve and fleet forwards run eager: no path compiles a plan.

    Each answer is bit-equal to ``model.predict_batch`` on the same list
    and within 1e-6 of its graph's answer alone.  rnn/lstm share a node
    count, so the size bucketing keeps these four in one input-order
    chunk and ``predict_batch(feats)`` is exactly the forward served.
    """

    GRAPHS = [build_model(n, ModelConfig(batch_size=bs))
              for n in ("rnn", "lstm") for bs in (1, 2)]

    @pytest.fixture
    def registry(self):
        from repro.obs.metrics import install_registry, uninstall_registry
        registry = install_registry()
        yield registry
        uninstall_registry()

    def _check(self, registry, model, values):
        feats = [encode_graph(g, A100) for g in self.GRAPHS]
        for f in feats:
            ensure_spd(f)
        assert registry.counter("trace_cache_misses_total").snapshot() == 0
        assert list(values) == [float(v) for v in model.predict_batch(feats)]
        alone = [model.predict(f) for f in feats]
        assert np.abs(np.array(values) - np.array(alone)).max() <= 1e-6

    def test_predict_async_flush(self, registry):
        from repro.serve import PredictorService
        model = _model()
        with PredictorService(model, A100, max_batch_size=len(self.GRAPHS),
                              deadline_s=60.0) as svc:
            svc.batcher.pause()
            tickets = [svc.predict_async(g) for g in self.GRAPHS]
            svc.batcher.resume()
            values = [t.result(timeout=30.0) for t in tickets]
            assert svc.batcher.stats()["batches_dispatched"] == 1
        self._check(registry, model, values)

    def test_predict_many(self, registry):
        from repro.serve import PredictorService
        model = _model()
        with PredictorService(model, A100) as svc:
            values = svc.predict_many(self.GRAPHS)
        self._check(registry, model, [float(v) for v in values])

    def test_worker_core_handle_many(self, registry):
        from repro.fleet.worker import WorkerCore, WorkerSpec
        core = WorkerCore(WorkerSpec(worker_id=0))
        outs = core.handle_many([(g, None) for g in self.GRAPHS])
        assert [tier for _, tier in outs] == ["forward"] * len(self.GRAPHS)
        self._check(registry, core.session.model, [v for v, _ in outs])
