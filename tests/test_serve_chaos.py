"""The chaos-serve acceptance run.

A serve run with injected dispatch faults and queue-full sheds (with a
scheduler chaos simulation alongside) must export a Chrome trace in
which every traced request still renders as a single connected span
tree."""

from __future__ import annotations

import json

from repro import obs
from repro.core import DNNOccu, DNNOccuConfig
from repro.gpu import get_device
from repro.models import ModelConfig, build_model
from repro.obs.context import reset_ids
from repro.obs.summary import request_groups, span_tree
from repro.resilience import FaultConfig, FaultInjector
from repro.sched import OccuPacking, generate_workload, simulate
from repro.serve import PredictorService

A100 = get_device("A100")


def _model(seed: int = 7) -> DNNOccu:
    return DNNOccu(DNNOccuConfig(hidden=16, num_heads=2), seed=seed)


def _graph(name: str = "lenet", batch: int = 8):
    return build_model(name, ModelConfig(batch_size=batch))


# --------------------------------------------------------------------- #
# Chaos acceptance: faults + sheds, every request tree still connected
# --------------------------------------------------------------------- #

class _FlakyModel:
    """Delegates to a real model, failing every ``fail_every``-th forward."""

    def __init__(self, inner, fail_every: int = 4):
        self.inner = inner
        self.fail_every = fail_every
        self.calls = 0

    def _tick(self) -> None:
        self.calls += 1
        if self.calls % self.fail_every == 0:
            raise RuntimeError("injected forward fault")

    def predict(self, feats):
        self._tick()
        return self.inner.predict(feats)

    def predict_batch(self, feats_list):
        self._tick()
        return self.inner.predict_batch(feats_list)


class TestChaosAcceptance:
    def test_chaos_serve_trace_stays_connected(self, tmp_path):
        reset_ids()
        model = _FlakyModel(_model(), fail_every=3)
        graphs = [_graph(n, b)
                  for n in ("lenet", "alexnet", "rnn", "lstm")
                  for b in (2, 4, 8)]
        with obs.observed() as (tracer, registry):
            # A scheduler chaos run shares the observed scope: the
            # FaultInjector is live while serve requests are traced.
            jobs = generate_workload(("lenet", "alexnet"), A100, 4,
                                     seed=5, iterations_range=(50, 100))
            simulate(jobs, 2, OccuPacking(),
                     faults=FaultInjector(FaultConfig(crash_prob=0.3), 5))
            with PredictorService(model, A100, max_batch_size=2,
                                  deadline_s=60.0,
                                  max_queue_depth=2) as svc:
                svc.batcher.pause()  # force queue-full sheds
                tickets = [svc.predict_async(g) for g in graphs]
                svc.batcher.resume()
                errors = 0
                for t in tickets:
                    try:
                        t.result(timeout=10.0)
                    except RuntimeError:
                        errors += 1
                # paired phase: each pair fills a batch and flushes
                # immediately, walking the flaky model into a failing
                # forward without waiting out the long deadline
                for b1, b2 in ((16, 32), (64, 128)):
                    pair = [svc.predict_async(_graph("vgg-11", b1)),
                            svc.predict_async(_graph("vgg-11", b2))]
                    for t in pair:
                        try:
                            t.result(timeout=10.0)
                        except RuntimeError:
                            errors += 1
                flight = svc.flight.to_dicts()
            payload = obs.export_chrome_trace(tracer, registry,
                                              flight=flight)

        path = tmp_path / "chaos.json"
        path.write_text(payload)
        trace = obs.load_trace_file(str(path))

        outcomes = {rec["outcome"] for rec in flight}
        assert outcomes == {"served", "shed", "error"}
        assert errors > 0  # injected faults actually failed tickets
        counts = {m.name: m.value for m in registry
                  if m.kind == "counter"}
        assert counts["serve_dispatch_errors_total"] == errors
        assert counts["serve_shed_total"] == len(graphs) - 2

        groups = request_groups(trace)
        assert len(groups) >= len(graphs)  # serve + any sched requests
        disconnected = [rid for rid, evs in groups.items()
                        if not span_tree(evs)["connected"]]
        assert disconnected == []

        # shed and dispatched requests alike keep their span shapes
        names_by_rid = {rid: {e["name"] for e in evs}
                        for rid, evs in groups.items()}
        assert any("serve.fallback" in names
                   for names in names_by_rid.values())
        assert any("serve.resolve" in names
                   for names in names_by_rid.values())

    def test_sched_simulate_requests_share_one_trace(self):
        reset_ids()
        with obs.observed() as (tracer, _registry):
            with PredictorService(_model(), A100) as svc:
                jobs = generate_workload(("lenet", "alexnet"), A100, 4,
                                         seed=5, predictor=svc,
                                         iterations_range=(50, 100))
                simulate(jobs, 2, OccuPacking())
            trace = json.loads(obs.export_chrome_trace(tracer))
        sim_events = [e for e in trace["traceEvents"]
                      if e["name"] == "sched.simulate"]
        assert len(sim_events) == 1
        # the simulate wrapper opened a scope, so its request ids minted
        # under one trace id
        assert sim_events[0]["args"]["trace_id"].startswith("trace-")
