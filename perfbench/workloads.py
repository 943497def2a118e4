"""Inputs and client loops of the three benchmark workloads.

Every workload draws from one population: the scheduler's zoo
(``data.SEEN_MODELS``, the Table 6 mix), configurations from
``data.sample_config``, device P40, and a model built the way
``repro predict`` builds it.  Inputs are generated from the seed before
any timing starts; the program only sees the generated graphs or dataset.

Each workload drives one public entry point from a single client thread:

* ``sched-serial`` -- ``PredictorService.predict``, one caller, closed loop;
* ``flush-window`` -- ``PredictorService.predict_async`` with 4 requests
  outstanding, waiting on the oldest ticket before submitting the next;
* ``train-epoch``  -- ``Trainer.fit`` as the CLI calls it; only epochs
  after the first are timed.
"""

from __future__ import annotations

import gc
import math
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core import DNNOccu, DNNOccuConfig, TrainConfig, Trainer
from repro.data import SEEN_MODELS, generate_dataset, sample_config
from repro.features import encode_graph
from repro.gpu import OutOfMemoryError, check_memory_or_raise, get_device
from repro.models import build_model
from repro.perf.batching import clear_spd_memo
from repro.serve import PredictorService

DEVICE = get_device("P40")

#: constructions timed in each group; ``setup_s`` is the median over all
#: groups.  Groups are spread over the run, off the clock: one before the
#: window, one between rounds and one after it, so the median sees the
#: same stretch of machine time as the window rather than a few ms of it.
SETUP_REPEATS = 5

#: answers from multi-graph (traced) batches must match the per-graph
#: eager forward this closely
BATCH_TOLERANCE = 1e-6


def make_model(seed: int) -> DNNOccu:
    """The predictor exactly as ``repro predict`` builds it."""
    return DNNOccu(DNNOccuConfig(hidden=48, num_heads=4), seed=seed)


def _build(built: dict, name: str, cfg):
    """The graph of ``(name, cfg)``, or None when it does not fit on P40.

    A repeated configuration reuses its graph object, so repeats are
    content-identical and hit the result cache.
    """
    key = (name, repr(cfg))
    if key not in built:
        graph = build_model(name, cfg)
        try:
            check_memory_or_raise(graph, DEVICE)
        except OutOfMemoryError:
            graph = None
        built[key] = graph
    return built[key]


def zoo_rounds(seed: int, rounds: int) -> list:
    """Requests in rounds of the zoo: each model once per round.

    The models of a round come in random order, each with a config from
    ``sample_config`` (redrawn on OOM), so a run holds the mix
    ``sched.generate_workload`` draws exactly.  Free draws in its order
    add a binomial spread in how many of the costliest model (vit-t, 347
    nodes; a tenth of the jobs but half the forward time) a run holds,
    and moved the timings between seeds more than any bound allows.
    """
    rng = np.random.default_rng([seed, 2])
    built: dict = {}
    graphs = []
    for _ in range(rounds):
        for i in rng.permutation(len(SEEN_MODELS)):
            name, graph = SEEN_MODELS[i], None
            while graph is None:
                graph = _build(built, name, sample_config(name, rng))
            graphs.append(graph)
    return graphs


def tail_stat(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile, samples)``.  With 10 or fewer samples
    no percentile qualifies and the maximum is returned at 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


@dataclass
class Window:
    """What one timed window measured."""

    latencies: list[float]        # seconds per request or step
    units: int                    # requests or samples completed
    start: float                  # perf_counter at the window's start
    elapsed: float                # seconds timed
    rounds: int                   # whole rounds (or epochs) timed
    answers: list = field(default_factory=list)   # (graph, value|None)
    counts: dict = field(default_factory=dict)    # program counts
    #: (latencies, units, seconds) of each round; the end-to-end timings
    #: are medians over these, so a burst of host load that slows one
    #: round does not move them.  Training is one round.
    per_round: list = field(default_factory=list)


class _Tally:
    """Answers of one window and their latencies."""

    def __init__(self):
        self.lat: list[float] = []
        self.answers: list = []

    def record(self, graph, value, t0: float) -> None:
        self.lat.append(perf_counter() - t0)
        self.answers.append((graph, value))


class _Service:
    """Rounds of requests, each on a freshly built model and service.

    Every round replays the same requests from the same cold caches (the
    process-wide SPD memo included), so rounds differ only by the
    machine's timing noise.  The window runs whole rounds until
    ``seconds`` are timed (set-up between rounds is not): a round cut
    short would leave out the requests at its end, which differ from
    those at its start.  On one long-lived service the work changed with
    the time run: the result-cache hit share grew with the jobs served
    (4% in the first 300 sched-serial jobs, 25% by job 1500), and the
    trace cache filled its 64 plans and began evicting partway through
    flush-window, so a faster machine ran different work.
    """

    #: requests per round
    round_size = 0
    #: answers from lone requests must be bit-identical to the reference
    exact = False

    def prepare(self, seed: int, seconds: float) -> None:
        self.graphs = zoo_rounds(seed, self.round_size // len(SEEN_MODELS))

    def setup(self, seed: int) -> None:
        """The first group of timed model and service constructions."""
        self.seed = seed
        self.setup_times = []
        self.service = None
        self._setup_group()

    def _setup_group(self) -> None:
        """Build model and service ``SETUP_REPEATS`` times; the last stay."""
        for _ in range(SETUP_REPEATS):
            self._fresh()

    def _fresh(self) -> None:
        """Time building a model and service, the last ones released first.

        Freeing a round's model is not set-up: its trace executor and the
        model refer to each other, so the plans' arenas (up to a GB on
        flush-window) go only when the cycle collector runs, which is
        made to happen here, before the clock starts.  The SPD memo is
        process-wide and outlives the service, so it is emptied here too.
        """
        if self.service is not None:
            self.service.close()
            self.model = self.service = None
        gc.collect()
        clear_spd_memo()
        t0 = perf_counter()
        self.model = make_model(self.seed)
        self.service = PredictorService(self.model, DEVICE)
        self.setup_times.append(perf_counter() - t0)

    def run(self, seconds: float, probe=None) -> Window:
        tally = _Tally()
        rounds, per_round = [], []
        elapsed = 0.0
        start = perf_counter()
        while elapsed < seconds:
            if rounds:
                self._setup_group()
            if probe is not None:
                probe.install(self.model, service=self.service)
            first = len(tally.lat)
            t0 = perf_counter()
            try:
                self._round(tally, probe)
            finally:
                if probe is not None:
                    probe.uninstall()
            took = perf_counter() - t0
            elapsed += took
            per_round.append((tally.lat[first:], len(tally.lat) - first,
                              took))
            rounds.append(self.snapshot(probe))
        self._setup_group()
        total = {k: sum(r[k] for r in rounds) for k in rounds[0]}
        for key in ("fallbacks", "result_hits", "encoding_hits",
                    "spd_misses"):   # registry counts are cumulative
            if key in total:
                total[key] = rounds[-1][key]
        return Window(tally.lat, len(tally.answers), start, elapsed,
                      len(rounds), tally.answers,
                      {"first_round": rounds[0], "window": total},
                      per_round)

    def snapshot(self, probe=None) -> dict:
        """Counts the program keeps for the current model and service.

        With a probe, the counts of the probe's registry are added; they
        accumulate over every round the probe was installed for.
        """
        st = self.service.stats()
        cache = self.model.traced_executor().cache
        out = {k: st[k] for k in ("requests", "shed", "batches_dispatched",
                                  "requests_dispatched")}
        out.update(st["flush_reasons"])
        out["plans_compiled"] = len(cache) + cache.evictions
        out["evictions"] = cache.evictions
        if probe is not None:
            for key, name in (("fallbacks", "trace_fallback_total"),
                              ("result_hits", "serve_result_cache_hits_total"),
                              ("encoding_hits",
                               "serve_encoding_cache_hits_total"),
                              ("spd_misses", "perf_spd_memo_misses_total")):
                out[key] = int(probe.counter(name))
        return out

    def close(self) -> None:
        self.service.close()

    def check(self, window: Window) -> int:
        """Failed answers: non-finite, outside (0, 1), or off the reference.

        The reference is ``DNNOccu.predict`` on a fresh encoding of the
        same graph, computed once per distinct graph.
        """
        refs: dict[int, float] = {}
        failed = 0
        for graph, value in window.answers:
            if value is None:
                failed += 1
                continue
            ref = refs.get(id(graph))
            if ref is None:
                ref = refs[id(graph)] = self.model.predict(
                    encode_graph(graph, DEVICE))
            v = float(value)
            ok = math.isfinite(v) and 0.0 < v < 1.0 and (
                v == ref if self.exact else abs(v - ref) <= BATCH_TOLERANCE)
            failed += not ok
        return failed


class SchedSerial(_Service):
    """500 jobs, one ``predict`` each; about 7% repeat a config and are
    answered from the result cache."""

    round_size = 500
    exact = True

    def _round(self, tally: _Tally, probe) -> None:
        for graph in self.graphs:
            if probe is not None:
                probe.set_rid(len(tally.lat))
            t0 = perf_counter()
            try:
                value = self.service.predict(graph)
            except Exception:  # counted as a failed answer
                value = None
            tally.record(graph, value, t0)


class FlushWindow(_Service):
    """250 requests through ``predict_async``, 4 kept outstanding.

    The client waits on the oldest ticket before it submits the next.
    Nearly every multi-graph flush compiles a new plan, and a flush
    holding vit-t compiles for hundreds of milliseconds, so latencies
    split into a fast and a slow mode.  With 6 or 8 outstanding about
    half the requests waited behind a vit-t compile and the median fell
    in the gap between the modes (spread 0.24-0.32 over 5 seeds); with 4
    it sits among the fast requests (0.12).  Rounds of 250 stay under
    the trace cache's 64 plans.
    """

    round_size = 250
    outstanding = 4

    def _round(self, tally: _Tally, probe) -> None:
        fresh = iter(self.graphs)
        pending: deque = deque()

        def submit() -> None:
            graph = next(fresh, None)
            if graph is None:
                return
            if probe is not None:
                probe.set_rid(len(tally.lat) + len(pending))
            t0 = perf_counter()
            try:
                ticket = self.service.predict_async(graph)
            except Exception:  # counted as a failed answer
                ticket = None
            pending.append((graph, t0, ticket))

        for _ in range(self.outstanding):
            submit()
        while pending:
            graph, t0, ticket = pending.popleft()
            try:
                value = ticket.result() if ticket is not None else None
            except Exception:  # counted as a failed answer
                value = None
            tally.record(graph, value, t0)
            submit()


class _WindowClosed(Exception):
    """Raised from outside ``Trainer.fit`` to end the timed window."""


def _close_window():
    raise _WindowClosed


class TrainEpoch:
    """``Trainer.fit`` over ``generate_dataset(SEEN_MODELS, [P40])``."""

    configs_per_model = 4
    #: set-up samples before and again after the window.  Training has
    #: no rounds to put groups between: a sample taken at an epoch
    #: boundary, with its full collection, would disturb the timed steps
    #: after it.
    setup_group = 3 * SETUP_REPEATS
    #: epoch cap; the window ends at the first epoch boundary past the
    #: deadline, long before this
    max_epochs = 10_000

    def prepare(self, seed: int, seconds: float) -> None:
        self.dataset = generate_dataset(
            SEEN_MODELS, [DEVICE], configs_per_model=self.configs_per_model,
            seed=seed)

    def setup(self, seed: int) -> None:
        """The first group of set-up timings; the window's trainer."""
        self.seed = seed
        self.setup_times = []
        self._setup_group()
        self.model, self.trainer = self._build()

    def _setup_group(self) -> None:
        for _ in range(self.setup_group):
            self._setup_sample()

    def _build(self) -> tuple[DNNOccu, Trainer]:
        model = make_model(self.seed)
        return model, Trainer(model, TrainConfig(
            epochs=self.max_epochs, lr=1e-3, seed=self.seed))

    def _setup_sample(self) -> None:
        """Time building a throwaway model and trainer up to the first step.

        The trainer runs ``fit`` up to its first ``zero_grad``, which
        covers the preflight lint ``fit`` performs before training.
        Like every service construction, each sample starts right after a
        full collection, so all samples start from the same heap state.
        """
        gc.collect()
        t0 = perf_counter()
        _, trainer = self._build()
        trainer.optimizer.zero_grad = _close_window
        try:
            trainer.fit(self.dataset)
        except _WindowClosed:
            self.setup_times.append(perf_counter() - t0)

    def snapshot(self, probe=None) -> dict:
        return {}

    def close(self) -> None:
        pass

    def run(self, seconds: float, probe=None) -> Window:
        """Time optimizer steps between consecutive returns of ``step``.

        The first epoch runs untimed; the window opens at its last step
        and closes at the first epoch boundary past ``seconds``.
        """
        opt = self.trainer.optimizer
        per_epoch = math.ceil(len(self.dataset)
                              / self.trainer.config.batch_size)
        saved = {a: vars(opt).get(a) for a in ("step", "zero_grad")}
        step, zero_grad = opt.step, opt.zero_grad
        returns: list[float] = []

        def timed_step():
            step()
            returns.append(perf_counter())

        def close_at_epoch_end():
            done = len(returns)
            if done > per_epoch and done % per_epoch == 0 \
                    and returns[-1] - returns[per_epoch - 1] >= seconds:
                raise _WindowClosed
            zero_grad()

        opt.step, opt.zero_grad = timed_step, close_at_epoch_end
        if probe is not None:
            probe.install(self.model, trainer=self.trainer)
        try:
            self.trainer.fit(self.dataset)
        except _WindowClosed:
            pass
        finally:
            if probe is not None:
                probe.uninstall()
            for attr, value in saved.items():
                if value is None:
                    delattr(opt, attr)
                else:
                    setattr(opt, attr, value)
        self._setup_group()
        timed = returns[per_epoch - 1:]
        epochs = (len(timed) - 1) // per_epoch
        steps = [b - a for a, b in zip(timed, timed[1:])]
        units, seconds = epochs * len(self.dataset), timed[-1] - timed[0]
        return Window(steps, units, timed[0], seconds, epochs,
                      per_round=[(steps, units, seconds)])

    def check(self, window: Window) -> int:
        """Failed steps: any timed epoch with a non-finite loss, or all of
        them when a final parameter is non-finite.

        Every step's loss is a non-negative mean square, so an epoch's
        mean loss is finite exactly when every step's loss was.
        """
        steps = len(window.latencies)
        per_epoch = steps // max(1, window.rounds)
        losses = self.trainer.history.train_loss[1:]
        failed = per_epoch * sum(not math.isfinite(x) for x in losses)
        if not all(np.isfinite(p.data).all()
                   for p in self.model.parameters()):
            failed = steps
        return min(failed, steps)


WORKLOADS = {
    "sched-serial": SchedSerial,
    "flush-window": FlushWindow,
    "train-epoch": TrainEpoch,
}
