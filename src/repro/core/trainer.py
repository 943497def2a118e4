"""Training harness shared by DNN-occu and every baseline predictor.

MSE loss over per-graph predictions, Adam with the paper's
``lr = weight_decay = 1e-4`` defaults (overridable), size-bucketed batched
minibatches for models with ``forward_batch`` (a per-sample loop for the
rest), and gradient clipping for the recurrent baseline's stability.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ..data import Dataset
from ..metrics import evaluate_predictions
from ..obs import get_logger
from ..obs.metrics import counter, gauge
from ..obs.tracing import span
from ..tensor import Adam, Module, Tensor, clip_grad_norm, no_grad

#: TrainConfig fields that shape the optimization trajectory; a resumed
#: run must match its checkpoint on all of them to stay bit-identical.
_RESUME_CRITICAL = ("lr", "weight_decay", "epochs", "batch_size",
                    "grad_clip", "seed", "lr_decay", "lr_min", "patience")

_CKPT_VERSION = 1

_log = get_logger("core.trainer")

__all__ = ["TrainConfig", "Trainer", "TrainHistory", "fit_best_of"]


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters (paper defaults).

    ``lr_decay="cosine"`` anneals the learning rate to ``lr_min`` over the
    epoch budget; ``patience`` enables early stopping on the validation
    MSE (requires a ``val`` dataset in :meth:`Trainer.fit`).
    """

    lr: float = 1e-4
    weight_decay: float = 1e-4
    epochs: int = 30
    batch_size: int = 8
    grad_clip: float = 5.0
    seed: int = 0
    lr_decay: str = "none"      # "none" | "cosine"
    lr_min: float = 1e-5
    patience: int | None = None
    #: lint every sample's features/label before the first epoch and
    #: fail fast on non-finite values or out-of-range labels
    preflight: bool = True


@dataclass
class TrainHistory:
    """Per-epoch training (and optional validation) loss curve.

    ``epoch_time_s`` keeps the wall-clock seconds each epoch took — the
    training-cost axis of every loss curve, and what the observability
    layer reads back out.
    """

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    epoch_time_s: list[float] = field(default_factory=list)

    @property
    def total_time_s(self) -> float:
        """Wall-clock seconds spent fitting, summed over epochs."""
        return float(sum(self.epoch_time_s))


class Trainer:
    """Fits any predictor exposing ``forward(GraphFeatures) -> Tensor``."""

    def __init__(self, model: Module, config: TrainConfig | None = None):
        self.model = model
        self.config = config or TrainConfig()
        self.optimizer = Adam(model.parameters(), lr=self.config.lr,
                              weight_decay=self.config.weight_decay)
        self.history = TrainHistory()

    @staticmethod
    def _preflight(train: Dataset, val: Dataset | None) -> None:
        """Lint every sample before touching the optimizer.

        One non-finite feature (F001) or out-of-range label (F002)
        silently poisons every weight it backpropagates through, so the
        whole run is rejected up front; rejections are counted as
        ``lint_preflight_failures_total{gate="trainer"}``.
        """
        # Imported lazily: repro.lint reaches the gpu package, which the
        # tensor/core layers must not depend on at import time.
        from ..lint import preflight_features
        with span("trainer.preflight"):
            for name, ds in (("train", train), ("val", val)):
                if ds is None:
                    continue
                for i in range(len(ds)):
                    sample = ds[i]
                    preflight_features(
                        sample.features, label=sample.occupancy,
                        origin=f"{name}[{i}]:{sample.model_name}")

    # -- checkpoint/restart (durability against preemption) ------------- #
    def _save_checkpoint(self, path: str, next_epoch: int,
                         rng: np.random.Generator, best_val: float,
                         best_state: dict | None, stale: int) -> None:
        """Atomically persist everything :meth:`fit` needs to resume."""
        from ..resilience.checkpoint import save_checkpoint
        arrays: dict[str, np.ndarray] = {}
        for name, arr in self.model.state_dict().items():
            arrays[f"model__{name}"] = arr
        if best_state is not None:
            for name, arr in best_state.items():
                arrays[f"best__{name}"] = np.asarray(arr)
        opt = self.optimizer.state_dict()
        for i, m in enumerate(opt["m"]):
            arrays[f"opt_m__{i}"] = m
        for i, v in enumerate(opt["v"]):
            arrays[f"opt_v__{i}"] = v
        arrays["hist__train_loss"] = np.asarray(
            self.history.train_loss, dtype=np.float64)
        arrays["hist__val_loss"] = np.asarray(
            self.history.val_loss, dtype=np.float64)
        arrays["hist__epoch_time_s"] = np.asarray(
            self.history.epoch_time_s, dtype=np.float64)
        meta = {
            "kind": "trainer", "version": _CKPT_VERSION,
            "epoch": next_epoch,
            "config": {k: getattr(self.config, k)
                       for k in _RESUME_CRITICAL},
            "rng_state": rng.bit_generator.state,
            "best_val": best_val, "stale": stale,
            "has_best": best_state is not None,
            "opt_t": opt["t"], "opt_lr": opt["lr"],
        }
        save_checkpoint(path, arrays, meta, component="trainer")

    def _restore_checkpoint(self, path: str,
                            rng: np.random.Generator) \
            -> tuple[int, float, dict | None, int]:
        """Load a checkpoint into the trainer; returns resume state.

        Raises :class:`~repro.resilience.CheckpointError` on corruption
        and ``ValueError`` when the checkpoint was produced under a
        different optimization configuration (resuming would silently
        diverge from the uninterrupted run).
        """
        from ..resilience.checkpoint import CheckpointError, load_checkpoint
        arrays, meta = load_checkpoint(path, component="trainer")
        if meta.get("kind") != "trainer" \
                or meta.get("version") != _CKPT_VERSION:
            raise CheckpointError(
                f"{path!r} is not a trainer checkpoint "
                f"(kind={meta.get('kind')!r}, "
                f"version={meta.get('version')!r})")
        ours = {k: getattr(self.config, k) for k in _RESUME_CRITICAL}
        theirs = meta.get("config", {})
        if ours != theirs:
            diff = sorted(k for k in _RESUME_CRITICAL
                          if ours.get(k) != theirs.get(k))
            raise ValueError(
                f"cannot resume from {path!r}: TrainConfig differs on "
                f"{diff}; a resumed run must use the checkpoint's "
                f"optimization settings")
        split: dict[str, dict[str, np.ndarray]] = \
            {"model": {}, "best": {}, "opt_m": {}, "opt_v": {},
             "hist": {}}
        for key, arr in arrays.items():
            prefix, _, rest = key.partition("__")
            split[prefix][rest] = arr
        self.model.load_state_dict(split["model"])
        n = len(self.optimizer.params)
        self.optimizer.load_state_dict({
            "t": meta["opt_t"], "lr": meta["opt_lr"],
            "m": [split["opt_m"][str(i)] for i in range(n)],
            "v": [split["opt_v"][str(i)] for i in range(n)]})
        self.history.train_loss = [float(x)
                                   for x in split["hist"]["train_loss"]]
        self.history.val_loss = [float(x)
                                 for x in split["hist"]["val_loss"]]
        self.history.epoch_time_s = [
            float(x) for x in split["hist"]["epoch_time_s"]]
        rng.bit_generator.state = meta["rng_state"]
        best_state = ({name: arr for name, arr in split["best"].items()}
                      if meta["has_best"] else None)
        _log.info("resumed from checkpoint", extra={
            "path": path, "epoch": meta["epoch"]})
        return (int(meta["epoch"]), float(meta["best_val"]), best_state,
                int(meta["stale"]))

    def fit(self, train: Dataset, val: Dataset | None = None, *,
            batched: bool | None = None,
            checkpoint_path: str | None = None,
            checkpoint_every: int = 1,
            resume_from: str | None = None) -> TrainHistory:
        """Train for ``config.epochs``; returns the loss history.

        The batched path runs one ``forward_batch(collate(chunk))`` per
        :func:`~repro.perf.batching.bucket_by_size` chunk of a minibatch,
        so a 14-node graph never pads to a 347-node mate.  ``batched=None``
        takes it when the model has ``forward_batch``; ``True`` demands it
        (``TypeError`` otherwise); ``False`` is the per-sample reference
        loop.  Epoch order, minibatch membership and the loss are the same
        on both paths; gradients differ only by float reassociation.

        ``checkpoint_path`` enables durability: every
        ``checkpoint_every`` epochs the full training state (weights,
        optimizer moments, RNG, loss history, early-stopping bookkeeping)
        is written atomically with a content checksum.  A run killed
        mid-training and restarted with ``resume_from=`` continues from
        the last checkpoint and finishes **bit-identically** to an
        uninterrupted run with the same config.
        """
        if len(train) == 0:
            raise ValueError("empty training dataset")
        has_batch = hasattr(self.model, "forward_batch")
        if batched and not has_batch:
            raise TypeError(
                f"batched=True requires a model with forward_batch(); "
                f"{type(self.model).__name__} only supports the "
                f"per-graph path")
        if batched is None:
            batched = has_batch
        if batched:
            # Imported lazily: core must not depend on perf at import time.
            from ..perf import batching
        cfg = self.config
        if cfg.lr_decay not in ("none", "cosine"):
            raise ValueError(f"unknown lr_decay {cfg.lr_decay!r}")
        if cfg.patience is not None and (val is None or len(val) == 0):
            raise ValueError("early stopping requires a validation set")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if cfg.preflight:
            self._preflight(train, val)
        rng = np.random.default_rng(cfg.seed)
        start_epoch = 0
        best_val = np.inf
        best_state = None
        stale = 0
        if resume_from is not None:
            start_epoch, best_val, best_state, stale = \
                self._restore_checkpoint(resume_from, rng)
        self.model.train()
        # Hoisted metric handles (no-ops when observability is off).
        loss_gauge = gauge("trainer_loss")
        lr_gauge = gauge("trainer_lr")
        for epoch in range(start_epoch, cfg.epochs):
            epoch_t0 = time.perf_counter()
            stop = False
            with span("trainer.epoch", epoch=epoch):
                if cfg.lr_decay == "cosine":
                    frac = epoch / max(1, cfg.epochs - 1)
                    self.optimizer.lr = cfg.lr_min \
                        + 0.5 * (cfg.lr - cfg.lr_min) \
                        * (1.0 + np.cos(np.pi * frac))
                order = rng.permutation(len(train))
                epoch_loss = 0.0
                for start in range(0, len(order), cfg.batch_size):
                    batch = order[start:start + cfg.batch_size]
                    self.optimizer.zero_grad()
                    loss = None
                    if batched:
                        # perf: per-sample-ok — O(batch_size) gather
                        # feeding the bucketed forwards, not a loop
                        # over the dataset.
                        samples = [train[i] for i in batch]
                        ys = np.array([s.occupancy for s in samples])
                        for idx, chunk in batching.bucket_by_size(
                                [s.features for s in samples], len(batch)):
                            preds = self.model.forward_batch(
                                batching.collate(chunk))
                            err = ((preds - Tensor(ys[idx])) ** 2).sum()
                            loss = err if loss is None else loss + err
                    else:
                        # perf: per-sample-ok — the reference loop for
                        # models without forward_batch (the baselines)
                        # and for fit(batched=False).
                        for i in batch:
                            sample = train[i]
                            pred = self.model(sample.features)
                            err = (pred - sample.occupancy) ** 2
                            loss = err if loss is None else loss + err
                    loss = loss * (1.0 / len(batch))
                    loss.backward()
                    clip_grad_norm(self.model.parameters(), cfg.grad_clip)
                    self.optimizer.step()
                    epoch_loss += float(loss.data) * len(batch)
                train_loss = epoch_loss / len(train)
                self.history.train_loss.append(train_loss)
                if val is not None and len(val) > 0:
                    with span("trainer.validate", epoch=epoch):
                        val_mse = self.evaluate(val)["mse"]
                    self.model.train()  # evaluate() switches to eval mode
                    self.history.val_loss.append(val_mse)
                    if cfg.patience is not None:
                        if val_mse < best_val - 1e-12:
                            best_val = val_mse
                            best_state = self.model.state_dict()
                            stale = 0
                        else:
                            stale += 1
                            if stale > cfg.patience:
                                stop = True
            self.history.epoch_time_s.append(
                time.perf_counter() - epoch_t0)
            loss_gauge.set(train_loss)
            lr_gauge.set(self.optimizer.lr)
            _log.debug("epoch done", extra={
                "epoch": epoch, "train_loss": round(train_loss, 6),
                "wall_s": round(self.history.epoch_time_s[-1], 4)})
            if checkpoint_path is not None and \
                    ((epoch + 1) % checkpoint_every == 0 or stop
                     or epoch + 1 == cfg.epochs):
                with span("trainer.checkpoint", epoch=epoch):
                    self._save_checkpoint(checkpoint_path, epoch + 1,
                                          rng, best_val, best_state,
                                          stale)
            if stop:
                break
        if best_state is not None:
            self.model.load_state_dict(best_state)
            # Counted so interrupted-vs-resumed traces can be compared:
            # both runs must restore the same best epoch exactly once.
            counter("trainer_best_state_restores_total").inc()
        self.model.eval()
        return self.history

    def predict(self, dataset: Dataset) -> np.ndarray:
        """Inference-only predictions for every sample in ``dataset``."""
        self.model.eval()
        with no_grad():
            # perf: per-sample-ok — evaluation reference path; eval
            # sets mix graph sizes, where dense batching mostly pads
            # (see perf_batch_pad_waste).  Batched inference is
            # DNNOccu.predict_batch.
            return np.array([float(self.model(s.features).data)
                             for s in dataset])

    def evaluate(self, dataset: Dataset) -> dict[str, float]:
        """MRE (percent) and MSE on ``dataset``, plus the wall-clock
        seconds :meth:`fit` has spent so far (``fit_time_s``)."""
        pred = self.predict(dataset)
        out = evaluate_predictions(pred, dataset.labels())
        out["fit_time_s"] = self.history.total_time_s
        return out


def fit_best_of(factory, train: Dataset, config: TrainConfig,
                tries: int = 2, val: Dataset | None = None) -> Trainer:
    """Train ``tries`` models from ``factory(seed)``; keep the best.

    Small-data GNN training occasionally lands in a bad basin; restarting
    from a different seed and selecting by *training* loss (or validation
    MSE when ``val`` is given) recovers without ever touching test data.
    Returns the winning, already-fitted :class:`Trainer`.
    """
    if tries < 1:
        raise ValueError("tries must be at least 1")
    best: Trainer | None = None
    best_score = np.inf
    for k in range(tries):
        cfg = replace(config, seed=config.seed + k)
        trainer = Trainer(factory(cfg.seed), cfg)
        hist = trainer.fit(train, val=val)
        score = (trainer.evaluate(val)["mse"] if val is not None
                 and len(val) else hist.train_loss[-1])
        if score < best_score:
            best_score = score
            best = trainer
    return best
