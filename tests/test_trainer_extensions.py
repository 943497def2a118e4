"""Trainer extension tests: cosine LR decay and early stopping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import MLPPredictor
from repro.core import TrainConfig, Trainer


def small_model():
    return MLPPredictor(seed=0, widths=(16, 16))


class TestCosineDecay:
    def test_lr_reaches_min_at_last_epoch(self, tiny_dataset):
        tr = Trainer(small_model(),
                     TrainConfig(epochs=5, lr=1e-3, lr_min=1e-5,
                                 lr_decay="cosine"))
        tr.fit(tiny_dataset)
        assert tr.optimizer.lr == pytest.approx(1e-5)

    def test_no_decay_keeps_lr(self, tiny_dataset):
        tr = Trainer(small_model(), TrainConfig(epochs=3, lr=1e-3))
        tr.fit(tiny_dataset)
        assert tr.optimizer.lr == pytest.approx(1e-3)

    def test_unknown_decay_raises(self, tiny_dataset):
        tr = Trainer(small_model(),
                     TrainConfig(epochs=3, lr_decay="staircase"))
        with pytest.raises(ValueError):
            tr.fit(tiny_dataset)

    def test_cosine_still_learns(self, tiny_dataset):
        tr = Trainer(small_model(),
                     TrainConfig(epochs=15, lr=1e-3, lr_decay="cosine"))
        hist = tr.fit(tiny_dataset)
        assert hist.train_loss[-1] < hist.train_loss[0]


class TestEarlyStopping:
    def test_requires_validation_set(self, tiny_dataset):
        tr = Trainer(small_model(), TrainConfig(epochs=3, patience=1))
        with pytest.raises(ValueError, match="validation"):
            tr.fit(tiny_dataset)

    def test_stops_before_epoch_budget(self, tiny_dataset, rng):
        train, val = tiny_dataset.split(0.7, rng)
        tr = Trainer(small_model(),
                     TrainConfig(epochs=200, lr=3e-3, patience=2))
        hist = tr.fit(train, val=val)
        assert len(hist.train_loss) < 200

    def test_restores_best_weights(self, tiny_dataset, rng):
        train, val = tiny_dataset.split(0.7, rng)
        tr = Trainer(small_model(),
                     TrainConfig(epochs=40, lr=3e-3, patience=3))
        hist = tr.fit(train, val=val)
        final_val = tr.evaluate(val)["mse"]
        assert final_val == pytest.approx(min(hist.val_loss), rel=1e-6)

    def test_val_history_matches_epochs_run(self, tiny_dataset, rng):
        train, val = tiny_dataset.split(0.7, rng)
        tr = Trainer(small_model(),
                     TrainConfig(epochs=10, lr=1e-3, patience=50))
        hist = tr.fit(train, val=val)
        assert len(hist.val_loss) == len(hist.train_loss)


class TestFitBestOf:
    def test_selects_lower_loss(self, tiny_dataset):
        from repro.core import fit_best_of, TrainConfig
        tr = fit_best_of(lambda s: MLPPredictor(seed=s, widths=(16, 16)),
                         tiny_dataset, TrainConfig(epochs=5, lr=1e-3),
                         tries=2)
        assert tr is not None
        assert tr.history.train_loss

    def test_single_try(self, tiny_dataset):
        from repro.core import fit_best_of, TrainConfig
        tr = fit_best_of(lambda s: MLPPredictor(seed=s, widths=(16, 16)),
                         tiny_dataset, TrainConfig(epochs=2, lr=1e-3),
                         tries=1)
        assert len(tr.history.train_loss) == 2

    def test_invalid_tries(self, tiny_dataset):
        from repro.core import fit_best_of, TrainConfig
        import pytest as _pytest
        with _pytest.raises(ValueError):
            fit_best_of(lambda s: MLPPredictor(seed=s, widths=(8,)),
                        tiny_dataset, TrainConfig(epochs=1), tries=0)

    def test_every_config_field_but_seed_survives(self, tiny_dataset, rng):
        import dataclasses
        from repro.core import fit_best_of
        train, val = tiny_dataset.split(0.7, rng)
        config = TrainConfig(lr=2e-3, weight_decay=0.0, epochs=2,
                             batch_size=4, grad_clip=1.0, seed=5,
                             lr_decay="cosine", lr_min=1e-6, patience=3,
                             preflight=False)
        # A field added later must be given a non-default value here.
        default = TrainConfig()
        same = [f.name for f in dataclasses.fields(TrainConfig)
                if getattr(config, f.name) == getattr(default, f.name)]
        assert not same, f"set a non-default value for {same}"
        tr = fit_best_of(lambda s: MLPPredictor(seed=s, widths=(8,)),
                         train, config, tries=2, val=val)
        assert tr.config.seed in (5, 6)
        assert tr.config == dataclasses.replace(config, seed=tr.config.seed)

    def test_val_based_selection(self, tiny_dataset, rng):
        from repro.core import fit_best_of, TrainConfig
        train, val = tiny_dataset.split(0.7, rng)
        tr = fit_best_of(lambda s: MLPPredictor(seed=s, widths=(16, 16)),
                         train, TrainConfig(epochs=5, lr=1e-3), tries=2,
                         val=val)
        assert tr.evaluate(val)["mse"] >= 0.0


class TestBucketedMinibatch:
    def test_mixed_size_gradient_matches_per_sample_loop(
            self, mixed_dataset):
        """One minibatch of 7-, 14- and 37-node graphs: the default
        bucketed forwards give the per-sample loop's gradient."""
        from repro.core import DNNOccu, DNNOccuConfig
        from repro.perf.batching import bucket_by_size

        feats = [s.features for s in mixed_dataset]
        chunks = len(bucket_by_size(feats, len(feats)))
        assert chunks > 1
        grads, forwards = {}, {}
        for batched in (None, False):
            model = DNNOccu(DNNOccuConfig(hidden=16, num_heads=2), seed=4)
            trainer = Trainer(model, TrainConfig(
                epochs=1, batch_size=len(feats), grad_clip=1e12,
                preflight=False))
            trainer.optimizer.step = lambda b=batched: grads.setdefault(
                b, [p.grad.copy() for p in model.parameters()])
            forward_batch = model.forward_batch

            def counted(batch, b=batched, fb=forward_batch):
                forwards[b] = forwards.get(b, 0) + 1
                return fb(batch)

            model.forward_batch = counted
            trainer.fit(mixed_dataset, batched=batched)
        assert forwards == {None: chunks, False: len(feats)}
        for g_bucketed, g_loop in zip(grads[None], grads[False]):
            np.testing.assert_allclose(g_bucketed, g_loop, rtol=0,
                                       atol=1e-12)
