"""DNN-occu: the full occupancy predictor (Section III-D, Fig. 3).

Composition: ANEE layer(s) encode node+edge features → Graphormer layers
propagate with structural attention → Set Transformer decoder pools the
node set → MLP head emits occupancy.  The head's sigmoid keeps predictions
in the physically valid (0, 1) occupancy range.

There is one numeric body, :meth:`DNNOccu.forward_batch`, over a collated
minibatch.  The per-graph :meth:`~DNNOccu.forward` and
:meth:`~DNNOccu.predict` run it on a batch of one, and
:meth:`~DNNOccu.predict_batch` may replay it as a compiled tape
(docs/compile.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import GraphFeatures, edge_feature_dim, node_feature_dim
from ..nn import Linear
from ..tensor import Module, ModuleList, Tensor
from .anee import ANEELayer
from .graphormer import GraphormerLayer
from .set_transformer import SetTransformerDecoder

__all__ = ["DNNOccuConfig", "DNNOccu"]


@dataclass(frozen=True)
class DNNOccuConfig:
    """Architecture hyperparameters.

    Paper values (Section V): 1 ANEE layer, 2 Graphormer layers, 2 Set
    Transformer decoder SABs, hidden 256.  ``hidden=64`` is a practical
    CPU-scale default that preserves the architecture.
    """

    hidden: int = 64
    anee_layers: int = 1
    graphormer_layers: int = 2
    set_decoder_sabs: int = 2
    num_heads: int = 4
    pma_seeds: int = 1

    @classmethod
    def paper(cls) -> "DNNOccuConfig":
        """The exact configuration from the paper."""
        return cls(hidden=256, anee_layers=1, graphormer_layers=2,
                   set_decoder_sabs=2, num_heads=8, pma_seeds=1)


class DNNOccu(Module):
    """GNN-based GPU occupancy predictor for computation graphs."""

    def __init__(self, config: DNNOccuConfig | None = None,
                 seed: int = 0, node_dim: int | None = None,
                 edge_dim: int | None = None):
        super().__init__()
        self.config = config or DNNOccuConfig()
        rng = np.random.default_rng(seed)
        cfg = self.config
        nd = node_dim if node_dim is not None else node_feature_dim()
        ed = edge_dim if edge_dim is not None else edge_feature_dim()

        anee = []
        n_in, e_in = nd, ed
        for _ in range(cfg.anee_layers):
            anee.append(ANEELayer(n_in, e_in, cfg.hidden, rng))
            n_in = e_in = cfg.hidden
        self.anee = ModuleList(anee)

        self.graphormer = ModuleList([
            GraphormerLayer(cfg.hidden, cfg.num_heads, 2 * cfg.hidden, rng)
            for _ in range(cfg.graphormer_layers)
        ])
        self.decoder = SetTransformerDecoder(
            cfg.hidden, cfg.num_heads, cfg.pma_seeds, cfg.set_decoder_sabs,
            rng)
        self.head_fc1 = Linear(cfg.pma_seeds * cfg.hidden, cfg.hidden, rng)
        self.head_fc2 = Linear(cfg.hidden, 1, rng)
        # Start the sigmoid near its linear region (predictions ~0.5):
        # large initial logits saturate the output and stall training.
        self.head_fc2.weight.data *= 0.1

    def forward(self, features: GraphFeatures) -> Tensor:
        """Predict occupancy for one encoded graph; returns a () Tensor.

        One graph is a batch of one: :meth:`forward_batch` is the only
        numeric body.
        """
        # Imported lazily: core must not depend on perf at import time.
        from ..perf.batching import collate
        return self.forward_batch(collate([features])).reshape(())

    def forward_batch(self, batch) -> Tensor:
        """Vectorized forward over a collated minibatch; returns ``(B,)``.

        ``batch`` is a :class:`~repro.perf.batching.GraphBatch`.  Message
        passing runs on the packed disjoint union (edges never cross
        member graphs), attention on the dense ``(B, n_max, hidden)``
        view.  When members differ in size the view is padded and a
        ``-1e30`` key mask keeps attention block-diagonal, so a member's
        answer does not depend on its batch mates beyond float
        reassociation (see docs/performance.md).
        """
        h = Tensor(batch.node_features)
        e = Tensor(batch.edge_features)
        for layer in self.anee:
            h, e = layer(h, e, batch.edge_index,
                         edgeless_mask=batch.edgeless_mask)

        hidden = h.shape[1]
        b, n_max = batch.node_mask.shape
        key_bias = None
        if b * n_max != batch.total_nodes:
            # pack -> pad: one appended zero row serves every padding
            # slot, so the gather's backward is a pure scatter-add.
            # Without padding the packed rows already are the dense
            # view; skipping the identity gather and the all-zero mask
            # changes no numbers.
            h_ext = Tensor.concat([h, Tensor(np.zeros((1, hidden)))],
                                  axis=0)
            h = h_ext[batch.pad_index]
            key_bias = batch.key_bias
        h = h.reshape(b, n_max, hidden)

        for layer in self.graphormer:
            h = layer(h, batch.spd, key_bias=key_bias)

        pooled = self.decoder(h, key_bias=key_bias)        # (B, k, hidden)
        flat = pooled.reshape(b, pooled.shape[1] * pooled.shape[2])
        z = self.head_fc1(flat).relu()
        out = self.head_fc2(z).sigmoid()                   # (B, 1)
        return out.reshape((b,))

    def predict(self, features: GraphFeatures) -> float:
        """Inference-only scalar prediction (a batch of one)."""
        return float(self.predict_batch([features])[0])

    def traced_executor(self):
        """This model's lazily created trace-and-replay executor."""
        # Imported lazily: core must not depend on trace at import time.
        from ..tensor.trace import TracedExecutor
        if getattr(self, "_trace_exec", None) is None:
            self._trace_exec = TracedExecutor(self)
        return self._trace_exec

    def predict_batch(self, features_list, batch_size: int | None = None,
                      traced: bool = False) -> np.ndarray:
        """Inference-only predictions for many graphs in one forward.

        With ``batch_size`` set, members are size-bucketed (sorted by node
        count, chunked, results scattered back to input order) so each
        chunk pads to a near-uniform size instead of the global maximum.

        With ``traced=True`` each collated chunk replays a compiled op
        tape instead of building a ``Tensor`` graph, falling back to the
        eager forward on any trace or replay error.  A plan is compiled
        per exact batch shape, so this pays only for callers that replay
        one shape many times; serving stays eager (docs/compile.md).
        """
        # Imported lazily: core must not depend on perf at import time.
        from ..perf.batching import bucket_by_size, collate
        from ..tensor import no_grad
        feats = list(features_list)
        if not feats:
            return np.zeros(0)
        with no_grad():
            if batch_size is None:
                return self._forward_collated(collate(feats), traced)
            out = np.zeros(len(feats))
            for idx, chunk in bucket_by_size(feats, batch_size):
                out[idx] = self._forward_collated(collate(chunk), traced)
            return out

    def _forward_collated(self, batch, use_trace: bool) -> np.ndarray:
        """One collated forward: traced replay with eager fallback."""
        if use_trace:
            from ..obs.metrics import counter
            from ..tensor.trace import TraceError
            try:
                return self.traced_executor().run(batch)
            except TraceError:
                # GradModeError is deliberately not caught: a traced
                # call under grad is a caller bug, not a cache miss.
                counter("trace_fallback_total").inc()
        return np.array(self.forward_batch(batch).data)
