"""ANEE: attention-based node-edge encoder (Section III-D, from DNNPerf).

Implements the paper's equations, vectorized over edges:

    h̄_u      = LeakyReLU(W_u h_u^{i-1})
    e_l      = σ(aᵀ (h̄_s ‖ h̄_d) · W_e e_l^{i-1})        for l = (s, d)
    f(u',l') = Softmax(W_m e_{l'}) ⊙ h̄_{u'}
    h_u      = LeakyReLU( Σ_{l'=(u',u)} f(u', l') )

The scalar edge attention ``aᵀ(h̄_s‖h̄_d)`` gates the linearly transformed
edge state; the softmaxed ``W_m e`` acts as a feature-wise gate on the
source node embedding before aggregation into the destination node.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Module, Parameter, Tensor, init

__all__ = ["ANEELayer"]


class ANEELayer(Module):
    """One round of attention-based node/edge message passing.

    Parameters
    ----------
    node_in, edge_in:
        Input feature widths of nodes and edges.
    hidden:
        Output width for both node and edge states (N1 in the paper).
    """

    def __init__(self, node_in: int, edge_in: int, hidden: int,
                 rng: np.random.Generator):
        super().__init__()
        self.hidden = hidden
        self.w_u = Parameter(init.xavier_uniform((hidden, node_in), rng))
        self.w_e = Parameter(init.xavier_uniform((hidden, edge_in), rng))
        self.w_m = Parameter(init.xavier_uniform((hidden, hidden), rng))
        self.attn_a = Parameter(init.xavier_uniform((2 * hidden, 1), rng))

    def forward(self, h: Tensor, e: Tensor, edge_index: np.ndarray,
                edgeless_mask: "np.ndarray | None" = None,
                ) -> tuple[Tensor, Tensor]:
        """One message-passing round over a packed disjoint union.

        ``h``: (n, node_in) node states; ``e``: (m, edge_in) edge states;
        ``edge_index``: (2, m) int array of (src, dst).  Returns updated
        ``(h', e')`` of widths ``hidden``.

        Aggregation follows ``edge_index`` and edges never cross graph
        boundaries, so the packed nodes and edges of a whole minibatch
        run as one call.  A graph with *no* edges keeps its node
        transform ``h̄`` (the ``e.shape[0] == 0`` return), whereas
        scatter aggregation would zero its rows when it shares a batch
        with graphs that have edges.  ``edgeless_mask`` — an ``(n, 1)``
        0/1 float array marking the nodes of edgeless member graphs —
        substitutes the ``h̄`` rows for exactly those nodes.
        """
        n = h.shape[0]
        src, dst = edge_index[0], edge_index[1]

        h_bar = (h @ self.w_u.T).leaky_relu()          # (n, hidden)
        if e.shape[0] == 0:
            # Isolated-node graph(s): only the node transform applies.
            return h_bar, e

        h_src = h_bar[src]                              # (m, hidden)
        h_dst = h_bar[dst]                              # (m, hidden)
        pair = Tensor.concat([h_src, h_dst], axis=1)    # (m, 2*hidden)
        score = pair @ self.attn_a                      # (m, 1)
        e_new = (score * (e @ self.w_e.T)).sigmoid()    # (m, hidden)

        gate = (e_new @ self.w_m.T).softmax(axis=-1)    # (m, hidden)
        messages = gate * h_src                         # (m, hidden)
        agg = Tensor.scatter_add(messages, dst, n)      # (n, hidden)
        h_new = agg.leaky_relu()
        if edgeless_mask is not None and edgeless_mask.any():
            keep = edgeless_mask
            h_new = h_new * (1.0 - keep) + h_bar * keep
        return h_new, e_new
