"""Analysis utilities: per-family error breakdowns, correlation helpers,
and plain-text table rendering (used by the CLI and benchmark reports)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .metrics import mre, mse

__all__ = ["per_group_errors", "correlations", "format_table"]


def per_group_errors(pred: Sequence[float], true: Sequence[float],
                     groups: Sequence[str]) -> dict[str, dict[str, float]]:
    """MRE (percent) and MSE per group label (e.g. per model or family).

    ``groups[i]`` labels sample ``i``; insertion order of first appearance
    is preserved in the result.
    """
    pred = np.asarray(pred, dtype=float)
    true = np.asarray(true, dtype=float)
    groups = list(groups)
    if not (len(pred) == len(true) == len(groups)):
        raise ValueError("pred, true, and groups must align")
    out: dict[str, dict[str, float]] = {}
    for g in dict.fromkeys(groups):
        mask = np.array([x == g for x in groups])
        out[g] = {
            "count": int(mask.sum()),
            "mre_percent": 100.0 * mre(pred[mask], true[mask]),
            "mse": mse(pred[mask], true[mask]),
        }
    return out


def correlations(x: Sequence[float], y: Sequence[float]) -> dict[str, float]:
    """Pearson and Spearman correlations (the Fig. 6 / Fig. 7 statistics).

    Needs scipy installed; it is imported here so that ``import repro``
    does not load it.
    """
    from scipy import stats

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("need two aligned series of length >= 2")
    return {
        "pearson": float(stats.pearsonr(x, y).statistic),
        "spearman": float(stats.spearmanr(x, y).statistic),
    }


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 float_fmt: str = "{:.3f}") -> str:
    """Render an aligned plain-text table.

    Numbers are formatted with ``float_fmt``; everything else with
    ``str``.  Column widths adapt to content.
    """
    def render(cell) -> str:
        if isinstance(cell, bool):
            return str(cell)
        if isinstance(cell, float):
            return float_fmt.format(cell)
        return str(cell)

    rendered = [[render(c) for c in row] for row in rows]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
    widths = [max(len(h), *(len(r[i]) for r in rendered)) if rendered
              else len(h) for i, h in enumerate(headers)]
    lines = [" ".join(h.rjust(w) for h, w in zip(headers, widths))]
    lines.append(" ".join("-" * w for w in widths))
    for row in rendered:
        lines.append(" ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
