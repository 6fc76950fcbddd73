"""Per-step surprisals of a hypothesis and their summary statistics.

A trace holds one non-negative value (in nats) per generated token,
starting at the first real token and including the end-marker step; the
begin marker is defined to carry zero surprisal and is never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .models import SequenceModel, _source_key
from .objectives import r_variance

Trace = tuple[float, ...]


def trace(model: SequenceModel, source, tokens: Sequence[str]) -> Trace:
    """Surprisal of each step of ``tokens`` (a bos-initial hypothesis or prefix).

    The entries sum to the negated cumulative log-probability. A step the
    model forbids yields ``inf`` rather than being clipped.
    """
    ids = model.vocabulary.prefix_ids(tokens, stepped=True)
    source_key = _source_key(source)
    values = []
    for t in range(1, len(ids)):
        values.append(-float(model.next_log_probs_ids(source_key, ids[:t])[ids[t]]))
    return tuple(values)


@dataclass(frozen=True)
class SurprisalStats:
    mean: float
    variance: float
    std_dev: float
    max: float
    length: int


def stats(trace_values: Sequence[float]) -> SurprisalStats:
    """Population statistics over the trace entries (the bos step excluded)."""
    variance = r_variance(trace_values)  # rejects an empty trace
    n = len(trace_values)
    return SurprisalStats(
        mean=sum(trace_values) / n,
        variance=variance,
        std_dev=math.sqrt(variance),
        max=max(trace_values),
        length=n,
    )
