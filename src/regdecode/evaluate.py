"""Corpus-level evaluation: BLEU, sweep aggregation, and correlation.

The BLEU variant is pinned for reproducibility: case-sensitive whitespace
tokens, orders 1 to 4 with clipped modified precision, add-one smoothing
applied only to higher-order precisions that would otherwise be zero,
brevity penalty min(1, exp(1 - ref_len/hyp_len)), single reference, score
scaled to [0, 100].
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .exceptions import ContractError
from .surprisal import stats

MAX_ORDER = 4

TokenSeq = Sequence[str]


@dataclass(frozen=True)
class BleuReport:
    corpus_bleu: float
    precisions: tuple[float, ...]
    brevity_penalty: float
    hyp_length: int
    ref_length: int


def _ngrams(tokens: TokenSeq, order: int) -> Counter:
    return Counter(tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1))


def corpus_bleu(hypotheses: Sequence[TokenSeq], references: Sequence[TokenSeq]) -> BleuReport:
    if len(hypotheses) != len(references):
        raise ContractError("hypothesis and reference counts differ")
    if not references:
        raise ContractError("reference corpus is empty")
    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_ORDER + 1):
            hyp_counts = _ngrams(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngrams(ref, n)
            totals[n - 1] += sum(hyp_counts.values())
            matches[n - 1] += sum((hyp_counts & ref_counts).values())

    precisions = []
    for n in range(1, MAX_ORDER + 1):
        m, t = matches[n - 1], totals[n - 1]
        if n > 1 and m == 0:
            precisions.append((m + 1.0) / (t + 1.0))
        elif t > 0:
            precisions.append(m / t)
        else:
            precisions.append(0.0)

    if hyp_len == 0:
        return BleuReport(0.0, tuple(precisions), 0.0, 0, ref_len)
    bp = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    if precisions[0] == 0.0:
        geo_mean = 0.0
    else:
        geo_mean = math.exp(sum(math.log(p) for p in precisions) / MAX_ORDER)
    return BleuReport(100.0 * bp * geo_mean, tuple(precisions), bp, hyp_len, ref_len)


@dataclass(frozen=True)
class SweepRow:
    lam: float
    k: int
    bleu: float
    mean_sigma: float
    mean_len: float
    empty_rate: float


def summarize_run(
    lam: float,
    k: int,
    records: Sequence,
    references: Sequence[TokenSeq],
) -> SweepRow:
    """Aggregate one decoding run into a sweep row.

    Surface tokens (markers stripped) feed BLEU; the per-sentence surprisal
    standard deviation includes the end-marker step, so an empty output
    contributes a length-one trace.
    """
    if len(records) != len(references):
        raise ContractError("records and references are misaligned")
    hyps = [list(r.best.surface) for r in records]
    report = corpus_bleu(hyps, references)
    sigmas = [stats(r.best.trace).std_dev for r in records]
    empties = sum(1 for r in records if len(r.best.surface) == 0)
    n = len(records)
    return SweepRow(
        lam=lam,
        k=k,
        bleu=report.corpus_bleu,
        mean_sigma=sum(sigmas) / n,
        mean_len=sum(len(h) for h in hyps) / n,
        empty_rate=empties / n,
    )


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    if len(xs) != len(ys):
        raise ContractError("series lengths differ")
    n = len(xs)
    if n < 2:
        raise ContractError("need at least two points")
    mx = sum(xs) / n
    my = sum(ys) / n
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0.0 or vy == 0.0:
        raise ContractError("correlation undefined for a constant series")
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return cov / math.sqrt(vx * vy)
