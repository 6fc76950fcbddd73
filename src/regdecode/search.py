"""Decoders: greedy, beam, exact best-first, and brute-force oracles.

All decoders share one tie-breaking rule so their outputs are directly
comparable: higher total score first, then higher log-probability, then
the lexicographically smallest token-id sequence.

Beam and exact search expand a prefix through one kernel,
``objectives.child_scores``. One model call per expanded prefix fetches
its next-token row (``objectives.step_terms``, with per-row terms memoized
on the model), and the kernel scores all of its children in one numpy
expression from the prefix's penalty partial sums. Traces, minima and
``ScoreBreakdown``s (through the spec, ``score_parts``) are built only for
the hypotheses a decoder returns; survivors and queued prefixes carry
their trace and minima tuples so the partial sums can be recomputed.

Beam search keeps, per step, the candidates at or above the k-th best
total (an ``np.partition`` threshold, so every tie survives) and orders
only those by the shared tie-break. Exact search is a single best-first
loop: it scores each end-marker child on the spot, orders the open
children by ``objectives.completion_bounds`` (the child's log-probability
plus the model's ``best_step`` for every step still to come, through the
length transform, minus a lower bound on each penalty), and stops once
the best complete hypothesis found so far beats every bound left in the
queue. The brute-force oracles keep their own enumeration and score with
the spec, so they stay independent of the search code.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ContractError, NoHypothesisError, SearchSpaceError
from .models import SequenceModel, _source_key
from .objectives import (
    MAP_OBJECTIVE,
    Objective,
    ScoreBreakdown,
    child_scores,
    completion_bounds,
    r_beam_ids,
    score_parts,
    step_terms,
)

BRUTE_FORCE_PREFIX_GUARD = 10**7
# Open prefixes exact search may hold at once; each holds its trace and
# minima, so 10**6 of them take about 300 MB.
EXACT_AGENDA_GUARD = 10**6


@dataclass(frozen=True)
class SearchConfig:
    beam_width: int = 1
    n_max: int = 50

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise ContractError("beam width must be >= 1")
        if self.n_max < 1:
            raise ContractError("n_max must be >= 1")


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[str, ...]
    token_ids: tuple[int, ...]
    trace: tuple[float, ...]
    minima: tuple[float, ...]
    log_prob: float
    complete: bool
    breakdown: ScoreBreakdown

    @property
    def score(self) -> float:
        return self.breakdown.total

    def sort_key(self):
        return (-self.breakdown.total, -self.log_prob, self.token_ids)

    @property
    def surface(self) -> tuple[str, ...]:
        """Tokens without the begin/end markers."""
        end = -1 if self.complete else len(self.tokens)
        return self.tokens[1:end]


@dataclass
class DecodeRecord:
    best: Hypothesis
    beam_set: list[Hypothesis] = field(default_factory=list)
    nodes_expanded: int = 0
    optimality_certificate: bool = False


def _make_hypothesis(model: SequenceModel, objective: Objective, ids, trace, minima,
                     log_prob) -> Hypothesis:
    """A returned hypothesis, scored by the spec (``score_parts``)."""
    vocab = model.vocabulary
    return Hypothesis(
        tokens=vocab.decode(ids),
        token_ids=tuple(ids),
        trace=tuple(trace),
        minima=tuple(minima),
        log_prob=log_prob,
        complete=ids[-1] == vocab.eos_id,
        breakdown=score_parts(objective, trace, minima, log_prob),
    )


def greedy_search(model: SequenceModel, source, config: SearchConfig) -> DecodeRecord:
    """Stepwise argmax until the end marker; ties go to the lowest token id."""
    vocab = model.vocabulary
    source_key = _source_key(source)
    eos = vocab.eos_id
    ids = [vocab.bos_id]
    trace: list[float] = []
    minima: list[float] = []
    log_prob = 0.0
    expanded = 0
    for _ in range(config.n_max):
        dist = model.next_log_probs_ids(source_key, tuple(ids)).tolist()
        expanded += 1
        best_tid = max(range(len(dist)), key=lambda i: (dist[i], -i))
        logv = dist[best_tid]
        ids.append(best_tid)
        log_prob += logv
        trace.append(-logv)
        minima.append(-logv)
        if best_tid == eos:
            hyp = _make_hypothesis(model, MAP_OBJECTIVE, ids, trace, minima, log_prob)
            return DecodeRecord(best=hyp, nodes_expanded=expanded)
    raise NoHypothesisError(f"greedy path did not terminate within n_max={config.n_max}")


def beam_search(
    model: SequenceModel, source, objective: Objective, config: SearchConfig
) -> DecodeRecord:
    """Width-limited breadth-first search under the given objective.

    Every one-token extension of the current set is scored as a prefix,
    ended hypotheses persist with their score unchanged, and the best k
    candidates survive. Keeping the top k maximizes the summed set score.
    Stops early once all survivors have ended; survivors still open at
    n_max are dropped as invalid.
    """
    vocab = model.vocabulary
    source_key = _source_key(source)
    eos = vocab.eos_id
    k = config.beam_width
    expanded = 0

    Node = tuple  # (ids, trace, minima, log_prob, total); the root is never ranked
    beams: list[Node] = [((vocab.bos_id,), (), (), 0.0, None)]

    for _ in range(config.n_max):
        if all(node[0][-1] == eos for node in beams):
            break
        # One block of candidates per beam member: (node, terms, totals,
        # log-probabilities) for its children, or terms None for an ended
        # member, which is its own only candidate.
        blocks = []
        for node in beams:
            ids, trace, minima, log_prob, total = node
            if ids[-1] == eos:
                blocks.append((node, None, [total], [log_prob]))
                continue
            expanded += 1
            terms = step_terms(model, source_key, ids)
            blocks.append((node, terms, *child_scores(objective, trace, minima, log_prob,
                                                      terms.children)))
        starts = list(itertools.accumulate((len(b[2]) for b in blocks), initial=0))
        totals = np.concatenate([b[2] for b in blocks])
        log_probs = np.concatenate([b[3] for b in blocks])
        # Only candidates at or above the k-th best total can survive; ties
        # on it are all kept and then ordered like every other candidate.
        cut = len(totals) - k
        if cut > 0:
            kept = np.flatnonzero(totals >= np.partition(totals, cut)[cut])
        else:
            kept = np.arange(len(totals))
        ranked = []
        for i, c_total, c_lp in zip(kept.tolist(), totals[kept].tolist(), log_probs[kept].tolist()):
            b = bisect.bisect_right(starts, i) - 1
            node, terms = blocks[b][:2]
            j = i - starts[b]
            c_ids = node[0] if terms is None else (*node[0], terms.ids[j])
            ranked.append((-c_total, -c_lp, c_ids, b, j))
        ranked.sort()
        beams = []
        for neg_total, neg_lp, c_ids, b, j in ranked[:k]:
            node, terms = blocks[b][:2]
            if terms is None:
                beams.append(node)
            else:
                _, trace, minima, _, _ = node
                beams.append((c_ids, trace + (terms.surprisal_list[j],),
                              minima + (terms.step_min,), -neg_lp, -neg_total))

    finished = [node for node in beams if node[0][-1] == eos]
    if not finished:
        raise NoHypothesisError(
            f"no beam member reached the end marker within n_max={config.n_max}"
        )
    hyps = [_make_hypothesis(model, objective, *node[:4]) for node in finished]
    hyps.sort(key=Hypothesis.sort_key)
    return DecodeRecord(best=hyps[0], beam_set=hyps, nodes_expanded=expanded)


def exact_search(
    model: SequenceModel, source, objective: Objective, config: SearchConfig
) -> DecodeRecord:
    """Optimal decoding with a certificate, restricted to |y| <= n_max.

    One best-first loop over open prefixes, keyed by an upper bound on the
    score of any completion (``objectives.completion_bounds``; the root's
    is infinite). End-marker children are scored on the spot and the best
    is kept as the incumbent; the root's end-marker child is the empty
    string, so unless the model forbids it the incumbent exists after the
    first expansion. Open children whose bound is below the incumbent are
    never queued. The loop stops once the best open bound is strictly
    below the incumbent's score (equal bounds are still expanded so
    tie-breaking matches the brute-force oracle). More than
    ``EXACT_AGENDA_GUARD`` queued prefixes raise ``SearchSpaceError``.
    """
    vocab = model.vocabulary
    source_key = _source_key(source)
    eos = vocab.eos_id
    n_max = config.n_max
    # Every row is a distribution, so 0.0 bounds every step. The model's
    # best_step is tighter, but its first use costs a pass over the model's
    # parameters: until some decode has paid for it (the cached property
    # then sits in the instance dict), a decode fetches it only once bounds
    # with 0.0 leave a child to queue.
    best_step = vars(model).get("best_step")

    best_key = best = None  # the incumbent's sort key and its (ids, trace, minima, log_prob)
    floor = -math.inf  # the incumbent's score
    heap = [(-math.inf, -0.0, (vocab.bos_id,), (), ())]
    expanded = 0
    while heap:
        neg_bound, neg_lp, ids, trace, minima = heapq.heappop(heap)
        if -neg_bound < floor:
            break
        expanded += 1
        log_prob = -neg_lp
        terms = step_terms(model, source_key, ids)
        n_open = len(terms.ids)
        if terms.end is not None:
            n_open -= 1
            end_total, end_lp = child_scores(objective, trace, minima, log_prob, terms.end)
            end_total = float(end_total)
            key = (-end_total, -end_lp, (*ids, eos))
            if best_key is None or key < best_key:
                best_key = key
                best = (key[2], trace + (terms.surprisal_list[-1],),
                        minima + (terms.step_min,), end_lp)
                floor = end_total
        if n_open and len(ids) < n_max:  # an open child still has a step left
            args = (objective, trace, minima, log_prob, terms.children, n_max)
            bounds, log_probs = completion_bounds(*args, 0.0 if best_step is None else best_step)
            bounds, log_probs = bounds.tolist(), log_probs.tolist()
            if best_step is None and max(bounds[:n_open]) >= floor:
                best_step = model.best_step
                bounds = completion_bounds(*args, best_step)[0].tolist()
            c_minima = minima + (terms.step_min,)
            for j in range(n_open):
                if bounds[j] >= floor:
                    heapq.heappush(heap, (-bounds[j], -log_probs[j], (*ids, terms.ids[j]),
                                          trace + (terms.surprisal_list[j],), c_minima))
            if len(heap) > EXACT_AGENDA_GUARD:
                raise SearchSpaceError(
                    f"exact search agenda exceeds its guard of {EXACT_AGENDA_GUARD} open prefixes"
                )
    if best is None:
        raise NoHypothesisError(f"no complete hypothesis within n_max={n_max}")
    return DecodeRecord(
        best=_make_hypothesis(model, objective, *best),
        nodes_expanded=expanded,
        optimality_certificate=True,
    )


def _enumerated_prefix_count(n_tokens: int, n_max: int) -> int:
    return sum(n_tokens**length for length in range(n_max))


def enumerate_complete(model: SequenceModel, source_key: str, n_max: int):
    """Depth-first walk yielding (ids, trace, minima, log_prob) for every
    complete hypothesis of at most n_max steps, skipping forbidden steps."""
    vocab = model.vocabulary
    eos = vocab.eos_id
    stack = [((vocab.bos_id,), (), (), 0.0)]
    while stack:
        ids, trace, minima, log_prob = stack.pop()
        dist = model.next_log_probs_ids(source_key, ids).tolist()
        step_min = -max(dist)
        steps = len(ids) - 1
        eos_logv = dist[eos]
        if eos_logv != -math.inf:
            yield (
                (*ids, eos),
                trace + (-eos_logv,),
                minima + (step_min,),
                log_prob + eos_logv,
            )
        if steps + 1 >= n_max:
            continue
        for tid in range(len(dist) - 1, -1, -1):
            if tid == eos or dist[tid] == -math.inf:
                continue
            stack.append(
                ((*ids, tid), trace + (-dist[tid],), minima + (step_min,), log_prob + dist[tid])
            )


def brute_force(
    model: SequenceModel, source, objective: Objective, n_max: int
) -> DecodeRecord:
    """Exhaustive argmax over every complete hypothesis of at most n_max steps."""
    if n_max < 1:
        raise ContractError("n_max must be >= 1")
    n_tokens = len(model.vocabulary.tokens)
    space = _enumerated_prefix_count(n_tokens, n_max)
    if space > BRUTE_FORCE_PREFIX_GUARD:
        raise SearchSpaceError(
            f"{space} prefixes exceed the brute-force guard of {BRUTE_FORCE_PREFIX_GUARD}"
        )
    source_key = _source_key(source)
    best = None
    best_key = None
    count = 0
    for ids, trace, minima, log_prob in enumerate_complete(model, source_key, n_max):
        count += 1
        key = (-score_parts(objective, trace, minima, log_prob).total, -log_prob, ids)
        if best_key is None or key < best_key:
            best_key = key
            best = (ids, trace, minima, log_prob)
    if best is None:
        raise NoHypothesisError(f"no complete hypothesis within n_max={n_max}")
    return DecodeRecord(
        best=_make_hypothesis(model, objective, *best),
        nodes_expanded=count,
        optimality_certificate=True,
    )


def brute_force_set(
    model: SequenceModel, source, k: int, lam: float, n_max: int
) -> list[Hypothesis]:
    """Exhaustive argmax of the size-k set objective: summed member
    log-probability minus ``lam`` times the set deviation penalty.

    ``lam=math.inf`` is the large-weight limit: sets rank by penalty
    first, then by higher summed log-probability, then by token ids.
    Tiny instances only; the candidate pool is every distinct complete
    hypothesis of at most n_max steps, chosen k at a time.
    """
    vocab = model.vocabulary
    if k < 1 or k > 3:
        raise SearchSpaceError("set decoding is guarded to k <= 3")
    if vocab.dist_size > 4:
        raise SearchSpaceError("set decoding is guarded to |V|+1 <= 4")
    if n_max < 1 or n_max > 5:
        raise SearchSpaceError("set decoding is guarded to n_max <= 5")
    source_key = _source_key(source)
    pool = sorted(enumerate_complete(model, source_key, n_max), key=lambda h: h[0])
    if len(pool) < k:
        raise NoHypothesisError(f"only {len(pool)} complete hypotheses within n_max={n_max}")
    best = None
    best_key = None
    for combo in itertools.combinations(pool, k):
        members = [c[0] for c in combo]
        set_lp = sum(c[3] for c in combo)
        penalty = r_beam_ids(members, model, source_key, k, n_max) if lam != 0.0 else 0.0
        if lam == math.inf:
            key = (penalty, -set_lp, tuple(members))
        else:
            key = (-(set_lp - lam * penalty), -set_lp, tuple(members))
        if best_key is None or key < best_key:
            best_key = key
            best = combo
    out = []
    for ids, trace, minima, log_prob in best:
        out.append(_make_hypothesis(model, MAP_OBJECTIVE, ids, trace, minima, log_prob))
    out.sort(key=Hypothesis.sort_key)
    return out
