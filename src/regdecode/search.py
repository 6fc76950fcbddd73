"""Decoders: greedy, beam, exact best-first, and brute-force oracles.

All decoders share one tie-breaking rule so their outputs are directly
comparable: higher total score first, then higher log-probability, then
the lexicographically smallest token-id sequence.

Greedy search is beam search at width 1 under the plain objective
(``MAP_OBJECTIVE``), the paper's first result, and runs through beam's
loop. So all three decoders score through one kernel,
``objectives.child_scores``. Each step reads its prefixes' next-token rows
from the model's cache, keyed by state, as ``StepTerms``: the allowed ids,
their surprisals and the step minimum (``SequenceModel.step_terms``: the
states a step lacks get their rows and surprisals built in one block). The
kernel scores children in one numpy expression from their surprisals,
step minima and prefixes' penalty partial sums; this module hands it
those and reads back totals, log-probabilities and partial sums, and
computes no penalty term itself. Every node carries
its own partial sums, which the kernel returned when it scored the node as
a child; the root's are constants. Beam search makes one kernel call per
step for the children of all of its open members; exact search makes one
per expanded prefix for the end-marker child, and
``objectives.completion_bounds`` returns the open children's partial sums
with their bounds. Survivors and queued prefixes also carry their trace
and minima tuples, from which ``ScoreBreakdown``s (through the spec,
``score_parts``) are built for the hypotheses a decoder returns; scoring
reads no trace.

Beam search keeps, per step, the candidates at or above the k-th best
total (one ``np.partition`` threshold, so every tie survives) and orders
only those by the shared tie-break. Exact search is a single best-first
loop: it scores each end-marker child on the spot, orders the open
children by an admissible bound, and stops once the best complete
hypothesis found so far beats every bound left in the queue. The bound's
cheap first test, at every expansion, is ``objectives.completion_bounds``
(the child's log-probability plus the model's ``best_step`` for every
step still to come, through the length transform, minus a lower bound on
each penalty, the highest over every completion length, all taken in one
array expression). On an n-gram model the children that pass it, a bound
at least the incumbent's score, get the lower of it and
``objectives.table_bounds``, which reads the best completion of each
length from the child's state in the model's ``CompletionTable`` instead
of ``best_step`` per step: the A* outside estimate (Klein & Manning 2003),
in the best-first framing of Meister, Vieira & Cotterell (2020). Greedy,
beam and exact search each run under one ``np.errstate`` per call when the
objective has a regularizer or a length reward (``_nan_checked``): an
overflow is silent, and a NaN in the objective's arithmetic raises a
``ContractError``. The brute-force oracles keep their own enumeration and
score with the spec, so they stay independent of the search code. Each
enumerates an instance once. ``brute_force`` streams one walk into
``_oracle_argmax``, which takes any number of objectives and reads the
walk in bounded chunks: per chunk it evaluates the spec of each penalty
kind once per hypothesis and builds each objective's totals in one numpy
expression, so the exactness suite streams a trial's walk once into all of
its objectives.
``brute_force_set`` scores every k-combination of its pool through one
``objectives._SetDeviationTable``; in the large-weight limit it stops
scoring a set once its running penalty passes the incumbent's.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .exceptions import ContractError, NoHypothesisError, SearchSpaceError
from .models import SequenceModel, _source_key
from .objectives import (
    MAP_OBJECTIVE,
    Objective,
    ScoreBreakdown,
    _PENALTIES,
    _SetDeviationTable,
    _total,
    child_scores,
    completion_bounds,
    score_parts,
    table_bounds,
)

BRUTE_FORCE_PREFIX_GUARD = 10**7
# Open prefixes exact search may hold at once; each holds its trace, minima
# and partial sums. tracemalloc puts them at about 380 bytes each with one
# partial sum, 410 with two (local, or variance alone) and 445 with three
# (variance and square), at 200,000 queued prefixes of a 200-token trigram
# model at n_max 12, so 10**6 of them take 380-445 MB.
EXACT_AGENDA_GUARD = 10**6
# Complete hypotheses the oracle argmax scores at once: one chunk's spec
# values and totals are all it holds per hypothesis.
_ARGMAX_CHUNK = 256


def _check_budget(k: int, n_max: int) -> None:
    """Check a search's beam width (1 for a search without one) and budget."""
    if k < 1:
        raise ContractError("beam width must be >= 1")
    if n_max < 1:
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
        """Tokens without the begin/end markers; every hypothesis a decoder
        returns ends in the end marker."""
        return self.tokens[1:-1]


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


def _per_child(columns: list):
    """Each child's partial sums as a tuple, from the kernel's flat arrays of
    them (one array over the children per partial sum)."""
    if not columns:
        return itertools.repeat(())
    return zip(*map(np.ndarray.tolist, columns))


def _nan_checked(decoder):
    """``decoder`` with its numpy arithmetic under one ``np.errstate`` per
    call. An overflow is silent: a total of -inf ranks below every finite
    one. An invalid operation (an overflowed length reward less an
    overflowed penalty is inf - inf) would give a NaN that no key orders,
    so it raises a ``ContractError`` that names the objective.

    Only a weighted term can overflow, so an objective with no regularizer
    and no length reward decodes outside the errstate, which slows every
    numpy call made under it: its totals and bounds are sums of finite
    surprisals, divided by a length under ``len=norm``."""
    @functools.wraps(decoder)
    def checked(model, source, objective, *args):
        if not objective.regularizers and objective.length_mode != "reward":
            return decoder(model, source, objective, *args)
        try:
            with np.errstate(over="ignore", invalid="raise"):
                return decoder(model, source, objective, *args)
        except FloatingPointError as exc:
            raise ContractError(f"objective {objective.describe()!r} gives a NaN score ({exc}); "
                                "use smaller weights") from exc
    return checked


def greedy_search(model: SequenceModel, source, n_max: int) -> DecodeRecord:
    """Beam search at width 1 under the plain objective: each step keeps the
    child with the highest log-probability so far, ties going to the smaller
    token id."""
    return _beam(model, source, MAP_OBJECTIVE, 1, n_max)


def beam_search(
    model: SequenceModel, source, objective: Objective, k: int, n_max: int
) -> DecodeRecord:
    """Width-limited breadth-first search under the given objective.

    Every one-token extension of the current set is scored as a prefix,
    ended hypotheses persist with their score unchanged, and the best k
    candidates survive. Keeping the top k maximizes the summed set score.
    Stops early once all survivors have ended; survivors still open at
    n_max are dropped as invalid.
    """
    return _beam(model, source, objective, k, n_max)


@_nan_checked
def _beam(model: SequenceModel, source, objective: Objective, k: int,
          n_max: int) -> DecodeRecord:
    """The loop behind ``beam_search`` and ``greedy_search``. Neither public
    decoder calls the other, so a wrapper around both names sees each decode
    once.

    One ``child_scores`` call per step scores the children of every open
    member: their rows' surprisals are concatenated, and an owner index
    (each candidate's member) takes each member's log-probability, partial
    sums and step minimum to its children. Each ended member is its own only
    candidate, with its stored total. One ``np.partition`` over all
    candidates keeps those at or above the k-th best total (so every tie on
    it survives); each kept child takes its surprisal and partial sums from
    the kernel's arrays, and its member and column from the members' first
    columns.
    """
    _check_budget(k, n_max)
    vocab = model.vocabulary
    source_key = _source_key(source)
    eos = vocab.eos_id
    expanded = 0

    Node = tuple  # (ids, trace, minima, log_prob, total, partial sums); the root is never ranked
    beams: list[Node] = [((vocab.bos_id,), (), (), 0.0, None, objective._empty_sums)]

    for steps in range(n_max):  # every open member has ``steps`` steps
        parents = [node for node in beams if node[0][-1] != eos]
        if not parents:
            break
        ended = [node for node in beams if node[0][-1] == eos]
        expanded += len(parents)
        ids, _, _, log_probs, _, sums = zip(*parents)
        terms = model.step_terms(source_key, ids)
        counts, first, n_children = [], [], 0  # per member: its children, its first one
        for t in terms:
            first.append(n_children)
            counts.append(len(t.ids))
            n_children += len(t.ids)
        owner = np.arange(len(parents)).repeat(counts)
        u = terms[0].u if len(terms) == 1 else np.concatenate([t.u for t in terms])
        totals, log_probs, sums = child_scores(objective, steps, sums, log_probs, u,
                                               [t.step_min for t in terms], owner)
        if ended:  # each its own only candidate, after every child
            totals = np.concatenate((totals, [node[4] for node in ended]))
            log_probs = np.concatenate((log_probs, [node[3] for node in ended]))
        cut = len(totals) - k
        if cut > 0:
            threshold = totals.copy()
            threshold.partition(cut)  # in place: np.partition's wrapper costs more than the sort
            kept = (totals >= threshold[cut]).nonzero()[0]
        else:
            kept = np.arange(len(totals))
        # The kept children's surprisals and partial sums, in order; the
        # ended members come last.
        kept_children = kept[:kept.searchsorted(n_children)] if ended else kept
        carried = zip(u[kept_children].tolist(),
                      _per_child([column[kept_children] for column in sums]))
        # (-total, -log_prob, ids, member, surprisal, partial sums); an ended
        # member's surprisal and partial sums are None
        ranked = []
        for i, c_total, c_lp in zip(kept.tolist(), totals[kept].tolist(), log_probs[kept].tolist()):
            if i < n_children:
                b = bisect.bisect_right(first, i) - 1
                u, c_sums = next(carried)
                ranked.append((-c_total, -c_lp, (*parents[b][0], terms[b].ids[i - first[b]]), b,
                               u, c_sums))
            else:
                b = i - n_children
                ranked.append((-c_total, -c_lp, ended[b][0], b, None, None))
        ranked.sort()
        beams = []
        for neg_total, neg_lp, c_ids, b, u, c_sums in ranked[:k]:
            if u is None:
                beams.append(ended[b])
                continue
            _, trace, minima, _, _, _ = parents[b]
            beams.append((c_ids, trace + (u,), minima + (terms[b].step_min,), -neg_lp, -neg_total,
                          c_sums))

    finished = [node for node in beams if node[0][-1] == eos]
    if not finished:
        raise NoHypothesisError(
            f"no beam member reached the end marker within n_max={n_max}"
        )
    hyps = [_make_hypothesis(model, objective, *node[:4]) for node in finished]
    hyps.sort(key=Hypothesis.sort_key)
    return DecodeRecord(best=hyps[0], beam_set=hyps, nodes_expanded=expanded)


@_nan_checked
def exact_search(
    model: SequenceModel, source, objective: Objective, n_max: int
) -> DecodeRecord:
    """Optimal decoding with a certificate, restricted to |y| <= n_max.

    One best-first loop over open prefixes, keyed by an upper bound on the
    score of any completion (``objectives.completion_bounds``, lowered by
    ``objectives.table_bounds`` for the children that pass it when the model
    has a ``completion_table``; the root's is infinite). End-marker children
    are scored on the spot and the best is kept as the incumbent; the root's
    end-marker child is the empty string, so unless the model forbids it the
    incumbent exists after the first expansion. Open children whose bound is
    below the incumbent are never queued. The loop stops once the best open
    bound is strictly below the incumbent's score (equal bounds are still
    expanded so tie-breaking matches the brute-force oracle). More than
    ``EXACT_AGENDA_GUARD`` queued prefixes raise ``SearchSpaceError``.
    """
    _check_budget(1, n_max)
    vocab = model.vocabulary
    source_key = _source_key(source)
    eos = vocab.eos_id
    best_step = model.best_step
    table = model.completion_table

    best_key = best = None  # the incumbent's sort key and its (ids, trace, minima, log_prob)
    floor = -math.inf  # the incumbent's score
    heap = [(-math.inf, -0.0, (vocab.bos_id,), (), (), objective._empty_sums)]
    expanded = 0
    while heap:
        neg_bound, neg_lp, ids, trace, minima, sums = heapq.heappop(heap)
        if -neg_bound < floor:
            break
        expanded += 1
        log_prob = -neg_lp
        (terms,) = model.step_terms(source_key, (ids,))
        n_open = len(terms.ids)
        if terms.end is not None:
            n_open -= 1
            end_total, end_lp, _ = child_scores(objective, len(trace), sums, log_prob, terms.end,
                                                terms.step_min)
            end_total = float(end_total)
            key = (-end_total, -end_lp, (*ids, eos))
            if best_key is None or key < best_key:
                best_key = key
                best = (key[2], trace + (terms.end,), minima + (terms.step_min,), end_lp)
                floor = end_total
        if n_open and len(ids) < n_max:  # an open child still has a step left
            cheap, log_probs, sums = completion_bounds(objective, len(trace), sums, log_prob,
                                                       terms.u, terms.step_min, n_max, best_step)
            bounds = cheap.tolist()
            if max(bounds[:n_open]) >= floor:  # some open child passes the cheap test
                if table is not None:
                    kept = (cheap[:n_open] >= floor).nonzero()[0]
                    # The columns are in token order, the children in the order of
                    # the allowed tokens: the two differ once a row forbids a token.
                    tokens = kept if isinstance(terms.ids, range) else np.array(terms.ids)[kept]
                    columns = table.columns(model.state(source_key, ids))[tokens]
                    tight = table_bounds(objective, len(trace), n_max, table, columns,
                                         log_probs[kept], [column[kept] for column in sums])
                    cheap[kept] = np.minimum(cheap[kept], tight)
                    bounds = cheap.tolist()
                c_minima = minima + (terms.step_min,)
                for j, lp, u, c_sums in zip(range(n_open), log_probs.tolist(), terms.u.tolist(),
                                            _per_child(sums)):
                    if bounds[j] >= floor:
                        heapq.heappush(heap, (-bounds[j], -lp, (*ids, terms.ids[j]),
                                              trace + (u,), c_minima, c_sums))
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
        c_minima = minima + (-max(dist),)  # shared by every child
        steps = len(ids) - 1
        eos_logv = dist[eos]
        if eos_logv != -math.inf:
            yield (
                (*ids, eos),
                trace + (-eos_logv,),
                c_minima,
                log_prob + eos_logv,
            )
        if steps + 1 >= n_max:
            continue
        for tid in range(len(dist) - 1, -1, -1):
            if tid == eos or dist[tid] == -math.inf:
                continue
            stack.append(
                ((*ids, tid), trace + (-dist[tid],), c_minima, log_prob + dist[tid])
            )


def _complete_walk(model: SequenceModel, source, n_max: int):
    """``enumerate_complete``'s walk for the brute-force oracle, after its
    size guard; a generator, so a caller may stream it or keep it."""
    _check_budget(1, n_max)
    n_tokens = len(model.vocabulary.tokens)
    space = _enumerated_prefix_count(n_tokens, n_max)
    if space > BRUTE_FORCE_PREFIX_GUARD:
        raise SearchSpaceError(
            f"{space} prefixes exceed the brute-force guard of {BRUTE_FORCE_PREFIX_GUARD}"
        )
    return enumerate_complete(model, _source_key(source), n_max)


def _oracle_argmax(model: SequenceModel, objectives: Sequence[Objective], hypotheses,
                   n_max: int) -> list[DecodeRecord]:
    """Each objective's argmax over (ids, trace, minima, log_prob) complete
    hypotheses, tie-broken like every decoder; ``nodes_expanded`` counts
    the hypotheses.

    The hypotheses are read once, ``_ARGMAX_CHUNK`` at a time. In a chunk,
    the spec of each penalty kind the objectives use is evaluated once per
    hypothesis, and each objective's totals are one numpy expression over
    the chunk (``objectives._total``, the arithmetic ``score_parts`` uses).
    Only the rows that tie for the chunk's highest total meet the running
    best under the shared key; a chunk with a NaN total sends every row
    there, in walk order, as a one-at-a-time scan would.
    """
    kinds = list(dict.fromkeys(kind for o in objectives for kind, _ in o.regularizers))
    best = [None] * len(objectives)  # per objective: (key, hypothesis) of the best so far
    count = 0
    stream = iter(hypotheses)
    while chunk := list(itertools.islice(stream, _ARGMAX_CHUNK)):
        count += len(chunk)
        _, traces, minima, log_probs = zip(*chunk)
        log_probs = np.array(log_probs)
        steps = np.fromiter(map(len, traces), np.int64, len(chunk))
        values = {kind: np.fromiter(map(_PENALTIES[kind].spec, traces, minima), float, len(chunk))
                  for kind in kinds}
        with np.errstate(over="ignore", invalid="ignore"):  # silent, like the spec's floats
            for o, objective in enumerate(objectives):
                totals = _total(objective, log_probs, steps,
                                [(lam, values[kind]) for kind, lam in objective.regularizers])
                top = totals.max()
                rows = np.flatnonzero(totals == top) if top == top else range(len(chunk))
                for row in rows:
                    hyp = chunk[row]
                    key = (-float(totals[row]), -hyp[3], hyp[0])
                    if best[o] is None or key < best[o][0]:
                        best[o] = (key, hyp)
    if not count:
        raise NoHypothesisError(f"no complete hypothesis within n_max={n_max}")
    return [
        DecodeRecord(
            best=_make_hypothesis(model, objective, *hyp),
            nodes_expanded=count,
            optimality_certificate=True,
        )
        for objective, (_, hyp) in zip(objectives, best)
    ]


def brute_force(
    model: SequenceModel, source, objective: Objective, n_max: int
) -> DecodeRecord:
    """Exhaustive argmax over every complete hypothesis of at most n_max
    steps, streamed from the walk (the guard allows 10**7 prefixes)."""
    return _oracle_argmax(model, [objective], _complete_walk(model, source, n_max), n_max)[0]


def brute_force_set(
    model: SequenceModel, source, k: int, lam: float, n_max: int
) -> list[Hypothesis]:
    """Exhaustive argmax of the size-k set objective: summed member
    log-probability minus ``lam`` times the set deviation penalty.

    ``lam=math.inf`` is the large-weight limit: sets rank by penalty
    first, then by higher summed log-probability, then by token ids.
    Tiny instances only; the candidate pool is every distinct complete
    hypothesis of at most n_max steps, chosen k at a time. Every set's
    penalty comes from one ``_SetDeviationTable`` of this instance.

    At ``lam=math.inf`` the table is given the incumbent's penalty as a
    cutoff, and a set whose running penalty passes it is skipped before its
    log-probability or key is built. This is exact with no tolerance: each
    per-step square is >= 0 and float addition of non-negative numbers never
    decreases a sum, so a cut set's penalty is strictly above the
    incumbent's and it cannot win. A set that ties on penalty is never cut,
    so ties still go to higher log-probability, then token ids. At finite
    ``lam`` every set is scored in full.
    """
    _check_budget(k, n_max)
    vocab = model.vocabulary
    if k > 3:
        raise SearchSpaceError("set decoding is guarded to k <= 3")
    if vocab.dist_size > 4:
        raise SearchSpaceError("set decoding is guarded to |V|+1 <= 4")
    if n_max > 5:
        raise SearchSpaceError("set decoding is guarded to n_max <= 5")
    source_key = _source_key(source)
    pool = sorted(enumerate_complete(model, source_key, n_max), key=lambda h: h[0])
    if len(pool) < k:
        raise NoHypothesisError(f"only {len(pool)} complete hypotheses within n_max={n_max}")
    penalty_of = _SetDeviationTable(model, source_key, k, n_max)
    best = None
    best_key = None
    cutoff = math.inf  # at lam=inf, the incumbent's penalty
    for combo in itertools.combinations(pool, k):
        members = [c[0] for c in combo]
        penalty = penalty_of(members, cutoff) if lam != 0.0 else 0.0
        if penalty > cutoff:
            continue
        set_lp = sum(c[3] for c in combo)
        if lam == math.inf:
            key = (penalty, -set_lp, tuple(members))
        else:
            key = (-(set_lp - lam * penalty), -set_lp, tuple(members))
        if best_key is None or key < best_key:
            best_key = key
            best = combo
            if lam == math.inf:
                cutoff = penalty
    out = []
    for ids, trace, minima, log_prob in best:
        out.append(_make_hypothesis(model, MAP_OBJECTIVE, ids, trace, minima, log_prob))
    out.sort(key=Hypothesis.sort_key)
    return out
