"""Decoding objectives: log-probability plus weighted surprisal penalties.

The total score of a hypothesis is its cumulative log-probability minus a
weighted sum of regularizer penalties, optionally combined with a length
reward or length normalization. ``child_scores`` scores the children of a
prefix and ``completion_bounds`` bounds the score of every completion of
each of them from above, which is what exact search prunes with.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exceptions import ContractError
from .models import SequenceModel, _source_key

Trace = Sequence[float]


class RegularizerKind(str, enum.Enum):
    GREEDY = "greedy"
    VARIANCE = "variance"
    LOCAL = "local"
    MAX = "max"
    SQUARE = "square"


# The penalty specs square with d * d and sum left to right in explicit
# loops, the arithmetic that numpy repeats element by element in the
# expansion kernel below. Python's ``d ** 2`` goes through libm ``pow``,
# which can be one ulp off the product, and from Python 3.12 ``sum()`` of
# floats is compensated, which no running sum reproduces.


def r_greedy(trace: Trace, stepwise_minima: Trace | None) -> float:
    """Sum of squared gaps between each step's surprisal and the best
    achievable surprisal at that step; zero iff every step is locally optimal."""
    if stepwise_minima is None:
        raise ContractError("greedy regularizer needs stepwise minima")
    if len(trace) != len(stepwise_minima):
        raise ContractError("trace and stepwise minima must have equal length")
    total = 0.0
    for u, m in zip(trace, stepwise_minima):
        d = u - m
        total += d * d
    return total


def _running_sum(trace: Trace) -> float:
    total = 0.0
    for u in trace:
        total += u
    return total


def r_variance(trace: Trace) -> float:
    n = len(trace)
    if n == 0:
        raise ContractError("trace must be nonempty")
    mu = _running_sum(trace) / n
    total = 0.0
    for u in trace:
        d = u - mu
        total += d * d
    return total / n


def _local_sum(trace: Trace) -> tuple[float, float]:
    """(sum of squared adjacent differences, last surprisal), anchored at zero."""
    prev = 0.0
    total = 0.0
    for u in trace:
        d = u - prev
        total += d * d
        prev = u
    return total, prev


def r_local(trace: Trace) -> float:
    """Mean squared difference of adjacent surprisals, anchored at zero
    before the first step."""
    n = len(trace)
    if n == 0:
        raise ContractError("trace must be nonempty")
    return _local_sum(trace)[0] / n


def r_max(trace: Trace) -> float:
    if len(trace) == 0:
        raise ContractError("trace must be nonempty")
    return max(trace)


def r_square(trace: Trace) -> float:
    if len(trace) == 0:
        raise ContractError("trace must be nonempty")
    total = 0.0
    for u in trace:
        total += u * u
    return total


class Children(NamedTuple):
    """What the expansion kernel reads of some children: numpy arrays
    aligned with ``StepTerms.ids`` for every allowed child of one row (or
    with the candidates of a beam step, one row after another), or floats
    for the end-marker child alone. The same arithmetic serves all three."""

    log_prob: np.ndarray | float
    surprisal: np.ndarray | float
    gap_sq: np.ndarray | float  # the greedy term (surprisal - step minimum)**2
    surprisal_sq: np.ndarray | float  # the square term


class StepTerms:
    """One next-token row in the form the expansion kernel reads.

    ``ids`` are the allowed token ids (finite log-probability) in ascending
    order and ``children`` their terms; forbidden tokens never enter the
    arrays, so no ``0 * inf`` can arise. ``step_min`` is the step's minimum
    surprisal. The end marker has the largest id of the row, so when it is
    allowed it is the last child, and ``end`` holds its terms as floats
    (``None`` otherwise).
    """

    __slots__ = ("row", "ids", "step_min", "children", "surprisal_list", "end", "_table")

    def __init__(self, row: np.ndarray) -> None:
        self.row = row
        self.ids = np.nonzero(row > -math.inf)[0].tolist()
        self.step_min = -float(row.max())
        log_prob = row if len(self.ids) == len(row) else row[self.ids]
        u = -log_prob
        gap = u - self.step_min
        self.children = Children(log_prob, u, gap * gap, u * u)
        self._table = None
        self.surprisal_list = u.tolist()
        self.end = None
        if self.ids[-1] == len(row) - 1:
            end_lp = float(row[-1])
            u, gap = -end_lp, -end_lp - self.step_min
            self.end = Children(end_lp, u, gap * gap, u * u)

    @property
    def table(self) -> np.ndarray:
        """The children's terms as the rows of one array, so that a beam
        step joins its members' children in one concatenation. Built on
        first use, which exact search never makes; ``children`` are then
        views of its rows, equal to the arrays they replace."""
        if self._table is None:
            table = self._table = np.array(self.children)
            self.children = Children(table[0], table[1], table[2], table[3])
        return self._table


def step_terms(model: SequenceModel, source_key: str, prefix_ids: tuple[int, ...]) -> StepTerms:
    """The next-token row of a prefix as ``StepTerms``: one model call, the
    terms built once per distinct row and memoized on the model."""
    row = model.next_log_probs_ids(source_key, prefix_ids)
    terms = model.row_terms.get(id(row))
    if terms is None or terms.row is not row:
        terms = model.row_terms[id(row)] = StepTerms(row)
    return terms


# Prefix forms: each penalty's partial sum over a prefix's (possibly empty)
# trace, which ``prefix_sums`` computes once per expanded prefix. Children
# forms: the penalty of each child, from the partial sum, the prefix's step
# count and the children's terms. A partial sum is either one prefix's,
# shared by all of its children, or one per child (``_batch_sums``; the
# last axis runs over the children). Each form repeats its spec's last loop
# step on the children, so it equals the spec on the child's trace bit for
# bit.


def _greedy_children(partial, steps, children):
    return partial + children.gap_sq


def _variance_children(trace, steps, children):
    # The mean moves with the child's step, so the squared deviations are
    # summed again over the prefix: variance's partial sum is the prefix's
    # trace itself, or in a batch the (steps x children) matrix of the
    # children's prefix traces. Both sums run over the steps in order, one
    # row added at a time as the spec adds them; an array sum is updated in
    # place once the first row has made it, a float one rebound. Not
    # ``np.sum`` or ``np.add.reduce`` along the step axis: on a single
    # column numpy sums pairwise from 8 rows up, which can differ from the
    # spec in the last bit.
    n = steps + 1
    u = children.surprisal
    run = 0.0
    for row in trace:
        run += row
    mu = (run + u) / n
    total = 0.0
    for row in (*trace, u):
        d = row - mu
        d *= d
        total += d
    return total / n


def _local_sums(partial, steps, children):
    """Each child's sum of squared adjacent differences, before the spec's
    division by the length."""
    total, prev = partial
    d = children.surprisal - prev
    return total + d * d


def _local_children(partial, steps, children):
    return _local_sums(partial, steps, children) / (steps + 1)


def _max_prefix(trace, minima):
    return r_max(trace) if trace else -math.inf  # below every surprisal


def _max_children(partial, steps, children):
    u = children.surprisal
    return np.where(u > partial, u, partial)  # max() keeps the first of equal values


def _square_prefix(trace, minima):
    return r_square(trace) if trace else 0.0


def _square_children(partial, steps, children):
    return partial + children.surprisal_sq


# Lower-bound forms: values for the children of a prefix such that a
# completion of a child to n steps has a penalty of at least ``values / n``
# when the penalty is per_length, else at least ``values``. Each value is a
# partial sum of the spec, which only ever adds non-negative terms to it (or
# takes a running max), so in floats too the final penalty never falls
# below it. Greedy, max and square take the child's own value; local its
# sum of squared differences. Variance has no such form: its bound is 0.


class _Penalty(NamedTuple):
    spec: Callable  # (nonempty trace, minima) -> value
    prefix: Callable  # (trace, minima) -> partial sum
    children: Callable  # (partial sum, prefix steps, Children) -> child values
    lower: Callable | None  # (partial sum, prefix steps, Children) -> lower-bound values
    per_length: bool = False


_PENALTIES = {
    # r_greedy and _local_sum are 0.0 and (0.0, 0.0) on an empty trace, so
    # they serve as prefix forms unchanged.
    RegularizerKind.GREEDY: _Penalty(r_greedy, r_greedy, _greedy_children, _greedy_children),
    RegularizerKind.VARIANCE: _Penalty(
        lambda trace, _: r_variance(trace), lambda trace, _: trace, _variance_children, None
    ),
    RegularizerKind.LOCAL: _Penalty(
        lambda trace, _: r_local(trace), lambda trace, _: _local_sum(trace), _local_children,
        _local_sums, per_length=True,
    ),
    RegularizerKind.MAX: _Penalty(
        lambda trace, _: r_max(trace), _max_prefix, _max_children, _max_children
    ),
    RegularizerKind.SQUARE: _Penalty(
        lambda trace, _: r_square(trace), _square_prefix, _square_children, _square_children
    ),
}

LengthMode = str  # "none" | "reward" | "normalize"


@dataclass(frozen=True)
class Objective:
    """Weighted regularizers plus an optional length transform.

    ``length_mode`` is one of ``none``, ``reward`` (adds
    ``length_lambda * |y|``) or ``normalize`` (divides the
    log-probability term by ``|y|``); reward and normalization are
    mutually exclusive by construction.
    """

    regularizers: tuple[tuple[RegularizerKind, float], ...] = ()
    length_mode: LengthMode = "none"
    length_lambda: float = 0.0

    def __post_init__(self) -> None:
        seen = set()
        for kind, lam in self.regularizers:
            if not isinstance(kind, RegularizerKind):
                raise ContractError(f"unknown regularizer {kind!r}")
            if kind in seen:
                raise ContractError(f"regularizer {kind.value!r} given twice")
            seen.add(kind)
            if not (math.isfinite(lam) and lam >= 0):
                raise ContractError(f"weight for {kind.value} must be finite and >= 0")
        if self.length_mode not in ("none", "reward", "normalize"):
            raise ContractError(f"unknown length mode {self.length_mode!r}")
        if self.length_mode != "reward" and self.length_lambda != 0.0:
            raise ContractError("length_lambda is only meaningful with the reward mode")
        if self.length_mode == "reward" and not (
            math.isfinite(self.length_lambda) and self.length_lambda >= 0
        ):
            raise ContractError("length reward weight must be finite and >= 0")

    def describe(self) -> str:
        """The ``parse_objective`` spec of this objective; it parses back to
        an equal one."""
        parts = [f"{kind.value}={_weight_text(lam)}" for kind, lam in self.regularizers]
        if self.length_mode == "reward":
            parts.append(f"len=reward:{_weight_text(self.length_lambda)}")
        elif self.length_mode == "normalize":
            parts.append("len=norm")
        return ",".join(parts)


def _weight_text(lam: float) -> str:
    # The short form when it reads back as the same float, so manifests
    # written before stay byte-identical; repr otherwise.
    text = f"{lam:g}"
    return text if float(text) == lam else repr(float(lam))


MAP_OBJECTIVE = Objective()


@dataclass(frozen=True)
class ScoreBreakdown:
    log_prob: float
    penalties: dict[str, float] = field(default_factory=dict)
    length_term: float = 0.0
    total: float = 0.0


def score_parts(
    objective: Objective,
    trace: Trace,
    minima: Trace | None,
    log_prob: float,
) -> ScoreBreakdown:
    """Score a (possibly incomplete) hypothesis from its precomputed trace."""
    n = len(trace)
    length_term = 0.0
    if objective.length_mode == "normalize":
        if n == 0:
            raise ContractError("cannot length-normalize a zero-length hypothesis")
        length_term = log_prob / n - log_prob
    elif objective.length_mode == "reward":
        length_term = objective.length_lambda * n
    penalties = {}
    weighted = []  # loops: in Python 3.11 a comprehension costs a frame per call
    for kind, lam in objective.regularizers:
        # Empty traces (the bare begin-marker prefix) carry zero penalty.
        value = _PENALTIES[kind].spec(trace, minima) if n else 0.0
        penalties[kind.value] = value
        weighted.append((lam, value))
    return ScoreBreakdown(log_prob=log_prob, penalties=penalties, length_term=length_term,
                          total=_total(objective, log_prob, n, weighted))


def _total(objective: Objective, log_probs, n, weighted):
    """The total of hypotheses of n steps: the length transform of their
    log-probabilities, then each regularizer's weight times its value
    subtracted, from ``weighted`` (weight, value) pairs in the objective's
    order. With no pairs it is the length-transformed log-probability.

    The one definition of a total's arithmetic. ``score_parts`` calls it on
    floats, ``child_scores`` on the children of a prefix and the oracle
    argmax on a chunk of complete hypotheses (``n`` an array there); numpy
    repeats each float operation element by element, so all three agree bit
    for bit. ``completion_bounds`` repeats it on upper-bounded inputs.
    """
    if objective.length_mode == "normalize":
        total = log_probs / n
    elif objective.length_mode == "reward":
        total = log_probs + objective.length_lambda * n
    else:
        total = log_probs
    for lam, value in weighted:
        total = total - lam * value
    return total


def prefix_sums(objective: Objective, trace: Trace, minima: Trace) -> list:
    """(weight, penalty, partial sum over the trace) for each regularizer of
    the objective, in order: what the expansion kernel reads of a prefix,
    computed once per expanded prefix for every use in ``child_scores`` and
    ``completion_bounds``."""
    sums = []  # a loop: in Python 3.11 a comprehension costs a frame per call
    for kind, lam in objective.regularizers:
        penalty = _PENALTIES[kind]
        sums.append((lam, penalty, penalty.prefix(trace, minima)))
    return sums


def _batch_sums(objective: Objective, prefixes: Sequence[tuple], owner: np.ndarray) -> list:
    """``prefix_sums`` of several (trace, minima) prefixes of one length as
    one batch for ``child_scores``: each partial sum stacked over the
    prefixes on the last axis, then taken for every child from its prefix,
    ``owner[c]`` being child c's prefix. Variance's stacked traces are a
    (steps x children) matrix, local's (sum, last surprisal) pairs a
    2 x children one."""
    batch = []
    for kind, lam in objective.regularizers:
        penalty = _PENALTIES[kind]
        stacked = np.array([penalty.prefix(trace, minima) for trace, minima in prefixes])
        batch.append((lam, penalty, stacked.T[..., owner]))
    return batch


def child_scores(objective: Objective, steps: int, sums: list, log_prob, children: Children):
    """(totals, log-probabilities) of children of prefixes of ``steps``
    steps, in one vector expression: the children of one prefix, with its
    ``prefix_sums`` and log-probability (or one float expression for
    ``StepTerms.end``), or the children of a whole beam, with per-child
    partial sums (``_batch_sums``) and prefix log-probabilities.

    This is the expansion kernel of beam and exact search. Each total
    equals ``score_parts(objective, child trace, child minima, child
    log-probability).total`` bit for bit: both build it with ``_total``.
    """
    log_probs = log_prob + children.log_prob
    weighted = []
    for lam, penalty, partial in sums:
        weighted.append((lam, penalty.children(partial, steps, children)))
    return _total(objective, log_probs, steps + 1, weighted), log_probs


@functools.cache
def _lengths(n_max: int) -> np.ndarray:
    """The completion lengths 0..n_max as a read-only float column. Each
    is exactly its integer, so numpy divides and multiplies by it as by
    the integer length of a score."""
    column = np.arange(n_max + 1.0)[:, None]
    column.flags.writeable = False
    return column


def completion_bounds(
    objective: Objective, steps: int, sums: list, log_prob: float, children: Children,
    n_max: int, best_step: float,
):
    """(bounds, log-probabilities) of the children of a prefix: each bound
    is at least the score, as computed in floats, of every completion of
    that child that has at most ``n_max`` steps and takes a step after it.

    ``best_step`` is at least every entry of every row, and at most 0. For
    each completion length n the bound repeats ``child_scores`` with every
    input replaced by an upper bound: each step still to come adds
    ``best_step`` to the child's log-probability, in the order the real sum
    accumulates, and each penalty subtracts its lower-bound form. Rounding
    to nearest is monotone, so the bound holds in floats with no tolerance.
    The result is the highest bound over n.

    One expression serves every length: a (lengths x children) array whose
    rows are the running sums (``best_step`` rows, the children's
    log-probabilities added into the first, then ``np.add.accumulate``
    down the rows, which adds in the real sum's order), put through
    ``_total`` and the lower forms with the lengths as a column, and
    reduced by ``np.maximum`` over the rows. When one length decides the
    bound, the same expression runs on the children's vector with no
    array set up: a child one step from ``n_max``, or an objective with no
    length transform and no lower form divided by n, where a further
    step can only lower the bound, so the shortest completion gives it.
    """
    lowers = []
    shortest = objective.length_mode == "none"
    for lam, penalty, partial in sums:
        if penalty.lower is not None:
            lowers.append((lam, penalty.lower(partial, steps, children), penalty.per_length))
            shortest = shortest and not penalty.per_length
    log_probs = log_prob + children.log_prob
    n = steps + 2
    one_length = shortest or n == n_max
    if one_length:
        run = log_probs + best_step
    else:
        n = _lengths(n_max)[n:]
        run = np.empty((len(n), len(log_probs)))
        run.fill(best_step)  # np.full costs twice as much on these few rows
        run[0] += log_probs
        np.add.accumulate(run, out=run)
    bounds = _total(objective, run, n, ())
    for lam, values, per_length in lowers:
        bounds = bounds - lam * (values / n if per_length else values)
    return (bounds if one_length else np.maximum.reduce(bounds)), log_probs


def _walk(model: SequenceModel, source, tokens: Sequence[str]) -> tuple[tuple, list, float]:
    """(trace, rows, log-probability) of a bos-initial token sequence, one
    model call per step; rows, not their minima, so ``trace`` takes no max."""
    ids = model.vocabulary.prefix_ids(tokens, stepped=True)
    source_key = _source_key(source)
    values = []
    rows = []
    log_prob = 0.0
    for t in range(1, len(ids)):
        dist = model.next_log_probs_ids(source_key, ids[:t])
        step = float(dist[ids[t]])
        log_prob += step
        values.append(-step)
        rows.append(dist)
    return tuple(values), rows, log_prob


def score(
    hypothesis: Sequence[str],
    objective: Objective,
    model: SequenceModel,
    source=None,
) -> ScoreBreakdown:
    """Score a bos-initial token sequence by walking the model."""
    values, rows, log_prob = _walk(model, source, hypothesis)
    minima = tuple([-float(dist.max()) for dist in rows])
    return score_parts(objective, values, minima, log_prob)


def r_beam(
    hypothesis_set: Sequence[Sequence[str]],
    model: SequenceModel,
    source,
    k: int,
    n_max: int,
) -> float:
    """Squared per-step deviation of a size-k set of complete hypotheses
    from the best size-k choice among the one-token extensions of its own
    step-wise prefixes.

    Prefixes are kept with multiplicity, ended hypotheses absorb with zero
    step surprisal, and the per-step comparison uses the summed cumulative
    scores of the kept prefixes against the best achievable selection,
    which reduces exactly to the greedy regularizer at k = 1.
    """
    vocab = model.vocabulary
    ids = [vocab.prefix_ids(hyp) for hyp in hypothesis_set]
    if any(m[-1] != vocab.eos_id for m in ids):
        raise ContractError("each hypothesis must be complete")
    return r_beam_ids(ids, model, _source_key(source), k, n_max)


def r_beam_ids(
    members: Sequence[tuple[int, ...]],
    model: SequenceModel,
    source_key: str,
    k: int,
    n_max: int,
) -> float:
    """``r_beam`` on id sequences, through a ``_SetDeviationTable`` built
    for this one set; ``brute_force_set`` keeps one table per instance and
    reuses it across every k-combination of its pool."""
    if len(members) != k:
        raise ContractError(f"hypothesis set has {len(members)} members, expected k={k}")
    for m in members:
        if len(m) - 1 > n_max:
            raise ContractError("hypothesis longer than n_max")
    return _SetDeviationTable(model, source_key, k, n_max)(members)


_CANDIDATE_KEY = operator.itemgetter(0, 1)


class _SetDeviationTable:
    """The set deviation penalty of ``r_beam`` for size-k sets of members
    drawn from one model, source, k and n_max (members at most n_max steps
    long, checked by the caller).

    Everything one set's penalty reads is built once and shared by every
    set that reads it:

    * each prefix's next-token row;
    * per member and step t = 1..n_max, a state: the member's kept parent
      (its prefix of t tokens, or the member itself once it has ended),
      that parent's cumulative log-probability and the step's surprisal
      (``None`` once ended);
    * per parent, its k best one-token extensions by cumulative score,
      sorted once (an ended parent is its own only candidate);
    * per step, the squared deviation of the last set scored, reused while
      the next set has the same member states at that step. Consecutive
      k-combinations of a pool sorted by ids differ in their last member,
      whose prefixes mostly repeat, so this finds most repeats in
      n_max entries.

    A step's best k candidates are the best k of the merged per-parent
    lists: a parent's candidate that is not among its own k best cannot be
    among the best k of all, and the merge keeps the parents' order, so the
    selection is the one a sort of every candidate gives.

    A call may pass a ``cutoff``: the step loop then returns the running
    sum as soon as it is strictly above the cutoff, which
    ``brute_force_set`` sets to its incumbent's penalty. Every square is
    >= 0 and float addition of non-negative numbers never decreases a sum,
    so the full penalty would be strictly above the cutoff too. The steps
    left unscored keep their per-step entries, each a pure function of its
    member states whichever set wrote it, so the reuse stays exact.
    """

    def __init__(self, model: SequenceModel, source_key: str, k: int, n_max: int) -> None:
        self._model = model
        self._source_key = source_key
        self._k = k
        self._n_max = n_max
        self._eos = model.vocabulary.eos_id
        self._rows: dict[tuple[int, ...], list[float]] = {}
        self._member_states: dict[tuple[int, ...], list[tuple]] = {}
        self._candidates: dict[tuple[int, ...], list[tuple]] = {}
        self._last: list[tuple] = [((), 0.0)] * n_max  # per step: (member states, square)

    def __call__(self, members: Sequence[tuple[int, ...]], cutoff: float = math.inf) -> float:
        """The penalty of one set of member id tuples, in member order, or
        the first running sum strictly above ``cutoff``."""
        last = self._last
        total = 0.0
        for t, states in enumerate(zip(*map(self._states_of, members))):
            seen, square = last[t]
            if states != seen:
                square = self._squared_deviation(states)
                last[t] = (states, square)
            total += square
            if total > cutoff:
                break
        return total

    def _row(self, prefix: tuple[int, ...]) -> list[float]:
        row = self._rows.get(prefix)
        if row is None:
            row = self._rows[prefix] = self._model.next_log_probs_ids(
                self._source_key, prefix).tolist()
        return row

    def _states_of(self, m: tuple[int, ...]) -> list[tuple]:
        """The member's state (kept parent, its log-probability, step
        surprisal or ``None``) at each step t = 1..n_max."""
        states = self._member_states.get(m)
        if states is None:
            states = []
            lp = 0.0
            for t in range(1, len(m)):
                logv = self._row(m[:t])[m[t]]
                states.append((m[:t], lp, -logv))
                lp += logv
            states += [(m, lp, None)] * (self._n_max + 1 - len(m))
            self._member_states[m] = states
        return states

    def _candidates_of(self, parent: tuple[int, ...], plp: float) -> list[tuple]:
        """The k best candidates (-child log-prob, child ids, parent
        log-prob, step surprisal) of a parent of log-probability plp, best
        first."""
        candidates = self._candidates.get(parent)
        if candidates is None:
            if parent[-1] == self._eos:
                candidates = [(-plp, parent, plp, 0.0)]
            else:
                candidates = [(-(plp + logv), parent + (tid,), plp, -logv)
                              for tid, logv in enumerate(self._row(parent)) if logv != -math.inf]
                candidates.sort(key=_CANDIDATE_KEY)
                del candidates[self._k:]
            self._candidates[parent] = candidates
        return candidates

    def _squared_deviation(self, states: tuple[tuple, ...]) -> float:
        """One step's squared deviation: the summed cumulative scores of the
        kept parents (with multiplicity) and their kept steps against the
        best size-k choice among the one-token extensions of the distinct
        parents, ties going to the lowest token ids."""
        kept_parent_lp = 0.0
        kept_step_u = 0.0
        for _, plp, step_u in states:
            kept_parent_lp += plp
            if step_u is not None:
                kept_step_u += step_u
        parents = {parent: plp for parent, plp, _ in states}
        if len(parents) == 1:
            candidates = self._candidates_of(*states[0][:2])
        else:
            candidates = [c for parent, plp in parents.items()
                          for c in self._candidates_of(parent, plp)]
            candidates.sort(key=_CANDIDATE_KEY)
        k = self._k
        if len(candidates) >= k:
            best = candidates[:k]
        else:
            # Degenerate duplicated input: repeat the best candidate.
            best = candidates + [candidates[0]] * (k - len(candidates))
        best_parent_lp = sum(c[2] for c in best)
        best_step_u = sum(c[3] for c in best)
        # Grouped so the shared-parent case cancels exactly.
        deviation = (kept_parent_lp - best_parent_lp) + (best_step_u - kept_step_u)
        return deviation * deviation


def parse_objective(spec: str) -> Objective:
    """Parse a comma-separated objective description.

    Grammar: ``kind=weight`` pairs drawn from greedy, variance, local,
    max, square, plus at most one ``len=reward:WEIGHT`` or ``len=norm``.
    The empty string is the plain log-probability objective. Weight
    ranges and repeated kinds are left to ``Objective`` to reject.
    """
    spec = spec.strip()
    if not spec:
        return Objective()
    regs = []
    length_mode = "none"
    length_lambda = 0.0
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ContractError(f"bad objective term {part!r}, expected kind=value")
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "len":
            if length_mode != "none":
                raise ContractError("length mode given twice")
            if value == "norm":
                length_mode = "normalize"
            elif value.startswith("reward:"):
                length_mode = "reward"
                length_lambda = _parse_weight(value[len("reward:"):], part)
            else:
                raise ContractError(f"bad length mode {value!r}, expected norm or reward:WEIGHT")
            continue
        try:
            kind = RegularizerKind(key)
        except ValueError:
            raise ContractError(f"unknown regularizer {key!r}") from None
        regs.append((kind, _parse_weight(value, part)))
    return Objective(tuple(regs), length_mode, length_lambda)


def _parse_weight(text: str, part: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ContractError(f"bad weight in {part!r}") from None
