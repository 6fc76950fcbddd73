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
import itertools
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


def r_variance(trace: Trace) -> float:
    """Population variance of the surprisals by Welford's update, the loop
    the expansion kernel carries one step at a time."""
    n = len(trace)
    if n == 0:
        raise ContractError("trace must be nonempty")
    m2 = mean = 0.0
    for i, u in enumerate(trace, 1):
        d = u - mean
        mean += d / i
        m2 += d * (u - mean)
    return m2 / n


def r_local(trace: Trace) -> float:
    """Mean squared difference of adjacent surprisals, anchored at zero
    before the first step."""
    n = len(trace)
    if n == 0:
        raise ContractError("trace must be nonempty")
    prev = 0.0
    total = 0.0
    for u in trace:
        d = u - prev
        total += d * d
        prev = u
    return total / n


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


# Partial sums: the floats a prefix carries per penalty, from which its
# children's values follow. Greedy, max and square carry their value on
# the prefix; local its sum of squared adjacent differences before the
# division, and its last surprisal; variance Welford's sum of squared
# deviations before the division, and its mean. ``carry`` takes a prefix's
# partial sums (or, in a beam step, each child's prefix's, as arrays over
# the children) to its children's, which have n steps, by repeating the
# spec's last loop step on the children, so they, and the values taken
# from them, equal the spec on the child's trace bit for bit. Its inputs
# are the children's surprisals u, an array over them, and their step
# minima m, an array too in a beam step or one prefix's float, which
# broadcasts (both are floats for the end-marker child alone). Each carry
# computes its own step term from them, greedy's ``d = u - m`` then
# ``d * d`` and square's ``u * u``; nothing outside the carries computes
# these. The kernel hands the partial sums back, and each child that is
# kept carries its own.
#
# Lower-bound forms: a completion of a child to n steps has a penalty of at
# least the child's first partial sum, over n when the penalty is
# per_length. Each is a partial sum of the spec, which only ever adds
# non-negative terms to it (or takes a running max), so in floats too the
# final penalty never falls below it (for variance, see ``_variance_carry``).


def _greedy_carry(partial, u, m, n):
    d = u - m
    return (partial[0] + d * d,)


def _local_carry(partial, u, m, n):
    total, prev = partial
    d = u - prev
    return (total + d * d, u)


def _max_carry(partial, u, m, n):
    top = partial[0]
    return (np.where(u > top, u, top),)  # max() keeps the first of equal values


def _square_carry(partial, u, m, n):
    return (partial[0] + u * u,)


def _variance_carry(partial, u, m, n):
    """Step n of ``r_variance``'s loop on the children.

    The added term ``d * (u - mean)`` is never negative in floats, so
    ``m2`` never decreases and is a lower-bound form. At n = 1 the new mean
    is ``0.0 + u / 1``, u exactly, so the term is 0. For n >= 2,
    ``|fl(d / n)| <= |d| / 2`` (rounding to nearest is monotone; below the
    normal range, where it can round past ``|d| / 2``, the subtraction
    giving ``d`` is exact). So the new mean lies between the old mean and
    u, and ``d`` and ``u - mean`` share a sign.
    """
    m2, mean = partial
    d = u - mean
    mean = mean + d / n
    return (m2 + d * (u - mean), mean)


class _Penalty(NamedTuple):
    spec: Callable  # (nonempty trace, minima) -> value
    empty: tuple  # the partial sums of the empty trace
    carry: Callable  # (partial sums, surprisals, step minima, children's steps) -> theirs
    # The value is the first partial sum, over the steps when per_length;
    # it is also the lower-bound form.
    per_length: bool = False


_PENALTIES = {
    RegularizerKind.GREEDY: _Penalty(r_greedy, (0.0,), _greedy_carry),
    RegularizerKind.VARIANCE: _Penalty(
        lambda trace, _: r_variance(trace), (0.0, 0.0), _variance_carry, per_length=True
    ),
    RegularizerKind.LOCAL: _Penalty(
        lambda trace, _: r_local(trace), (0.0, 0.0), _local_carry, per_length=True
    ),
    # -inf: below every surprisal
    RegularizerKind.MAX: _Penalty(lambda trace, _: r_max(trace), (-math.inf,), _max_carry),
    RegularizerKind.SQUARE: _Penalty(lambda trace, _: r_square(trace), (0.0,), _square_carry),
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

    @functools.cached_property
    def _layout(self) -> tuple:
        """Each regularizer's (weight, penalty, the slice of a node's flat
        partial sums that holds its own), in order: what the expansion
        kernel reads of the objective, worked out once."""
        layout, start = [], 0
        for kind, lam in self.regularizers:
            penalty = _PENALTIES[kind]
            layout.append((lam, penalty, slice(start, start + len(penalty.empty))))
            start += len(penalty.empty)
        return tuple(layout)

    @functools.cached_property
    def _shortest_bounds(self) -> bool:
        """Whether the shortest completion gives every completion bound: no
        length transform and no lower form divided by n."""
        return self.length_mode == "none" and not any(p.per_length for _, p, _ in self._layout)

    @functools.cached_property
    def _empty_sums(self) -> tuple:
        """The flat partial sums of the empty prefix."""
        return tuple(itertools.chain.from_iterable(p.empty for _, p, _ in self._layout))

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


def child_scores(objective: Objective, steps: int, sums, log_prob, u, step_min,
                 owner: np.ndarray | None = None):
    """(totals, log-probabilities, partial sums) of children, in one vector
    expression, from the children's surprisals ``u``: the children of one
    prefix of ``steps`` steps, given its flat partial sums, log-probability
    and step minimum (or one float expression for the end-marker child
    alone, ``StepTerms.end``), or the children of a beam step's members, all
    of ``steps`` steps, given the members' partial sums, log-probabilities
    and step minima as sequences and ``owner``, each child's member. The
    children's partial sums come back flat, one array over the children
    each.

    This is the expansion kernel of beam and exact search. Each total
    equals ``score_parts(objective, child trace, child minima, child
    log-probability).total`` bit for bit: both build it with ``_total``.
    """
    if owner is not None:  # each member's inputs taken to its children, one column at a time
        log_prob = np.array(log_prob)[owner]
        if objective.regularizers:
            sums = [column[owner] for column in np.array(sums).T]
            step_min = np.array(step_min)[owner]
    log_probs = log_prob - u
    n = steps + 1
    weighted, flat = [], []
    for lam, penalty, part in objective._layout:
        child_sums = penalty.carry(sums[part], u, step_min, n)
        flat += child_sums
        weighted.append((lam, child_sums[0] / n if penalty.per_length else child_sums[0]))
    return _total(objective, log_probs, n, weighted), log_probs, flat


@functools.cache
def _lengths(n_max: int) -> np.ndarray:
    """The completion lengths 0..n_max as a read-only float column. Each
    is exactly its integer, so numpy divides and multiplies by it as by
    the integer length of a score."""
    column = np.arange(n_max + 1.0)[:, None]
    column.flags.writeable = False
    return column


def completion_bounds(
    objective: Objective, steps: int, sums: tuple, log_prob: float, u: np.ndarray,
    step_min: float, n_max: int, best_step: float,
):
    """(bounds, log-probabilities, partial sums) of the children of a prefix,
    given its flat partial sums and step minimum and the children's
    surprisals ``u``, as ``child_scores`` returns them: each bound
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
    ``_total`` with the lower forms as its weighted pairs and the lengths
    as a column, and reduced by ``np.maximum`` over the rows. When one
    length decides the bound, the same expression runs on the children's
    vector with no array set up: a child one step from ``n_max``, or an
    objective whose further steps can only lower the bound
    (``Objective._shortest_bounds``).
    """
    n = steps + 2
    one_length = objective._shortest_bounds or n == n_max
    if not one_length:
        n = _lengths(n_max)[n:]
    weighted, flat = [], []
    for lam, penalty, part in objective._layout:
        child_sums = penalty.carry(sums[part], u, step_min, steps + 1)
        flat += child_sums
        weighted.append((lam, child_sums[0] / n if penalty.per_length else child_sums[0]))
    log_probs = log_prob - u
    if one_length:
        run = log_probs + best_step
    else:
        run = np.empty((len(n), len(log_probs)))
        run.fill(best_step)  # np.full costs twice as much on these few rows
        run[0] += log_probs
        np.add.accumulate(run, out=run)
    bounds = _total(objective, run, n, weighted)
    return (bounds if one_length else np.maximum.reduce(bounds)), log_probs, flat


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
