"""Decoding objectives: log-probability plus weighted surprisal penalties.

The total score of a hypothesis is its cumulative log-probability minus a
weighted sum of regularizer penalties, optionally combined with a length
reward or length normalization. ``child_scores`` scores the children of a
prefix and ``completion_bounds`` bounds the score of every completion of
each of them from above, which is what exact search prunes with.
"""

from __future__ import annotations

import enum
import math
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
    """What the expansion kernel reads of some children of one row: numpy
    arrays aligned with ``StepTerms.ids`` for every allowed child, or floats
    for the end-marker child alone. The same arithmetic serves both."""

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

    __slots__ = ("row", "ids", "step_min", "children", "surprisal_list", "end")

    def __init__(self, row: np.ndarray) -> None:
        self.row = row
        self.ids = np.nonzero(row > -math.inf)[0].tolist()
        self.step_min = -float(row.max())
        log_prob = row if len(self.ids) == len(row) else row[self.ids]
        u = -log_prob
        gap = u - self.step_min
        self.children = Children(log_prob, u, gap * gap, u * u)
        self.surprisal_list = u.tolist()
        self.end = None
        if self.ids[-1] == len(row) - 1:
            end_lp = float(row[-1])
            u, gap = -end_lp, -end_lp - self.step_min
            self.end = Children(end_lp, u, gap * gap, u * u)


def step_terms(model: SequenceModel, source_key: str, prefix_ids: tuple[int, ...]) -> StepTerms:
    """The next-token row of a prefix as ``StepTerms``: one model call, the
    terms built once per distinct row and memoized on the model."""
    row = model.next_log_probs_ids(source_key, prefix_ids)
    terms = model.row_terms.get(id(row))
    if terms is None or terms.row is not row:
        terms = model.row_terms[id(row)] = StepTerms(row)
    return terms


# Incremental forms: the penalty of each child of a prefix with this
# (possibly empty) trace, from the prefix's partial sum and the children's
# terms. Each repeats its spec's last loop step on the children, so it
# equals the spec on the child's trace bit for bit.


def _greedy_children(trace, minima, children):
    return (r_greedy(trace, minima) if trace else 0.0) + children.gap_sq


def _variance_children(trace, minima, children):
    # The mean moves with the child's step, so the squared deviations are
    # summed again over the prefix, left to right as in the spec.
    n = len(trace) + 1
    u = children.surprisal
    mu = (_running_sum(trace) + u) / n
    total = 0.0
    for v in trace:
        d = v - mu
        total = total + d * d
    d = u - mu
    return (total + d * d) / n


def _local_sums(trace, children):
    """Each child's sum of squared adjacent differences, before the spec's
    division by the length."""
    total, prev = _local_sum(trace)
    d = children.surprisal - prev
    return total + d * d


def _local_children(trace, minima, children):
    return _local_sums(trace, children) / (len(trace) + 1)


def _max_children(trace, minima, children):
    u = children.surprisal
    if not trace:
        return u
    top = r_max(trace)
    return np.where(u > top, u, top)  # max() keeps the first of equal values


def _square_children(trace, minima, children):
    return (r_square(trace) if trace else 0.0) + children.surprisal_sq


# Lower-bound forms: (values, per_length) for the children of a prefix, such
# that a completion of a child to n steps has a penalty of at least
# ``values / n`` when per_length, else at least ``values``. Each value is a
# partial sum of the spec, which only ever adds non-negative terms to it (or
# takes a running max), so in floats too the final penalty never falls
# below it. Variance has no such form: its bound is 0.


def _own_value(children_form):
    return lambda trace, minima, children: (children_form(trace, minima, children), False)


def _local_lower(trace, minima, children):
    return _local_sums(trace, children), True


class _Penalty(NamedTuple):
    spec: Callable  # (nonempty trace, minima) -> value
    children: Callable  # (trace, minima, Children) -> child values
    lower: Callable | None  # (trace, minima, Children) -> (values, per_length)


_PENALTIES = {
    RegularizerKind.GREEDY: _Penalty(r_greedy, _greedy_children, _own_value(_greedy_children)),
    RegularizerKind.VARIANCE: _Penalty(lambda trace, _: r_variance(trace), _variance_children, None),
    RegularizerKind.LOCAL: _Penalty(lambda trace, _: r_local(trace), _local_children, _local_lower),
    RegularizerKind.MAX: _Penalty(lambda trace, _: r_max(trace), _max_children,
                                  _own_value(_max_children)),
    RegularizerKind.SQUARE: _Penalty(lambda trace, _: r_square(trace), _square_children,
                                     _own_value(_square_children)),
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
    penalties = {}
    total = log_prob
    length_term = 0.0
    if objective.length_mode == "normalize":
        if n == 0:
            raise ContractError("cannot length-normalize a zero-length hypothesis")
        length_term = log_prob / n - log_prob
        total = log_prob / n
    elif objective.length_mode == "reward":
        length_term = objective.length_lambda * n
        total += length_term
    for kind, lam in objective.regularizers:
        # Empty traces (the bare begin-marker prefix) carry zero penalty.
        value = _PENALTIES[kind].spec(trace, minima) if n else 0.0
        penalties[kind.value] = value
        total -= lam * value
    return ScoreBreakdown(log_prob=log_prob, penalties=penalties, length_term=length_term, total=total)


def child_scores(
    objective: Objective, trace: Trace, minima: Trace, log_prob: float, children: Children
):
    """(totals, log-probabilities) of children of a prefix, in one vector
    expression over its row (or one float expression for ``StepTerms.end``).

    This is the expansion kernel of beam and exact search. Each total
    equals ``score_parts(objective, child trace, child minima, child
    log-probability).total`` bit for bit: the length transform and the
    penalties are applied in the same order with the same operations.
    """
    log_probs = log_prob + children.log_prob
    total = _length_term(objective, log_probs, len(trace) + 1)
    for kind, lam in objective.regularizers:
        total = total - lam * _PENALTIES[kind].children(trace, minima, children)
    return total, log_probs


def _length_term(objective: Objective, log_probs, n: int):
    """The log-probability term of a hypothesis of n steps, as ``score_parts``
    computes it."""
    if objective.length_mode == "normalize":
        return log_probs / n
    if objective.length_mode == "reward":
        return log_probs + objective.length_lambda * n
    return log_probs


def completion_bounds(
    objective: Objective, trace: Trace, minima: Trace, log_prob: float, children: Children,
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
    The result is the highest bound over n. With no length transform and
    no lower form divided by n, a further step can only lower the bound, so
    the shortest completion gives it.
    """
    lowers = []
    shortest = objective.length_mode == "none"
    for kind, lam in objective.regularizers:
        lower = _PENALTIES[kind].lower
        if lower is not None:
            values, per_length = lower(trace, minima, children)
            lowers.append((lam, values, per_length))
            shortest = shortest and not per_length
    log_probs = run = log_prob + children.log_prob
    if shortest:
        total = log_probs + best_step
        for lam, values, _ in lowers:
            total = total - lam * values
        return total, log_probs
    bounds = None
    for n in range(len(trace) + 2, n_max + 1):
        run = run + best_step
        total = _length_term(objective, run, n)
        for lam, values, per_length in lowers:
            total = total - lam * (values / n if per_length else values)
        bounds = total if bounds is None else np.maximum(bounds, total)
    return bounds, log_probs


def score(
    hypothesis: Sequence[str],
    objective: Objective,
    model: SequenceModel,
    source=None,
) -> ScoreBreakdown:
    """Score a bos-initial token sequence by walking the model."""
    ids = model.vocabulary.prefix_ids(hypothesis, stepped=True)
    source_key = _source_key(source)
    values = []
    minima = []
    log_prob = 0.0
    for t in range(1, len(ids)):
        dist = model.next_log_probs_ids(source_key, ids[:t])
        step = float(dist[ids[t]])
        log_prob += step
        values.append(-step)
        minima.append(-float(dist.max()))
    return score_parts(objective, tuple(values), tuple(minima), log_prob)


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
    if len(members) != k:
        raise ContractError(f"hypothesis set has {len(members)} members, expected k={k}")
    for m in members:
        if len(m) - 1 > n_max:
            raise ContractError("hypothesis longer than n_max")

    eos = model.vocabulary.eos_id
    # Cumulative log-probability of every member prefix, absorbed past eos.
    prefix_lp: dict[tuple[int, ...], float] = {}
    dists: dict[tuple[int, ...], list[float]] = {}

    def dist_of(prefix: tuple[int, ...]) -> list[float]:
        d = dists.get(prefix)
        if d is None:
            d = model.next_log_probs_ids(source_key, prefix).tolist()
            dists[prefix] = d
        return d

    for m in members:
        lp = 0.0
        prefix_lp[m[:1]] = 0.0
        for t in range(1, len(m)):
            lp += dist_of(m[:t])[m[t]]
            prefix_lp[m[: t + 1]] = lp

    total = 0.0
    for t in range(1, n_max + 1):
        kept_parents = []  # one entry per member, multiplicity preserved
        kept_parent_lp = 0.0
        kept_step_u = 0.0
        for m in members:
            parent = m[:t] if t <= len(m) - 1 else m
            kept_parents.append(parent)
            kept_parent_lp += prefix_lp[parent]
            if t <= len(m) - 1:
                kept_step_u += -dist_of(m[:t])[m[t]]
        # Candidate extensions of the distinct parents, best k by cumulative
        # score with deterministic token-order tie-breaking.
        candidates = []  # (child_log_prob, child_ids, parent_lp, step_u)
        for parent in dict.fromkeys(kept_parents):
            plp = prefix_lp[parent]
            if parent[-1] == eos:
                candidates.append((plp, parent, plp, 0.0))
                continue
            d = dist_of(parent)
            for tid, logv in enumerate(d):
                if logv == -math.inf:
                    continue
                candidates.append((plp + logv, parent + (tid,), plp, -logv))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        if len(candidates) >= k:
            best = candidates[:k]
        else:
            # Degenerate duplicated input: repeat the best candidate.
            best = candidates + [candidates[0]] * (k - len(candidates))
        best_parent_lp = sum(c[2] for c in best)
        best_step_u = sum(c[3] for c in best)
        # Grouped so the shared-parent case cancels exactly.
        deviation = (kept_parent_lp - best_parent_lp) + (best_step_u - kept_step_u)
        total += deviation * deviation
    return total


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
