"""Decoding objectives: log-probability plus weighted surprisal penalties.

The total score of a hypothesis is its cumulative log-probability minus a
weighted sum of regularizer penalties, optionally combined with a length
reward or length normalization. All penalties are non-negative, so the
plain log-probability of a prefix is always an optimistic bound on the
score of any of its completions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

from .exceptions import ContractError
from .models import SequenceModel, _source_key

Trace = Sequence[float]


class RegularizerKind(str, enum.Enum):
    GREEDY = "greedy"
    VARIANCE = "variance"
    LOCAL = "local"
    MAX = "max"
    SQUARE = "square"


def r_greedy(trace: Trace, stepwise_minima: Trace | None) -> float:
    """Sum of squared gaps between each step's surprisal and the best
    achievable surprisal at that step; zero iff every step is locally optimal."""
    if stepwise_minima is None:
        raise ContractError("greedy regularizer needs stepwise minima")
    if len(trace) != len(stepwise_minima):
        raise ContractError("trace and stepwise minima must have equal length")
    return sum((u - m) ** 2 for u, m in zip(trace, stepwise_minima))


def r_variance(trace: Trace) -> float:
    n = len(trace)
    if n == 0:
        raise ContractError("trace must be nonempty")
    mu = sum(trace) / n
    return sum((u - mu) ** 2 for u in trace) / n


def r_local(trace: Trace) -> float:
    """Mean squared difference of adjacent surprisals, anchored at zero
    before the first step."""
    n = len(trace)
    if n == 0:
        raise ContractError("trace must be nonempty")
    prev = 0.0
    total = 0.0
    for u in trace:
        total += (u - prev) ** 2
        prev = u
    return total / n


def r_max(trace: Trace) -> float:
    if len(trace) == 0:
        raise ContractError("trace must be nonempty")
    return max(trace)


def r_square(trace: Trace) -> float:
    if len(trace) == 0:
        raise ContractError("trace must be nonempty")
    return sum(u * u for u in trace)


# Each penalty's spec on a nonempty (trace, minima) pair, and whether
# extending a prefix can only raise it.
_PENALTIES = {
    RegularizerKind.GREEDY: (r_greedy, True),
    RegularizerKind.VARIANCE: (lambda trace, _: r_variance(trace), False),
    RegularizerKind.LOCAL: (lambda trace, _: r_local(trace), False),
    RegularizerKind.MAX: (lambda trace, _: r_max(trace), True),
    RegularizerKind.SQUARE: (lambda trace, _: r_square(trace), True),
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

    @property
    def is_prefix_monotone(self) -> bool:
        """True when extending a prefix can never raise its score, which
        lets best-first search stop at the first complete pop."""
        return self.length_mode == "none" and all(
            _PENALTIES[kind][1] for kind, _ in self.regularizers
        )

    def optimistic_bound(self, log_prob: float, n_max: int) -> float:
        """Upper bound on the score of any completion of a prefix with the
        given cumulative log-probability; penalties are non-negative."""
        if self.length_mode == "reward":
            return log_prob + self.length_lambda * n_max
        if self.length_mode == "normalize":
            return log_prob / n_max
        return log_prob

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
        value = _PENALTIES[kind][0](trace, minima) if n else 0.0
        penalties[kind.value] = value
        total -= lam * value
    return ScoreBreakdown(log_prob=log_prob, penalties=penalties, length_term=length_term, total=total)


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
