import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regdecode import (
    ContractError,
    MAP_OBJECTIVE,
    Objective,
    RegularizerKind,
    SearchConfig,
    beam_search,
    brute_force,
    greedy_search,
    parse_objective,
    r_beam,
    r_greedy,
    r_local,
    r_max,
    r_square,
    r_variance,
    score,
    score_parts,
    trace,
)
from regdecode.objectives import StepTerms, child_scores, completion_bounds, r_beam_ids
from regdecode.randmodels import random_table_model

traces = st.lists(
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False), min_size=1, max_size=10
)


# --- individual penalties


def test_greedy_examples():
    assert r_greedy([2.0, 1.0], [1.0, 1.0]) == 1.0
    with pytest.raises(ContractError):
        r_greedy([1.0], [1.0, 1.0])


def test_greedy_zero_on_greedy_output(m1):
    rec = greedy_search(m1, None, SearchConfig(n_max=10))
    assert r_greedy(rec.best.trace, rec.best.minima) == 0.0


def test_greedy_matches_independent_rewalk(m1):
    rec = brute_force(m1, None, MAP_OBJECTIVE, 5)
    hyp = rec.best
    # Recompute the stepwise minima by walking the model afresh.
    minima = []
    for t in range(1, len(hyp.tokens)):
        dist = m1.next_log_probs(None, hyp.tokens[:t])
        minima.append(-float(dist.max()))
    assert r_greedy(hyp.trace, minima) == pytest.approx(
        sum((u - m) ** 2 for u, m in zip(hyp.trace, minima))
    )
    assert minima == pytest.approx(list(hyp.minima))


def test_variance_examples():
    assert r_variance([1.0, 1.0, 1.0]) == 0.0
    assert r_variance([0.0, 2.0]) == 1.0
    rng = np.random.default_rng(3)
    tr = rng.random(10).tolist()
    mean = sum(tr) / 10
    assert r_variance(tr) == pytest.approx(sum((u - mean) ** 2 for u in tr) / 10)


def test_local_examples():
    assert r_local([2.0]) == 4.0
    assert r_local([1.0, 1.0, 1.0]) == pytest.approx(1 / 3)
    for c, n in ((0.7, 4), (3.0, 7)):
        assert r_local([c] * n) == pytest.approx(c * c / n)


def test_max_examples():
    assert r_max([1.0, 3.0, 2.0]) == 3.0
    assert r_max([0.0, 0.0]) == 0.0
    assert r_max([1.0, 3.0, 2.0, 2.5]) >= r_max([1.0, 3.0, 2.0])


def test_square_examples():
    assert r_square([1.0, 2.0]) == 5.0
    assert r_square([0.0, 0.0]) == 0.0


def test_empty_trace_contract_errors():
    for fn in (r_variance, r_local, r_max, r_square):
        with pytest.raises(ContractError):
            fn([])


@settings(deadline=None)
@given(traces)
def test_penalties_non_negative(tr):
    minima = [max(0.0, u - 0.5) for u in tr]
    assert r_greedy(tr, minima) >= 0.0
    assert r_variance(tr) >= 0.0
    assert r_local(tr) >= 0.0
    assert r_max(tr) >= 0.0
    assert r_square(tr) >= 0.0


@settings(deadline=None)
@given(traces)
def test_variance_bounded_by_square(tr):
    assert r_variance(tr) <= r_square(tr) / len(tr) + 1e-12


@settings(deadline=None)
@given(traces, st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
def test_prefix_monotone_penalties(tr, extra):
    minima = [max(0.0, u - 0.25) for u in tr]
    extended = list(tr) + [extra]
    minima_ext = minima + [max(0.0, extra - 0.25)]
    assert r_greedy(extended, minima_ext) >= r_greedy(tr, minima) - 1e-12
    assert r_square(extended) >= r_square(tr) - 1e-12
    assert r_max(extended) >= r_max(tr)


def test_variance_and_local_are_not_prefix_monotone():
    # Extension lowers the normalized value on these witnesses.
    assert r_variance([0.0, 2.0, 1.0]) < r_variance([0.0, 2.0])
    assert r_local([2.0, 2.0]) < r_local([2.0])


# --- composite scoring


def test_score_reduces_to_log_prob(m1):
    breakdown = score(["<s>", "a", "b", "</s>"], MAP_OBJECTIVE, m1)
    assert breakdown.total == breakdown.log_prob
    assert breakdown.log_prob == pytest.approx(math.log(0.6 * 0.5 * 0.7))


def test_score_square_plug_in():
    from regdecode import TableModel, Vocabulary

    v = Vocabulary(("a",))
    m = TableModel(v, {"<s>": {"a": 0.5, "</s>": 0.5}, "<s> a": {"a": 0.5, "</s>": 0.5}},
                   {"a": 0.5, "</s>": 0.5})
    obj = Objective(((RegularizerKind.SQUARE, 1.0),))
    breakdown = score(["<s>", "a", "</s>"], obj, m)
    ln2 = math.log(2.0)
    assert breakdown.total == pytest.approx(-2 * ln2 - 2 * ln2**2)


def test_combined_weights_add_up(m1):
    combined = Objective(
        ((RegularizerKind.GREEDY, 5.0), (RegularizerKind.SQUARE, 2.0))
    )
    hyp = ["<s>", "a", "b", "</s>"]
    full = score(hyp, combined, m1)
    greedy_only = score(hyp, Objective(((RegularizerKind.GREEDY, 1.0),)), m1)
    square_only = score(hyp, Objective(((RegularizerKind.SQUARE, 1.0),)), m1)
    expected = full.log_prob - 5.0 * greedy_only.penalties["greedy"] - 2.0 * square_only.penalties["square"]
    assert full.total == pytest.approx(expected, abs=1e-12)
    assert full.penalties["greedy"] == greedy_only.penalties["greedy"]
    assert full.penalties["square"] == square_only.penalties["square"]


def test_length_reward_and_normalize():
    tr = (math.log(2.0), math.log(2.0))
    reward = Objective(length_mode="reward", length_lambda=0.5)
    b = score_parts(reward, tr, tr, -sum(tr))
    assert b.total == pytest.approx(-2 * math.log(2.0) + 1.0)
    norm = Objective(length_mode="normalize")
    b = score_parts(norm, tr, tr, -sum(tr))
    assert b.total == pytest.approx(-math.log(2.0))
    with pytest.raises(ContractError):
        score_parts(norm, (), (), 0.0)


def test_normalize_divides_only_log_prob_when_regularized():
    tr = (1.0, 3.0)
    obj = Objective(((RegularizerKind.VARIANCE, 2.0),), length_mode="normalize")
    b = score_parts(obj, tr, tr, -4.0)
    assert b.total == pytest.approx(-4.0 / 2 - 2.0 * r_variance(tr))


@settings(max_examples=300, deadline=None)
@given(
    row=st.lists(
        st.one_of(st.just(-math.inf), st.floats(min_value=-30.0, max_value=0.0)),
        min_size=1,
        max_size=8,
    ).filter(lambda r: max(r) > -math.inf),
    steps=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=30.0), st.floats(min_value=0.0, max_value=30.0)),
        max_size=8,
    ),
    order=st.permutations(list(RegularizerKind)),
    weights=st.lists(
        st.sampled_from([None, 0.0, 0.25, 1.0, 3.0]),
        min_size=len(RegularizerKind),
        max_size=len(RegularizerKind),
    ),
    length=st.sampled_from(["none", "normalize", "reward:0.2", "reward:1.5"]),
)
def test_kernel_totals_equal_spec(row, steps, order, weights, length):
    """The expansion kernel scores every allowed child of a prefix exactly
    as ``score_parts`` scores that child, with ``==`` and no tolerance:
    random rows with forbidden (-inf) tokens, random prefix traces, every
    mix and order of penalties, weight 0 and both length transforms."""
    regs = tuple((kind, w) for kind, w in zip(order, weights) if w is not None)
    mode, _, lam = length.partition(":")
    objective = Objective(regs, mode, float(lam or 0.0))
    trace = tuple(max(a, b) for a, b in steps)
    minima = tuple(min(a, b) for a, b in steps)
    log_prob = -sum(trace)
    terms = StepTerms(np.array(row))
    totals, log_probs = child_scores(objective, trace, minima, log_prob, terms.children)
    step_min = -max(row)
    allowed = [tid for tid, logv in enumerate(row) if logv != -math.inf]
    assert terms.ids == allowed
    for j, tid in enumerate(allowed):
        logv = row[tid]
        spec = score_parts(objective, trace + (-logv,), minima + (step_min,), log_prob + logv)
        assert totals[j] == spec.total
        assert log_probs[j] == log_prob + logv
    if row[-1] == -math.inf:
        assert terms.end is None
    else:  # the float path for the end-marker child alone
        end_total, end_log_prob = child_scores(objective, trace, minima, log_prob, terms.end)
        assert end_total == totals[-1] and end_log_prob == log_probs[-1]


@settings(max_examples=300, deadline=None)
@given(
    row=st.lists(
        st.one_of(st.just(-math.inf), st.floats(min_value=-30.0, max_value=0.0)),
        min_size=1,
        max_size=8,
    ).filter(lambda r: max(r) > -math.inf),
    steps=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=30.0), st.floats(min_value=0.0, max_value=30.0)),
        max_size=6,
    ),
    best_step=st.floats(min_value=-30.0, max_value=0.0),
    rest=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=30.0), st.floats(min_value=0.0, max_value=30.0)),
        min_size=1,
        max_size=6,
    ),
    spare=st.integers(min_value=0, max_value=2),
    order=st.permutations(list(RegularizerKind)),
    weights=st.lists(
        st.sampled_from([None, 0.0, 0.25, 1.0, 3.0]),
        min_size=len(RegularizerKind),
        max_size=len(RegularizerKind),
    ),
    length=st.sampled_from(["none", "normalize", "reward:0.2", "reward:1.5", "reward:40"]),
)
def test_completion_bounds_admissible(row, steps, best_step, rest, spare, order, weights,
                                      length):
    """Each child's bound is at least, with ``>=`` and no tolerance, the
    spec score of a completion of that child: random prefixes and rows,
    and further steps each some drop below ``best_step`` (often none)."""
    regs = tuple((kind, w) for kind, w in zip(order, weights) if w is not None)
    mode, _, lam = length.partition(":")
    objective = Objective(regs, mode, float(lam or 0.0))
    trace = tuple(max(a, b) for a, b in steps)
    minima = tuple(min(a, b) for a, b in steps)
    log_prob = -sum(trace)
    n_max = len(trace) + 1 + len(rest) + spare
    terms = StepTerms(np.array(row))
    bounds, _ = completion_bounds(objective, trace, minima, log_prob, terms.children, n_max,
                                  best_step)
    step_min = -max(row)
    for j, tid in enumerate(terms.ids):
        c_trace, c_minima, c_log_prob = [-row[tid]], [step_min], log_prob + row[tid]
        for drop, gap in rest:
            logv = best_step - drop
            c_trace.append(-logv)
            c_minima.append(max(0.0, -logv - gap))
            c_log_prob += logv
        spec = score_parts(objective, trace + tuple(c_trace), minima + tuple(c_minima), c_log_prob)
        assert bounds[j] >= spec.total


def test_objective_validation():
    with pytest.raises(ContractError):
        Objective(((RegularizerKind.GREEDY, -1.0),))
    with pytest.raises(ContractError):
        Objective(((RegularizerKind.GREEDY, math.inf),))
    with pytest.raises(ContractError):
        Objective(length_mode="both")
    with pytest.raises(ContractError):
        Objective(length_mode="none", length_lambda=1.0)
    with pytest.raises(ContractError):
        Objective(((RegularizerKind.SQUARE, 1.0), (RegularizerKind.SQUARE, 2.0)))


def test_parse_objective_round_trip():
    obj = parse_objective("greedy=5,square=2")
    assert obj.regularizers == (
        (RegularizerKind.GREEDY, 5.0),
        (RegularizerKind.SQUARE, 2.0),
    )
    assert parse_objective(obj.describe()) == obj
    assert parse_objective("") == MAP_OBJECTIVE
    assert parse_objective("len=norm").length_mode == "normalize"
    rew = parse_objective("variance=1,len=reward:0.25")
    assert rew.length_mode == "reward" and rew.length_lambda == 0.25
    assert parse_objective(rew.describe()) == rew
    for spec in ("greedy=0.1234567", "len=reward:0.3333333333"):
        obj = parse_objective(spec)
        assert parse_objective(obj.describe()) == obj
    # Weights that read back from the short form keep it.
    assert parse_objective("greedy=5,square=2").describe() == "greedy=5,square=2"


def test_parse_objective_errors():
    for bad in ("coverage=1", "greedy", "greedy=x", "greedy=-1", "len=reward:x",
                "len=norm,len=norm", "greedy=1,greedy=2"):
        with pytest.raises(ContractError):
            parse_objective(bad)


# --- set deviation penalty


def test_r_beam_k1_equals_r_greedy_exactly(m1):
    for n_max in (3, 5):
        rec = greedy_search(m1, None, SearchConfig(n_max=n_max))
        hyp = rec.best
        value = r_beam([hyp.tokens], m1, None, 1, n_max)
        assert value == r_greedy(hyp.trace, hyp.minima)
    rng = np.random.default_rng(11)
    for _ in range(25):
        model = random_table_model(rng, int(rng.integers(2, 5)))
        rec = brute_force(model, None, MAP_OBJECTIVE, 4)
        hyp = rec.best
        a = r_beam([hyp.tokens], model, None, 1, 4)
        b = r_greedy(hyp.trace, hyp.minima)
        assert abs(a - b) <= 1e-12


def test_r_beam_zero_on_surviving_beam_output(m2):
    config = SearchConfig(beam_width=2, n_max=4)
    rec = beam_search(m2, None, MAP_OBJECTIVE, config)
    members = [h.tokens for h in rec.beam_set]
    assert len(members) == 2
    assert r_beam(members, m2, None, 2, 4) == pytest.approx(0.0, abs=1e-12)


def test_r_beam_matches_exhaustive_subset_minimization(m2):
    """Independent oracle: re-derive each step's best size-k selection by
    enumerating every subset of the one-token extensions directly."""
    k, n_max = 2, 3
    rec = beam_search(m2, None, MAP_OBJECTIVE, SearchConfig(beam_width=k, n_max=n_max))
    members = [h.token_ids for h in rec.beam_set]
    eos = m2.vocabulary.eos_id

    def cumulative(ids):
        lp = 0.0
        for t in range(1, len(ids)):
            lp += float(m2.next_log_probs_ids("", ids[:t])[ids[t]])
        return lp

    expected = 0.0
    for t in range(1, n_max + 1):
        kept = [m[: t + 1] if t <= len(m) - 1 else m for m in members]
        parents = list(dict.fromkeys(m[:t] if t <= len(m) - 1 else m for m in members))
        pool = []
        for parent in parents:
            if parent[-1] == eos:
                pool.append(parent)
            else:
                dist = m2.next_log_probs_ids("", parent)
                for tid in range(len(dist)):
                    if dist[tid] != -math.inf:
                        pool.append(parent + (tid,))
        best = max(
            itertools.combinations(pool, k),
            key=lambda group: sum(cumulative(g) for g in group),
        )
        deviation = sum(cumulative(g) for g in best) - sum(cumulative(p) for p in kept)
        expected += deviation**2
    got = r_beam_ids(members, m2, "", k, n_max)
    assert got == pytest.approx(expected, abs=1e-9)


def test_r_beam_penalizes_duplicated_members(m1):
    hyp = greedy_search(m1, None, SearchConfig(n_max=4)).best
    value = r_beam_ids([hyp.token_ids, hyp.token_ids], m1, "", 2, 4)
    assert math.isfinite(value)
    assert value > 0.0  # duplicates beat no distinct pair, so they carry a cost


def test_r_beam_contract_errors(m1):
    with pytest.raises(ContractError):
        r_beam([["<s>", "a", "</s>"]], m1, None, 2, 5)
    with pytest.raises(ContractError):
        r_beam([["<s>", "a"]], m1, None, 1, 5)
    with pytest.raises(ContractError):
        r_beam([["<s>", "a", "a", "a", "</s>"]], m1, None, 1, 2)
    # Markers out of place: a begin marker inside, an end marker before the last.
    with pytest.raises(ContractError):
        r_beam([["<s>", "a", "<s>", "</s>"]], m1, None, 1, 5)
    with pytest.raises(ContractError):
        r_beam([["<s>", "a", "</s>", "b", "</s>"]], m1, None, 1, 5)


@pytest.mark.parametrize("tokens", [["<s>", "a", "<s>"], []], ids=["bos-last", "empty"])
def test_score_and_trace_reject_malformed_sequences(m1, tokens):
    with pytest.raises(ContractError):
        score(tokens, MAP_OBJECTIVE, m1)
    with pytest.raises(ContractError):
        trace(m1, None, tokens)
