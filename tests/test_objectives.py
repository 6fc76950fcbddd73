import itertools
import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regdecode import (
    ContractError,
    MAP_OBJECTIVE,
    Objective,
    RegularizerKind,
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
from regdecode.models import _terms_of_block, _terms_of_row
from regdecode.objectives import (
    _PENALTIES,
    _SetDeviationTable,
    child_scores,
    completion_bounds,
    r_beam_ids,
)
from regdecode.randmodels import random_table_model, set_limit_instance
from regdecode.search import enumerate_complete

from .reference_sums import spec_sums

traces = st.lists(
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False), min_size=1, max_size=10
)


# --- individual penalties


def test_greedy_examples():
    assert r_greedy([2.0, 1.0], [1.0, 1.0]) == 1.0
    with pytest.raises(ContractError):
        r_greedy([1.0], [1.0, 1.0])
    with pytest.raises(ContractError, match="stepwise minima"):
        r_greedy([1.0], None)


def test_greedy_zero_on_greedy_output(m1):
    rec = greedy_search(m1, None, 10)
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


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=16))
def test_variance_equals_the_population_variance(tr):
    """Welford's update gives the population variance of the same floats
    (``statistics.pvariance``, computed exactly) within 1e-12 relative; the
    1e-15 floor covers near-constant traces, whose variance is rounding."""
    assert r_variance(tr) == pytest.approx(statistics.pvariance(tr), rel=1e-12, abs=1e-15)


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
    terms = _terms_of_row(np.array(row))
    sums = spec_sums(objective, trace, minima)
    totals, log_probs, carried = child_scores(objective, len(trace), sums, log_prob, terms.u,
                                              terms.step_min)
    step_min = -max(row)
    allowed = [tid for tid, logv in enumerate(row) if logv != -math.inf]
    assert list(terms.ids) == allowed
    for j, tid in enumerate(allowed):
        logv = row[tid]
        c_trace, c_minima = trace + (-logv,), minima + (step_min,)
        spec = score_parts(objective, c_trace, c_minima, log_prob + logv)
        assert totals[j] == spec.total
        assert log_probs[j] == log_prob + logv
        assert same_bits([c[j] for c in carried], spec_sums(objective, c_trace, c_minima))
    if row[-1] == -math.inf:
        assert terms.end is None
    else:  # the float path for the end-marker child alone
        end_total, end_log_prob, _ = child_scores(objective, len(trace), sums, log_prob,
                                                  terms.end, terms.step_min)
        assert end_total == totals[-1] and end_log_prob == log_probs[-1]


def same_bits(got, want) -> bool:
    """Whether two sequences of floats hold the same bits, signed zeros and
    infinities included."""
    return np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()


def _row_of_size(size):
    """A row of ``size`` entries with at least one allowed: some forbidden
    (-inf), or a single allowed token."""
    mixed = st.lists(
        st.one_of(st.just(-math.inf), st.floats(min_value=-30.0, max_value=0.0)),
        min_size=size,
        max_size=size,
    ).filter(lambda r: max(r) > -math.inf)
    single = st.tuples(st.integers(0, size - 1), st.floats(min_value=-30.0, max_value=0.0)).map(
        lambda position_logv: [position_logv[1] if i == position_logv[0] else -math.inf
                               for i in range(size)])
    return st.one_of(mixed, single)


KERNEL_STEP = st.tuples(st.floats(min_value=0.0, max_value=30.0),
                        st.floats(min_value=0.0, max_value=30.0))
# A trace whose 16 steps and child numpy's pairwise summation would add in a
# different order than the spec, with a different last bit.
PAIRWISE_TRAP = [
    (15.101, 0.436), (27.997, 13.1), (6.098, 2.575), (25.348, 9.748), (24.186, 11.036),
    (28.531, 9.494), (11.983, 4.471), (28.093, 20.955), (16.685, 13.456), (23.968, 7.204),
    (22.243, 7.065), (20.232, 9.594), (23.996, 20.526), (15.212, 13.915), (15.192, 6.657),
    (19.228, 7.086),
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.floats(min_value=0.0, max_value=1e300),
                          st.floats(min_value=0.0, max_value=30.0)), min_size=1, max_size=16))
@example([max(a, b) for a, b in PAIRWISE_TRAP])
def test_variance_carry_never_lowers_m2(tr):
    """Along a trace of finite surprisals >= 0, the ``m2`` that variance
    carries is exactly 0 after the first step and never decreases after it,
    in floats: so ``m2`` over the completion length is a lower-bound form.
    Over the steps so far it is the spec's value, bit for bit."""
    carry = _PENALTIES[RegularizerKind.VARIANCE].carry
    sums = (0.0, 0.0)
    for n, u in enumerate(tr, 1):
        m2 = sums[0]
        sums = carry(sums, u, None, n)  # variance reads no step minimum
        assert sums[0] == 0.0 if n == 1 else sums[0] >= m2
        assert same_bits([sums[0] / n], [r_variance(tr[:n])])


@settings(max_examples=300, deadline=None)
@given(
    prefixes=st.tuples(st.integers(min_value=0, max_value=16), st.integers(1, 8)).flatmap(
        lambda n_size: st.lists(
            st.tuples(_row_of_size(n_size[1]),
                      st.lists(KERNEL_STEP, min_size=n_size[0], max_size=n_size[0])),
            min_size=1,
            max_size=4,
        )),
    order=st.permutations(list(RegularizerKind)),
    weights=st.lists(
        st.sampled_from([None, 0.0, 0.25, 1.0, 3.0]),
        min_size=len(RegularizerKind),
        max_size=len(RegularizerKind),
    ),
    length=st.sampled_from(["none", "normalize", "reward:0.2", "reward:1.5"]),
)
@example(prefixes=[([-math.inf, -0.5], PAIRWISE_TRAP)], order=list(RegularizerKind),
         weights=[None, 1.0, None, None, None], length="none")
def test_batched_kernel_totals_equal_spec(prefixes, order, weights, length):
    """One kernel call scores the children of 1-4 prefixes of one length,
    each with its own row, trace, partial sums and log-probability, as a
    beam step does: every candidate's total, log-probability and partial
    sums equal the spec's for its child with ``==``. The rows' terms are
    built in one block. Traces run up to 16 steps and some rows allow one
    token, so a batch can have a single candidate, the case where numpy's
    pairwise summation along the step axis differs from the spec."""
    regs = tuple((kind, w) for kind, w in zip(order, weights) if w is not None)
    mode, _, lam = length.partition(":")
    objective = Objective(regs, mode, float(lam or 0.0))
    rows = [row for row, _ in prefixes]
    traces = [tuple(max(a, b) for a, b in steps) for _, steps in prefixes]
    minima = [tuple(min(a, b) for a, b in steps) for _, steps in prefixes]
    block = _terms_of_block(np.array(rows))
    counts = [len(terms.ids) for terms in block]
    owner = np.arange(len(prefixes)).repeat(counts)
    sums = [spec_sums(objective, trace, mins) for trace, mins in zip(traces, minima)]
    totals, log_probs, carried = child_scores(
        objective, len(traces[0]), sums, [-sum(trace) for trace in traces],
        np.concatenate([terms.u for terms in block]), [terms.step_min for terms in block],
        owner)
    assert len(totals) == len(log_probs) == sum(counts)
    c = 0
    for terms, row, trace, mins in zip(block, rows, traces, minima):
        assert terms.step_min == -max(row)
        for tid in terms.ids:
            logv = row[tid]
            c_trace, c_minima = trace + (-logv,), mins + (-max(row),)
            spec = score_parts(objective, c_trace, c_minima, -sum(trace) + logv)
            assert totals[c] == spec.total
            assert log_probs[c] == -sum(trace) + logv
            assert same_bits([column[c] for column in carried],
                             spec_sums(objective, c_trace, c_minima))
            c += 1


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(1, 8),
    data=st.data(),
)
def test_a_row_has_the_same_terms_alone_and_in_a_block(size, data):
    """A row's ids, step minimum, surprisals and end-marker surprisal are
    the same bits whether its terms are built alone, as exact search and a
    width-1 beam build them, or in a block with other rows."""
    rows = [np.array(data.draw(_row_of_size(size))) for _ in range(data.draw(st.integers(2, 4)))]
    for row, in_block in zip(rows, _terms_of_block(np.array(rows))):
        alone = _terms_of_row(row)
        assert list(alone.ids) == list(in_block.ids)
        assert alone.u.tobytes() == np.ascontiguousarray(in_block.u).tobytes()
        assert same_bits([alone.step_min], [in_block.step_min])
        assert (alone.end is None) == (in_block.end is None)
        if alone.end is not None:
            assert same_bits([alone.end], [in_block.end])
            assert same_bits([alone.end], alone.u[-1:])


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 6).flatmap(lambda size: st.lists(_row_of_size(size), min_size=1,
                                                         max_size=10)),
    picks=st.lists(st.integers(min_value=0), min_size=10, max_size=10),
    order=st.permutations(list(RegularizerKind)),
    weights=st.lists(
        st.sampled_from([None, 0.0, 0.25, 1.0, 3.0]),
        min_size=len(RegularizerKind),
        max_size=len(RegularizerKind),
    ),
)
def test_carried_partial_sums_equal_the_spec(rows, picks, order, weights):
    """Partial sums carried from the empty prefix through any sequence of
    rows, one allowed child of each taken at a time through the kernel and
    through ``completion_bounds``, equal the spec's partial sums of the
    trace they end on, bit for bit, for every kind and for mixes."""
    objective = Objective(tuple((kind, w) for kind, w in zip(order, weights) if w is not None))
    trace, minima, log_prob = (), (), 0.0
    sums = objective._empty_sums
    assert same_bits(sums, spec_sums(objective, (), ()))
    for row, pick in zip(rows, picks):
        terms = _terms_of_row(np.array(row))
        j = pick % len(terms.ids)
        _, log_probs, carried = child_scores(objective, len(trace), sums, log_prob, terms.u,
                                             terms.step_min)
        _, _, bounded = completion_bounds(objective, len(trace), sums, log_prob, terms.u,
                                          terms.step_min, len(trace) + 3, 0.0)
        assert all(same_bits(a, b) for a, b in zip(carried, bounded))
        trace += (-row[terms.ids[j]],)
        minima += (-max(row),)
        log_prob = float(log_probs[j])
        sums = tuple(float(column[j]) for column in carried)
        assert same_bits(sums, spec_sums(objective, trace, minima))


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
    terms = _terms_of_row(np.array(row))
    sums = spec_sums(objective, trace, minima)
    bounds, _, _ = completion_bounds(objective, len(trace), sums, log_prob, terms.u,
                                     terms.step_min, n_max, best_step)
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


def _bounds_length_by_length(objective, steps, sums, log_prob, u, step_min, n_max, best_step):
    """``completion_bounds`` as one bound array per completion length, the
    highest kept: each length's running sum, total and lower forms built on
    their own, with no shortcut for a single deciding length."""
    lowers = [(lam, penalty.carry(sums[part], u, step_min, steps + 1)[0], penalty.per_length)
              for lam, penalty, part in objective._layout]
    log_probs = run = log_prob - u
    bounds = None
    for n in range(steps + 2, n_max + 1):
        run = run + best_step
        if objective.length_mode == "normalize":
            total = run / n
        elif objective.length_mode == "reward":
            total = run + objective.length_lambda * n
        else:
            total = run
        for lam, values, per_length in lowers:
            total = total - lam * (values / n if per_length else values)
        bounds = total if bounds is None else np.maximum(bounds, total)
    return bounds, log_probs


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
    log_prob=st.floats(min_value=-200.0, max_value=0.0),
    best_step=st.floats(min_value=-30.0, max_value=0.0),
    lengths=st.one_of(st.integers(1, 4), st.integers(1, 320)),
    order=st.permutations(list(RegularizerKind)),
    weights=st.lists(
        st.sampled_from([None, 0.0, 0.25, 1.0, 3.0, 1e-300, 1e300]),
        min_size=len(RegularizerKind),
        max_size=len(RegularizerKind),
    ),
    length=st.sampled_from(["none", "normalize", "reward:0.2", "reward:1.5", "reward:40"]),
)
@example(row=[0.0], steps=[], log_prob=0.0, best_step=-0.0, lengths=3,
         order=list(RegularizerKind), weights=[1.0] * len(RegularizerKind), length="none")
def test_completion_bounds_equal_the_bounds_taken_length_by_length(
        row, steps, log_prob, best_step, lengths, order, weights, length):
    """The one array expression over every completion length gives the
    bytes of the bounds built one length at a time, and the same
    log-probabilities, whether one length or hundreds remain."""
    regs = tuple((kind, w) for kind, w in zip(order, weights) if w is not None)
    mode, _, lam = length.partition(":")
    objective = Objective(regs, mode, float(lam or 0.0))
    trace = tuple(max(a, b) for a, b in steps)
    minima = tuple(min(a, b) for a, b in steps)
    terms = _terms_of_row(np.array(row))
    sums = spec_sums(objective, trace, minima)
    args = (objective, len(trace), sums, log_prob, terms.u, terms.step_min,
            len(trace) + 1 + lengths, best_step)
    bounds, log_probs, _ = completion_bounds(*args)
    want_bounds, want_log_probs = _bounds_length_by_length(*args)
    assert bounds.tobytes() == want_bounds.tobytes()
    assert log_probs.tobytes() == want_log_probs.tobytes()


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
    with pytest.raises(ContractError, match="unknown regularizer 'greedy'"):
        Objective((("greedy", 1.0),))  # a string, not a RegularizerKind
    with pytest.raises(ContractError, match="length reward weight"):
        Objective(length_mode="reward", length_lambda=-1.0)


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
    # The length-normalizing form, alone and after a penalty, and an empty
    # term, which is skipped.
    for spec, described in (("len=norm", "len=norm"), ("local=1,len=norm", "local=1,len=norm"),
                            ("greedy=1,,square=2", "greedy=1,square=2")):
        obj = parse_objective(spec)
        assert obj.describe() == described
        assert parse_objective(obj.describe()) == obj


def test_parse_objective_errors():
    for bad in ("coverage=1", "greedy", "greedy=x", "greedy=-1", "len=reward:x", "len=foo",
                "len=norm,len=norm", "greedy=1,greedy=2"):
        with pytest.raises(ContractError):
            parse_objective(bad)


# --- set deviation penalty


def test_r_beam_k1_equals_r_greedy_exactly(m1):
    for n_max in (3, 5):
        rec = greedy_search(m1, None, n_max)
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
    rec = beam_search(m2, None, MAP_OBJECTIVE, 2, 4)
    members = [h.tokens for h in rec.beam_set]
    assert len(members) == 2
    assert r_beam(members, m2, None, 2, 4) == pytest.approx(0.0, abs=1e-12)


def test_r_beam_matches_exhaustive_subset_minimization(m2):
    """Independent oracle: re-derive each step's best size-k selection by
    enumerating every subset of the one-token extensions directly."""
    k, n_max = 2, 3
    rec = beam_search(m2, None, MAP_OBJECTIVE, k, n_max)
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
    hyp = greedy_search(m1, None, 4).best
    value = r_beam_ids([hyp.token_ids, hyp.token_ids], m1, "", 2, 4)
    assert math.isfinite(value)
    assert value > 0.0  # duplicates beat no distinct pair, so they carry a cost


def scratch_r_beam_ids(members, model, k, n_max):
    """The set deviation penalty of one set from scratch: each step fetches
    the rows it reads and sorts every candidate of the distinct parents."""
    eos = model.vocabulary.eos_id

    def row(prefix):
        return model.next_log_probs_ids("", prefix).tolist()

    prefix_lp = {}
    for m in members:
        lp = 0.0
        prefix_lp[m[:1]] = 0.0
        for t in range(1, len(m)):
            lp += row(m[:t])[m[t]]
            prefix_lp[m[: t + 1]] = lp
    total = 0.0
    for t in range(1, n_max + 1):
        parents = [m[:t] if t <= len(m) - 1 else m for m in members]
        kept_parent_lp = 0.0
        kept_step_u = 0.0
        for m, parent in zip(members, parents):
            kept_parent_lp += prefix_lp[parent]
            if t <= len(m) - 1:
                kept_step_u += -row(parent)[m[t]]
        candidates = []
        for parent in dict.fromkeys(parents):
            plp = prefix_lp[parent]
            if parent[-1] == eos:
                candidates.append((plp, parent, plp, 0.0))
                continue
            for tid, logv in enumerate(row(parent)):
                if logv != -math.inf:
                    candidates.append((plp + logv, parent + (tid,), plp, -logv))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        best = (candidates + [candidates[0]] * k)[:k]
        deviation = (kept_parent_lp - sum(c[2] for c in best)) + (
            sum(c[3] for c in best) - kept_step_u
        )
        total += deviation * deviation
    return total


def assert_table_equals_fresh_r_beam_ids(model, k, n_max, orders=(list,)):
    """One table scores every k-combination of the pool, duplicated members
    included, in each given member order, with the same float as a fresh
    ``r_beam_ids`` and as the from-scratch computation."""
    pool = sorted(ids for ids, _, _, _ in enumerate_complete(model, "", n_max))
    table = _SetDeviationTable(model, "", k, n_max)
    for combo in itertools.combinations_with_replacement(pool, k):
        for order in orders:
            members = order(combo)
            value = table(members)
            assert value == r_beam_ids(members, model, "", k, n_max)
            assert value == scratch_r_beam_ids(members, model, k, n_max)


def test_set_deviation_table_equals_fresh_r_beam_ids(m2):
    def reversed_list(combo):
        return list(reversed(combo))

    for k, n_max in ((1, 4), (2, 4), (3, 3), (2, 5)):
        assert_table_equals_fresh_r_beam_ids(m2, k, n_max, (list, reversed_list))
    for seed in range(20):
        assert_table_equals_fresh_r_beam_ids(*set_limit_instance(seed))


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
