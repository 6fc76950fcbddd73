import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regdecode import (
    ContractError,
    MAP_OBJECTIVE,
    NGramModel,
    NoHypothesisError,
    Objective,
    RegularizerKind,
    SearchSpaceError,
    SequenceModel,
    TableModel,
    Vocabulary,
    beam_search,
    brute_force,
    brute_force_set,
    exact_search,
    greedy_search,
    load_model,
    parse_objective,
    score,
    train_ngram,
)
import regdecode.search
from regdecode.cli import EXACTNESS_LAMBDAS, main
from regdecode.models import _dist_to_log_array, _terms_of_block, _terms_of_row
from regdecode.objectives import (
    _PENALTIES,
    _SetDeviationTable,
    completion_bounds,
    r_beam_ids,
    score_parts,
)
from regdecode.randmodels import (
    exactness_instance,
    random_table_model,
    set_limit_instance,
    tie_free_instance,
)
from regdecode.search import enumerate_complete
from regdecode.surprisal import trace as surprisal_trace

from .conftest import FIXTURES
from .reference_sums import spec_sums


def chain_model():
    """Probability-one chain: a then the end marker."""
    v = Vocabulary(("a",))
    return TableModel(
        v,
        {"<s>": {"a": 1.0, "</s>": 0.0}, "<s> a": {"a": 0.0, "</s>": 1.0}},
        {"a": 0.5, "</s>": 0.5},
    )


def test_search_config_validation():
    model = chain_model()
    for search in (
        lambda k: beam_search(model, None, MAP_OBJECTIVE, k, 5),
        lambda k: brute_force_set(model, None, k, 0.0, 3),
    ):
        with pytest.raises(ContractError, match="beam width must be >= 1"):
            search(0)
    for search in (
        lambda n_max: greedy_search(model, None, n_max),
        lambda n_max: beam_search(model, None, MAP_OBJECTIVE, 1, n_max),
        lambda n_max: exact_search(model, None, MAP_OBJECTIVE, n_max),
        lambda n_max: brute_force(model, None, MAP_OBJECTIVE, n_max),
        lambda n_max: brute_force_set(model, None, 1, 0.0, n_max),
    ):
        with pytest.raises(ContractError, match="n_max must be >= 1"):
            search(0)


def test_greedy_emits_deterministic_chain():
    rec = greedy_search(chain_model(), None, 5)
    assert rec.best.tokens == ("<s>", "a", "</s>")
    assert rec.best.log_prob == 0.0
    assert rec.best.complete


def test_greedy_tie_break_lowest_index():
    v = Vocabulary(("a", "b"))
    m = TableModel(v, {"<s>": {"a": 0.4, "b": 0.4, "</s>": 0.2}},
                   {"a": 0.05, "b": 0.05, "</s>": 0.9})
    rec = greedy_search(m, None, 4)
    assert rec.best.tokens[1] == "a"


def test_greedy_breaks_a_sub_ulp_tie_on_the_running_log_prob():
    """Greedy ranks a step by the log-probability so far, as beam does. Two
    row entries one ulp apart round to the same running sum after eight
    uniform steps, so the completions tie and the smaller id wins."""
    v = Vocabulary(("a", "b", "c"))
    uniform = {t: 0.25 for t in ("a", "b", "c", "</s>")}
    entries = {" ".join(("<s>",) + ("a",) * i): uniform for i in range(8)}
    b = float(np.nextafter(0.45, 1))
    entries["<s>" + " a" * 8] = {"a": 0.45, "b": b, "c": 0.0, "</s>": 1 - 0.45 - b}
    m = TableModel(v, entries, {"</s>": 1.0})
    rec = greedy_search(m, None, 12)
    assert rec.best.surface == ("a",) * 9
    assert rec.best.log_prob == -11.888862585176897
    assert rec.best.token_ids == beam_search(m, None, MAP_OBJECTIVE, 1, 12).best.token_ids


def test_greedy_without_termination_raises():
    v = Vocabulary(("a",))
    m = TableModel(v, {}, {"a": 0.9, "</s>": 0.1})
    with pytest.raises(NoHypothesisError):
        greedy_search(m, None, 3)


def test_beam_k1_equals_greedy_on_random_models():
    rng = np.random.default_rng(42)
    for _ in range(100):
        model = random_table_model(rng, int(rng.integers(1, 6)))
        g = greedy_search(model, None, 6)
        b = beam_search(model, None, MAP_OBJECTIVE, 1, 6)
        assert g.best.token_ids == b.best.token_ids


def test_huge_beam_contains_map_optimum(m1):
    n_max = 3
    k = m1.vocabulary.dist_size**n_max
    beam = beam_search(m1, None, MAP_OBJECTIVE, k, n_max)
    oracle = brute_force(m1, None, MAP_OBJECTIVE, n_max)
    assert oracle.best.token_ids in {h.token_ids for h in beam.beam_set}
    assert beam.best.token_ids == oracle.best.token_ids


def test_wider_beam_recovers_longer_hypothesis(m2):
    """End-marker mass is the single best first step, so width one ends
    immediately; the two-token continuation is the best hypothesis under a
    length reward but only a width-two beam ever sees it."""
    reward = parse_objective("len=reward:0.5")
    k1 = beam_search(m2, None, reward, 1, 6)
    assert k1.best.tokens == ("<s>", "</s>")
    k2 = beam_search(m2, None, reward, 2, 6)
    assert k2.best.tokens == ("<s>", "a", "b", "</s>")
    # Hand-enumerated: log p = ln(.35 * .9 * .95), reward 0.5 per step.
    expected_lp = math.log(0.35) + math.log(0.9) + math.log(0.95)
    assert k2.best.log_prob == pytest.approx(expected_lp, abs=1e-12)
    assert k2.best.score == pytest.approx(expected_lp + 0.5 * 3, abs=1e-12)
    # Under the plain objective the width-two beam still finds it, ranked second.
    plain = beam_search(m2, None, MAP_OBJECTIVE, 2, 6)
    assert plain.best.tokens == ("<s>", "</s>")
    assert [h.tokens for h in plain.beam_set] == [
        ("<s>", "</s>"), ("<s>", "a", "b", "</s>")
    ]


def reference_beam(model, objective, k, n_max, mixed_steps=None):
    """Beam search by its definition: score every candidate with the spec,
    sort all of them by the shared order, keep k. Returns (ids, total,
    log-probability) of the finished survivors in that order. A list passed
    as ``mixed_steps`` gets the index of every step at which ended and open
    members are ranked together."""
    eos = model.vocabulary.eos_id
    beams = [((model.vocabulary.bos_id,), (), (), 0.0, None)]
    for step in range(n_max):
        n_ended = sum(b[0][-1] == eos for b in beams)
        if n_ended == len(beams):
            break
        if n_ended and mixed_steps is not None:
            mixed_steps.append(step)
        candidates = []
        for node in beams:
            ids, trace, minima, log_prob, _ = node
            if ids[-1] == eos:
                candidates.append(node)
                continue
            dist = model.next_log_probs_ids("", ids).tolist()
            for tid, logv in enumerate(dist):
                if logv != -math.inf:
                    child = ((*ids, tid), trace + (-logv,), minima + (-max(dist),), log_prob + logv)
                    candidates.append((*child, score_parts(objective, *child[1:]).total))
        candidates.sort(key=lambda c: (-c[4], -c[3], c[0]))
        beams = candidates[:k]
    return [(b[0], b[4], b[3]) for b in beams if b[0][-1] == eos]


def test_beam_keeps_every_tie_on_the_kth_total():
    """Three first steps tie on the second-best total; width two keeps the
    two with the smallest ids, as the full sort would."""
    v = Vocabulary(("a", "b", "c", "d"))
    m = TableModel(v, {"<s>": {"a": 0.1, "b": 0.3, "c": 0.3, "d": 0.3}}, {"</s>": 1.0})
    rec = beam_search(m, None, MAP_OBJECTIVE, 2, 3)
    assert [h.tokens for h in rec.beam_set] == [("<s>", "b", "</s>"), ("<s>", "c", "</s>")]


def test_beam_matches_reference_under_heavy_ties():
    """Uniform rows over random token subsets make many candidates tie on
    total and log-probability, so the threshold and the tie-break order
    decide the beam; it must equal the sort-everything reference."""
    rng = np.random.default_rng(11)
    objectives = [MAP_OBJECTIVE] + [parse_objective(spec) for spec in (
        "square=1", "greedy=1,local=0.5", "variance=2,max=1", "len=norm", "len=reward:0.7")]
    tokens = ("a", "b", "c")
    for _ in range(30):
        entries = {}
        for ctx in ("<s>", "<s> a", "<s> b", "<s> a a", "<s> b c"):
            allowed = [t for t in tokens + ("</s>",) if rng.random() < 0.6] or ["</s>"]
            entries[ctx] = {t: 1 / len(allowed) for t in allowed}
        model = TableModel(Vocabulary(tokens), entries, {t: 0.25 for t in tokens + ("</s>",)})
        for objective in objectives:
            for k in (1, 2, 3, 5):
                expected = reference_beam(model, objective, k, 4)
                if not expected:
                    with pytest.raises(NoHypothesisError):
                        beam_search(model, None, objective, k, 4)
                    continue
                rec = beam_search(model, None, objective, k, 4)
                assert [(h.token_ids, h.score, h.log_prob) for h in rec.beam_set] == expected


class LengthModel(SequenceModel):
    """Random rows keyed by a prefix's length and last token, so that
    traces run long and hypotheses end at many lengths: the end marker is
    forbidden for the first two steps and its weight grows with the
    length. A fifth of the rows allow a single token, three tenths are
    uniform over a random subset (ties), the rest are random."""

    def __init__(self, rng, n_max):
        super().__init__(Vocabulary(("a", "b", "c")))
        size = self.vocabulary.dist_size
        eos = self.vocabulary.eos_id
        self.rows = {}
        for steps in range(n_max):
            for last in range(size + 1):
                draw = rng.random()
                p = np.zeros(size)
                if draw < 0.2:
                    p[int(rng.integers(size if steps >= 2 else eos))] = 1.0
                elif draw < 0.5:
                    allowed = rng.random(size) < 0.6
                    allowed[eos] &= steps >= 2
                    allowed[0] |= not allowed.any()
                    p[allowed] = 1.0
                else:
                    p = rng.random(size) + 0.05
                    p[eos] *= 2 * steps / n_max
                with np.errstate(divide="ignore"):
                    row = np.log(p / p.sum())
                row.setflags(write=False)
                self.rows[steps, last] = row

    def _state_row(self, state):
        _, prefix_ids = state
        return self.rows[len(prefix_ids) - 1, prefix_ids[-1]]


def test_beam_matches_reference_on_long_traces():
    """Traces up to 12 steps under variance and mixed objectives, with
    members that end at different steps, so that ended and open members are
    ranked in one step: ids, totals and log-probabilities equal the
    sort-everything reference's. Rows that allow one token let a step score
    a single child; uniform rows make candidates tie."""
    rng = np.random.default_rng(29)
    objectives = [parse_objective(spec) for spec in (
        "variance=1", "variance=1,square=0.1", "variance=2,greedy=0.5,local=0.3",
        "max=1,variance=0.5,len=norm", "square=0.2,len=reward:0.8", "greedy=1,local=0.5")]
    n_max = 12
    mixed_steps, lengths = [], []
    for _ in range(8):
        model = LengthModel(rng, n_max)
        for objective in objectives:
            for k in (1, 2, 3, 4, 5):
                expected = reference_beam(model, objective, k, n_max, mixed_steps)
                if not expected:
                    with pytest.raises(NoHypothesisError):
                        beam_search(model, None, objective, k, n_max)
                    continue
                rec = beam_search(model, None, objective, k, n_max)
                assert [(h.token_ids, h.score, h.log_prob) for h in rec.beam_set] == expected
                lengths += [len(ids) - 1 for ids, _, _ in expected]
    # What the draw covers: long returned traces, and steps where ended and
    # open members meet late in a decode.
    assert sum(n >= 10 for n in lengths) >= 50
    assert sum(step >= 9 for step in mixed_steps) >= 100


def test_beam_set_ordered_by_final_score(m1):
    rec = beam_search(m1, None, MAP_OBJECTIVE, 3, 5)
    scores = [h.sort_key() for h in rec.beam_set]
    assert scores == sorted(scores)
    assert rec.best is rec.beam_set[0]


def test_exact_matches_brute_on_m1(m1):
    e = exact_search(m1, None, MAP_OBJECTIVE, 5)
    b = brute_force(m1, None, MAP_OBJECTIVE, 5)
    assert e.best.token_ids == b.best.token_ids == (3, 0, 1, 2)
    assert e.best.score == b.best.score
    assert e.optimality_certificate and b.optimality_certificate


def test_exact_returns_empty_string_on_degenerate_optimum(m3):
    for source in ("s1", "s2", "s3"):
        e = exact_search(m3, source, MAP_OBJECTIVE, 6)
        b = brute_force(m3, source, MAP_OBJECTIVE, 6)
        assert e.best.surface == () and b.best.surface == ()


def test_exact_greedy_limit_equals_greedy():
    objective = Objective(((RegularizerKind.GREEDY, 1e6),))
    for seed in range(20):
        model, n_max = tie_free_instance(seed)
        e = exact_search(model, None, objective, n_max)
        g = greedy_search(model, None, n_max)
        assert e.best.token_ids == g.best.token_ids


def test_exact_agrees_with_brute_across_objectives():
    kinds = [None] + list(RegularizerKind)
    for seed in range(25):
        model, n_max = exactness_instance(seed)
        for kind in kinds:
            objective = MAP_OBJECTIVE if kind is None else Objective(((kind, 2.0),))
            e = exact_search(model, None, objective, n_max)
            b = brute_force(model, None, objective, n_max)
            assert e.best.score == b.best.score
            assert e.best.token_ids == b.best.token_ids


def test_exact_agrees_with_brute_under_length_modes(m1, m4):
    for model in (m1, m4):
        for spec in ("len=norm", "len=reward:0.3", "variance=2,len=norm"):
            objective = parse_objective(spec)
            e = exact_search(model, None, objective, 5)
            b = brute_force(model, None, objective, 5)
            assert e.best.score == b.best.score
            assert e.best.token_ids == b.best.token_ids


def test_variance_decodes_keep_their_token_ids(request):
    """Beam (k = 1, 5, 10) and exact decodes at n_max 8 under four variance
    objectives on the three source-keyed fixtures return the token ids they
    returned when variance was summed in two passes, mean first; since
    Welford's update their totals move in the last bits only."""
    records = json.loads((Path(__file__).parent / "variance_decodes.json").read_text())
    for name, source, spec, k, want in records:
        model, objective = request.getfixturevalue(name), parse_objective(spec)
        if k is None:
            hyps = [exact_search(model, source, objective, 8).best]
        else:
            hyps = beam_search(model, source, objective, k, 8).beam_set
        assert [list(h.token_ids) for h in hyps] == [ids for ids, _ in want]
        assert [h.score for h in hyps] == pytest.approx([total for _, total in want],
                                                        rel=1e-12, abs=0.0)


def test_exact_decodes_keep_their_token_ids_and_node_counts(request):
    """Exact decodes at n_max 8 on the five fixtures, each under its own
    sources (m1 and m2 have none), return the token ids and expand the
    nodes they did when exact search bounded an expansion with 0.0 first
    and again with the model's ``best_step`` once some child survived. The
    objectives are the exactness suite's 16, ``len=reward:1`` and
    ``local=1,len=norm``."""
    records = json.loads((Path(__file__).parent / "exact_decodes.json").read_text())
    assert len(records) == 10 * 18
    for name, source, spec, ids, nodes in records:
        record = exact_search(request.getfixturevalue(name), source, parse_objective(spec), 8)
        assert (list(record.best.token_ids), record.nodes_expanded) == (ids, nodes), (
            name, source, spec)


BOUND_OBJECTIVES = (
    "", "greedy=1", "variance=3", "local=2", "max=0.5", "square=0.5",
    "greedy=1,local=0.5,variance=2", "max=1,square=0.25,local=3",
    "len=norm", "len=reward:0.7", "len=reward:4", "local=1,len=norm",
    "square=0.5,local=1,len=reward:2", "greedy=2,variance=1,max=1,len=norm",
)


def test_bound_admissible_on_small_models():
    """Every open child's bound is at least, with no tolerance, the score
    of every completion that takes a step after it."""
    rng = np.random.default_rng(17)
    objectives = [parse_objective(spec) for spec in BOUND_OBJECTIVES]
    for _ in range(10):
        model = random_table_model(rng, 2)
        n_max = 4
        for ids, trace, minima, lp in enumerate_complete(model, "", n_max):
            totals = [score_parts(o, trace, minima, lp).total for o in objectives]
            # Prefix traces recomputed independently step by step; ids[:t]
            # is the expanded prefix and ids[t] one of its open children.
            run, steps, mins = 0.0, [], []
            for t in range(1, len(ids) - 1):
                dist = model.next_log_probs_ids("", ids[:t])
                terms = _terms_of_row(dist)
                j = terms.ids.index(ids[t])
                for objective, total in zip(objectives, totals):
                    sums = spec_sums(objective, steps, mins)
                    bounds, _, _ = completion_bounds(objective, len(steps), sums, run, terms.u,
                                                     terms.step_min, n_max, model.best_step)
                    assert bounds[j] >= total
                run += float(dist[ids[t]])
                steps.append(-float(dist[ids[t]]))
                mins.append(-float(dist.max()))


def uniform_model(n_tokens):
    vocab = Vocabulary(tuple("abcde"[:n_tokens]))
    row = {t: 1 / (n_tokens + 1) for t in (*vocab.tokens, vocab.eos)}
    return TableModel(vocab, {"<s>": row}, row)


def test_exact_matches_brute_when_every_step_attains_best_step():
    """Every entry of a uniform model equals ``best_step``, so the bound of
    a penalty-free objective meets the score of a completion exactly and
    tie-breaking alone separates the hypotheses of one length."""
    for n_tokens in (1, 2, 3, 5):
        model = uniform_model(n_tokens)
        assert (model.next_log_probs_ids("", (model.vocabulary.bos_id,)) == model.best_step).all()
        # A reward above -best_step makes every longest hypothesis optimal,
        # and each prefix's bound is exactly their score, so the search
        # expands every prefix with a step left.
        reward = parse_objective("len=reward:3")
        e = exact_search(model, None, reward, 5)
        assert e.nodes_expanded == sum(n_tokens**depth for depth in range(5))
        for spec in ("", "len=reward:3", "len=reward:0.5", "len=norm", "greedy=1,len=reward:2",
                     "local=1,len=reward:2", "square=0.1,len=norm", "variance=1"):
            objective = parse_objective(spec)
            for n_max in (1, 3, 5):
                e = exact_search(model, None, objective, n_max)
                b = brute_force(model, None, objective, n_max)
                assert e.best.score == b.best.score
                assert e.best.token_ids == b.best.token_ids


def test_exact_node_counts_on_small_ngram_model():
    """The completion bounds prune objectives whose score can rise under
    extension, on a seeded bigram model over 6 tokens."""
    rng = np.random.default_rng(0)
    tokens = [f"w{i}" for i in range(6)]
    corpus = [[tokens[i] for i in rng.integers(0, 6, rng.integers(3, 10))] for _ in range(100)]
    model = train_ngram(corpus, 2, 0.5)
    n_max = 5
    full_tree = sum(6**depth for depth in range(n_max))  # every prefix with a step left
    for spec, most in (("local=1", 2), ("len=norm", 8), ("len=reward:1", 3)):
        objective = parse_objective(spec)
        e = exact_search(model, None, objective, n_max)
        b = brute_force(model, None, objective, n_max)
        assert e.best.score == b.best.score
        assert e.best.token_ids == b.best.token_ids
        assert e.nodes_expanded <= most < full_tree


def test_plain_decodes_near_the_smallest_log_probability_run_without_errstate():
    """An objective with no weight decodes outside ``np.errstate``, since its
    totals and bounds are sums of finite surprisals: on rows whose entries
    sit at log(5e-324) = -744.4, plain exact and beam decodes (and greedy)
    emit no ``RuntimeWarning``, and numpy's error settings stay the default
    while their rows are built. A weighted objective still gets the
    errstate."""
    settings_seen = []

    class Recording(SequenceModel):
        """The bare prefix's row, and one row for every longer prefix, each
        built when a decode first asks for it."""

        best_step = 0.0

        def _state_row(self, state):
            settings_seen.append(np.geterr()["over"])
            tiny = 5e-324
            _, prefix_ids = state
            return np.log([tiny, 0.5, 0.5] if len(prefix_ids) == 1 else [0.4, tiny, 0.6])

    def model():  # a new row cache, so every decode builds its rows
        return Recording(Vocabulary(("a", "b")))

    assert model().next_log_probs(None, ["<s>"])[0] == math.log(5e-324)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exact_search(model(), None, MAP_OBJECTIVE, 8)
        beam_search(model(), None, MAP_OBJECTIVE, 3, 8)
        greedy_search(model(), None, 8)
        exact_search(model(), None, parse_objective("len=norm"), 8)
    assert caught == []
    assert set(settings_seen) == {np.geterr()["over"]} != {"ignore"}
    settings_seen.clear()
    beam_search(model(), None, parse_objective("square=1"), 3, 8)
    assert set(settings_seen) == {"ignore"}


def test_exact_agenda_guard(m1, monkeypatch):
    objective = parse_objective("len=reward:3")
    exact_search(m1, None, objective, 6)
    monkeypatch.setattr(regdecode.search, "EXACT_AGENDA_GUARD", 5)
    with pytest.raises(SearchSpaceError, match="guard of 5 open prefixes"):
        exact_search(m1, None, objective, 6)


def test_exact_no_hypothesis_error():
    v = Vocabulary(("a",))
    m = TableModel(v, {}, {"a": 1.0, "</s>": 0.0})
    with pytest.raises(NoHypothesisError):
        exact_search(m, None, MAP_OBJECTIVE, 4)
    with pytest.raises(NoHypothesisError):
        brute_force(m, None, MAP_OBJECTIVE, 4)


def test_brute_force_single_hypothesis_space():
    rec = brute_force(chain_model(), None, MAP_OBJECTIVE, 4)
    assert rec.best.tokens == ("<s>", "a", "</s>")


def test_brute_force_guard():
    v = Vocabulary(("a", "b", "c", "d", "e"))
    m = TableModel(v, {}, {t: 1 / 6 for t in ("a", "b", "c", "d", "e", "</s>")})
    with pytest.raises(SearchSpaceError):
        brute_force(m, None, MAP_OBJECTIVE, 12)
    with pytest.raises(ContractError, match="n_max must be >= 1"):
        brute_force(chain_model(), None, MAP_OBJECTIVE, 0)


# The exactness suite's 16 objectives plus both length transforms.
POOL_OBJECTIVES = (
    [MAP_OBJECTIVE]
    + [Objective(((kind, lam),)) for kind in RegularizerKind for lam in EXACTNESS_LAMBDAS]
    + [parse_objective("len=norm"), parse_objective("len=reward:0.7")]
)
# Mixed objectives that share penalty kinds with POOL_OBJECTIVES.
MIXED_OBJECTIVES = [
    parse_objective(spec)
    for spec in ("greedy=1,local=0.5", "variance=2,square=0.1,len=reward:0.3", "max=1,len=norm")
]


def spec_argmax(objective, pool):
    """The oracle argmax by definition: every hypothesis scored by
    ``score_parts``, the best under the shared key (-total, -log_prob, ids)."""
    return min(pool, key=lambda h: (-score_parts(objective, h[1], h[2], h[3]).total, -h[3], h[0]))


def assert_pooled_argmax_equals_brute_force(model, n_max, pool=None):
    """One multi-objective argmax over the walk (or over ``pool``, any
    ordering of it) equals a per-objective spec argmax and ``brute_force``."""
    walk = list(regdecode.search._complete_walk(model, None, n_max))
    pool = walk if pool is None else pool
    objectives = POOL_OBJECTIVES + MIXED_OBJECTIVES
    records = regdecode.search._oracle_argmax(model, objectives, iter(pool), n_max)
    assert len(records) == len(objectives)
    for objective, record in zip(objectives, records):
        ids, trace, minima, log_prob = spec_argmax(objective, pool)
        assert record.best.token_ids == ids
        assert record.best.breakdown.total == score_parts(objective, trace, minima, log_prob).total
        assert record.best.log_prob == log_prob
        assert record.nodes_expanded == len(pool)
        assert record.optimality_certificate
        fresh = brute_force(model, None, objective, n_max)
        assert fresh.best.token_ids == ids
        assert fresh.best.breakdown == record.best.breakdown
        assert fresh.nodes_expanded == len(walk)
    return records


def test_pooled_argmax_equals_brute_force_on_fixtures(m1, m2, m3, m4, beam_family):
    for model in (m1, m2, m3, m4):
        assert_pooled_argmax_equals_brute_force(model, 6)
    assert_pooled_argmax_equals_brute_force(beam_family, 5)


def test_pooled_argmax_equals_brute_force_on_exactness_instances():
    for seed in range(30):
        assert_pooled_argmax_equals_brute_force(*exactness_instance(seed))


def boundary_tie_model():
    """Under plain log-probability "a" and "a a" tie exactly, in total and
    in log-probability (log .5 + log .5, then + 0.0); "a a" wins on ids,
    since the end marker has the largest id. Every other hypothesis scores
    lower."""
    v = Vocabulary(("a", "b", "c"))
    return TableModel(
        v,
        {"<s>": {"a": 0.5, "b": 0.25, "c": 0.25}, "<s> a": {"a": 0.5, "</s>": 0.5},
         "<s> a a": {"</s>": 1.0}},
        {"a": 0.25, "b": 0.25, "c": 0.25, "</s>": 0.25},
    )


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_pooled_argmax_is_independent_of_the_chunk_size(monkeypatch, chunk):
    model = boundary_tie_model()
    walk = list(regdecode.search._complete_walk(model, None, 4))
    tied = [h for h in walk if h[0] in ((4, 0, 3), (4, 0, 0, 3))]  # "a", "a a"; bos 4, eos 3
    assert len(tied) == 2 and tied[0][3] == tied[1][3]
    # Place the loser at index 13 and the winner at 14: a boundary between
    # them for chunks of 1, 2 and 7.
    rest = [h for h in walk if h not in tied]
    pool = rest[:13] + sorted(tied, key=lambda h: h[0], reverse=True) + rest[13:]
    expected = assert_pooled_argmax_equals_brute_force(model, 4, pool)
    monkeypatch.setattr(regdecode.search, "_ARGMAX_CHUNK", chunk)
    records = assert_pooled_argmax_equals_brute_force(model, 4, pool)
    assert records == expected
    assert records[0].best.tokens == ("<s>", "a", "a", "</s>")


def test_pooled_argmax_scans_a_chunk_with_a_nan_total_in_walk_order(m1, monkeypatch):
    """A length reward and a penalty that both overflow give inf - inf, a
    NaN total, which no key orders; such a chunk is scanned row by row, as
    the spec argmax scans the whole walk."""
    objective = parse_objective("square=1e308,len=reward:1e308")
    walk = list(regdecode.search._complete_walk(m1, None, 4))
    totals = [score_parts(objective, *h[1:]).total for h in walk]
    assert any(math.isnan(t) for t in totals) and not all(math.isnan(t) for t in totals)
    expected = spec_argmax(objective, walk)[0]
    for chunk in (1, 3, 256):
        monkeypatch.setattr(regdecode.search, "_ARGMAX_CHUNK", chunk)
        record, = regdecode.search._oracle_argmax(m1, [objective], walk, 4)
        assert record.best.token_ids == expected


def test_verify_exactness_scores_each_spec_once_per_hypothesis(monkeypatch, capsys):
    """Each kind's spec runs once per pooled hypothesis, plus once per
    hypothesis returned under one of that kind's three weights (by the
    oracle and by exact search, in each of two trials)."""
    calls = {kind: 0 for kind in RegularizerKind}
    for kind, penalty in list(_PENALTIES.items()):
        def counted(trace, minima, spec=penalty.spec, kind=kind):
            calls[kind] += 1
            return spec(trace, minima)
        monkeypatch.setitem(_PENALTIES, kind, penalty._replace(spec=counted))
    pooled = 0
    for trial in range(2):  # the suite's instances at seed 0
        model, n_max = exactness_instance(trial)
        pooled += len(list(regdecode.search._complete_walk(model, None, n_max)))
    assert main(["verify", "--suite", "exactness", "--trials", "2"]) == 0
    assert "32/32" in capsys.readouterr().out
    returned = 2 * len(EXACTNESS_LAMBDAS) * 2
    assert calls == {kind: pooled + returned for kind in RegularizerKind}


def test_verify_exactness_walks_each_trial_once(monkeypatch, capsys):
    walks = []
    walk = regdecode.search.enumerate_complete

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(regdecode.search, "enumerate_complete", counted)
    assert main(["verify", "--suite", "exactness", "--trials", "2"]) == 0
    assert "32/32" in capsys.readouterr().out
    assert len(walks) == 2


def test_brute_force_set_guards(m1):
    with pytest.raises(SearchSpaceError):
        brute_force_set(m1, None, 4, 0.0, 3)
    with pytest.raises(SearchSpaceError):
        brute_force_set(m1, None, 2, 0.0, 6)
    with pytest.raises(SearchSpaceError, match=r"\|V\|\+1 <= 4"):
        brute_force_set(uniform_model(4), None, 2, 0.0, 3)
    # The chain model's one complete hypothesis within two steps is <s> a </s>.
    with pytest.raises(NoHypothesisError, match="only 1 complete hypotheses"):
        brute_force_set(chain_model(), None, 2, 0.0, 2)


def test_brute_force_set_top_k_at_lambda_zero(m1):
    chosen = brute_force_set(m1, None, 2, 0.0, 4)
    pool = []
    for ids, trace, minima, lp in enumerate_complete(m1, "", 4):
        pool.append((lp, ids))
    pool.sort(key=lambda x: (-x[0], x[1]))
    expected = sorted(ids for _, ids in pool[:2])
    assert sorted(h.token_ids for h in chosen) == expected


def test_brute_force_set_limit_matches_beam(m1):
    for k, n_max in ((1, 4), (2, 4)):
        beam = beam_search(m1, None, MAP_OBJECTIVE, k, n_max)
        members = [h.token_ids for h in beam.beam_set]
        if len(members) != k or r_beam_ids(members, m1, "", k, n_max) > 1e-9:
            continue  # no surviving-beam witness at this width
        chosen = brute_force_set(m1, None, k, 1e6, n_max)
        assert sorted(h.token_ids for h in chosen) == sorted(members)


def test_brute_force_set_infinite_weight_matches_beam():
    """At weight 1e6 a set with a 4e-7 penalty but 0.8 nats more
    log-probability outranks the beam's zero-penalty set on this instance;
    the exact large-weight limit (lam=inf) ranks by penalty first."""
    model, k, n_max = set_limit_instance(607 * 1_000_003 + 0)
    beam = beam_search(model, None, MAP_OBJECTIVE, k, n_max)
    beam_ids = sorted(h.token_ids for h in beam.beam_set)
    limit = brute_force_set(model, None, k, math.inf, n_max)
    assert sorted(h.token_ids for h in limit) == beam_ids
    finite = brute_force_set(model, None, k, 1e6, n_max)
    assert sorted(h.token_ids for h in finite) != beam_ids


SET_LAMBDAS = (math.inf, 1e6, 0.5, 0.0)


def full_scan_set(model, k, n_max):
    """Per weight in SET_LAMBDAS, the ids of the set ``brute_force_set``
    must choose: every k-combination of the pool scored by a fresh
    ``r_beam_ids`` and ranked by the same key, with no cutoff."""
    pool = sorted(enumerate_complete(model, "", n_max), key=lambda h: h[0])
    best = dict.fromkeys(SET_LAMBDAS)
    for combo in itertools.combinations(pool, k):
        members = tuple(c[0] for c in combo)
        set_lp = sum(c[3] for c in combo)
        penalty = r_beam_ids(members, model, "", k, n_max)
        for lam in SET_LAMBDAS:
            if lam == math.inf:
                key = (penalty, -set_lp, members)
            else:
                key = (-(set_lp - lam * penalty), -set_lp, members)
            if best[lam] is None or key < best[lam]:
                best[lam] = key
    return {lam: list(key[2]) for lam, key in best.items()}


def assert_brute_force_set_equals_full_scan(model, k, n_max):
    expected = full_scan_set(model, k, n_max)
    for lam in SET_LAMBDAS:
        chosen = brute_force_set(model, None, k, lam, n_max)
        assert sorted(h.token_ids for h in chosen) == expected[lam], (k, n_max, lam)


def test_brute_force_set_equals_full_scan(m1, m2):
    """The cutoff at lam=inf skips only sets that cannot win: a cutoff
    that also drops penalty ties (``>=``) changes the chosen set on some
    of these."""
    for model in (m1, m2):
        for k, n_max in ((1, 4), (2, 4), (3, 3), (2, 5), (3, 4)):
            assert_brute_force_set_equals_full_scan(model, k, n_max)
    for seed in range(100):
        assert_brute_force_set_equals_full_scan(*set_limit_instance(seed))


def test_brute_force_set_cutoff_is_best_penalty_so_far(monkeypatch):
    """On the thm2 suite's first instance at seed 0, lam=inf hands each set
    the lowest penalty of the sets before it as its cutoff, and so scores
    fewer steps than the full scan a finite weight makes."""
    calls = []
    squares = []
    table_call = _SetDeviationTable.__call__
    squared_deviation = _SetDeviationTable._squared_deviation

    def recorded(self, members, cutoff=math.inf):
        calls.append((tuple(members), cutoff))
        return table_call(self, members, cutoff)

    def counted(self, states):
        squares.append(states)
        return squared_deviation(self, states)

    model, k, n_max = set_limit_instance(0)
    monkeypatch.setattr(_SetDeviationTable, "__call__", recorded)
    monkeypatch.setattr(_SetDeviationTable, "_squared_deviation", counted)
    brute_force_set(model, None, k, math.inf, n_max)
    limit_calls, limit_squares = list(calls), len(squares)
    best = math.inf
    for members, cutoff in limit_calls:
        assert cutoff == best
        best = min(best, r_beam_ids(members, model, "", k, n_max))
    squares.clear()
    brute_force_set(model, None, k, 0.5, n_max)
    assert limit_squares < len(squares)


@pytest.mark.parametrize("seed", [5, 105, 172, 607, 1601])
def test_verify_thm2_passes_where_the_finite_weight_failed(seed, capsys):
    """At the old finite weight 1e6 each of these seeds failed one thm2
    check; the exact large-weight limit passes all of them."""
    assert main(["--seed", str(seed), "verify", "--suite", "thm2"]) == 0
    assert "50/50" in capsys.readouterr().out


def test_brute_force_set_k1_limit_equals_greedy(m1, m2):
    for model in (m1, m2):
        chosen = brute_force_set(model, None, 1, 1e6, 4)
        g = greedy_search(model, None, 4)
        assert chosen[0].token_ids == g.best.token_ids


def test_monotone_exact_is_dijkstra_cheap(m1):
    objective = Objective(((RegularizerKind.SQUARE, 2.0),))
    e = exact_search(m1, None, objective, 5)
    b = brute_force(m1, None, objective, 5)
    assert e.nodes_expanded <= b.nodes_expanded


def tied_model():
    """Exact probability ties everywhere tie-breaking can bite."""
    v = Vocabulary(("a", "b"))
    return TableModel(
        v,
        {"<s>": {"a": 0.25, "b": 0.25, "</s>": 0.5},
         "<s> a": {"a": 0.5, "b": 0.25, "</s>": 0.25},
         "<s> b": {"a": 0.25, "b": 0.5, "</s>": 0.25}},
        {"a": 0.25, "b": 0.25, "</s>": 0.5},
    )


def test_exact_matches_brute_under_exact_ties():
    model = tied_model()
    objectives = [MAP_OBJECTIVE, parse_objective("square=2"), parse_objective("variance=0.5"),
                  parse_objective("len=norm"), parse_objective("greedy=1,local=1")]
    for n_max in (2, 3, 4):
        for objective in objectives:
            e = exact_search(model, None, objective, n_max)
            b = brute_force(model, None, objective, n_max)
            assert e.best.score == b.best.score
            assert e.best.token_ids == b.best.token_ids


def test_hypothesis_logprob_matches_trace():
    rng = np.random.default_rng(31)
    for _ in range(30):
        model = random_table_model(rng, int(rng.integers(1, 5)))
        for record in (
            greedy_search(model, None, 6),
            exact_search(model, None, MAP_OBJECTIVE, 6),
        ):
            hyp = record.best
            assert hyp.log_prob == pytest.approx(-sum(hyp.trace), abs=1e-9)
            assert hyp.complete == (hyp.tokens[-1] == model.vocabulary.eos)


def test_decode_records_are_deterministic(m1):
    a = exact_search(m1, None, MAP_OBJECTIVE, 5)
    b = exact_search(m1, None, MAP_OBJECTIVE, 5)
    assert a.best == b.best
    assert a.nodes_expanded == b.nodes_expanded
    g1 = beam_search(m1, None, MAP_OBJECTIVE, 3, 5)
    g2 = beam_search(m1, None, MAP_OBJECTIVE, 3, 5)
    assert [h.token_ids for h in g1.beam_set] == [h.token_ids for h in g2.beam_set]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_tokens=st.integers(1, 3),
    n_max=st.integers(1, 4),
    weights=st.lists(
        st.sampled_from([0.0, 0.25, 1.0, 3.0]),
        min_size=len(RegularizerKind),
        max_size=len(RegularizerKind),
    ),
    length=st.sampled_from(["", "len=norm", "len=reward:0.2", "len=reward:1.5"]),
)
def test_exact_equals_brute_on_random_objective_mixes(seed, n_tokens, n_max, weights, length):
    """Exact search matches the brute-force oracle with exact score and
    token-id equality across random penalty mixes and length transforms."""
    model = random_table_model(np.random.default_rng(seed), n_tokens)
    terms = [f"{kind.value}={w}" for kind, w in zip(RegularizerKind, weights) if w]
    objective = parse_objective(",".join(terms + ([length] if length else [])))
    e = exact_search(model, None, objective, n_max)
    b = brute_force(model, None, objective, n_max)
    assert e.best.score == b.best.score
    assert e.best.token_ids == b.best.token_ids


def sparse_ngram_model(rng: np.random.Generator, order: int, n_tokens: int) -> NGramModel:
    """A random n-gram model from its count columns: each possible context
    is stored with probability one half, and each of its events with
    probability one half and a count in [0, 4], so zero counts, contexts
    without events and unseen contexts all occur."""
    vocab = Vocabulary(tuple("abcd"[:n_tokens]))
    columns = {"contexts": [], "events_per_context": [], "event_tokens": [], "event_counts": []}
    for ctx in itertools.product(vocab._names, repeat=order - 1):
        if rng.random() < 0.5:
            events = {token: int(rng.integers(0, 5))
                      for token in vocab._names[:vocab.dist_size] if rng.random() < 0.5}
            columns["contexts"].append(" ".join(ctx))
            columns["events_per_context"].append(len(events))
            columns["event_tokens"] += events
            columns["event_counts"] += events.values()
    return NGramModel(vocab, order, float(rng.choice([0.1, 0.5, 1.0])), columns)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    order=st.integers(1, 3),
    n_tokens=st.integers(2, 4),
    n_max=st.integers(1, 5),
)
def test_exact_equals_brute_on_random_ngram_models(seed, order, n_tokens, n_max):
    """Exact search matches the brute-force oracle with exact score and
    token-id equality on sparse n-gram models, where the rows of unseen
    contexts repeat and the best step of many rows is far below
    ``best_step``, under every penalty kind, mixes and both length modes."""
    model = sparse_ngram_model(np.random.default_rng(seed), order, n_tokens)
    for spec in BOUND_OBJECTIVES:
        objective = parse_objective(spec)
        e = exact_search(model, None, objective, n_max)
        b = brute_force(model, None, objective, n_max)
        assert e.best.score == b.best.score
        assert e.best.token_ids == b.best.token_ids


def test_exact_search_bounds_each_expansion_once(request, monkeypatch):
    """Exact search makes at most one ``completion_bounds`` call per expanded
    prefix (one ``step_terms`` call each), on the fixtures and on sparse
    n-gram models, under every penalty kind, mixes and both length modes."""
    calls = []  # per expansion, its completion_bounds calls
    completion_bounds = regdecode.search.completion_bounds

    def counted_step_terms(step_terms):
        def counted(*args):
            calls.append(0)
            return step_terms(*args)
        return counted

    def counted_bounds(*args):
        calls[-1] += 1
        return completion_bounds(*args)

    monkeypatch.setattr(regdecode.search, "completion_bounds", counted_bounds)
    models = [(request.getfixturevalue(name), source) for name, source in (
        ("m1", None), ("m2", None), ("m3", "s1"), ("m4", "m4"), ("beam_family", "s1"))]
    models += [(sparse_ngram_model(np.random.default_rng(seed), order, 3), None)
               for seed in range(5) for order in (1, 2, 3)]
    bounded = 0
    for model, source in models:
        monkeypatch.setattr(model, "step_terms", counted_step_terms(model.step_terms))
        for spec in BOUND_OBJECTIVES:
            calls.clear()
            record = exact_search(model, source, parse_objective(spec), 5)
            assert len(calls) == record.nodes_expanded
            assert max(calls) <= 1, spec
            bounded += sum(calls)
    assert bounded > len(models) * len(BOUND_OBJECTIVES)  # most decodes bound some children


def zero_entry_model() -> TableModel:
    """A table model whose rows forbid tokens: zero-probability entries, the
    end marker among them in some contexts, and a row with one token
    allowed."""
    vocab = Vocabulary(("a", "b", "c"))
    entries = {
        "<s>": {"a": 0.5, "b": 0.3, "c": 0.2},
        "<s> a": {"b": 0.6, "</s>": 0.4},
        "<s> b": {"a": 0.1, "c": 0.2, "</s>": 0.7},
        "<s> a b": {"c": 1.0},
        "<s> c": {"a": 0.25, "b": 0.25, "c": 0.25, "</s>": 0.25},
        "<s> b c": {"a": 0.5, "b": 0.5},
    }
    return TableModel(vocab, entries, {"a": 0.2, "c": 0.1, "</s>": 0.7})


COLD_WARM_DECODES = [
    *((k, spec) for k in (1, 2, 5, 10) for spec in ("", "greedy=1", "variance=1,square=0.1",
                                                    "local=1,max=0.5,len=norm")),
    *((None, spec) for spec in ("", "greedy=1", "variance=1,square=0.1", "local=1,len=reward:1")),
]


def recording_states(model) -> dict:
    """Wraps ``model.state`` to record, per state it returns, the prefixes
    it was asked for."""
    prefixes_of = {}
    state = model.state

    def recorded(source_key, prefix_ids):
        key = state(source_key, prefix_ids)
        prefixes_of.setdefault(key, set()).add(prefix_ids)
        return key

    model.state = recorded
    return prefixes_of


def assert_one_entry_per_state(model, prefixes_of) -> None:
    """The model's cache holds one entry for each state visited and no other,
    each entry's row is the one-row build of its state, bit for bit, and its
    surprisals are the finite ones of that row's allowed tokens only, so a
    forbidden token never entered a block."""
    assert model._terms.keys() == prefixes_of.keys()
    for state, terms in model._terms.items():
        row = model._state_row(state)
        assert terms.row.tobytes() == row.tobytes()
        allowed = np.flatnonzero(row > -math.inf).tolist()
        assert list(terms.ids) == allowed
        assert terms.u.shape == (len(allowed),)
        assert np.isfinite(terms.u).all()


def stored_dists(model: TableModel) -> dict:
    """A table model's distributions by state, as its spec spells them: each
    stored prefix with its table's source key ("" unless ``source_keyed``),
    and None, the default's."""
    spec = model.to_spec()
    tables = spec["entries"].items() if model.source_keyed else [("", spec["entries"])]
    prefix_ids = model.vocabulary.prefix_ids
    dists = {(key, prefix_ids(ctx.split())): dist
             for key, ctxs in tables for ctx, dist in ctxs.items()}
    dists[None] = spec["default"]
    return dists


def assert_table_cache(model: TableModel) -> None:
    """A table model's cache holds exactly its stored states and the default
    row's, each entry equal to the one-row build of its row."""
    assert model._terms.keys() == stored_dists(model).keys()
    for terms in model._terms.values():
        single = _terms_of_row(terms.row)
        assert list(terms.ids) == list(single.ids)
        assert terms.step_min == single.step_min
        assert np.ascontiguousarray(terms.u).tobytes() == single.u.tobytes()
        assert terms.end == single.end


@pytest.mark.parametrize("make_model", [
    lambda: sparse_ngram_model(np.random.default_rng(3), 3, 4),
    lambda: train_ngram([line.split() for line in ("a b c", "b c", "c a b d", "", "d d a")], 3,
                        0.5),
    zero_entry_model,
], ids=["sparse-ngram", "trained-ngram", "zero-entries"])
def test_cold_and_warm_models_give_identical_records(make_model):
    """Every decode gives the same record, bit for bit, on a fresh model,
    whose rows are all built in new blocks, as on one model reused by every
    decode before it, whose blocks hold other mixes of rows and whose cache
    serves the rest: beam search at k in {1, 2, 5, 10} and exact search.
    After every decode, cold or warm, an n-gram model's cache holds one
    entry per state visited; a table model's holds its stored states and
    the default row's, from construction on. Prefixes share states: an
    n-gram model's prefixes of one context, and a table model's prefixes
    that read the default row."""
    def outcome(model, k, objective):
        try:
            if k is None:
                return repr(exact_search(model, None, objective, 5))
            return repr(beam_search(model, None, objective, k, 6))
        except NoHypothesisError as exc:  # a width that keeps no ended member
            return repr(exc)

    def assert_cache(model, prefixes_of):
        if isinstance(model, TableModel):
            assert_table_cache(model)
            assert prefixes_of.keys() <= model._terms.keys()
        else:
            assert_one_entry_per_state(model, prefixes_of)

    warm = make_model()
    warm_states = recording_states(warm)
    assert_cache(warm, warm_states)
    for k, spec in COLD_WARM_DECODES:
        objective = parse_objective(spec)
        cold = make_model()
        cold_states = recording_states(cold)
        assert_cache(cold, cold_states)
        assert outcome(cold, k, objective) == outcome(warm, k, objective), (k, spec)
        assert_cache(cold, cold_states)
        assert_cache(warm, warm_states)
    assert max(map(len, warm_states.values())) > 1
    if isinstance(warm, TableModel):
        assert len(warm_states[None]) > 1  # the default row's one entry


@pytest.mark.parametrize("make_model", [
    lambda: load_model(FIXTURES / "m3.json"), lambda: load_model(FIXTURES / "beam_family.json"),
    zero_entry_model,
], ids=["m3", "beam-family", "zero-entries"])
def test_table_model_builds_its_whole_cache_when_constructed(make_model):
    """Right after construction a table model's cache holds exactly its
    stored prefixes, with their source keys, and None, the default row's:
    each entry's row is its distribution's ``_dist_to_log_array`` bit for
    bit. Decoding, scoring, tracing and brute force then add no entry."""
    model = make_model()
    vocab = model.vocabulary
    dists = stored_dists(model)
    assert model._terms.keys() == dists.keys()
    for state, dist in dists.items():
        row = _dist_to_log_array(dist, vocab, "row")
        assert model._terms[state].row.tobytes() == row.tobytes()
    entries = dict(model._terms)
    sources = sorted({state[0] for state in dists if state}) + ["unstored"]
    objective = parse_objective("variance=1,square=0.1")
    for source in sources:
        for k in (1, 3):
            beam_search(model, source, objective, k, 5)
        greedy_search(model, source, 5)
        exact_search(model, source, objective, 5)
        brute_force(model, source, objective, 4)
        if vocab.dist_size <= 4:  # the set decoder's guard
            brute_force_set(model, source, 2, 0.5, 3)
        for ids, *_ in enumerate_complete(model, source, 3):
            tokens = vocab.decode(ids)
            score(tokens, objective, model, source)
            surprisal_trace(model, source, tokens)
    assert model._terms == entries


def test_block_rows_and_terms_equal_one_row_builds():
    """An n-gram model's rows and ``StepTerms`` built as one block equal the
    one-row builds of the same contexts bit for bit: on sparse n-gram
    draws, on a trained model, on count columns whose row totals pass
    2**53, where the grouping of a float sum matters, on a context stored
    with no events beside seen and unseen ones, and on a row whose entries
    underflow to -inf (a tiny ``add_k`` against huge counts), so that a
    block holds forbidden entries."""
    # Rows of 21 entries: numpy sums 8 or more in interleaved partial sums,
    # not in order, so a block summed in other groups than a 1-D row would
    # give other totals on these.
    tokens = tuple(f"t{i:02}" for i in range(20))
    huge_rows = {
        "<s>": [2**53] + [1] * 20,
        "t00": [2**60 + 3**j for j in range(21)],
        "t01": [2**53 + 1 if j % 3 else 3 for j in range(21)],
    }
    huge = NGramModel(Vocabulary(tokens), 2, 0.5, {
        "contexts": list(huge_rows),
        "events_per_context": [21] * len(huge_rows),
        "event_tokens": [*tokens, "</s>"] * len(huge_rows),
        "event_counts": [c for row in huge_rows.values() for c in row],
    })
    for row in huge_rows.values():  # each total depends on the grouping
        counts = np.array(row, dtype=float)  # in id order: the tokens, then the end marker
        assert counts.sum() != sum(counts.tolist()) and counts.sum() > 2**53
    underflow = NGramModel(Vocabulary(("a", "b")), 2, 5e-324, {
        "contexts": ["<s>", "a"], "events_per_context": [2, 1],
        "event_tokens": ["a", "b", "</s>"], "event_counts": [2**40, 3, 7],
    })
    # "a" is stored with no events, "b" and "c" are unseen.
    eventless = NGramModel(Vocabulary(("a", "b", "c")), 2, 0.5, {
        "contexts": ["<s>", "a"], "events_per_context": [2, 0],
        "event_tokens": ["a", "</s>"], "event_counts": [3, 1],
    })
    assert eventless._events((eventless.vocabulary.id_of("a"),)) == slice(2, 2)
    models = [sparse_ngram_model(np.random.default_rng(seed), order, n_tokens)
              for seed in range(6) for order in (1, 2, 3) for n_tokens in (2, 4)]
    models += [train_ngram([line.split() for line in ("a b c", "b c", "c a b d", "", "d d a")],
                           3, 0.5), huge, eventless, underflow]
    forbidden = 0
    for model in models:
        vocab = model.vocabulary
        contexts = list(itertools.product(range(vocab.bos_id + 1), repeat=model.order - 1))
        with np.errstate(divide="ignore"):  # log(0) of an underflowed entry
            for block in (contexts, contexts[::-1], contexts[1::2]):
                if len(block) < 2:
                    continue
                rows = model._state_rows(block)
                for ctx, row, terms in zip(block, rows, _terms_of_block(rows)):
                    alone = model._state_row(ctx)
                    assert row.tobytes() == alone.tobytes()
                    single = _terms_of_row(alone)
                    assert list(terms.ids) == list(single.ids)
                    assert terms.step_min == single.step_min
                    assert np.ascontiguousarray(terms.u).tobytes() == single.u.tobytes()
                    assert terms.end == single.end
                    forbidden += len(single.ids) < len(alone)
    assert forbidden  # the underflowed rows' blocks held forbidden entries
