import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regdecode import (
    ContractError,
    MAP_OBJECTIVE,
    NoHypothesisError,
    Objective,
    RegularizerKind,
    SearchConfig,
    SearchSpaceError,
    TableModel,
    Vocabulary,
    beam_search,
    brute_force,
    brute_force_set,
    exact_search,
    greedy_search,
    parse_objective,
    train_ngram,
)
import regdecode.search
from regdecode.objectives import StepTerms, completion_bounds, score_parts
from regdecode.randmodels import (
    exactness_instance,
    random_table_model,
    set_limit_instance,
    tie_free_instance,
)
from regdecode.search import enumerate_complete


def chain_model():
    """Probability-one chain: a then the end marker."""
    v = Vocabulary(("a",))
    return TableModel(
        v,
        {"<s>": {"a": 1.0, "</s>": 0.0}, "<s> a": {"a": 0.0, "</s>": 1.0}},
        {"a": 0.5, "</s>": 0.5},
    )


def test_search_config_validation():
    with pytest.raises(ContractError):
        SearchConfig(beam_width=0)
    with pytest.raises(ContractError):
        SearchConfig(n_max=0)


def test_greedy_emits_deterministic_chain():
    rec = greedy_search(chain_model(), None, SearchConfig(n_max=5))
    assert rec.best.tokens == ("<s>", "a", "</s>")
    assert rec.best.log_prob == 0.0
    assert rec.best.complete


def test_greedy_tie_break_lowest_index():
    v = Vocabulary(("a", "b"))
    m = TableModel(v, {"<s>": {"a": 0.4, "b": 0.4, "</s>": 0.2}},
                   {"a": 0.05, "b": 0.05, "</s>": 0.9})
    rec = greedy_search(m, None, SearchConfig(n_max=4))
    assert rec.best.tokens[1] == "a"


def test_greedy_without_termination_raises():
    v = Vocabulary(("a",))
    m = TableModel(v, {}, {"a": 0.9, "</s>": 0.1})
    with pytest.raises(NoHypothesisError):
        greedy_search(m, None, SearchConfig(n_max=3))


def test_beam_k1_equals_greedy_on_random_models():
    rng = np.random.default_rng(42)
    for _ in range(100):
        model = random_table_model(rng, int(rng.integers(1, 6)))
        config = SearchConfig(beam_width=1, n_max=6)
        g = greedy_search(model, None, config)
        b = beam_search(model, None, MAP_OBJECTIVE, config)
        assert g.best.token_ids == b.best.token_ids


def test_huge_beam_contains_map_optimum(m1):
    n_max = 3
    k = m1.vocabulary.dist_size**n_max
    beam = beam_search(m1, None, MAP_OBJECTIVE, SearchConfig(beam_width=k, n_max=n_max))
    oracle = brute_force(m1, None, MAP_OBJECTIVE, n_max)
    assert oracle.best.token_ids in {h.token_ids for h in beam.beam_set}
    assert beam.best.token_ids == oracle.best.token_ids


def test_wider_beam_recovers_longer_hypothesis(m2):
    """End-marker mass is the single best first step, so width one ends
    immediately; the two-token continuation is the best hypothesis under a
    length reward but only a width-two beam ever sees it."""
    reward = parse_objective("len=reward:0.5")
    k1 = beam_search(m2, None, reward, SearchConfig(beam_width=1, n_max=6))
    assert k1.best.tokens == ("<s>", "</s>")
    k2 = beam_search(m2, None, reward, SearchConfig(beam_width=2, n_max=6))
    assert k2.best.tokens == ("<s>", "a", "b", "</s>")
    # Hand-enumerated: log p = ln(.35 * .9 * .95), reward 0.5 per step.
    expected_lp = math.log(0.35) + math.log(0.9) + math.log(0.95)
    assert k2.best.log_prob == pytest.approx(expected_lp, abs=1e-12)
    assert k2.best.score == pytest.approx(expected_lp + 0.5 * 3, abs=1e-12)
    # Under the plain objective the width-two beam still finds it, ranked second.
    plain = beam_search(m2, None, MAP_OBJECTIVE, SearchConfig(beam_width=2, n_max=6))
    assert plain.best.tokens == ("<s>", "</s>")
    assert [h.tokens for h in plain.beam_set] == [
        ("<s>", "</s>"), ("<s>", "a", "b", "</s>")
    ]


def reference_beam(model, objective, k, n_max):
    """Beam search by its definition: score every candidate with the spec,
    sort all of them by the shared order, keep k. Returns the ids of the
    finished survivors in that order."""
    eos = model.vocabulary.eos_id
    beams = [((model.vocabulary.bos_id,), (), (), 0.0, None)]
    for _ in range(n_max):
        if all(b[0][-1] == eos for b in beams):
            break
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
    return [b[0] for b in beams if b[0][-1] == eos]


def test_beam_keeps_every_tie_on_the_kth_total():
    """Three first steps tie on the second-best total; width two keeps the
    two with the smallest ids, as the full sort would."""
    v = Vocabulary(("a", "b", "c", "d"))
    m = TableModel(v, {"<s>": {"a": 0.1, "b": 0.3, "c": 0.3, "d": 0.3}}, {"</s>": 1.0})
    rec = beam_search(m, None, MAP_OBJECTIVE, SearchConfig(beam_width=2, n_max=3))
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
                config = SearchConfig(beam_width=k, n_max=4)
                expected = reference_beam(model, objective, k, 4)
                if not expected:
                    with pytest.raises(NoHypothesisError):
                        beam_search(model, None, objective, config)
                    continue
                rec = beam_search(model, None, objective, config)
                assert [h.token_ids for h in rec.beam_set] == expected


def test_beam_set_ordered_by_final_score(m1):
    rec = beam_search(m1, None, MAP_OBJECTIVE, SearchConfig(beam_width=3, n_max=5))
    scores = [h.sort_key() for h in rec.beam_set]
    assert scores == sorted(scores)
    assert rec.best is rec.beam_set[0]


def test_exact_matches_brute_on_m1(m1):
    config = SearchConfig(n_max=5)
    e = exact_search(m1, None, MAP_OBJECTIVE, config)
    b = brute_force(m1, None, MAP_OBJECTIVE, 5)
    assert e.best.token_ids == b.best.token_ids == (3, 0, 1, 2)
    assert e.best.score == b.best.score
    assert e.optimality_certificate and b.optimality_certificate


def test_exact_returns_empty_string_on_degenerate_optimum(m3):
    for source in ("s1", "s2", "s3"):
        e = exact_search(m3, source, MAP_OBJECTIVE, SearchConfig(n_max=6))
        b = brute_force(m3, source, MAP_OBJECTIVE, 6)
        assert e.best.surface == () and b.best.surface == ()


def test_exact_greedy_limit_equals_greedy():
    objective = Objective(((RegularizerKind.GREEDY, 1e6),))
    for seed in range(20):
        model, n_max = tie_free_instance(seed)
        config = SearchConfig(n_max=n_max)
        e = exact_search(model, None, objective, config)
        g = greedy_search(model, None, config)
        assert e.best.token_ids == g.best.token_ids


def test_exact_agrees_with_brute_across_objectives():
    kinds = [None] + list(RegularizerKind)
    for seed in range(25):
        model, n_max = exactness_instance(seed)
        config = SearchConfig(n_max=n_max)
        for kind in kinds:
            objective = MAP_OBJECTIVE if kind is None else Objective(((kind, 2.0),))
            e = exact_search(model, None, objective, config)
            b = brute_force(model, None, objective, n_max)
            assert e.best.score == b.best.score
            assert e.best.token_ids == b.best.token_ids


def test_exact_agrees_with_brute_under_length_modes(m1, m4):
    for model in (m1, m4):
        for spec in ("len=norm", "len=reward:0.3", "variance=2,len=norm"):
            objective = parse_objective(spec)
            e = exact_search(model, None, objective, SearchConfig(n_max=5))
            b = brute_force(model, None, objective, 5)
            assert e.best.score == b.best.score
            assert e.best.token_ids == b.best.token_ids


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
                terms = StepTerms(dist)
                j = terms.ids.index(ids[t])
                for objective, total in zip(objectives, totals):
                    bounds, _ = completion_bounds(objective, steps, mins, run, terms.children,
                                                  n_max, model.best_step)
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
        e = exact_search(model, None, reward, SearchConfig(n_max=5))
        assert e.nodes_expanded == sum(n_tokens**depth for depth in range(5))
        for spec in ("", "len=reward:3", "len=reward:0.5", "len=norm", "greedy=1,len=reward:2",
                     "local=1,len=reward:2", "square=0.1,len=norm", "variance=1"):
            objective = parse_objective(spec)
            for n_max in (1, 3, 5):
                e = exact_search(model, None, objective, SearchConfig(n_max=n_max))
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
        e = exact_search(model, None, objective, SearchConfig(n_max=n_max))
        b = brute_force(model, None, objective, n_max)
        assert e.best.score == b.best.score
        assert e.best.token_ids == b.best.token_ids
        assert e.nodes_expanded <= most < full_tree


def test_exact_agenda_guard(m1, monkeypatch):
    objective = parse_objective("len=reward:3")
    exact_search(m1, None, objective, SearchConfig(n_max=6))
    monkeypatch.setattr(regdecode.search, "EXACT_AGENDA_GUARD", 5)
    with pytest.raises(SearchSpaceError, match="guard of 5 open prefixes"):
        exact_search(m1, None, objective, SearchConfig(n_max=6))


def test_exact_no_hypothesis_error():
    v = Vocabulary(("a",))
    m = TableModel(v, {}, {"a": 1.0, "</s>": 0.0})
    with pytest.raises(NoHypothesisError):
        exact_search(m, None, MAP_OBJECTIVE, SearchConfig(n_max=4))
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


def test_brute_force_set_guards(m1):
    with pytest.raises(SearchSpaceError):
        brute_force_set(m1, None, 4, 0.0, 3)
    with pytest.raises(SearchSpaceError):
        brute_force_set(m1, None, 2, 0.0, 6)


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
        beam = beam_search(m1, None, MAP_OBJECTIVE, SearchConfig(beam_width=k, n_max=n_max))
        from regdecode.objectives import r_beam_ids

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
    beam = beam_search(model, None, MAP_OBJECTIVE, SearchConfig(beam_width=k, n_max=n_max))
    beam_ids = sorted(h.token_ids for h in beam.beam_set)
    limit = brute_force_set(model, None, k, math.inf, n_max)
    assert sorted(h.token_ids for h in limit) == beam_ids
    finite = brute_force_set(model, None, k, 1e6, n_max)
    assert sorted(h.token_ids for h in finite) != beam_ids


def test_brute_force_set_k1_limit_equals_greedy(m1, m2):
    for model in (m1, m2):
        chosen = brute_force_set(model, None, 1, 1e6, 4)
        g = greedy_search(model, None, SearchConfig(n_max=4))
        assert chosen[0].token_ids == g.best.token_ids


def test_monotone_exact_is_dijkstra_cheap(m1):
    objective = Objective(((RegularizerKind.SQUARE, 2.0),))
    e = exact_search(m1, None, objective, SearchConfig(n_max=5))
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
            e = exact_search(model, None, objective, SearchConfig(n_max=n_max))
            b = brute_force(model, None, objective, n_max)
            assert e.best.score == b.best.score
            assert e.best.token_ids == b.best.token_ids


def test_hypothesis_logprob_matches_trace():
    rng = np.random.default_rng(31)
    for _ in range(30):
        model = random_table_model(rng, int(rng.integers(1, 5)))
        for record in (
            greedy_search(model, None, SearchConfig(n_max=6)),
            exact_search(model, None, MAP_OBJECTIVE, SearchConfig(n_max=6)),
        ):
            hyp = record.best
            assert hyp.log_prob == pytest.approx(-sum(hyp.trace), abs=1e-9)
            assert hyp.complete == (hyp.tokens[-1] == model.vocabulary.eos)


def test_decode_records_are_deterministic(m1):
    a = exact_search(m1, None, MAP_OBJECTIVE, SearchConfig(n_max=5))
    b = exact_search(m1, None, MAP_OBJECTIVE, SearchConfig(n_max=5))
    assert a.best == b.best
    assert a.nodes_expanded == b.nodes_expanded
    g1 = beam_search(m1, None, MAP_OBJECTIVE, SearchConfig(beam_width=3, n_max=5))
    g2 = beam_search(m1, None, MAP_OBJECTIVE, SearchConfig(beam_width=3, n_max=5))
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
    e = exact_search(model, None, objective, SearchConfig(n_max=n_max))
    b = brute_force(model, None, objective, n_max)
    assert e.best.score == b.best.score
    assert e.best.token_ids == b.best.token_ids
