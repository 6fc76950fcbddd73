import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regdecode import (
    ContractError,
    MAP_OBJECTIVE,
    corpus_bleu,
    exact_search,
    pearson,
    summarize_run,
)

from .reference_bleu import compute_bleu

sentences = st.lists(
    st.lists(st.sampled_from("the cat sat on a mat dog ran".split()), min_size=0, max_size=8),
    min_size=1,
    max_size=6,
)


def test_identity_corpus_is_exactly_100():
    corpus = [["the", "cat", "sat"], ["a", "dog"], ["on"]]
    assert corpus_bleu(corpus, corpus).corpus_bleu == 100.0


def test_hand_computed_short_hypothesis():
    report = corpus_bleu([["the", "cat"]], [["the", "cat", "sat"]])
    assert report.precisions[0] == 1.0
    assert report.precisions[1] == 1.0
    assert report.brevity_penalty == pytest.approx(math.exp(1 - 3 / 2))
    assert report.corpus_bleu == pytest.approx(100.0 * math.exp(-0.5), abs=1e-6)


def test_all_empty_hypotheses_score_zero():
    assert corpus_bleu([[], []], [["a"], ["b", "c"]]).corpus_bleu == 0.0


def test_empty_hypothesis_contributes_nothing():
    hyps = [["a", "b"], []]
    refs = [["a", "b"], ["c", "d"]]
    report = corpus_bleu(hyps, refs)
    assert report.hyp_length == 2
    only = corpus_bleu([["a", "b"]], [["a", "b"]])
    assert report.precisions[0] == only.precisions[0]


def test_clipping_counts_each_reference_ngram_once():
    report = corpus_bleu([["a", "a", "a"]], [["a", "b"]])
    assert report.precisions[0] == pytest.approx(1 / 3)


def test_mismatched_lengths_rejected():
    with pytest.raises(ContractError):
        corpus_bleu([["a"]], [["a"], ["b"]])
    with pytest.raises(ContractError):
        corpus_bleu([], [])


@settings(deadline=None)
@given(sentences)
def test_bleu_reorder_invariance(corpus):
    refs = [list(s) + ["mat"] for s in corpus]
    forward = corpus_bleu(corpus, refs).corpus_bleu
    backward = corpus_bleu(corpus[::-1], refs[::-1]).corpus_bleu
    assert forward == pytest.approx(backward, abs=1e-9)


@settings(deadline=None)
@given(sentences)
def test_bleu_self_identity(corpus):
    nonempty = [s if s else ["pad"] for s in corpus]
    assert corpus_bleu(nonempty, nonempty).corpus_bleu == 100.0


def test_matches_reference_scorer_on_twenty_sentences():
    """Cross-check against an independent implementation on a corpus with
    no zero precisions, where smoothing conventions cannot diverge."""
    base = "the quick brown fox jumps over the lazy dog while rain falls on".split()
    hyps = []
    refs = []
    for i in range(20):
        ref = base[i % 4 : i % 4 + 8]
        hyp = list(ref)
        if i % 3 == 0:
            hyp = hyp[:-1] + ["cat"]
        if i % 5 == 0:
            hyp = hyp[:7]
        hyps.append(hyp)
        refs.append(ref)
    ours = corpus_bleu(hyps, refs)
    assert all(p > 0 for p in ours.precisions)
    theirs = 100.0 * compute_bleu([[r] for r in refs], hyps)
    assert ours.corpus_bleu == pytest.approx(theirs, abs=0.1)


def test_added_identical_pair_does_not_decrease_bleu():
    hyps = [["a", "b", "c", "d"]]
    refs = [["a", "b", "x", "d"]]
    before = corpus_bleu(hyps, refs).corpus_bleu
    after = corpus_bleu(hyps + [["e", "f", "g", "h"]], refs + [["e", "f", "g", "h"]]).corpus_bleu
    assert after >= before - 1e-9


# --- sweep aggregation


def test_single_sentence_aggregation_identity(m1):
    rec = exact_search(m1, None, MAP_OBJECTIVE, 5)
    row = summarize_run(0.0, 1, [rec], [list(rec.best.surface)])
    assert row.bleu == 100.0
    assert row.empty_rate == 0.0
    assert row.mean_len == len(rec.best.surface)
    from regdecode import stats

    assert row.mean_sigma == pytest.approx(stats(rec.best.trace).std_dev)


def test_empty_rate_on_degenerate_fixture(m3):
    sources = ["s1", "s2", "s3"]
    recs = [exact_search(m3, s, MAP_OBJECTIVE, 6) for s in sources]
    row = summarize_run(0.0, 1, recs, [["a", "b"]] * 3)
    assert row.empty_rate == 1.0
    assert row.mean_len == 0.0


def test_summarize_run_alignment_check(m1):
    rec = exact_search(m1, None, MAP_OBJECTIVE, 5)
    with pytest.raises(ContractError):
        summarize_run(0.0, 1, [rec], [["a"], ["b"]])


def test_sigma_non_increasing_on_shaped_fixture(m4):
    """The greedy path of this fixture has the flattest surprisal profile,
    so stronger regularization can only lower the per-sentence deviation."""
    from regdecode import Objective, RegularizerKind, brute_force, stats

    sigmas = []
    for lam in (0.0, 10.0, 100.0, 1e6):
        objective = (
            MAP_OBJECTIVE if lam == 0.0 else Objective(((RegularizerKind.GREEDY, lam),))
        )
        rec = brute_force(m4, None, objective, 6)
        sigmas.append(stats(rec.best.trace).std_dev)
    assert all(a >= b - 1e-12 for a, b in zip(sigmas, sigmas[1:]))
    assert sigmas[0] > sigmas[-1]


# --- correlation


def test_pearson_perfect_correlation():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert pearson(xs, xs) == pytest.approx(1.0)
    assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)


def test_pearson_hand_computed_five_points():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    ys = [2.0, 1.0, 4.0, 3.0, 5.0]
    # Deviations (-2,-1,0,1,2) and (-1,-2,1,0,2): cov 8, variances 10 and 10.
    assert pearson(xs, ys) == pytest.approx(8.0 / 10.0)


def test_pearson_degenerate_errors():
    with pytest.raises(ContractError):
        pearson([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(ContractError):
        pearson([1.0], [1.0])
    with pytest.raises(ContractError):
        pearson([1.0, 2.0], [1.0])
