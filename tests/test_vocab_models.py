import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regdecode import (
    ContractError,
    ModelFormatError,
    TableModel,
    Vocabulary,
    VocabularyError,
    load_model,
    load_table_model,
    save_ngram_model,
    save_table_model,
    train_ngram,
)
import regdecode.models
from regdecode.randmodels import random_table_model


def test_vocabulary_layout():
    v = Vocabulary(("x", "y", "z"))
    assert v.dist_size == 4
    assert v.eos_id == 3
    assert v.bos_id == 4
    assert v.id_of("y") == 1
    assert v.token_of(v.eos_id) == "</s>"
    assert v.decode(v.encode(["<s>", "x", "</s>"])) == ("<s>", "x", "</s>")


def test_vocabulary_rejects_markers_and_duplicates():
    with pytest.raises(ContractError):
        Vocabulary(("a", "a"))
    with pytest.raises(ContractError):
        Vocabulary(("a", "<s>"))
    with pytest.raises(ContractError):
        Vocabulary(("a",), bos="#", eos="#")
    with pytest.raises(VocabularyError):
        Vocabulary(("a",)).id_of("q")


def two_point_model():
    v = Vocabulary(("a",))
    return TableModel(v, {"<s>": {"a": 0.5, "</s>": 0.5}}, {"a": 0.5, "</s>": 0.5})


def test_two_point_uniform():
    m = two_point_model()
    dist = m.next_log_probs(None, ["<s>"])
    assert dist == pytest.approx([math.log(0.5), math.log(0.5)])


def test_eos_absorption():
    m = two_point_model()
    dist = m.next_log_probs(None, ["<s>", "a", "</s>"])
    assert dist[m.vocabulary.eos_id] == 0.0
    assert dist[0] == -math.inf


def test_prefix_contract_errors():
    m = two_point_model()
    with pytest.raises(ContractError):
        m.next_log_probs(None, ["a"])
    with pytest.raises(ContractError):
        m.next_log_probs(None, ["<s>", "</s>", "a"])
    with pytest.raises(ContractError):
        m.next_log_probs(None, ["<s>", "a", "<s>"])
    with pytest.raises(VocabularyError):
        m.next_log_probs(None, ["<s>", "unknown"])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=5))
def test_next_log_probs_normalized(seed, n_tokens):
    model = random_table_model(np.random.default_rng(seed), n_tokens)
    vocab = model.vocabulary
    prefixes = [
        [vocab.bos],
        [vocab.bos, vocab.tokens[0]],
        [vocab.bos] + [vocab.tokens[0]] * 3,
    ]
    for prefix in prefixes:
        dist = model.next_log_probs(None, prefix)
        assert abs(np.exp(dist).sum() - 1.0) < 1e-9


def test_extension_never_raises_log_prob():
    model = two_point_model()
    lp_short = model.next_log_probs(None, ["<s>"])[0]
    lp_long = lp_short + model.next_log_probs(None, ["<s>", "a"])[0]
    assert lp_long <= lp_short


# --- n-gram training


def test_ngram_hand_count_order2():
    model = train_ngram([["a", "b"]], order=2, add_k=1.0)
    assert model.conditional_prob(["a"], "b") == pytest.approx((1 + 1) / (1 + 3))
    dist = model.next_log_probs(None, ["<s>", "a"])
    assert math.exp(dist[model.vocabulary.id_of("b")]) == pytest.approx(0.5)


def test_ngram_hand_count_order1():
    model = train_ngram([["a"]], order=1, add_k=1.0)
    # Two events observed (a, then the end marker) over a two-symbol space.
    assert model.conditional_prob([], "a") == pytest.approx(0.5)


def test_ngram_empty_line_trains_eos_event():
    model = train_ngram([[]], order=2, add_k=0.5)
    p = model.conditional_prob(["<s>"], "</s>")
    assert p == pytest.approx((1 + 0.5) / (1 + 0.5 * 1))


def test_ngram_majority_argmax():
    model = train_ngram([["a", "a", "a"]], order=1, add_k=1.0)
    dist = model.next_log_probs(None, ["<s>", "a"])
    assert int(np.argmax(dist)) == model.vocabulary.id_of("a")


def test_ngram_unseen_context_is_uniform():
    model = train_ngram([["a", "b"]], order=3, add_k=1.0)
    # Context (a, a) never occurs, so smoothing alone decides: 1/3 each.
    for tok in ("a", "b", "</s>"):
        assert model.conditional_prob(["a", "a"], tok) == pytest.approx(1 / 3)


def test_extension_monotone_log_prob_property():
    rng = np.random.default_rng(8)
    for _ in range(20):
        model = random_table_model(rng, int(rng.integers(1, 5)))
        vocab = model.vocabulary
        prefix = [vocab.bos]
        log_prob = 0.0
        for _ in range(5):
            dist = model.next_log_probs(None, prefix)
            tid = int(rng.integers(len(vocab.tokens)))
            extended = log_prob + float(dist[tid])
            assert extended <= log_prob
            log_prob = extended
            prefix.append(vocab.tokens[tid])


def test_ngram_normalization_property():
    model = train_ngram([["a", "b", "a"], ["b"]], order=3, add_k=0.1)
    for prefix in (["<s>"], ["<s>", "a"], ["<s>", "b", "a"]):
        dist = model.next_log_probs(None, prefix)
        assert abs(np.exp(dist).sum() - 1.0) < 1e-9


def test_ngram_rejects_bad_parameters():
    with pytest.raises(ContractError):
        train_ngram([], order=1, add_k=1.0)
    with pytest.raises(ContractError):
        train_ngram([["a"]], order=0, add_k=1.0)
    with pytest.raises(ContractError):
        train_ngram([["a"]], order=1, add_k=0.0)


# --- table model files


def test_load_model_parses_an_ngram_file_once(tmp_path, monkeypatch):
    path = tmp_path / "lm.json"
    save_ngram_model(train_ngram([["a", "b"], ["b", "a"]], order=2, add_k=1.0), path)
    real_loads = json.loads
    calls = []

    def counting_loads(*args, **kwargs):
        calls.append(args)
        return real_loads(*args, **kwargs)

    monkeypatch.setattr(regdecode.models.json, "loads", counting_loads)
    assert load_model(path).order == 2
    assert len(calls) == 1


def test_table_round_trip(tmp_path, m1):
    out = tmp_path / "copy.json"
    save_table_model(m1, out)
    again = load_table_model(out)
    assert again.to_spec() == m1.to_spec()
    prefix = ["<s>", "a"]
    assert np.allclose(again.next_log_probs(None, prefix), m1.next_log_probs(None, prefix))


def test_source_keyed_table_round_trip(tmp_path, m3):
    out = tmp_path / "copy.json"
    save_table_model(m3, out)
    again = load_table_model(out)
    assert again.to_spec() == m3.to_spec()
    assert again.source_keyed
    # Known sources hit their own tables; unknown sources fall to the default.
    assert np.allclose(again.next_log_probs("s2", ["<s>"]), m3.next_log_probs("s2", ["<s>"]))
    assert np.allclose(
        again.next_log_probs("mystery", ["<s>"]), again.next_log_probs("other", ["<s>"])
    )


def test_table_rejects_bad_sum(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "vocab": ["a"],
        "entries": {},
        "default": {"a": 0.5, "</s>": 0.4},
    }))
    with pytest.raises(ModelFormatError):
        load_table_model(path)


def test_table_rejects_negative_probability(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "vocab": ["a"],
        "entries": {},
        "default": {"a": 1.5, "</s>": -0.5},
    }))
    with pytest.raises(ModelFormatError):
        load_table_model(path)


def test_table_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_table_model(path)


def test_table_rejects_unknown_token(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "vocab": ["a"],
        "entries": {"<s>": {"a": 0.5, "q": 0.5}},
        "default": {"a": 0.5, "</s>": 0.5},
    }))
    with pytest.raises(ModelFormatError):
        load_table_model(path)


def test_table_renormalizes_within_tolerance(tmp_path, caplog):
    path = tmp_path / "near.json"
    path.write_text(json.dumps({
        "vocab": ["a"],
        "entries": {},
        "default": {"a": 0.5, "</s>": 0.5 + 2e-7},
    }))
    with caplog.at_level(logging.WARNING):
        model = load_table_model(path)
    assert any("renormalizing" in r.message for r in caplog.records)
    dist = model.next_log_probs(None, ["<s>"])
    assert abs(np.exp(dist).sum() - 1.0) < 1e-12


def test_default_only_model_is_total():
    v = Vocabulary(("a",))
    m = TableModel(v, {}, {"a": 0.25, "</s>": 0.75})
    for prefix in (["<s>"], ["<s>", "a"], ["<s>", "a", "a"]):
        assert math.exp(m.next_log_probs(None, prefix)[v.eos_id]) == pytest.approx(0.75)
