import itertools
import json
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regdecode import (
    MAP_OBJECTIVE,
    ContractError,
    ModelFormatError,
    NGramModel,
    TableModel,
    Vocabulary,
    VocabularyError,
    beam_search,
    load_model,
    save_model,
    train_ngram,
)
import regdecode.models
from regdecode.randmodels import _top_gap, random_distribution, random_table_model

from .conftest import FIXTURES

COLUMNS = ("contexts", "events_per_context", "event_tokens", "event_counts")


def test_vocabulary_layout():
    v = Vocabulary(("x", "y", "z"))
    assert v.dist_size == 4
    assert v.eos_id == 3
    assert v.bos_id == 4
    assert v.id_of("y") == 1
    assert v.token_of(v.eos_id) == "</s>"
    assert v.decode(v.encode(["<s>", "x", "</s>"])) == ("<s>", "x", "</s>")
    assert v._names == ("x", "y", "z", "</s>", "<s>")  # every name, in id order
    assert [v.token_of(i) for i in range(5)] == list(v._names)
    for bad in (-1, -5, -6, 5, 10):
        with pytest.raises(VocabularyError, match="out of range"):
            v.token_of(bad)


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
    dist = model.next_log_probs(None, ["<s>", "a"])
    assert math.exp(dist[model.vocabulary.id_of("b")]) == pytest.approx((1 + 1) / (1 + 3))


def test_ngram_hand_count_order1():
    model = train_ngram([["a"]], order=1, add_k=1.0)
    # Two events observed (a, then the end marker) over a two-symbol space.
    dist = model.next_log_probs(None, ["<s>"])
    assert math.exp(dist[model.vocabulary.id_of("a")]) == pytest.approx(0.5)


def test_ngram_empty_line_trains_eos_event():
    model = train_ngram([[]], order=2, add_k=0.5)
    dist = model.next_log_probs(None, ["<s>"])
    assert math.exp(dist[model.vocabulary.eos_id]) == pytest.approx((1 + 0.5) / (1 + 0.5 * 1))


def test_ngram_majority_argmax():
    model = train_ngram([["a", "a", "a"]], order=1, add_k=1.0)
    dist = model.next_log_probs(None, ["<s>", "a"])
    assert int(np.argmax(dist)) == model.vocabulary.id_of("a")


def test_ngram_unseen_context_is_uniform():
    model = train_ngram([["a", "b"]], order=3, add_k=1.0)
    # Context (a, a) never occurs, so smoothing alone decides: 1/3 each.
    dist = model.next_log_probs(None, ["<s>", "a", "a"])
    assert np.exp(dist) == pytest.approx([1 / 3] * 3)


def _top_entry(model, sources=("",), depth=3) -> float:
    """The largest entry of the rows of every prefix of fewer than ``depth``
    tokens after the begin marker, under each source."""
    vocab = model.vocabulary
    rows = [
        model.next_log_probs_ids(source, (vocab.bos_id, *body))
        for source in sources
        for length in range(depth)
        for body in itertools.product(range(len(vocab.tokens)), repeat=length)
    ]
    return max(float(row.max()) for row in rows)


def _assert_bounds_ngram_rows(model) -> None:
    """``best_step`` is the largest entry of the model's rows, raised by at
    most one ulp."""
    top = _top_entry(model)
    assert top <= model.best_step <= math.nextafter(top, math.inf)


def test_best_step_is_the_largest_entry_of_a_source_keyed_table(m3):
    assert m3.best_step == _top_entry(m3, ("s1", "s2", "s3", "unseen"), 4)


def test_table_models_set_best_step_and_ngram_models_compute_it_on_read(tmp_path, monkeypatch):
    """A table model's constructor sets ``best_step``: it is in the instance
    dict of a table model fresh from ``load_model`` or ``TableModel``,
    before any row is looked up. An n-gram model, from ``train_ngram`` or
    ``load_model``, computes it on first read, so a beam-only decode never
    does."""
    table = load_model(FIXTURES / "m3.json")
    assert "best_step" in vars(table)
    assert table.best_step == _top_entry(table, ("s1", "s2", "s3", "unseen"), 4)
    built = TableModel(Vocabulary(("a", "b")), {"<s>": {"a": 0.25, "</s>": 0.75}},
                       {"a": 0.5, "b": 0.5})
    assert "best_step" in vars(built)
    assert built.best_step == _top_entry(built) == math.log(0.75)
    trained = train_ngram(_seeded_corpus(2), 2, 0.3)
    save_model(trained, tmp_path / "lm.json")
    monkeypatch.setattr(regdecode.models, "_last_ngram_file", None)  # a cold load
    loaded = load_model(tmp_path / "lm.json")
    for model in (trained, loaded):
        assert "best_step" not in vars(model)
        beam_search(model, None, MAP_OBJECTIVE, 3, 6)
        assert "best_step" not in vars(model)
        _assert_bounds_ngram_rows(model)
        assert "best_step" in vars(model)


def test_best_step_bounds_every_ngram_row():
    rng = np.random.default_rng(4)
    tokens = ["a", "b", "c", "d"]
    models = [
        train_ngram([[tokens[i] for i in rng.integers(0, 4, rng.integers(0, 6))]
                     for _ in range(30)], order, add_k)
        for order in (1, 2, 3) for add_k in (0.1, 1 / 3, 0.5, 2.0)
    ]
    # A stored context without events, as a model file may hold, no counts at
    # all, and counts whose sum does not fit in an int64.
    vocab = Vocabulary(("a", "b"))
    for contexts, sizes, tokens, counts in [
        (["<s>", "a"], [0, 2], ["a", "</s>"], [3, 1]),
        ([], [], [], []),
        (["<s>"], [3], ["a", "b", "</s>"], [2**62, 2**62, 1]),
    ]:
        models.append(NGramModel(vocab, 2, 0.5, _columns(contexts, sizes, tokens, counts)))
    unseen = 0
    for model in models:
        _assert_bounds_ngram_rows(model)
        vocab = model.vocabulary
        prefixes = [
            (vocab.bos_id, *body)
            for depth in range(3)
            for body in itertools.product(range(len(vocab.tokens)), repeat=depth)
        ]
        stored = set(_count_map(model.to_spec()))
        unseen += sum(" ".join(vocab.decode(model.state("", p))) not in stored for p in prefixes)
    assert unseen > 1  # rows of contexts never counted are among those checked


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


@pytest.mark.parametrize("eos_floor", [0.0, 0.3])
def test_random_distribution_falls_back_to_widening_the_lead(eos_floor):
    """No draw reaches a gap of 50 nats, so the fallback widens the lead of
    the argmax."""
    p = random_distribution(np.random.default_rng(0), 5, 4, eos_floor, min_gap=50.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert (p > 0).all()
    assert _top_gap(p) >= 50.0


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
        train_ngram([["a"]], order=-3, add_k=1.0)
    with pytest.raises(ContractError):
        train_ngram([["a"]], order=1, add_k=0.0)
    for add_k in (math.inf, math.nan):
        with pytest.raises(ContractError):
            train_ngram([["a"]], order=1, add_k=add_k)
    # No float holds it, and its repr has more digits than int's string
    # conversion allows.
    with pytest.raises(ContractError, match="add_k must be a finite number > 0, got an int too"):
        train_ngram([["a"]], order=1, add_k=10**5000)
    vocab = Vocabulary(("a",))
    for context in ("", "<s>", "<s> <s> <s>"):
        with pytest.raises(ContractError, match="an order-3 context holds 2"):
            NGramModel(vocab, 3, 0.5, _columns([context], [1], ["a"], [1]))
    with pytest.raises(VocabularyError, match="unknown token 'zz'"):
        NGramModel(vocab, 2, 0.5, _columns(["zz"], [1], ["a"], [1]))


WRONG_TYPE_PARAMETERS = [
    # A float order built and failed on the first lookup (slice indices), a
    # boolean one named "an order-True context", and a non-number add_k
    # ended in a bare TypeError from math.isfinite.
    pytest.param(2.0, 0.5, "order must be an integer >= 1, got 2.0", id="float-order"),
    pytest.param(True, 0.5, "order must be an integer >= 1, got True", id="boolean-order"),
    pytest.param("2", 0.5, "order must be an integer >= 1, got '2'", id="string-order"),
    pytest.param(2, "0.5", "add_k must be a finite number > 0, got '0.5'", id="string-add-k"),
    pytest.param(2, None, "add_k must be a finite number > 0, got None", id="none-add-k"),
    pytest.param(2, True, "add_k must be a finite number > 0, got True", id="boolean-add-k"),
    pytest.param(2.0, None, "order must be an integer >= 1, got 2.0", id="order-named-first"),
    pytest.param(2, [1], "add_k must be a finite number > 0, got [1]", id="list-add-k"),
]


@pytest.mark.parametrize("order, add_k, fault", WRONG_TYPE_PARAMETERS)
def test_ngram_rejects_parameters_of_the_wrong_type(order, add_k, fault):
    # The type checks run first: these columns would fail their own check.
    columns = _columns(["zz"], [1], ["a"], [-1])
    with pytest.raises(ContractError, match=re.escape(fault)):
        NGramModel(Vocabulary(("a",)), order, add_k, columns)


@pytest.mark.parametrize("order, add_k, fault", WRONG_TYPE_PARAMETERS)
def test_train_ngram_rejects_parameters_of_the_wrong_type(order, add_k, fault):
    # Checked before the corpus is counted: a float or string order ended in
    # a bare TypeError from the padding, which does arithmetic on it.
    with pytest.raises(ContractError, match=re.escape(fault)):
        train_ngram([["a", "b"], []], order, add_k)


def _columns(contexts: list, sizes: list, tokens: list, counts: list) -> dict[str, list]:
    """The four count columns of an n-gram model file."""
    return {"contexts": contexts, "events_per_context": sizes, "event_tokens": tokens,
            "event_counts": counts}


def _count_map(spec: dict) -> dict[str, dict[str, int]]:
    """An n-gram spec's count columns as the mapping {context: {token: count}}."""
    events = iter(zip(spec["event_tokens"], spec["event_counts"]))
    return {
        ctx: dict(itertools.islice(events, n))
        for ctx, n in zip(spec["contexts"], spec["events_per_context"])
    }


def _seeded_corpus(seed: int) -> list[list[str]]:
    rng = np.random.default_rng(seed)
    tokens = ["a", "b", "c", "d", "e"]
    return [[tokens[i] for i in rng.integers(0, 5, rng.integers(0, 7))] for _ in range(40)]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_loaded_ngram_equals_trained(tmp_path, order):
    """A model loaded from a file, and one built from the four columns of
    ``to_spec()``, equal the trained model row for row and save the same
    bytes."""
    trained = train_ngram(_seeded_corpus(order), order, 0.3)
    path, again = tmp_path / "lm.json", tmp_path / "again.json"
    save_model(trained, path)
    vocab = trained.vocabulary
    spec = trained.to_spec()
    built = NGramModel(vocab, order, 0.3, {name: spec[name] for name in COLUMNS})
    for loaded in (load_model(path), built):
        _assert_same_model(loaded, trained)
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()


def _assert_same_model(loaded: NGramModel, trained: NGramModel) -> None:
    order, vocab = trained.order, trained.vocabulary
    contexts = [tuple(vocab.encode(ctx.split())) for ctx in _count_map(trained.to_spec())]
    if order > 1:  # no line goes on after its end marker, so this context is unseen
        unseen = (vocab.eos_id,) * (order - 1)
        assert unseen not in contexts
        contexts.append(unseen)
    for ctx in contexts:
        # The row builder itself: next_log_probs_ids would answer a prefix
        # that ends in the end marker without it.
        prefix = (vocab.bos_id, *ctx)
        assert np.array_equal(
            loaded._state_row(loaded.state("", prefix)),
            trained._state_row(trained.state("", prefix)),
        )
    assert loaded.best_step == trained.best_step


@pytest.mark.parametrize("counts, fault", [
    pytest.param({(4,): {0: 1}}, "counts is missing " + ", ".join(COLUMNS), id="id-keyed-mapping"),
    pytest.param([["<s>"], [1], ["a"], [1]], "counts must be a mapping of the count columns, got list",
                 id="not-a-mapping"),
    pytest.param(_columns(["<s>"], [1], ["a"], None), "counts is missing event_counts",
                 id="a-column-missing"),
])
def test_ngram_counts_are_the_count_columns(counts, fault):
    """The constructor takes a model file's four count columns; the older
    id-keyed mapping {context ids: {event id: count}} is missing them."""
    if isinstance(counts, dict):
        counts = {k: v for k, v in counts.items() if v is not None}
    with pytest.raises(ContractError, match=f"^{re.escape(fault)}$"):
        NGramModel(Vocabulary(("a", "b")), 2, 0.5, counts)


def _mutants(rng: np.random.Generator, spec: dict, column: str, i: int) -> list:
    """Values to put at ``spec[column][i]``: some keep the file valid, most
    break it, each in one way the checks must name."""
    old = spec[column][i]
    names = [*spec["vocab"], spec["eos"], spec["bos"]]
    if column == "contexts":
        other = " ".join(rng.choice(names, spec["order"] - 1).tolist())
        return [other, spec["contexts"][int(rng.integers(len(spec["contexts"])))],
                " " + old, old + " ", old.replace(" ", "  ") or "  ", old.replace(" ", "\t"),
                old + " a", "zz", 7, None, ["a"]]
    if column == "events_per_context":
        return [old + 1, old - 1, -1, float(old), True, str(old), None]
    if column == "event_tokens":
        return [*names, "zz", "a ", "", 3, None]
    return [int(rng.integers(0, 5)), 2**63 - 1, 2**63, -1, 1.5, float(old), True, str(old), None]


def test_bulk_check_and_walk_agree_on_one_mutated_entry(tmp_path):
    """A valid file with one entry of one column replaced either loads as
    the file says or is a format error: the bulk check rejects exactly the
    files whose fault the walk names."""
    rng = np.random.default_rng(11)
    path = tmp_path / "lm.json"
    outcomes = set()
    for order in (1, 2, 3):
        spec = train_ngram(_seeded_corpus(order), order, 0.5).to_spec()
        for column in COLUMNS:
            n = len(spec[column])
            for i in rng.choice(n, min(n, 4), replace=False).tolist():
                for value in _mutants(rng, spec, column, i):
                    mutated = dict(spec, **{column: list(spec[column])})
                    mutated[column][i] = value
                    path.write_text(json.dumps(mutated))
                    try:
                        columns = load_model(path).to_spec()
                    except ModelFormatError:
                        outcomes.add("rejected")
                        continue
                    assert {name: columns[name] for name in COLUMNS} == {
                        name: mutated[name] for name in COLUMNS}, (column, i, value)
                    outcomes.add("loaded")
    assert outcomes == {"loaded", "rejected"}


def test_ngram_rejects_event_ids_outside_the_distribution():
    vocab = Vocabulary(("a",))
    with pytest.raises(ContractError, match="begin marker"):
        NGramModel(vocab, 2, 0.5, _columns(["<s>"], [1], ["<s>"], [1]))
    for count in (-1, 1.5):
        with pytest.raises(ContractError, match="non-negative integer"):
            NGramModel(vocab, 2, 0.5, _columns(["<s>"], [1], ["a"], [count]))


@pytest.mark.parametrize("spelling, fault", [
    pytest.param(["<s> <s>", "<s> a", "a b"], None, id="spelling0"),  # as save_model writes them
    # A context of another order is a format error.
    pytest.param(["<s> <s>", "a", "a b"], "context 'a' holds 1 tokens", id="spelling3"),
])
def test_ngram_contexts_split_on_whitespace(tmp_path, spelling, fault):
    events = [{"a": 2, "</s>": 1}, {"b": 1}, {"</s>": 1}]
    path = tmp_path / "lm.json"
    path.write_text(json.dumps({"kind": "ngram", "vocab": ["a", "b"], "order": 3, "add_k": 0.5,
                                "contexts": spelling, "events_per_context": [2, 1, 1],
                                "event_tokens": ["a", "</s>", "b", "</s>"],
                                "event_counts": [2, 1, 1, 1]}))
    if fault is not None:
        with pytest.raises(ModelFormatError, match=fault):
            load_model(path)
        return
    model = load_model(path)
    written = ["<s> <s>", "<s> a", "a b"]
    assert _count_map(model.to_spec()) == dict(zip(written, events))
    vocab = model.vocabulary
    row = model.next_log_probs_ids("", (vocab.bos_id,))
    assert math.exp(row[0]) == pytest.approx((2 + 0.5) / (3 + 0.5 * 3))


@pytest.mark.parametrize("tokens, bos", [(["a", "a\tb"], "<s>"), (["a", ""], "<s>"),
                                         (["a"], "< s >"), (["a b", "a", "b"], "<s>")])
def test_ngram_tokens_and_markers_hold_no_whitespace(tmp_path, tokens, bos):
    """A context is written as its tokens joined by spaces, in a table file
    as in an n-gram file, so a token that is empty or holds whitespace could
    not be read back: the vocabulary rejects it, for every model. With
    ``"a b"`` a token, a table row written for ``"<s> a b"`` was read as the
    row of the prefix (<s>, a, b), and (<s>, a b) read the default row."""
    with pytest.raises(ContractError, match="whitespace"):
        Vocabulary(tuple(tokens), bos=bos)
    path = tmp_path / "lm.json"
    table = {"vocab": tokens, "bos": bos, "entries": {"<s> a": {"a": 1.0}}, "default": {"a": 1.0}}
    for spec in ({"kind": "ngram", "vocab": tokens, "bos": bos, "order": 2, "add_k": 1.0,
                  **_columns(["a"], [1], ["a"], [1])},
                 table, {**table, "source_keyed": True, "entries": {"x": table["entries"]}}):
        path.write_text(json.dumps(spec))
        with pytest.raises(ModelFormatError, match="whitespace"):
            load_model(path)
    if bos == "<s>":
        with pytest.raises(ContractError, match="whitespace"):
            train_ngram([tokens], 2, 1.0)


@pytest.mark.parametrize("again, fault", [
    pytest.param("a", "context 'a' is listed twice", id="as-written"),
    pytest.param(" a", "context ' a' is not its tokens joined by single spaces",
                 id="leading-space"),
])
def test_ngram_context_listed_twice_is_format_error(tmp_path, again, fault):
    """Keeping either listing would drop the other's events silently."""
    path = tmp_path / "lm.json"
    path.write_text(json.dumps({"kind": "ngram", "vocab": ["a", "b"], "order": 2,
                                "add_k": 0.5, **_columns(["a", "<s>", again], [1, 1, 1],
                                                         ["b", "a", "a"], [9, 1, 1])}))
    with pytest.raises(ModelFormatError, match=fault):
        load_model(path)


@pytest.mark.parametrize("context", [
    pytest.param("<s>\ta", id="tab"),
    pytest.param(" <s> a", id="leading-space"),
    pytest.param("<s> a ", id="trailing-space"),
    pytest.param("<s>  a", id="two-spaces"),
    pytest.param("<s>\u00a0a", id="no-break-space"),
])
def test_ngram_context_spelled_otherwise_than_written_is_format_error(tmp_path, context):
    """A context is its tokens joined by single spaces, as ``save_model``
    writes it; any other whitespace would be a second spelling of it."""
    path = tmp_path / "lm.json"
    path.write_text(json.dumps({"kind": "ngram", "vocab": ["a"], "order": 3, "add_k": 0.5,
                                **_columns(["<s> <s>", context], [1, 1], ["a", "</s>"], [1, 1])}))
    fault = f"context {context!r} is not its tokens joined by single spaces"
    with pytest.raises(ModelFormatError, match=re.escape(fault)):
        load_model(path)


def test_ngram_count_beyond_int64_is_format_error(tmp_path):
    path = tmp_path / "lm.json"
    path.write_text(json.dumps({"kind": "ngram", "vocab": ["a"], "order": 1, "add_k": 1.0,
                                "contexts": [""], "events_per_context": [2],
                                "event_tokens": ["a", "</s>"], "event_counts": [2**63, 1]}))
    with pytest.raises(ModelFormatError, match="'a' after ''"):
        load_model(path)
    with pytest.raises(ContractError, match="below 2"):
        NGramModel(Vocabulary(("a",)), 1, 1.0, _columns([""], [1], ["a"], [2**63]))


# --- table model files


def test_load_model_parses_an_ngram_file_once(tmp_path, monkeypatch):
    path = tmp_path / "lm.json"
    save_model(train_ngram([["a", "b"], ["b", "a"]], order=2, add_k=1.0), path)
    calls = _counting_loads(monkeypatch)
    assert load_model(path).order == 2
    assert len(calls) == 1


@pytest.mark.parametrize("order", [1, 2, 3])
def test_load_model_looks_up_no_token_one_at_a_time(tmp_path, monkeypatch, order):
    """A valid n-gram file is checked and stored in bulk passes: the
    one-event-at-a-time walk, which calls ``Vocabulary.id_of`` per token,
    only runs to name a fault."""
    path = tmp_path / "lm.json"
    save_model(train_ngram(_seeded_corpus(7), order=order, add_k=0.5), path)
    calls = []
    real_id_of = Vocabulary.id_of

    def counting_id_of(self, token):
        calls.append(token)
        return real_id_of(self, token)

    monkeypatch.setattr(Vocabulary, "id_of", counting_id_of)
    assert load_model(path).order == order
    assert calls == []


def _counting_loads(monkeypatch) -> list:
    """Patch ``json.loads`` in ``regdecode.models`` to record each call."""
    real_loads = json.loads
    calls = []

    def counting_loads(*args, **kwargs):
        calls.append(args)
        return real_loads(*args, **kwargs)

    monkeypatch.setattr(regdecode.models.json, "loads", counting_loads)
    return calls


def test_reloading_an_ngram_file_shares_only_read_only_columns(tmp_path, monkeypatch):
    """A second load of the same bytes parses nothing and builds a new model
    on the first one's count columns, which reject writes, with its own
    empty row cache and the file's ``best_step``, computed at that load."""
    path = tmp_path / "lm.json"
    save_model(train_ngram(_seeded_corpus(11), order=3, add_k=0.25), path)
    monkeypatch.setattr(regdecode.models, "_last_ngram_file", None)
    calls = _counting_loads(monkeypatch)
    first = load_model(path)
    beam_search(first, None, MAP_OBJECTIVE, 4, 8)
    second = load_model(path)
    assert len(calls) == 1
    assert "best_step" not in vars(first) and "best_step" in vars(second)
    assert second is not first and second.file_digest == first.file_digest
    assert second._columns is first._columns
    assert first._terms and second._terms == {} and second._terms is not first._terms
    beam_search(second, None, MAP_OBJECTIVE, 4, 8)
    assert second._terms.keys() == first._terms.keys()
    assert all(second._terms[s] is not first._terms[s] for s in first._terms)
    for column in (first._columns.event_ids, first._columns.event_counts):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    assert second.to_spec() == first.to_spec()
    assert second.best_step == first.best_step


def test_rewritten_ngram_file_loads_the_new_model(tmp_path):
    path = tmp_path / "lm.json"
    corpus = _seeded_corpus(12)
    save_model(train_ngram(corpus, order=2, add_k=0.5), path)
    assert load_model(path).add_k == 0.5
    save_model(train_ngram(corpus, order=2, add_k=0.75), path)
    rewritten = load_model(path)
    assert rewritten.add_k == 0.75
    assert rewritten.to_spec() == train_ngram(corpus, order=2, add_k=0.75).to_spec()


def test_malformed_ngram_file_raises_at_every_load(tmp_path):
    """A file that fails a check is never remembered: at the path of a
    valid file, and loaded twice, it raises each time with one message."""
    path = tmp_path / "lm.json"
    model = train_ngram(_seeded_corpus(13), order=2, add_k=0.5)
    save_model(model, path)
    load_model(path)
    spec = model.to_spec()
    spec["event_counts"][0] = -1
    path.write_text(json.dumps(spec))
    messages = []
    for _ in range(2):
        with pytest.raises(ModelFormatError, match="must be a non-negative integer") as info:
            load_model(path)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_load_model_remembers_one_ngram_file(tmp_path, monkeypatch):
    """After two different files only the second is remembered: loading the
    first again parses it, and a repeat of that load does not."""
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, add_k in zip(paths, (0.5, 2.0)):
        save_model(train_ngram(_seeded_corpus(14), order=2, add_k=add_k), path)
    calls = _counting_loads(monkeypatch)
    for path in (*paths, *paths[:1]):
        load_model(path)
    assert len(calls) == 3
    assert regdecode.models._last_ngram_file[0] == load_model(paths[0]).file_digest
    assert len(calls) == 3


def test_table_file_logs_its_renormalization_at_every_load(tmp_path, caplog):
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"vocab": ["a"], "entries": {},
                                "default": {"a": 0.5, "</s>": 0.5 + 2e-7}}))
    with caplog.at_level(logging.WARNING):
        for _ in range(2):
            load_model(path)
    assert sum("renormalizing" in r.message for r in caplog.records) == 2


def test_table_round_trip(tmp_path, m1):
    out = tmp_path / "copy.json"
    save_model(m1, out)
    again = load_model(out)
    assert again.to_spec() == m1.to_spec()
    prefix = ["<s>", "a"]
    assert np.allclose(again.next_log_probs(None, prefix), m1.next_log_probs(None, prefix))


def test_source_keyed_table_round_trip(tmp_path, m3):
    out = tmp_path / "copy.json"
    save_model(m3, out)
    again = load_model(out)
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
        load_model(path)


def test_table_rejects_negative_probability(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "vocab": ["a"],
        "entries": {},
        "default": {"a": 1.5, "</s>": -0.5},
    }))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_table_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_table_rejects_unknown_token(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "vocab": ["a"],
        "entries": {"<s>": {"a": 0.5, "q": 0.5}},
        "default": {"a": 0.5, "</s>": 0.5},
    }))
    with pytest.raises(ModelFormatError):
        load_model(path)


# The last two have ended, and an ended prefix only re-emits the end marker,
# so their rows could never be read: they were stored, and counted in best_step.
@pytest.mark.parametrize("context", ["a", "<s> a <s>", "<s> </s> a", "<s> a </s>", "<s> </s>"])
def test_table_rejects_context_that_is_not_a_prefix(tmp_path, context):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "vocab": ["a"],
        "entries": {context: {"a": 0.5, "</s>": 0.5}},
        "default": {"a": 0.5, "</s>": 0.5},
    }))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_table_renormalizes_within_tolerance(tmp_path, caplog):
    path = tmp_path / "near.json"
    path.write_text(json.dumps({
        "vocab": ["a"],
        "entries": {},
        "default": {"a": 0.5, "</s>": 0.5 + 2e-7},
    }))
    with caplog.at_level(logging.WARNING):
        model = load_model(path)
    assert any("renormalizing" in r.message for r in caplog.records)
    dist = model.next_log_probs(None, ["<s>"])
    assert abs(np.exp(dist).sum() - 1.0) < 1e-12


def test_default_only_model_is_total():
    v = Vocabulary(("a",))
    m = TableModel(v, {}, {"a": 0.25, "</s>": 0.75})
    for prefix in (["<s>"], ["<s>", "a"], ["<s>", "a", "a"]):
        assert math.exp(m.next_log_probs(None, prefix)[v.eos_id]) == pytest.approx(0.75)


def test_table_bad_sum_names_the_sum_as_a_plain_number(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vocab": ["a"], "entries": {}, "default": {"a": 0.7}}))
    with pytest.raises(ModelFormatError, match=r"^default: distribution sums to 0\.7, not 1$"):
        load_model(path)


@pytest.mark.parametrize("text, key", [
    pytest.param('{"kind": "ngram", "vocab": ["a"], "order": 2, "add_k": 1.0,'
                 ' "counts": {"<s>": {"a": 5, "a": 1}}}', "a", id="mapping-event"),
    pytest.param('{"kind": "ngram", "vocab": ["a"], "order": 1, "order": 2, "add_k": 1.0,'
                 ' "contexts": [], "events_per_context": [], "event_tokens": [],'
                 ' "event_counts": []}', "order", id="columns-field"),
    pytest.param('{"vocab": ["a"], "entries": {},'
                 ' "default": {"a": 0.5, "a": 0.25, "</s>": 0.5}}', "a", id="table-default"),
    pytest.param('{"vocab": ["a"], "entries": {"<s>": {"a": 1.0}, "<s>": {"</s>": 1.0}},'
                 ' "default": {"a": 0.5, "</s>": 0.5}}', "<s>", id="table-context"),
])
def test_repeated_json_key_is_format_error(tmp_path, text, key):
    """Plain ``json.loads`` keeps the last of two equal keys, which would
    load a count or probability the file does not mean."""
    path = tmp_path / "lm.json"
    path.write_text(text)
    with pytest.raises(ModelFormatError, match=f"key '{key}' appears twice in one object"):
        load_model(path)
