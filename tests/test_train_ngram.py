"""``train_ngram`` counts in bulk numpy passes; here it is held to a
reference that counts one event at a time, field by field and in order."""

import numpy as np
import pytest

from regdecode import NGramModel, Vocabulary, save_model, train_ngram
from regdecode.cli import main


def reference_counts(corpus, order):
    """Each line padded with ``order - 1`` begin markers and closed with the
    end marker, counted one event at a time into a dict of dicts: contexts
    in the order the corpus first shows them, each context's events in the
    order they first follow it."""
    vocab = Vocabulary(tuple(sorted({t for line in corpus for t in line})))
    need = order - 1
    counts = {}
    for line in corpus:
        ids = (vocab.bos_id,) * need + vocab.encode(line) + (vocab.eos_id,)
        for i in range(need, len(ids)):
            events = counts.setdefault(ids[i - need : i], {})
            events[ids[i]] = events.get(ids[i], 0) + 1
    return vocab, counts


def reference_model(corpus, order, add_k):
    """The reference counts as a model file's four columns, each context
    spelled as its tokens joined by single spaces."""
    vocab, counts = reference_counts(corpus, order)
    columns = {
        "contexts": [" ".join(vocab.decode(ctx)) for ctx in counts],
        "events_per_context": [len(events) for events in counts.values()],
        "event_tokens": [token for events in counts.values() for token in vocab.decode(events)],
        "event_counts": [count for events in counts.values() for count in events.values()],
    }
    return NGramModel(vocab, order, add_k, columns)


def assert_same_spec(trained, reference):
    got, want = trained.to_spec(), reference.to_spec()
    assert got.keys() == want.keys()
    for field in want:  # lists compare in order: contexts, then events within each
        assert got[field] == want[field], field


def seeded_corpus(seed, n_tokens, n_lines, max_len):
    """Random lines of 0 to ``max_len`` tokens, plus an empty line, one-token
    lines, and a few lines repeated, in shuffled order."""
    rng = np.random.default_rng(seed)
    tokens = [f"w{i}" for i in range(n_tokens)]
    lines = [[tokens[i] for i in rng.integers(0, n_tokens, rng.integers(0, max_len + 1))]
             for _ in range(n_lines)]
    lines += [[], [tokens[0]], [tokens[-1]]]
    lines += [lines[i] for i in rng.integers(0, len(lines), n_lines // 4)]
    return [lines[i] for i in rng.permutation(len(lines))]


@pytest.mark.parametrize("order, max_len", [(1, 6), (2, 6), (3, 6), (4, 6), (9, 5)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trained_counts_equal_the_reference(order, max_len, seed):
    """Order 9 is longer than every line, so every context opens with
    padding."""
    corpus = seeded_corpus(seed, 5, 60, max_len)
    assert_same_spec(train_ngram(corpus, order, 0.3), reference_model(corpus, order, 0.3))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_one_token_vocabulary(order):
    corpus = [["x"] * n for n in (0, 1, 3, 1, 0, 5, 2)]
    assert_same_spec(train_ngram(corpus, order, 1.0), reference_model(corpus, order, 1.0))


@pytest.mark.parametrize("order", [2, 3])
def test_large_vocabulary(order):
    """More distinct keys than events."""
    corpus = seeded_corpus(3, 300, 40, 8)
    assert_same_spec(train_ngram(corpus, order, 0.1), reference_model(corpus, order, 0.1))


def test_order_whose_packed_context_key_passes_int64():
    """Order 40 over two tokens: a context packed as one base-4 number has
    39 digits, 78 bits. Packed without renumbering, int64 arithmetic would
    drop the farthest tokens and merge contexts that differ only there."""
    corpus = seeded_corpus(4, 2, 30, 60)
    vocab, _ = reference_counts(corpus, 40)
    assert (vocab.bos_id + 1) ** min(39, max(map(len, corpus))) > 2**63
    assert_same_spec(train_ngram(corpus, 40, 0.5), reference_model(corpus, 40, 0.5))


def test_train_ngram_writes_the_reference_bytes(tmp_path):
    corpus = seeded_corpus(5, 12, 200, 9)
    path = tmp_path / "corpus.txt"
    path.write_text("".join(" ".join(line) + "\n" for line in corpus), encoding="utf-8")
    out, expected = tmp_path / "model.json", tmp_path / "reference.json"
    argv = ["train-ngram", str(path), "--order", "3", "--add-k", "0.25", "--out", str(out)]
    assert main(argv) == 0
    save_model(reference_model(corpus, 3, 0.25), expected)
    assert out.read_bytes() == expected.read_bytes()


def test_lines_may_be_one_shot_iterables():
    corpus = seeded_corpus(6, 7, 40, 6)
    trained = train_ngram((iter(line) for line in corpus), 3, 0.5)
    assert_same_spec(trained, reference_model(corpus, 3, 0.5))
