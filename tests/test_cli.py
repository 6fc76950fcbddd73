import dataclasses
import hashlib
import importlib
import importlib.util
import json
import math
import warnings

import pytest

from regdecode import (
    MAP_OBJECTIVE,
    ModelFormatError,
    RegularizerKind,
    beam_search,
    load_model,
    save_model,
    train_ngram,
)
import regdecode.models
import regdecode.search
from regdecode.cli import main

from .conftest import BENCH, FIXTURES


def run(args):
    return main([str(a) for a in args])


def test_train_ngram_round_trip(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b\nb a a\n\n")
    out = tmp_path / "model.json"
    assert run(["train-ngram", corpus, "--order", "2", "--add-k", "0.5", "--out", out]) == 0
    reloaded = load_model(out)
    direct = train_ngram([line.split() for line in ["a b", "b a a", ""]], 2, 0.5)
    # One prefix per bigram context: <s>, a and b.
    for prefix in (["<s>"], ["<s>", "a"], ["<s>", "b"]):
        assert list(reloaded.next_log_probs(None, prefix)) == list(
            direct.next_log_probs(None, prefix)
        )
    assert (tmp_path / "model.json.manifest.json").exists()


def test_train_ngram_order_exceeding_line_length(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a\n")
    out = tmp_path / "model.json"
    assert run(["train-ngram", corpus, "--order", "5", "--out", out]) == 0
    model = load_model(out)
    # The context is four begin markers, the padding of the bare prefix.
    dist = model.next_log_probs(None, ["<s>"])
    assert math.exp(dist[model.vocabulary.id_of("a")]) > 0


def test_train_ngram_missing_file(tmp_path, capsys):
    code = run(["train-ngram", tmp_path / "nope.txt", "--out", tmp_path / "m.json"])
    assert code == 3
    assert capsys.readouterr().err.strip()


def test_decode_with_trained_ngram_model(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b\na b\nb a\n")
    model_path = tmp_path / "lm.json"
    assert run(["train-ngram", corpus, "--order", "2", "--out", model_path]) == 0
    inputs = tmp_path / "in.txt"
    inputs.write_text("x\ny\n")
    out = tmp_path / "out.jsonl"
    assert run(["decode", model_path, inputs, "--decoder", "exact", "--n-max", "8",
                "--out", out]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 2
    # The model ignores the source, so both records agree.
    assert records[0]["tokens"] == records[1]["tokens"]
    assert all(r["complete"] and r["optimality_certificate"] for r in records)


def test_decode_beam_matches_library(tmp_path, m1):
    inputs = tmp_path / "in.txt"
    inputs.write_text("x1\nx2\n")
    out = tmp_path / "out.jsonl"
    assert run([
        "decode", FIXTURES / "m1.json", inputs,
        "--decoder", "beam", "--k", "5", "--objective", "", "--n-max", "6", "--out", out,
    ]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 2
    expected = beam_search(m1, ["x1"], MAP_OBJECTIVE, 5, 6)
    assert records[0]["tokens"] == list(expected.best.surface)
    assert records[0]["log_prob"] == expected.best.log_prob
    assert records[0]["surprisals"] == list(expected.best.trace)
    assert records[0]["total"] == expected.best.score
    assert records[0]["source"] == "x1"


def test_decode_exact_sets_certificates(tmp_path):
    inputs = tmp_path / "in.txt"
    inputs.write_text("s1\ns2\ns3\n")
    out = tmp_path / "out.jsonl"
    assert run([
        "decode", FIXTURES / "m3.json", inputs,
        "--decoder", "exact", "--objective", "greedy=10", "--n-max", "6", "--out", out,
    ]) == 0
    for line in out.read_text().splitlines():
        assert json.loads(line)["optimality_certificate"] is True


@pytest.mark.parametrize("decoder", ["greedy", "exact", "brute"])
def test_decode_k_needs_beam_decoder(tmp_path, capsys, decoder):
    inputs = tmp_path / "in.txt"
    inputs.write_text("x\n")
    out = tmp_path / "out.jsonl"
    code = run(["decode", FIXTURES / "m1.json", inputs, "--decoder", decoder, "--k", "7",
                "--n-max", "6", "--out", out])
    assert code == 2
    assert "--k" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["x\n", ""], ids=["one-line", "empty"])
@pytest.mark.parametrize(
    "flags, named",
    [(["--decoder", "beam", "--k", "0"], "beam width must be >= 1")]
    + [(["--decoder", d, "--n-max", "0"], "n_max must be >= 1")
       for d in ("greedy", "beam", "exact", "brute")],
    ids=["beam-k-0", "greedy-n-max-0", "beam-n-max-0", "exact-n-max-0", "brute-n-max-0"],
)
def test_decode_bad_width_or_budget_is_usage_error(tmp_path, capsys, flags, named, text):
    """The width and budget are checked before any line is decoded, so an
    empty input fails as a one-line input does."""
    inputs = tmp_path / "in.txt"
    inputs.write_text(text)
    out = tmp_path / "out.jsonl"
    assert run(["decode", FIXTURES / "m1.json", inputs, *flags, "--out", out]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, flags, named",
    [
        ("x\n", ["--decoder", "beam", "--ks", "1,0", "--n-max", "6"], "beam width must be >= 1"),
        ("", ["--decoder", "beam", "--ks", "0"], "beam width must be >= 1"),
        ("x\n", ["--decoder", "exact", "--n-max", "0"], "n_max must be >= 1"),
    ],
    ids=["ks-1-0", "ks-0-empty-input", "exact-n-max-0"],
)
def test_sweep_bad_width_or_budget_is_usage_error(tmp_path, capsys, text, flags, named):
    inputs = tmp_path / "in.txt"
    inputs.write_text(text)
    refs = tmp_path / "refs.txt"
    refs.write_text(text)
    out = tmp_path / "rows.csv"
    assert run(["sweep", FIXTURES / "m1.json", inputs, refs, *flags, "--out", out]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out.exists()


def test_decode_objective_echoed_in_manifest(tmp_path):
    inputs = tmp_path / "in.txt"
    inputs.write_text("x\n")
    out = tmp_path / "out.jsonl"
    assert run([
        "decode", FIXTURES / "m1.json", inputs,
        "--objective", "greedy=5,square=2", "--n-max", "6", "--out", out,
    ]) == 0
    manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
    assert manifest["config"]["objective"] == "greedy=5,square=2"
    assert manifest["command"] == "decode"
    assert len(manifest["model_digest"]) == 64


def test_decode_bad_objective_is_usage_error(tmp_path, capsys):
    inputs = tmp_path / "in.txt"
    inputs.write_text("x\n")
    code = run([
        "decode", FIXTURES / "m1.json", inputs,
        "--objective", "coverage=1", "--out", tmp_path / "out.jsonl",
    ])
    assert code == 2
    assert "coverage" in capsys.readouterr().err


@pytest.mark.parametrize("decoder", ["beam", "exact"])
def test_decode_non_finite_score_is_usage_error(tmp_path, capsys, decoder):
    """A finite length reward can still overflow a total: JSON has no
    infinity, so the decode exits 2 naming the line and field, and writes
    no output file."""
    out = tmp_path / "out.jsonl"
    code = run(["decode", FIXTURES / "m3.json", FIXTURES / "m3.inputs.txt",
                "--decoder", decoder, "--objective", "len=reward:1e308", "--n-max", "5",
                "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "input line 1: length_term is inf" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("decoder", ["beam", "exact"])
def test_decode_nan_score_is_usage_error(tmp_path, capsys, decoder):
    """A length reward and a penalty that both overflow give inf - inf, a
    NaN that no key orders: the decode exits 2 naming the objective and the
    input line, where exact search used to certify the empty string."""
    out = tmp_path / "out.jsonl"
    code = run(["decode", FIXTURES / "m3.json", FIXTURES / "m3.inputs.txt",
                "--decoder", decoder, "--objective", "square=1e308,len=reward:1e308",
                "--n-max", "5", "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "input line 1: objective 'square=1e+308,len=reward:1e+308' gives a NaN score" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["decode", FIXTURES / "m3.json", FIXTURES / "m3.inputs.txt", "--decoder", "beam",
     "--objective", "square=1e308"],
    ["sweep", FIXTURES / "m3.json", FIXTURES / "m3.inputs.txt", FIXTURES / "m3.refs.txt",
     "--objective-kind", "square", "--lambdas", "1e308"],
], ids=["decode", "sweep"])
def test_overflowing_weight_prints_no_numpy_warning(tmp_path, capsys, argv):
    """A weight that overflows on some candidate is legal; numpy says
    nothing about it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([*argv, "--n-max", "5", "--out", tmp_path / "out"]) == 0
    assert caught == []
    assert capsys.readouterr().err == ""


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", ["decode", "sweep"])
def test_manifest_digests_the_bytes_decoded(tmp_path, monkeypatch, command):
    """A file rewritten while the corpus is decoded does not change the
    manifest: its digests are of the bytes the command read and decoded."""
    from regdecode import cli

    files = {"model": tmp_path / "m3.json", "input": tmp_path / "in.txt",
             "refs": tmp_path / "refs.txt"}
    files["model"].write_bytes((FIXTURES / "m3.json").read_bytes())
    files["input"].write_bytes((FIXTURES / "m3.inputs.txt").read_bytes())
    files["refs"].write_bytes((FIXTURES / "m3.refs.txt").read_bytes())
    original = {name: _sha256(path) for name, path in files.items()}
    decode_corpus = cli._decode_corpus

    def rewriting(*args):
        for path in files.values():
            path.write_text(path.read_text() + "\n")
        return decode_corpus(*args)

    monkeypatch.setattr(cli, "_decode_corpus", rewriting)
    out = tmp_path / "out"
    argv = [command, files["model"], files["input"]]
    argv += [files["refs"], "--lambdas", "0"] if command == "sweep" else []
    assert run([*argv, "--decoder", "exact", "--n-max", "5", "--out", out]) == 0
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["model_digest"] == original["model"]
    assert manifest["input_digest"] == original["input"]
    if command == "sweep":
        assert manifest["refs_digest"] == original["refs"]
    assert all(_sha256(path) != original[name] for name, path in files.items())


def test_sweep_manifest_records_the_references(tmp_path):
    """Two sweeps that differ only in their references write different
    CSVs, so their manifests differ too."""
    fixture = [FIXTURES / "beam_family.json", FIXTURES / "beam_family.inputs.txt"]
    wrong = tmp_path / "wrong.refs.txt"
    wrong.write_text("".join("zzz\n" for _ in fixture[1].read_text().splitlines()))
    rows, manifests = [], []
    for refs in (FIXTURES / "beam_family.refs.txt", wrong):
        out = tmp_path / f"{refs.stem}.csv"
        assert run(["sweep", *fixture, refs, "--objective-kind", "square", "--lambdas", "0,2",
                    "--ks", "1,4", "--decoder", "beam", "--n-max", "8", "--out", out]) == 0
        rows.append(out.read_text())
        manifests.append(json.loads(out.with_name(out.name + ".manifest.json").read_text()))
    assert ",100.0," in rows[0] and ",100.0," not in rows[1]
    assert manifests[0]["refs_digest"] == _sha256(FIXTURES / "beam_family.refs.txt")
    assert manifests[1]["refs_digest"] == _sha256(wrong)


@pytest.mark.parametrize("flags", [
    ["--decoder", "beam", "--k", "3", "--objective", "greedy=1"],
    ["--decoder", "exact", "--objective", "square=0.5"],
])
def test_decoding_a_reloaded_ngram_file_gives_identical_files(tmp_path, monkeypatch, flags):
    """Two decodes of one n-gram file in one process parse it at most once
    and write byte-identical JSONL and manifests: the second load is a new model
    with a cold row cache, built from the first load's checked columns."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b c\nb a\nc c a b\n\na\n")
    model = tmp_path / "lm.json"
    assert run(["train-ngram", corpus, "--order", "3", "--add-k", "0.5", "--out", model]) == 0
    inputs = tmp_path / "in.txt"
    inputs.write_text("x\ny\n")
    real_loads = regdecode.models.json.loads
    parsed = []

    def counting_loads(*args, **kwargs):
        parsed.append(args)
        return real_loads(*args, **kwargs)

    monkeypatch.setattr(regdecode.models.json, "loads", counting_loads)
    written = []
    for name in ("first", "second"):
        out = tmp_path / name / "out.jsonl"
        out.parent.mkdir()
        assert run(["decode", model, inputs, *flags, "--n-max", "6", "--out", out]) == 0
        written.append((out.read_bytes(), out.with_name("out.jsonl.manifest.json").read_bytes()))
        parsed.append(None)
    assert parsed[-2:] == [None, None]  # the second decode parsed nothing
    assert written[0] == written[1]


def test_decode_calls_exact_search_through_cli_global(tmp_path, monkeypatch):
    """The benchmark times decodes by rebinding ``regdecode.cli.exact_search``
    (and the other public decoders); the CLI must look them up at call time."""
    from regdecode import cli

    calls = []
    original = cli.exact_search

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "exact_search", counting)
    inputs = tmp_path / "in.txt"
    inputs.write_text("s1\ns2\ns3\n")
    assert run(["decode", FIXTURES / "m3.json", inputs, "--decoder", "exact", "--n-max", "6",
                "--out", tmp_path / "out.jsonl"]) == 0
    assert calls == [["s1"], ["s2"], ["s3"]]


def test_benchmark_bindings_resolve():
    """The benchmark wraps the names ``bench/tracing.py`` lists where they
    are bound, so a rename must fail here rather than in a traced pass."""
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # not entered in sys.modules
    for _, module, name in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
    for _, module, cls, method in tracing.METHODS:
        assert method in vars(getattr(importlib.import_module(module), cls)), (cls, method)
    from regdecode import cli

    for name in tracing.DECODERS:
        assert getattr(cli, name, None) is getattr(regdecode.search, name), name


# How a bad add_k is named, in a model file or a train-ngram flag.
ADD_K_RULE = "add_k must be a finite number > 0, got "


def _ngram_spec(**changes):
    """A bigram model file over ``a`` and ``b``; a change of None drops the field."""
    spec = {"kind": "ngram", "vocab": ["a", "b"], "order": 2, "add_k": 0.5,
            "contexts": ["<s>", "a"], "events_per_context": [2, 1],
            "event_tokens": ["a", "</s>", "b"], "event_counts": [2, 1, 1]}
    spec.update(changes)
    return {k: v for k, v in spec.items() if v is not None}


@pytest.mark.parametrize(
    "spec, named",
    [
        pytest.param(_ngram_spec(order=0), ["order must be an integer >= 1, got 0"],
                     id="bad-order"),
        # Each of these loaded once and left decoding to fail, or could slip
        # through a check made on all counts at once.
        pytest.param(_ngram_spec(events_per_context=[2, 2], event_tokens=["a", "</s>", "b", "a"],
                                 event_counts=[2, 1, 1, -1]),
                     ["'a' after 'a'", "-1"], id="bad-count-in-a-later-context"),
        # An infinite add_k (JSON 1e400 parses to inf) made every row NaN:
        # beam and exact then ended in an IndexError traceback. A boolean or
        # a string was read through float().
        pytest.param(_ngram_spec(add_k=math.inf), [f"{ADD_K_RULE}inf"], id="infinite-add-k"),
        pytest.param(_ngram_spec(add_k=math.nan), [f"{ADD_K_RULE}nan"], id="nan-add-k"),
        pytest.param(_ngram_spec(add_k=-0.5), [f"{ADD_K_RULE}-0.5"], id="negative-add-k"),
        pytest.param(_ngram_spec(add_k=True), [f"{ADD_K_RULE}True"], id="boolean-add-k"),
        pytest.param(_ngram_spec(add_k="0.5"), [f"{ADD_K_RULE}'0.5'"], id="string-add-k"),
        pytest.param(_ngram_spec(add_k=[1]), [f"{ADD_K_RULE}[1]"], id="list-add-k"),
        pytest.param(_ngram_spec(add_k=10**400), [f"{ADD_K_RULE}an int too large for a float"],
                     id="add-k-too-large-for-a-float"),
        # A context that is not order - 1 tokens was kept, and best_step read it.
        pytest.param(_ngram_spec(contexts=["<s>", ""]), ["'' holds 0 tokens"],
                     id="empty-context"),
        # VocabularyError is a KeyError, whose str() wrapped the message in
        # double quotes: {model}: "unknown token 'zz'".
        pytest.param(_ngram_spec(event_tokens=["a", "zz", "b"]),
                     ["bad n-gram model {model}: unknown token 'zz'"], id="columns-unknown-token"),
        pytest.param(_ngram_spec(contexts=["<s>", "zz"]),
                     ["bad n-gram model {model}: unknown token 'zz'"], id="columns-unknown-context"),
        pytest.param(_ngram_spec(contexts=["<s>", "<s> a"]), ["'<s> a' holds 2 tokens"],
                     id="columns-context-of-another-order"),
        pytest.param(_ngram_spec(contexts=["<s>", 7]), ["context 7 is not a string"],
                     id="columns-context-not-a-string"),
        pytest.param(_ngram_spec(contexts=["<s>", ["a"]]), ["context ['a'] is not a string"],
                     id="columns-context-a-list"),
        pytest.param(_ngram_spec(event_tokens=["a", "<s>", "b"]), ["'<s>' after '<s>'"],
                     id="columns-begin-marker-event"),
        pytest.param(_ngram_spec(event_tokens=["a", "</s>", 3]), ["event 3 after 'a'"],
                     id="columns-event-not-a-string"),
        pytest.param(_ngram_spec(event_counts=[2, -3, 1]), ["'</s>' after '<s>'", "-3"],
                     id="columns-negative-count"),
        pytest.param(_ngram_spec(event_counts=[2, 1.5, 1]), ["'</s>' after '<s>'", "1.5"],
                     id="columns-fractional-count"),
        pytest.param(_ngram_spec(event_counts=[True, 1, 1]), ["'a' after '<s>'", "True"],
                     id="columns-bool-count"),
        pytest.param(_ngram_spec(event_counts=[2, 1, 2**63]), ["'b' after 'a'", "2**63"],
                     id="columns-count-of-2**63"),
        # A walk that rebuilt a context's events as a dict would keep the
        # later count and hide the first.
        pytest.param(_ngram_spec(event_tokens=["a", "a", "b"]),
                     ["'a' after '<s>' is listed twice"], id="columns-event-listed-twice"),
        pytest.param(_ngram_spec(events_per_context=[3]),
                     ["events_per_context has 1 entries for 2 contexts"],
                     id="columns-fewer-event-numbers-than-contexts"),
        pytest.param(_ngram_spec(event_counts=[2, 1]),
                     ["event_counts has 2 entries for 3 event_tokens"],
                     id="columns-fewer-counts-than-tokens"),
        pytest.param(_ngram_spec(events_per_context=[2, 2]), ["summing to the 3 events"],
                     id="columns-event-numbers-do-not-sum"),
        pytest.param(_ngram_spec(events_per_context=[4, -1]), ["non-negative"],
                     id="columns-negative-event-number"),
        pytest.param(_ngram_spec(events_per_context=[2, 1.0]), ["integers"],
                     id="columns-fractional-event-number"),
        pytest.param(_ngram_spec(contexts={"<s>": 2, "a": 1}), ["contexts must be a list"],
                     id="columns-contexts-not-a-list"),
        pytest.param(_ngram_spec(event_counts="2 1 1"), ["event_counts must be a list"],
                     id="columns-counts-not-a-list"),
        pytest.param(_ngram_spec(event_counts=None), ["missing event_counts"],
                     id="columns-missing-a-column"),
        # The older layout, one ``counts`` mapping of {context: {token: count}},
        # is not read: such a file is missing every column.
        pytest.param(_ngram_spec(contexts=None, events_per_context=None, event_tokens=None,
                                 event_counts=None, counts={"<s>": {"a": 2, "</s>": 1}}),
                     ["missing contexts, events_per_context, event_tokens, event_counts"],
                     id="older-counts-layout"),
        pytest.param(_ngram_spec(order=10**21), ["'<s>' holds 1 tokens"],
                     id="columns-huge-order-with-counts"),
        # Each of these loaded, keeping the later events of a context or
        # reading another whitespace as the single space between tokens.
        pytest.param(_ngram_spec(contexts=["<s>", "<s>"]), ["context '<s>' is listed twice"],
                     id="columns-context-listed-twice"),
        pytest.param(_ngram_spec(order=3, contexts=["<s> <s>", "<s>\ta"]),
                     ["context '<s>\\ta' is not its tokens joined by single spaces"],
                     id="columns-context-spelled-with-a-tab"),
        pytest.param(_ngram_spec(contexts=["<s>", " a"]),
                     ["context ' a' is not its tokens joined by single spaces"],
                     id="columns-context-spelled-with-a-leading-space"),
        pytest.param(_ngram_spec(order=3, contexts=["<s> <s>", "<s>  a"]),
                     ["context '<s>  a' is not its tokens joined by single spaces"],
                     id="columns-context-spelled-with-two-spaces"),
        # Two faults: the message names the first in file order.
        pytest.param(_ngram_spec(contexts=["<s>", "a\t"], event_counts=[2, -1, 1]),
                     ["count of '</s>' after '<s>' must be a non-negative integer, got -1"],
                     id="two-faults-count-first"),
        pytest.param(_ngram_spec(contexts=["<s>\t", "a"], event_counts=[2, 1, -1]),
                     ["context '<s>\\t' is not its tokens joined by single spaces"],
                     id="two-faults-context-first"),
    ],
)
def test_decode_malformed_ngram_model_is_format_error(tmp_path, capsys, spec, named):
    model = tmp_path / "lm.json"
    model.write_text(json.dumps(spec))
    inputs = tmp_path / "in.txt"
    inputs.write_text("x\n")
    with pytest.raises(ModelFormatError) as caught:
        load_model(model)
    for text in named:
        assert text.replace("{model}", str(model)) in str(caught.value)
    code = run(["decode", model, inputs, "--decoder", "greedy", "--out", tmp_path / "o.jsonl"])
    assert code == 3
    assert capsys.readouterr().err == f"i/o error: {caught.value}\n"


def _table_spec(**changes):
    """A one-token table model file; a change of None drops the field."""
    spec = {"vocab": ["a"], "default": {"a": 0.5, "</s>": 0.5}}
    spec.update(changes)
    return {k: v for k, v in spec.items() if v is not None}


@pytest.mark.parametrize(
    "spec, named",
    [
        # Each of these ended in an AttributeError or TypeError traceback.
        pytest.param(_table_spec(entries=[]), "entries must be a JSON object", id="entries-list"),
        pytest.param(_table_spec(default=[0.5, 0.5]), "default must be a JSON object",
                     id="default-list"),
        pytest.param(_table_spec(entries={"<s>": [1]}), "entries['<s>'] must be a JSON object",
                     id="distribution-list"),
        pytest.param(_table_spec(source_keyed=True, entries={"x": [1]}),
                     "entries['x'] must be a JSON object", id="source-table-list"),
        # Each of these loaded as something the file does not say.
        pytest.param(_table_spec(vocab="ab"), "vocab must be a list of strings",
                     id="table-vocab-string"),
        pytest.param(_ngram_spec(vocab="ab"), "vocab must be a list of strings",
                     id="ngram-vocab-string"),
        pytest.param(_table_spec(source_keyed="no"), "source_keyed must be true or false",
                     id="source-keyed-string"),
        pytest.param(_table_spec(bos=3), "bos must be a string", id="bos-number"),
        pytest.param(_table_spec(default={"a": True, "</s>": False}),
                     "default: probability for 'a' is not a number", id="boolean-probability"),
        # A misspelt kind: the first decoded as a table model, the second
        # was read as one and failed on its missing default.
        pytest.param(_table_spec(kind="ngarm"), "unknown model kind 'ngarm'", id="table-kind-ngarm"),
        pytest.param(_ngram_spec(kind="NGram"), "unknown model kind 'NGram'", id="ngram-kind-NGram"),
        # These were format errors already, through branches no other test runs.
        pytest.param(_table_spec(default={"a": "0.5", "</s>": 0.5}),
                     "default: probability for 'a' is not a number", id="string-probability"),
        pytest.param(_table_spec(entries={"<s>": {"a": 0.5, "</s>": 0.5, "<s>": 0.0}}),
                     "entries['<s>']: begin marker cannot receive probability",
                     id="begin-marker-probability"),
        pytest.param(_table_spec(vocab=None), "missing vocab", id="missing-vocab"),
        pytest.param(_table_spec(default=None), "missing default", id="missing-default"),
        pytest.param([_table_spec()], "table model spec must be a JSON object", id="not-an-object"),
        # The later distribution decoded in place of the earlier one.
        pytest.param(_table_spec(entries={"<s>": {"a": 0.9, "</s>": 0.1},
                                          "<s>  ": {"a": 1.0}}),
                     "entries: '<s>' and '<s>  ' spell the same prefix", id="prefix-spelled-twice"),
        pytest.param(_table_spec(source_keyed=True,
                                 entries={"x": {"<s> a": {"</s>": 1.0}, "<s>\ta": {"a": 1.0}}}),
                     "entries['x']: '<s> a' and '<s>\\ta' spell the same prefix",
                     id="source-table-prefix-spelled-twice"),
    ],
)
def test_decode_wrong_shaped_model_field_is_format_error(tmp_path, capsys, spec, named):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(spec))
    inputs = tmp_path / "in.txt"
    inputs.write_text("x\n")
    code = run(["decode", model, inputs, "--decoder", "exact", "--out", tmp_path / "o.jsonl"])
    assert code == 3
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("field", ["entries", "default"])
@pytest.mark.parametrize("value, fault", [
    pytest.param("1" + "0" * 400, "probability for 'a' is an int too large for a float",
                 id="401-digit-int"),
    pytest.param("1e400", "distribution sums to inf, not 1", id="overflowing-exponent"),
])
def test_decode_table_probability_beyond_every_float_is_format_error(tmp_path, capsys, field,
                                                                     value, fault):
    """A JSON integer beyond every float ended in an OverflowError traceback
    (exit 1); a JSON float that overflows reads as inf and fails the sum
    check. Both exit 3 and name the distribution."""
    dist = {"a": "P", "</s>": 0.5}
    spec = _table_spec(**({"entries": {"<s>": dist}} if field == "entries" else {"default": dist}))
    model = tmp_path / "m.json"
    model.write_text(json.dumps(spec).replace('"P"', value))
    inputs = tmp_path / "in.txt"
    inputs.write_text("x\n")
    code = run(["decode", model, inputs, "--decoder", "greedy", "--out", tmp_path / "o.jsonl"])
    assert code == 3
    err = capsys.readouterr().err
    where = "entries['<s>']" if field == "entries" else "default"
    assert f"{where}: {fault}" in err and "Traceback" not in err


@pytest.mark.parametrize("lambdas, named", [
    pytest.param("a,b", "bad numeric list 'a,b'", id="not-numbers"),
    pytest.param(",", "lambda list is empty", id="empty"),
    pytest.param("0,nan", "weight nan must be", id="nan"),
    pytest.param("inf", "weight inf must be", id="inf"),
    pytest.param("1,-1", "weight -1.0 must be", id="negative"),
])
def test_sweep_bad_lambdas_is_usage_error(tmp_path, capsys, lambdas, named):
    """A weight that is not finite and >= 0 is rejected under every kind:
    ``none`` scores no penalty but still writes each weight to the CSV."""
    rows = tmp_path / "rows.csv"
    fixture = [FIXTURES / "m3.json", FIXTURES / "m3.inputs.txt", FIXTURES / "m3.refs.txt"]
    for kind in ("none", *(k.value for k in RegularizerKind)):
        assert run(["sweep", *fixture, "--objective-kind", kind, "--lambdas", lambdas,
                    "--out", rows]) == 2
        assert named in capsys.readouterr().err
        assert not rows.exists()


def test_decode_huge_order_without_counts(tmp_path, capsys):
    """Every row of a model without counts is the unseen-context row, so an
    order of 10**21 decodes as order 2 does. It used to end in an
    OverflowError traceback at the first decode, when a prefix was padded
    to its context."""
    empty = {"contexts": [], "events_per_context": [], "event_tokens": [], "event_counts": []}
    inputs = tmp_path / "in.txt"
    inputs.write_text("x\n")
    runs = []
    for order in (2, 10**21):
        model = tmp_path / f"lm{len(runs)}.json"
        model.write_text(json.dumps(_ngram_spec(order=order, **empty)))
        out = tmp_path / f"o{len(runs)}.jsonl"
        exact = run(["decode", model, inputs, "--decoder", "exact", "--out", out])
        # Uniform rows tie every step, and beam keeps extending on a tie.
        beam = run(["decode", model, inputs, "--decoder", "beam", "--k", "2",
                    "--out", tmp_path / "beam.jsonl"])
        assert "Traceback" not in capsys.readouterr().err
        runs.append((exact, beam, out.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][:2] == (0, 2)
    assert json.loads(runs[0][2])["tokens"] == []


@pytest.mark.parametrize("text, line_no, named", [
    ("a b\nb <s> a\n</s>\n", 2, "<s>"),
    ("a\n\n</s> a <s>\n", 3, "</s> and <s>"),
])
def test_train_ngram_corpus_with_marker_is_format_error(tmp_path, capsys, text, line_no, named):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(text)
    out = tmp_path / "model.json"
    assert run(["train-ngram", corpus, "--out", out]) == 3
    err = capsys.readouterr().err
    assert f"{corpus} line {line_no} holds {named}:" in err
    assert not out.exists()


def test_train_ngram_token_that_only_contains_a_marker_is_ordinary(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a<s> </s>b\n")
    out = tmp_path / "model.json"
    assert run(["train-ngram", corpus, "--out", out]) == 0
    assert load_model(out).vocabulary.tokens == ("</s>b", "a<s>")


# Five lines, the longest of 4 tokens; 10 distinct contexts at any order of 5 or more.
FIVE_LINES = "a b\nb c a\n\nc\na a b c\n"


def test_train_ngram_huge_order_is_usage_error(tmp_path, capsys):
    """10**12 ended in a MemoryError traceback (exit 1) from the begin
    markers padding each context, and 10**8 started allocating gigabytes.
    The guard raises after counting, which reads only the longest line's
    depth, and before the padding is built."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(FIVE_LINES)
    out = tmp_path / "model.json"
    for order in (10**8, 10**12, 10**21):
        assert run(["train-ngram", corpus, "--order", order, "--out", out]) == 2
        err = capsys.readouterr().err
        assert (f"order {order} would pad each of the 10 contexts with {order - 5} begin "
                f"markers, beyond the guard of {regdecode.models.NGRAM_PADDING_GUARD} in all"
                ) in err
        assert "Traceback" not in err
        assert not out.exists()


def test_train_ngram_padding_guard_is_inclusive(tmp_path, capsys, monkeypatch):
    """An order whose padding comes to the guard exactly trains; one more
    begin marker per context does not."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(FIVE_LINES)
    out = tmp_path / "model.json"
    monkeypatch.setattr(regdecode.models, "NGRAM_PADDING_GUARD", 10 * 3)
    assert run(["train-ngram", corpus, "--order", 5 + 3, "--out", out]) == 0
    assert load_model(out).to_spec()["contexts"][0] == " ".join(["<s>"] * 7)
    assert run(["train-ngram", corpus, "--order", 5 + 4, "--out", tmp_path / "m9.json"]) == 2
    assert "beyond the guard of 30 in all" in capsys.readouterr().err


@pytest.mark.parametrize(
    "order, named",
    [
        pytest.param(2.5, "2.5", id="fraction"),
        pytest.param(True, "True", id="boolean"),
        pytest.param("1e400", "inf", id="overflowing-exponent"),
    ],
)
def test_decode_non_integer_ngram_order_is_format_error(tmp_path, capsys, order, named):
    """A fraction used to be truncated, a boolean read as 1, and 1e400 (a
    JSON float that overflows to inf) ended in an OverflowError."""
    model = tmp_path / "lm.json"
    text = json.dumps(_ngram_spec(order="ORDER")).replace('"ORDER"', json.dumps(order))
    model.write_text(text.replace('"1e400"', "1e400"))
    with pytest.raises(ModelFormatError) as caught:
        load_model(model)
    assert "order" in str(caught.value) and named in str(caught.value)
    inputs = tmp_path / "in.txt"
    inputs.write_text("x\n")
    code = run(["decode", model, inputs, "--decoder", "greedy", "--out", tmp_path / "o.jsonl"])
    assert code == 3
    err = capsys.readouterr().err
    assert "order" in err and "Traceback" not in err


@pytest.mark.parametrize("add_k", ["inf", "nan"])
def test_train_ngram_non_finite_add_k_is_usage_error(tmp_path, capsys, add_k):
    """An infinite add_k used to train, then made every row NaN: beam and
    exact ended in an IndexError traceback, greedy in "did not terminate"."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b\n")
    out = tmp_path / "model.json"
    assert run(["train-ngram", corpus, "--add-k", add_k, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"{ADD_K_RULE}{add_k}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-lists"),
    pytest.param('{"vocab": ["a"], "default": ' + '{"a": ' * 50_000 + "1" + "}" * 50_001,
                 id="nested-default"),
])
def test_deeply_nested_model_file_is_format_error(tmp_path, capsys, text):
    """JSON nested past the parser's recursion limit ended in a
    ``RecursionError`` traceback (exit 1)."""
    model = tmp_path / "m.json"
    model.write_text(text)
    inputs = tmp_path / "in.txt"
    inputs.write_text("x\n")
    code = run(["decode", model, inputs, "--decoder", "greedy", "--out", tmp_path / "o.jsonl"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: cannot parse model {model}: ") and "Traceback" not in err


NOT_UTF8 = b"a b\n\xff\xfe c\n"


@pytest.mark.parametrize("role", ["model", "corpus", "input", "refs"])
def test_non_utf8_file_is_format_error(tmp_path, capsys, role):
    """Each file the CLI reads ends in exit 3, naming the file, when it is
    not UTF-8 text."""
    paths = {name: tmp_path / f"{name}.txt" for name in ("model", "corpus", "input", "refs")}
    paths["model"] = tmp_path / "lm.json"
    paths["model"].write_text(json.dumps(_ngram_spec()))
    for name in ("corpus", "input", "refs"):
        paths[name].write_text("a b\n")
    paths[role].write_bytes(NOT_UTF8)
    out = tmp_path / "out"
    if role == "corpus":
        argv = ["train-ngram", paths["corpus"], "--out", out]
    elif role == "refs":
        argv = ["sweep", paths["model"], paths["input"], paths["refs"], "--out", out]
    else:
        argv = ["decode", paths["model"], paths["input"], "--decoder", "greedy", "--out", out]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert str(paths[role]) in err and "UTF-8" in err.upper()
    assert "Traceback" not in err
    assert not out.exists()


def test_no_hypothesis_error_names_input_line(tmp_path, capsys):
    """The default row never ends; only the first source has a row that does."""
    model = tmp_path / "m.json"
    model.write_text(json.dumps({
        "vocab": ["a"], "source_keyed": True,
        "entries": {"s1": {"<s>": {"a": 0.0, "</s>": 1.0}}},
        "default": {"a": 1.0, "</s>": 0.0},
    }))
    inputs = tmp_path / "in.txt"
    inputs.write_text("s1\ns2\n")
    refs = tmp_path / "refs.txt"
    refs.write_text("a\na\n")
    assert run(["decode", model, inputs, "--decoder", "exact", "--n-max", "3",
                "--out", tmp_path / "o.jsonl"]) == 2
    assert "input line 2: no complete hypothesis within n_max=3" in capsys.readouterr().err
    assert run(["decode", model, inputs, "--decoder", "greedy", "--n-max", "3",
                "--out", tmp_path / "o.jsonl"]) == 2
    err = capsys.readouterr().err
    assert "input line 2:" in err and "n_max=3" in err
    assert run(["sweep", model, inputs, refs, "--objective-kind", "none",
                "--decoder", "beam", "--n-max", "3", "--out", tmp_path / "rows.csv"]) == 2
    assert "input line 2:" in capsys.readouterr().err


def test_brute_force_above_guard_is_usage_error(tmp_path, capsys):
    inputs = tmp_path / "in.txt"
    inputs.write_text("x\n")
    assert run(["decode", FIXTURES / "m1.json", inputs, "--decoder", "brute", "--n-max", "50",
                "--out", tmp_path / "o.jsonl"]) == 2
    err = capsys.readouterr().err
    assert "exceed the brute-force guard" in err
    assert "Traceback" not in err


def test_exact_agenda_above_guard_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(regdecode.search, "EXACT_AGENDA_GUARD", 5)
    inputs = tmp_path / "in.txt"
    inputs.write_text("x\n")
    assert run(["decode", FIXTURES / "m1.json", inputs, "--decoder", "exact", "--n-max", "6",
                "--objective", "len=reward:3", "--out", tmp_path / "o.jsonl"]) == 2
    err = capsys.readouterr().err
    assert "guard of 5 open prefixes" in err
    assert "Traceback" not in err


def test_exact_decodes_of_one_ngram_file_in_one_process_agree(tmp_path, monkeypatch,
                                                              seeded_trigram):
    """On the seeded trigram, a plain exact decode at ``--n-max 100000``
    finishes, and the completion table it builds holds fewer rows than
    n_max. Two exact decodes of the file in one process, which share the
    file's table through ``load_model``, in either order, write the JSONL
    bytes that each writes as the first decode after a cold load,
    ``nodes_expanded`` included."""
    model, inputs = tmp_path / "lm.json", tmp_path / "in.txt"
    save_model(seeded_trigram, model)
    inputs.write_text("t001 t002\n\n")

    def decode(objective, n_max, name):
        out = tmp_path / name
        assert run(["decode", model, inputs, "--decoder", "exact", "--objective", objective,
                    "--n-max", n_max, "--out", out]) == 0
        return out.read_bytes()

    monkeypatch.setattr(regdecode.models, "_last_ngram_file", None)
    decode("", 100000, "huge.jsonl")
    assert len(load_model(model).completion_table.rows) < 100000
    decodes = [("len=reward:1", 12), ("square=0.1", 6)]
    first = {}
    for objective, n_max in decodes:
        monkeypatch.setattr(regdecode.models, "_last_ngram_file", None)
        first[objective] = decode(objective, n_max, "first.jsonl")
    for pair in (decodes, decodes[::-1]):
        monkeypatch.setattr(regdecode.models, "_last_ngram_file", None)
        for objective, n_max in pair:
            assert decode(objective, n_max, "again.jsonl") == first[objective], objective
    nodes = [json.loads(line)["nodes_expanded"] for line in first["len=reward:1"].splitlines()]
    assert nodes == [3, 3]  # 106,282 each when best_step bounded every child


def test_sweep_single_lambda_matches_decode(tmp_path, m3):
    out = tmp_path / "rows.csv"
    assert run([
        "sweep", FIXTURES / "m3.json", FIXTURES / "m3.inputs.txt", FIXTURES / "m3.refs.txt",
        "--objective-kind", "greedy", "--lambdas", "0", "--decoder", "exact",
        "--n-max", "6", "--out", out,
    ]) == 0
    header, row = out.read_text().splitlines()
    assert header == "lambda,k,bleu,mean_sigma,mean_len,empty_rate"
    fields = row.split(",")
    assert float(fields[0]) == 0.0
    assert float(fields[5]) == 1.0  # every optimum is the empty string
    assert float(fields[4]) == 0.0


def test_sweep_lambda_extremes_flip_empty_rate(tmp_path):
    out = tmp_path / "rows.csv"
    assert run([
        "sweep", FIXTURES / "m3.json", FIXTURES / "m3.inputs.txt", FIXTURES / "m3.refs.txt",
        "--objective-kind", "greedy", "--lambdas", "0,1e6", "--decoder", "exact",
        "--n-max", "6", "--out", out,
    ]) == 0
    rows = out.read_text().splitlines()[1:]
    rates = [float(r.split(",")[5]) for r in rows]
    assert rates == [1.0, 0.0]


def test_sweep_k_non_increasing_bleu(tmp_path):
    out = tmp_path / "rows.csv"
    assert run([
        "sweep", FIXTURES / "beam_family.json",
        FIXTURES / "beam_family.inputs.txt", FIXTURES / "beam_family.refs.txt",
        "--objective-kind", "none", "--lambdas", "0", "--ks", "1,2,4,8",
        "--decoder", "beam", "--n-max", "8", "--out", out,
    ]) == 0
    rows = out.read_text().splitlines()[1:]
    bleus = [float(r.split(",")[2]) for r in rows]
    assert len(bleus) == 4
    assert all(a >= b for a, b in zip(bleus, bleus[1:]))


def test_sweep_ks_needs_beam_decoder(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = run([
        "sweep", FIXTURES / "m3.json", FIXTURES / "m3.inputs.txt", FIXTURES / "m3.refs.txt",
        "--lambdas", "0", "--ks", "1,2,4", "--decoder", "exact", "--n-max", "6", "--out", out,
    ])
    assert code == 2
    assert "--ks" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_empty_ks_is_usage_error(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = run([
        "sweep", FIXTURES / "beam_family.json", FIXTURES / "beam_family.inputs.txt",
        FIXTURES / "beam_family.refs.txt", "--objective-kind", "none", "--lambdas", "0",
        "--ks", ",", "--decoder", "beam", "--n-max", "8", "--out", out,
    ])
    assert code == 2
    assert "--ks" in capsys.readouterr().err
    assert not out.exists()


def test_greedy_decoder_with_objective_is_usage_error(tmp_path, capsys):
    inputs = tmp_path / "in.txt"
    inputs.write_text("x\n")
    out = tmp_path / "out.jsonl"
    code = run(["decode", FIXTURES / "m1.json", inputs, "--decoder", "greedy",
                "--objective", "greedy=5", "--n-max", "6", "--out", out])
    assert code == 2
    assert "greedy decoder" in capsys.readouterr().err
    assert not out.exists()
    fixture = [FIXTURES / "m3.json", FIXTURES / "m3.inputs.txt", FIXTURES / "m3.refs.txt"]
    rows = tmp_path / "rows.csv"
    code = run(["sweep", *fixture, "--objective-kind", "greedy", "--lambdas", "0,1",
                "--decoder", "greedy", "--n-max", "6", "--out", rows])
    assert code == 2
    assert "greedy decoder" in capsys.readouterr().err
    assert not rows.exists()
    # Weight zero, or no penalty kind, is the plain objective greedy decodes.
    for kind, lambdas in (("greedy", "0"), ("none", "0,1")):
        assert run(["sweep", *fixture, "--objective-kind", kind, "--lambdas", lambdas,
                    "--decoder", "greedy", "--n-max", "6", "--out", rows]) == 0


def test_sweep_misaligned_refs_rejected(tmp_path, capsys):
    refs = tmp_path / "refs.txt"
    refs.write_text("a b\n")
    code = run([
        "sweep", FIXTURES / "m3.json", FIXTURES / "m3.inputs.txt", refs,
        "--lambdas", "0", "--out", tmp_path / "rows.csv",
    ])
    assert code == 2


def test_verify_bleu_suite(capsys):
    assert run(["verify", "--suite", "bleu"]) == 0
    assert "4/4" in capsys.readouterr().out


def test_verify_exactness_small(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run(["--seed", "5", "verify", "--suite", "exactness", "--trials", "5",
                "--out", report]) == 0
    payload = json.loads(report.read_text())
    assert payload["passed"] == payload["checks"]
    assert payload["failures"] == []


def _no_token_ids(decoder):
    """``decoder`` with the best hypothesis of each record it returns
    stripped of its token ids, a wrong answer for every check."""
    def wrong(*args):
        record = decoder(*args)
        return dataclasses.replace(record, best=dataclasses.replace(record.best, token_ids=()))
    return wrong


@pytest.mark.parametrize(
    "suite, name, wrong, keys",
    [
        ("exactness", "exact_search", _no_token_ids,
         {"trial", "objective", "exact", "brute", "exact_score", "brute_score"}),
        ("thm1", "greedy_search", _no_token_ids, {"trial", "exact", "greedy"}),
        ("thm2", "brute_force_set", lambda f: lambda *args: f(*args)[1:],
         {"trial", "k", "beam", "set"}),
        ("bleu", "corpus_bleu",
         lambda f: lambda *args: dataclasses.replace(f(*args), corpus_bleu=-1.0), {"check"}),
    ],
)
def test_verify_failure_is_reported(tmp_path, capsys, monkeypatch, suite, name, wrong, keys):
    """Each suite, given a wrong answer through the name it checks in
    ``regdecode.cli``, exits 1 and reports what failed."""
    from regdecode import cli

    monkeypatch.setattr(cli, name, wrong(getattr(cli, name)))
    report = tmp_path / "report.json"
    assert run(["--seed", "0", "verify", "--suite", suite, "--trials", "2",
                "--out", report]) == 1
    payload = json.loads(report.read_text())
    failures = payload["failures"]
    assert failures and payload["passed"] == payload["checks"] - len(failures)
    assert all(keys <= failure.keys() for failure in failures)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{suite}: {payload['passed']}/{payload['checks']} checks passed (seed=0)"
    assert lines[1:] == [f"  FAIL {json.dumps(f, sort_keys=True)}" for f in failures[:10]]


def test_verify_reports_are_bit_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["--seed", "11", "verify", "--suite", "thm2", "--trials", "4",
                    "--out", path]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_outputs_are_bit_identical(tmp_path):
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert run([
            "sweep", FIXTURES / "m3.json", FIXTURES / "m3.inputs.txt",
            FIXTURES / "m3.refs.txt", "--objective-kind", "greedy",
            "--lambdas", "0,20,1e6", "--decoder", "exact", "--n-max", "6",
            "--out", out,
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_seed_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv("REGDECODE_SEED", "123")
    report = tmp_path / "report.json"
    assert run(["verify", "--suite", "bleu", "--out", report]) == 0
    assert json.loads(report.read_text())["seed"] == 123


def test_seed_env_var_is_read_on_every_call(tmp_path, monkeypatch):
    """``main`` reuses its parser, but not a seed default: each call reads
    $REGDECODE_SEED afresh."""
    seeds = []
    for env in ("7", "11"):
        monkeypatch.setenv("REGDECODE_SEED", env)
        report = tmp_path / f"report-{env}.json"
        assert run(["verify", "--suite", "thm1", "--trials", "1", "--out", report]) == 0
        seeds.append(json.loads(report.read_text())["seed"])
    assert seeds == [7, 11]


def test_usage_error_leaves_the_next_call_parsing(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REGDECODE_SEED", raising=False)
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", "no-such-suite"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    report = tmp_path / "report.json"
    assert run(["--seed", "3", "verify", "--suite", "bleu", "--out", report]) == 0
    payload = json.loads(report.read_text())
    assert (payload["suite"], payload["seed"], payload["trials"]) == ("bleu", 3, 1)


@pytest.mark.parametrize(
    "argv, env, named",
    [
        (["--seed", "-1", "verify", "--suite", "thm1", "--trials", "2"], None, "--seed"),
        (["verify", "--suite", "bleu"], "xyz", "$REGDECODE_SEED"),
        (["verify", "--suite", "bleu"], "-4", "$REGDECODE_SEED"),
        (["verify", "--suite", "exactness", "--trials", "-3"], None, "--trials"),
        (["verify", "--suite", "exactness", "--trials", "0"], None, "--trials"),
    ],
    ids=["negative-seed", "malformed-seed-env", "negative-seed-env", "negative-trials",
         "zero-trials"],
)
def test_bad_seed_or_trials_is_usage_error(monkeypatch, capsys, argv, env, named):
    if env is None:
        monkeypatch.delenv("REGDECODE_SEED", raising=False)
    else:
        monkeypatch.setenv("REGDECODE_SEED", env)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert "checks passed" not in captured.out
