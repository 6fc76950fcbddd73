import json
import math

import pytest

from regdecode import (
    MAP_OBJECTIVE,
    ModelFormatError,
    SearchConfig,
    beam_search,
    load_model,
    train_ngram,
)
import regdecode.search
from regdecode.cli import main

from .conftest import FIXTURES


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
    expected = beam_search(m1, ["x1"], MAP_OBJECTIVE, SearchConfig(beam_width=5, n_max=6))
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


def _ngram_spec(**changes):
    spec = {"kind": "ngram", "vocab": ["a", "b"], "order": 2, "add_k": 0.5,
            "counts": {"<s>": {"a": 2, "</s>": 1}, "a": {"b": 1}}}
    spec.update(changes)
    return {k: v for k, v in spec.items() if v is not None}


@pytest.mark.parametrize(
    "spec",
    [
        _ngram_spec(counts=None),
        _ngram_spec(counts={"<s>": {"zz": 1}}),
        _ngram_spec(counts={"zz": {"a": 1}}),
        _ngram_spec(counts={"<s>": {"a": -3}}),
        _ngram_spec(counts={"<s>": {"a": 1.5}}),
        _ngram_spec(order=0),
        _ngram_spec(counts=[1, 2]),
    ],
    ids=["missing-counts", "unknown-token", "unknown-context", "negative-count",
         "fractional-count", "bad-order", "counts-not-a-map"],
)
def test_decode_malformed_ngram_model_is_format_error(tmp_path, capsys, spec):
    model = tmp_path / "lm.json"
    model.write_text(json.dumps(spec))
    inputs = tmp_path / "in.txt"
    inputs.write_text("x\n")
    with pytest.raises(ModelFormatError):
        load_model(model)
    code = run(["decode", model, inputs, "--decoder", "greedy", "--out", tmp_path / "o.jsonl"])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err


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
    from regdecode.cli import build_parser

    args = build_parser().parse_args(["verify", "--suite", "bleu"])
    assert args.seed == 123
