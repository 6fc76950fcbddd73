"""Command-line front end: model training, corpus decoding, sweeps, and
self-verification against the brute-force oracles.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O or
format error (a file that cannot be read, is not UTF-8 text, is not a
well-formed model, or is a training corpus with a marker token). A decode
with no complete hypothesis within ``--n-max``, a brute-force search
above its size guard, or an exact search whose agenda outgrows its guard
is a usage error: the fix is always a flag (``--n-max`` or
``--decoder``). So is a negative or malformed seed
(``--seed`` or ``$REGDECODE_SEED``), a ``verify --trials`` below 1, and
a ``decode`` whose total, length term or penalty overflows to a
non-finite float, which JSON cannot hold, or whose objective's arithmetic
gives NaN (an overflowed length reward less an overflowed penalty); the
fix is a smaller weight in ``--objective``, and that decode writes no
output file.

Every output file gets a sidecar ``<name>.manifest.json`` recording the
command, configuration, input digests, and seed; identical manifests give
bit-identical outputs, so timing is deliberately kept out of the files.
A command reads each file it names once: the model, inputs and references
are parsed from the bytes read, and the manifest digests those same bytes
(a sweep's references included), so a file rewritten during a run cannot
make a manifest describe other bytes than were decoded. ``train-ngram``
digests its corpus the same way and its model file as written.

``main`` may be called many times in one process (the sweep scripts and
the benchmark do): it builds its argument parser on the first call and
reuses it, and reads ``$REGDECODE_SEED`` afresh on every call.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .evaluate import corpus_bleu, summarize_run
from .exceptions import ContractError, ModelFormatError, NoHypothesisError, RegdecodeError
from .models import load_model, read_utf8, save_model, train_ngram
from .objectives import MAP_OBJECTIVE, Objective, RegularizerKind, parse_objective
from .randmodels import exactness_instance, set_limit_instance, tie_free_instance
from .search import (
    _check_budget,
    _complete_walk,
    _oracle_argmax,
    beam_search,
    brute_force,
    brute_force_set,
    exact_search,
    greedy_search,
)
from .vocab import DEFAULT_BOS, DEFAULT_EOS

SEED_ENV_VAR = "REGDECODE_SEED"

EXACTNESS_LAMBDAS = (0.5, 2.0, 10.0)
# The thm1 suite's greedy weight: Objective weights must be finite. The thm2
# suite ranks sets in the exact large-weight limit (brute_force_set, lam=inf).
LIMIT_LAMBDA = 1e6


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _versions() -> dict:
    return {
        "regdecode": __version__,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


def _write_manifest(out: Path, args, config: dict, **digests: str) -> None:
    """Write the ``<out>.manifest.json`` sidecar of one output file;
    ``digests`` are the ``*_digest`` fields of the files it read."""
    payload = {
        "command": args.command,
        "config": config,
        **digests,
        "seed": args.seed,
        "versions": _versions(),
    }
    out.with_name(out.name + ".manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _default_seed() -> int:
    text = os.environ.get(SEED_ENV_VAR, "0")
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ContractError(f"${SEED_ENV_VAR} must be a non-negative integer, got {text!r}")
    return seed


class _TextFormatError(RegdecodeError, ValueError):
    """A corpus, input or references file is not UTF-8 text, or a corpus
    line holds a marker (exit 3)."""


def _read_text(path: str) -> tuple[str, str]:
    """A UTF-8 text file's text and the digest of its bytes (``read_utf8``)."""
    try:
        return read_utf8(path)
    except UnicodeDecodeError as exc:
        raise _TextFormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _read_token_lines(path: str) -> tuple[list[list[str]], str]:
    """The whitespace-split lines of a UTF-8 text file, and its digest."""
    text, digest = _read_text(path)
    return [line.split() for line in text.splitlines()], digest


def _read_corpus_lines(path: str) -> tuple[list[str], str]:
    """The lines of a UTF-8 training corpus, not yet split, so that a
    reader can split each in turn and hold no line's tokens past it, and
    the corpus digest. A line that holds a begin or end marker is a format
    error that names the first such line."""
    text, digest = _read_text(path)
    lines = text.splitlines()
    markers = {DEFAULT_BOS, DEFAULT_EOS}
    if any(marker in text for marker in markers):  # cheap; the line walk runs only on a hit
        for line_no, line in enumerate(lines, start=1):
            found = markers.intersection(line.split())
            if found:
                raise _TextFormatError(
                    f"{path} line {line_no} holds {' and '.join(sorted(found))}: the begin "
                    "and end markers are implicit and may not appear in a corpus"
                )
    return lines, digest


def _decode_one(decoder: str, model, source, objective, k: int, n_max: int):
    if decoder == "greedy":
        return greedy_search(model, source, n_max)
    if decoder == "beam":
        return beam_search(model, source, objective, k, n_max)
    if decoder == "exact":
        return exact_search(model, source, objective, n_max)
    return brute_force(model, source, objective, n_max)


def _decode_corpus(decoder, model, sources, objective, k: int, n_max: int):
    records = []
    for line_no, src in enumerate(sources, start=1):
        try:
            records.append(_decode_one(decoder, model, src, objective, k, n_max))
        except (NoHypothesisError, ContractError) as exc:  # no hypothesis, or a NaN score
            raise type(exc)(f"input line {line_no}: {exc}") from exc
    return records


def _record_json(source: list[str], record) -> dict:
    best = record.best
    return {
        "source": " ".join(source),
        "text": " ".join(best.surface),
        "tokens": list(best.surface),
        "complete": best.complete,
        "log_prob": best.log_prob,
        "surprisals": list(best.trace),
        "penalties": dict(sorted(best.breakdown.penalties.items())),
        "length_term": best.breakdown.length_term,
        "total": best.breakdown.total,
        "nodes_expanded": record.nodes_expanded,
        "optimality_certificate": record.optimality_certificate,
    }


def _check_finite(records) -> None:
    """A decoded total, length term or penalty that overflowed to a
    non-finite float is a usage error naming the input line and field: JSON
    has no infinity, and the fix is a smaller weight."""
    for line_no, record in enumerate(records, start=1):
        breakdown = record.best.breakdown
        fields = {"length_term": breakdown.length_term}
        fields.update((f"penalties.{kind}", value) for kind, value in breakdown.penalties.items())
        fields["total"] = breakdown.total
        for name, value in fields.items():
            if not math.isfinite(value):
                raise ContractError(f"input line {line_no}: {name} is {value}, which JSON "
                                    "cannot hold; use a smaller weight")


def cmd_train_ngram(args) -> int:
    corpus, corpus_digest = _read_corpus_lines(args.corpus)
    model = train_ngram(map(str.split, corpus), args.order, args.add_k)  # one line at a time
    out = Path(args.out)
    save_model(model, out)
    config = {"order": args.order, "add_k": args.add_k, "corpus": args.corpus}
    _write_manifest(out, args, config, model_digest=_digest(args.out), input_digest=corpus_digest)
    print(f"trained order-{args.order} model on {len(corpus)} lines -> {args.out}")
    return 0


def cmd_decode(args) -> int:
    if args.k is not None and args.decoder != "beam":
        raise ContractError(f"--k is a beam width: it needs --decoder beam, not {args.decoder}")
    if args.decoder == "greedy" and args.objective.strip():
        raise ContractError("the greedy decoder scores no --objective: use beam, exact or brute")
    model = load_model(args.model)
    sources, input_digest = _read_token_lines(args.input)
    objective = parse_objective(args.objective)
    k = 1 if args.k is None else args.k
    _check_budget(k, args.n_max)  # so a bad flag fails on an empty input too
    records = _decode_corpus(args.decoder, model, sources, objective, k, args.n_max)
    _check_finite(records)
    out = Path(args.out)
    with out.open("w", encoding="utf-8") as fh:
        for source, record in zip(sources, records):
            fh.write(json.dumps(_record_json(source, record), sort_keys=True) + "\n")
    manifest_config = {
        "decoder": args.decoder,
        "objective": objective.describe(),
        "k": args.k,
        "n_max": args.n_max,
    }
    _write_manifest(out, args, manifest_config, model_digest=model.file_digest,
                    input_digest=input_digest)
    print(f"decoded {len(sources)} inputs -> {args.out}")
    return 0


def _parse_number_list(text: str, cast) -> list:
    try:
        return [cast(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ContractError(f"bad numeric list {text!r}") from None


def cmd_sweep(args) -> int:
    if args.ks and args.decoder != "beam":
        raise ContractError(f"--ks are beam widths: they need --decoder beam, not {args.decoder}")
    model = load_model(args.model)
    sources, input_digest = _read_token_lines(args.input)
    references, refs_digest = _read_token_lines(args.refs)
    if len(sources) != len(references):
        raise ContractError(
            f"{len(sources)} inputs but {len(references)} references"
        )
    lambdas = _parse_number_list(args.lambdas, float)
    if not lambdas:
        raise ContractError("lambda list is empty")
    for lam in lambdas:  # every kind, "none" too, writes each weight to the CSV
        if not (math.isfinite(lam) and lam >= 0):
            raise ContractError(f"--lambdas weight {lam!r} must be finite and >= 0")
    kind = args.objective_kind
    if args.decoder == "greedy" and kind != "none" and any(lambdas):
        raise ContractError(
            "the greedy decoder scores no objective: a non-zero --lambdas needs "
            "beam, exact or brute"
        )
    ks = _parse_number_list(args.ks, int) if args.ks else [1]
    if not ks:
        raise ContractError("beam width list --ks is empty")
    rows = []
    for lam in lambdas:
        if kind == "none" or lam == 0.0:
            objective = Objective()
        else:
            objective = Objective(((RegularizerKind(kind), lam),))
        for k in ks:
            _check_budget(k, args.n_max)
            records = _decode_corpus(args.decoder, model, sources, objective, k, args.n_max)
            rows.append(summarize_run(lam, k, records, references))
    out = Path(args.out)
    with out.open("w", encoding="utf-8") as fh:
        fh.write("lambda,k,bleu,mean_sigma,mean_len,empty_rate\n")
        for row in rows:
            fh.write(
                f"{row.lam!r},{row.k},{row.bleu!r},{row.mean_sigma!r},"
                f"{row.mean_len!r},{row.empty_rate!r}\n"
            )
    manifest_config = {
        "decoder": args.decoder,
        "objective_kind": kind,
        "lambdas": lambdas,
        "ks": ks,
        "n_max": args.n_max,
    }
    _write_manifest(out, args, manifest_config, model_digest=model.file_digest,
                    input_digest=input_digest, refs_digest=refs_digest)
    print(f"swept {len(rows)} configurations -> {args.out}")
    return 0


def _suite_exactness(seed: int, trials: int):
    objectives = [("none", 0.0, Objective())]
    for kind in RegularizerKind:
        for lam in EXACTNESS_LAMBDAS:
            objectives.append((kind.value, lam, Objective(((kind, lam),))))
    checks = 0
    failures = []
    for i in range(trials):
        model, n_max = exactness_instance(seed * 1_000_003 + i)
        # One brute-force walk per trial, streamed once into the oracle
        # argmax of all 16 objectives: each penalty kind's spec runs once
        # per hypothesis, and only one chunk of the walk is held at a time.
        brutes = _oracle_argmax(model, [o for _, _, o in objectives],
                                _complete_walk(model, None, n_max), n_max)
        for (kind, lam, objective), brute in zip(objectives, brutes):
            exact = exact_search(model, None, objective, n_max)
            checks += 1
            if (
                exact.best.score != brute.best.score
                or exact.best.token_ids != brute.best.token_ids
            ):
                failures.append(
                    {
                        "trial": i,
                        "objective": f"{kind}={lam}",
                        "exact": list(exact.best.tokens),
                        "brute": list(brute.best.tokens),
                        "exact_score": exact.best.score,
                        "brute_score": brute.best.score,
                    }
                )
    return checks, failures


def _suite_thm1(seed: int, trials: int):
    objective = Objective(((RegularizerKind.GREEDY, LIMIT_LAMBDA),))
    checks = 0
    failures = []
    for i in range(trials):
        model, n_max = tie_free_instance(seed * 1_000_003 + i)
        exact = exact_search(model, None, objective, n_max)
        greedy = greedy_search(model, None, n_max)
        checks += 1
        if exact.best.token_ids != greedy.best.token_ids:
            failures.append(
                {
                    "trial": i,
                    "exact": list(exact.best.tokens),
                    "greedy": list(greedy.best.tokens),
                }
            )
    return checks, failures


def _suite_thm2(seed: int, trials: int):
    checks = 0
    failures = []
    for i in range(trials):
        model, k, n_max = set_limit_instance(seed * 1_000_003 + i)
        beam = beam_search(model, None, MAP_OBJECTIVE, k, n_max)
        chosen = brute_force_set(model, None, k, math.inf, n_max)
        checks += 1
        beam_ids = sorted(h.token_ids for h in beam.beam_set)
        set_ids = sorted(h.token_ids for h in chosen)
        if beam_ids != set_ids:
            failures.append(
                {
                    "trial": i,
                    "k": k,
                    "beam": [list(h.tokens) for h in beam.beam_set],
                    "set": [list(h.tokens) for h in chosen],
                }
            )
    return checks, failures


def _suite_bleu(seed: int, trials: int):
    del seed, trials
    failures = []
    corpus = [["the", "cat", "sat", "on", "the", "mat"], ["a", "stitch", "in", "time"]]
    if corpus_bleu(corpus, corpus).corpus_bleu != 100.0:
        failures.append({"check": "identity", "detail": "identity corpus != 100.0"})
    report = corpus_bleu([["the", "cat"]], [["the", "cat", "sat"]])
    if abs(report.corpus_bleu - 100.0 * math.exp(-0.5)) > 1e-6:
        failures.append({"check": "short-hypothesis", "got": report.corpus_bleu})
    if corpus_bleu([[], []], [["a"], ["b"]]).corpus_bleu != 0.0:
        failures.append({"check": "all-empty", "detail": "empty outputs != 0.0"})
    a = corpus_bleu(
        [["x", "y"], ["the", "cat"]], [["x", "z"], ["the", "cat", "sat"]]
    ).corpus_bleu
    b = corpus_bleu(
        [["the", "cat"], ["x", "y"]], [["the", "cat", "sat"], ["x", "z"]]
    ).corpus_bleu
    if a != b:
        failures.append({"check": "reorder-invariance", "got": [a, b]})
    return 4, failures


SUITES = {
    "exactness": (_suite_exactness, 200),
    "thm1": (_suite_thm1, 100),
    "thm2": (_suite_thm2, 50),
    "bleu": (_suite_bleu, 1),
}


def cmd_verify(args) -> int:
    runner, default_trials = SUITES[args.suite]
    trials = args.trials if args.trials is not None else default_trials
    if trials < 1:
        raise ContractError(f"--trials must be >= 1, got {trials}")
    checks, failures = runner(args.seed, trials)
    passed = checks - len(failures)
    print(f"{args.suite}: {passed}/{checks} checks passed (seed={args.seed})")
    for failure in failures[:10]:
        print(f"  FAIL {json.dumps(failure, sort_keys=True)}")
    if args.out:
        payload = {
            "suite": args.suite,
            "seed": args.seed,
            "trials": trials,
            "checks": checks,
            "passed": passed,
            "failures": failures,
            "versions": _versions(),
        }
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0 if not failures else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one: parsing leaves it as it was. ``--seed`` has no default here;
    ``main`` supplies it on each call."""
    parser = argparse.ArgumentParser(
        prog="regdecode",
        description="Decode locally normalized sequence models under "
        "surprisal-regularized objectives.",
    )
    parser.add_argument("--seed", type=int,
                        help=f"global seed (default from ${SEED_ENV_VAR} or 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-ngram", help="train an add-k n-gram model from a corpus")
    p.add_argument("corpus", help="one whitespace-tokenized sequence per line")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--add-k", type=float, default=1.0, dest="add_k")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_ngram)

    p = sub.add_parser("decode", help="decode a corpus to JSONL records")
    p.add_argument("model")
    p.add_argument("input")
    p.add_argument("--decoder", choices=["greedy", "beam", "exact", "brute"], default="beam")
    p.add_argument("--objective", default="",
                   help="e.g. 'greedy=5,square=2' or 'len=norm' (empty = plain log-probability)")
    p.add_argument("--k", type=int, default=None, help="beam width (beam decoder only)")
    p.add_argument("--n-max", type=int, default=50, dest="n_max")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("sweep", help="decode under a weight or width sweep, emit CSV")
    p.add_argument("model")
    p.add_argument("input")
    p.add_argument("refs")
    p.add_argument("--objective-kind", dest="objective_kind", default="greedy",
                   choices=["none"] + [k.value for k in RegularizerKind])
    p.add_argument("--lambdas", default="0", help="comma-separated weights")
    p.add_argument("--ks", default="",
                   help="comma-separated beam widths (beam decoder only; default 1)")
    p.add_argument("--decoder", choices=["greedy", "beam", "exact", "brute"], default="exact")
    p.add_argument("--n-max", type=int, default=50, dest="n_max")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run a self-check suite against the oracles")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--out", default=None, help="write a JSON report")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        # The seed default is read on every call, before parsing, so that a
        # bad $REGDECODE_SEED is reported even beside a usage error.
        args = _parser().parse_args(argv, argparse.Namespace(seed=_default_seed()))
        if args.seed < 0:
            raise ContractError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (OSError, ModelFormatError, _TextFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except RegdecodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
