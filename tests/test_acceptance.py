"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Oracles are the exhaustive decoders; random instances are seeded so every
run checks the identical population. Runtime ceilings are asserted with
wide margins on this desk-scale workload.
"""

import time

import numpy as np
import pytest

from regdecode import (
    MAP_OBJECTIVE,
    Objective,
    RegularizerKind,
    beam_search,
    brute_force,
    corpus_bleu,
    exact_search,
    greedy_search,
    r_greedy,
    r_local,
    r_max,
    r_square,
    r_variance,
    summarize_run,
)
from regdecode.cli import _suite_exactness, _suite_thm1, _suite_thm2, main
from regdecode.objectives import r_beam_ids
from regdecode.randmodels import random_table_model

from .conftest import FIXTURES
from .reference_bleu import compute_bleu

SEED = 20240


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} {detail}".rstrip())


def test_criterion_1_exactness_suite():
    start = time.perf_counter()
    checks, failures = _suite_exactness(SEED, 200)
    elapsed = time.perf_counter() - start
    ok = not failures and checks == 200 * 16 and elapsed < 120
    _report("criterion 1 exact-vs-brute", ok, f"({checks} checks, {elapsed:.1f}s)")
    assert checks == 200 * 16
    assert failures == []
    assert elapsed < 120


def test_criterion_2_greedy_limit():
    start = time.perf_counter()
    checks, failures = _suite_thm1(SEED, 100)
    elapsed = time.perf_counter() - start
    ok = not failures and checks == 100 and elapsed < 60
    _report("criterion 2 greedy limit", ok, f"({checks} trials, {elapsed:.1f}s)")
    assert checks == 100
    assert failures == []
    assert elapsed < 60


def test_criterion_3_set_limit():
    start = time.perf_counter()
    checks, failures = _suite_thm2(SEED, 50)
    elapsed = time.perf_counter() - start
    ok = not failures and checks == 50 and elapsed < 120
    _report("criterion 3 set limit", ok, f"({checks} trials, {elapsed:.1f}s)")
    assert checks == 50
    assert failures == []
    assert elapsed < 120


def test_criterion_4_regularizer_algebra():
    rng = np.random.default_rng(SEED)
    for i in range(1000):
        n = int(rng.integers(1, 10))
        if i % 5 == 0:
            trace = [float(rng.random() * 5.0)] * n
        else:
            trace = (rng.random(n) * 5.0).tolist()
        variance = r_variance(trace)
        spread = max(trace) - min(trace)
        if spread <= 1e-12:
            assert variance <= 1e-12
        if variance == 0.0:
            assert spread <= 1e-12
        minima = [max(0.0, u - float(rng.random())) for u in trace]
        for cut in range(1, n):
            assert r_greedy(trace[: cut + 1], minima[: cut + 1]) >= r_greedy(trace[:cut], minima[:cut]) - 1e-12
            assert r_square(trace[: cut + 1]) >= r_square(trace[:cut]) - 1e-12
            assert r_max(trace[: cut + 1]) >= r_max(trace[:cut])
    # Extension lowers these normalized penalties on constructed witnesses.
    assert r_variance([0.0, 2.0, 1.0]) < r_variance([0.0, 2.0])
    assert r_local([2.0, 2.0]) < r_local([2.0])
    # Set deviation at width one is the greedy penalty, to 1e-12.
    for i in range(50):
        model = random_table_model(np.random.default_rng(SEED + i), int(1 + i % 4) + 1)
        hyp = greedy_search(model, None, 5).best
        a = r_beam_ids([hyp.token_ids], model, "", 1, 5)
        b = r_greedy(hyp.trace, hyp.minima)
        assert abs(a - b) <= 1e-12
    _report("criterion 4 regularizer algebra", True, "(1000 traces, 50 width-one checks)")


M3_SOURCES = ("s1", "s2", "s3")
M3_LAMBDAS = (0.0, 20.0, 80.0, 1e6)


def _m3_sweep(m3):
    rows = []
    for lam in M3_LAMBDAS:
        objective = MAP_OBJECTIVE if lam == 0.0 else Objective(((RegularizerKind.GREEDY, lam),))
        records = []
        for source in M3_SOURCES:
            record = exact_search(m3, source, objective, 6)
            oracle = brute_force(m3, source, objective, 6)
            assert record.best.score == oracle.best.score
            assert record.best.token_ids == oracle.best.token_ids
            assert record.optimality_certificate and oracle.optimality_certificate
            records.append(record)
        rows.append(summarize_run(lam, 1, records, [["a", "b"]] * len(M3_SOURCES)))
    return rows


def test_criterion_5_degenerate_optimum_rate(m3):
    start = time.perf_counter()
    rows = _m3_sweep(m3)
    elapsed = time.perf_counter() - start
    rates = [row.empty_rate for row in rows]
    ok = rates[0] == 1.0 and rates[-1] == 0.0 and all(
        a >= b for a, b in zip(rates, rates[1:])
    ) and elapsed < 60
    _report("criterion 5 empty-string rate sweep", ok, f"(rates {rates}, {elapsed:.1f}s)")
    assert rates[0] == 1.0
    assert rates[-1] == 0.0
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert elapsed < 60


def test_criterion_5_sigma_strictly_decreasing(m3):
    """Stated shape: the per-sentence surprisal deviation falls strictly as
    the weight grows. With every weight-zero optimum being the empty string
    this cannot hold: a one-step trace has zero deviation, so the sweep
    starts at the global minimum of the measure and cannot strictly
    decrease from there. Kept as stated; see the failure message."""
    rows = _m3_sweep(m3)
    sigmas = [row.mean_sigma for row in rows]
    strictly_decreasing = all(a > b for a, b in zip(sigmas, sigmas[1:]))
    _report(
        "criterion 5 sigma strictly decreasing",
        strictly_decreasing,
        f"(sigmas {[round(s, 4) for s in sigmas]})",
    )
    assert strictly_decreasing, (
        "mean surprisal deviation cannot strictly decrease across this sweep: "
        f"got {sigmas}; the weight-zero row is all empty strings whose "
        "single-step traces have deviation exactly 0, the minimum of the measure"
    )


BF_SOURCES = ("s1", "s2", "s3", "s4")
BF_KS = (1, 2, 4, 8)
BF_REFS = [["a", "b", "c"]] * 4


def _family_bleu(model, objective):
    bleus = []
    for k in BF_KS:
        records = [
            beam_search(model, source, objective, k, 8)
            for source in BF_SOURCES
        ]
        bleus.append(summarize_run(0.0, k, records, BF_REFS).bleu)
    return bleus


def test_criterion_6_beam_degradation(beam_family):
    start = time.perf_counter()
    baseline = _family_bleu(beam_family, MAP_OBJECTIVE)
    assert all(a >= b for a, b in zip(baseline, baseline[1:]))
    assert baseline[0] > baseline[-1]

    recovered = {}
    for kind in (RegularizerKind.SQUARE, RegularizerKind.GREEDY):
        best_lam, best_bleu = None, -1.0
        for lam in (0.5, 1.0, 2.0, 5.0):
            objective = Objective(((kind, lam),))
            records = [
                beam_search(beam_family, s, objective, 8, 8)
                for s in BF_SOURCES
            ]
            bleu = summarize_run(lam, 8, records, BF_REFS).bleu
            if bleu > best_bleu:
                best_lam, best_bleu = lam, bleu
        curve = _family_bleu(beam_family, Objective(((kind, best_lam),)))
        recovered[kind.value] = (best_lam, curve)
        assert curve[-1] >= max(curve) - 1e-9
    elapsed = time.perf_counter() - start
    _report(
        "criterion 6 beam degradation",
        True,
        f"(baseline {['%.1f' % b for b in baseline]}, recovered {recovered}, {elapsed:.1f}s)",
    )
    assert elapsed < 120


def test_criterion_7_bleu_correctness():
    import math

    corpus = [["the", "cat", "sat"], ["a", "dog", "ran", "fast"]]
    assert corpus_bleu(corpus, corpus).corpus_bleu == 100.0

    report = corpus_bleu([["the", "cat"]], [["the", "cat", "sat"]])
    assert report.corpus_bleu == pytest.approx(100.0 * math.exp(-0.5), abs=1e-6)

    base = "the quick brown fox jumps over the lazy dog while rain falls on".split()
    hyps, refs = [], []
    for i in range(20):
        ref = base[i % 4 : i % 4 + 8]
        hyp = list(ref)
        if i % 3 == 0:
            hyp = hyp[:-1] + ["cat"]
        if i % 5 == 0:
            hyp = hyp[:7]
        hyps.append(hyp)
        refs.append(ref)
    ours = corpus_bleu(hyps, refs).corpus_bleu
    theirs = 100.0 * compute_bleu([[r] for r in refs], hyps)
    _report("criterion 7 corpus bleu", True, f"(ours {ours:.4f} vs reference {theirs:.4f})")
    assert ours == pytest.approx(theirs, abs=0.1)


def test_criterion_8_determinism(tmp_path):
    def run_twice(args, names):
        payloads = []
        for name in names:
            out = tmp_path / name
            code = main([str(a) for a in args + ["--out", out]])
            assert code == 0
            payloads.append(out.read_bytes())
        return payloads

    a, b = run_twice(
        ["--seed", "77", "verify", "--suite", "exactness", "--trials", "10"],
        ["v1.json", "v2.json"],
    )
    assert a == b
    a, b = run_twice(
        ["--seed", "77", "verify", "--suite", "thm2", "--trials", "5"],
        ["t1.json", "t2.json"],
    )
    assert a == b
    a, b = run_twice(
        [
            "sweep", FIXTURES / "m3.json", FIXTURES / "m3.inputs.txt",
            FIXTURES / "m3.refs.txt", "--objective-kind", "greedy",
            "--lambdas", "0,20,80,1e6", "--decoder", "exact", "--n-max", "6",
        ],
        ["s1.csv", "s2.csv"],
    )
    assert a == b
    _report("criterion 8 determinism", True, "(verify x2 suites, sweep, bit-identical)")
