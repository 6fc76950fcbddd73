#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the regdecode CLI with a per-layer split.

    python3 bench/run.py --workload beam_ngram --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``. The benchmark generates every input from ``--seed``,
sets up (cold import, inputs, ``train-ngram``) three times, then runs the
workload's CLI invocations back to back through ``regdecode.cli.main`` in
this one process (a closed loop with one client: no threads, no
``--workers``) for ``--seconds``. Each such round is a *pass*; every pass's
outputs go through the correctness gate (gate.py). Set-up runs in a child
interpreter, so this process's peak memory is that of the passes. Every
end-to-end time is scaled to a reference host speed (speed.py).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones plus the tracing overhead; the spans are written to
``.bench_out/spans-<workload>-seed<seed>.npz`` at the end.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit code 0 means the figures
were measured; any other exit prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7

LAYER_UNITS = {
    "objectives.score_calls": "count",
    "objectives.self_s": "s",
    "objectives.scores_per_node": "ratio",
    "search.nodes_expanded": "count",
    "search.nodes_per_output_token": "ratio",
    "search.self_s": "s",
    "models.calls": "count",
    "models.self_s": "s",
    "models.load_s": "s",
    "vocab.decode_calls": "count",
    "vocab.decode_s": "s",
    "randmodels.instances": "count",
    "randmodels.self_s": "s",
    "evaluate.self_s": "s",
    "surprisal.stats_calls": "count",
    "cli.self_s": "s",
}


class BenchError(Exception):
    """The run cannot produce meaningful figures."""


def import_program() -> None:
    """Import regdecode from this checkout's sources and nowhere else."""
    package = SRC / "regdecode"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no regdecode sources at {package}")
    sys.path.insert(0, str(SRC))
    import regdecode
    import regdecode.cli  # noqa: F401

    if Path(regdecode.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported regdecode from {regdecode.__file__}, not {package}")


def run_cli(argv: list[str], tracer=None) -> int:
    """One CLI invocation in this process; its own output is captured."""
    from regdecode import cli

    buf = io.StringIO()
    span = tracer.open("cli.main") if tracer is not None else None
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed invocation, not a failed benchmark
        buf.write(traceback.format_exc())
        code = 1
    finally:
        if span is not None:
            tracer.close(span)
    if code != 0:
        print(f"cli exited {code}: {' '.join(argv)}\n{buf.getvalue()}", file=sys.stderr)
    return code


@dataclass
class InvocationRun:
    inv: object
    out: Path
    exit_code: int
    wall: float
    latencies: list[float]  # untraced passes only
    scale: float = 1.0  # host-speed scale of wall and latencies (speed.py)
    nodes: int = 0
    out_tokens: int = 0
    outcome: object = None

    @property
    def label(self) -> str:
        return self.inv.label


@dataclass
class PassRun:
    traced: bool
    invocations: list[InvocationRun]
    span_range: tuple[int, int] = (0, 0)
    spec_checks: int = 0  # the gate's spec re-scores of this pass's records
    spec_s: float = 0.0  # their time, scaled

    @property
    def wall(self) -> float:
        """Raw wall time of the pass's invocations."""
        return sum(r.wall for r in self.invocations)

    @property
    def scaled_wall(self) -> float:
        return sum(r.wall * r.scale for r in self.invocations)


def run_pass(workload, files, seed, index, clock=None, tracer=None, speed=None) -> PassRun:
    """One round of the workload's invocations, back to back.

    With ``speed``, the reference loop runs before the first invocation and
    after each one, and each invocation gets the scale of its interval.
    """
    out_dir = files.work / "out"
    out_dir.mkdir(exist_ok=True)
    runs = []
    root_span = tracer.open("bench.pass") if tracer is not None else None
    if speed is not None:
        speed.mark()
    for inv in workload.invocations:
        out = out_dir / f"{inv.label}{inv.suffix}"
        out.unlink(missing_ok=True)  # a crashed invocation must not leave the last pass's output
        latencies: list[float] = []
        if clock is not None:
            clock.samples = latencies
        if tracer is not None:
            tracer.record_nodes = tracer.record_tokens = 0
        t0 = perf_counter()
        code = run_cli(inv.argv(files, out, seed, index), tracer)
        t1 = perf_counter()
        run = InvocationRun(inv, out, code, t1 - t0, latencies)
        if speed is not None:
            speed.mark()
            run.scale = speed.scale(t0, t1)
        if tracer is not None:
            run.nodes, run.out_tokens = tracer.record_nodes, tracer.record_tokens
        runs.append(run)
    if tracer is None:
        return PassRun(False, runs)
    tracer.close(root_span)
    return PassRun(True, runs, (root_span, len(tracer.start)))


def check_pass(gate, pass_run: PassRun) -> None:
    """Gate every output of a pass; decodes take node counts from the JSONL."""
    outcomes = {}
    for run in pass_run.invocations:
        run.outcome = outcomes[run.label] = gate.check(run.inv, run.out, run.exit_code)
        if run.inv.command == "decode":
            run.nodes, run.out_tokens = run.outcome.nodes, run.outcome.out_tokens
    gate.cross_check(outcomes)


def measure(workload, files, seed, seconds, trace, gate, speed):
    """Run and check passes until the next one would overrun ``seconds``.

    ``speed`` scales the untraced passes' times; ``None`` in trace mode.
    """
    from tracing import DecoderClock, Tracer

    clock = DecoderClock()
    tracer = Tracer() if trace else None
    passes: list[PassRun] = []
    costs: dict[bool, list[float]] = {False: [], True: []}
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        # A traced pass reuses the inputs of the untraced pass before it, so
        # their wall times differ by the tracing alone.
        index = len(passes) // 2 if trace else len(passes)
        t0 = perf_counter()
        if traced:
            with tracer.installed():
                pass_run = run_pass(workload, files, seed, index, tracer=tracer)
        else:
            with clock.installed():
                pass_run = run_pass(workload, files, seed, index, clock=clock, speed=speed)
        checks, spec_s = gate.spec_checks, gate.spec_s
        t_check = perf_counter()
        check_pass(gate, pass_run)
        if speed is not None:
            speed.mark()
            pass_run.spec_checks = gate.spec_checks - checks
            pass_run.spec_s = (gate.spec_s - spec_s) * speed.scale(t_check, perf_counter())
        passes.append(pass_run)
        costs[traced].append(perf_counter() - t0)
        if trace and not costs[True]:
            continue
        next_traced = trace and len(passes) % 2 == 1
        if perf_counter() - start + statistics.median(costs[next_traced]) > seconds:
            break
    return passes, tracer


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes: list[PassRun], setup_times: list[float]):
    """The user-facing figures, from host-speed-scaled times (speed.py).

    Which runs feed each figure depends on the workload. Decode workloads:
    sentences/s over the decode and sweep CLI wall time, latency
    percentiles over the ``decode`` calls (a sweep repeats one trivial
    decode per weight), and checks/s as the spec re-scores of the gate.
    Verify workload: checks/s over the suites' CLI wall time, and
    sentences/s and latencies from the decoder calls inside the suites,
    timed without the brute-force oracles.
    """
    runs = [r for p in passes for r in p.invocations]
    decoding = [r for r in runs if r.inv.command != "verify"]
    verifying = [r for r in runs if r.inv.command == "verify"]
    timed = [r for r in (decoding or verifying) if r.inv.command != "sweep"]
    latencies = [t * r.scale for r in timed for t in r.latencies]
    if not latencies:
        raise BenchError("no decoder call was timed; the CLI no longer calls the public decoders")
    if decoding:
        sentences = sum(len(r.latencies) for r in decoding)
        sentences_per_s = sentences / sum(r.wall * r.scale for r in decoding)
        # Median over passes: a pass re-scores for well under a millisecond
        # on exact_bigram, so one collector pause would swamp a pooled sum.
        checks = sum(p.spec_checks for p in passes)
        rates = [p.spec_checks / p.spec_s for p in passes if p.spec_checks]
        if not rates:
            raise BenchError("no decode record could be re-scored")
        checks_per_s = statistics.median(rates)
    else:
        sentences = len(latencies)
        sentences_per_s = sentences / sum(latencies)
        checks = sum(r.outcome.attempted - r.outcome.failed for r in verifying)
        checks_per_s = checks / sum(r.wall * r.scale for r in verifying)
    ms = [t * 1000.0 for t in latencies]
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(statistics.mean(p.scaled_wall for p in passes), "s"),
        "sentences_per_s": metric(sentences_per_s, "1/s"),
        "sentence_ms_p50": metric(quantile(ms, 50), "ms"),
        "sentence_ms_p90": metric(quantile(ms, 90), "ms"),
        "checks_per_s": metric(checks_per_s, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    samples = {
        "setup_s": len(setup_times), "wall_s": len(passes), "sentences_per_s": sentences,
        "sentence_ms_p50": len(ms), "sentence_ms_p90": len(ms), "checks_per_s": checks,
        "peak_rss_mb": 1,
    }
    return metrics, samples


def per_layer(passes: list[PassRun], tracer) -> dict:
    """Medians over the traced passes of each pass's layer figures."""
    per_pass = []
    for p in passes:
        if not p.traced:
            continue
        stats = tracer.layer_stats(*p.span_range)
        nodes = sum(r.nodes for r in p.invocations)
        if nodes == 0:
            raise BenchError("a traced pass expanded no nodes; nodes_expanded is not being read")
        stats["objectives.scores_per_node"] = stats["objectives.score_calls"] / nodes
        stats["search.nodes_expanded"] = nodes
        stats["search.nodes_per_output_token"] = nodes / sum(r.out_tokens for r in p.invocations)
        per_pass.append(stats)
    metrics = {
        name: metric(statistics.median(stats[name] for stats in per_pass), LAYER_UNITS[name])
        for name in LAYER_UNITS
    }
    # Passes alternate untraced, traced; each pair ran the same inputs.
    pairs = list(zip(passes[0::2], passes[1::2]))
    metrics["trace.overhead_s"] = metric(statistics.median(t.wall - u.wall for u, t in pairs), "s")
    metrics["trace.overhead_frac"] = metric(
        statistics.median((t.wall - u.wall) / u.wall for u, t in pairs), "ratio"
    )
    return metrics


def report_invocations(passes: list[PassRun]) -> None:
    """Per-invocation figures, medians over the untraced passes, scaled."""
    untraced = [p for p in passes if not p.traced]
    print(f"{'invocation':<20} {'units':>6} {'ms/unit':>10} {'nodes/sent':>11} {'cli_s':>8}")
    for i, first in enumerate(untraced[0].invocations):
        runs = [p.invocations[i] for p in untraced]
        units = first.outcome.attempted or 1
        if first.inv.command == "verify":
            per_unit = statistics.median(r.wall * r.scale for r in runs) * 1000.0 / units
        else:
            per_unit = statistics.median(sum(r.latencies) * r.scale for r in runs) * 1000.0 / units
        nodes = f"{first.nodes / units:.1f}" if first.inv.command == "decode" else "-"
        wall = statistics.median(r.wall * r.scale for r in runs)
        print(f"{first.label:<20} {units:>6} {per_unit:>10.3f} {nodes:>11} {wall:>8.3f}")


def run(args) -> dict:
    import_program()
    from gate import Gate
    from speed import Speed, pin_to_one_cpu

    cpu = pin_to_one_cpu()
    workload = WORKLOADS[args.workload]
    work = OUT_DIR / f"work-{workload.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    speed = Speed()
    try:
        setup_times = []
        speed.mark()
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            files = workload.set_up(ROOT, args.seed, work)
            t1 = perf_counter()
            speed.mark()
            setup_times.append((t1 - t0) * speed.scale(t0, t1))
        gate = Gate(workload, files, args.seed, run_cli)
        rss_before = peak_rss_mb()
        t0 = perf_counter()
        passes, tracer = measure(
            workload, files, args.seed, args.seconds, args.trace, gate,
            None if args.trace else speed,
        )
        elapsed = perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = [r for p in passes for r in p.invocations]
    attempted = sum(1 + r.outcome.attempted for r in runs)  # invocation + its outputs
    failed = sum((r.exit_code != 0) + r.outcome.failed for r in runs)
    for r in runs:
        for problem in r.outcome.problems:
            print(f"FAIL {r.label}: {problem}", file=sys.stderr)

    n_traced = sum(p.traced for p in passes)
    print(f"workload {workload.name} seed {args.seed}: {len(passes)} passes "
          f"({n_traced} traced) in {elapsed:.1f} s; setup {[round(t, 3) for t in setup_times]} s; "
          f"peak RSS {rss_before:.1f} MB before the passes; pinned to CPU {cpu}")
    print("raw pass walls (s):", " ".join(f"{p.wall:.3f}{'T' if p.traced else ''}" for p in passes))
    if not args.trace:
        print("scaled pass walls (s):", " ".join(f"{p.scaled_wall:.3f}" for p in passes))
        scales = sorted(r.scale for p in passes for r in p.invocations)
        print(f"host-speed scale: min {scales[0]:.3f} median {statistics.median(scales):.3f} "
              f"max {scales[-1]:.3f}; reference loop {statistics.median(speed.loop_s) * 1e3:.3f} ms")
    report_invocations(passes)
    if args.trace:
        metrics = per_layer(passes, tracer)
        samples = {name: n_traced for name in metrics}
        tracer.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.npz")
    else:
        metrics, samples = end_to_end(passes, setup_times)
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']:<6} n={samples[name]}")
    print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.6g}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
