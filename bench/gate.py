"""Correctness gate: every output of every pass is checked before it counts.

Checks, per output:

* decode records are re-scored with the public spec (``regdecode.score``
  for the total and log-probability, ``regdecode.trace`` for the
  surprisals) within ``TOL``, relative to the larger magnitude or 1;
* greedy tokens equal beam k=1 plain tokens, line by line;
* an exact total is at least the total of a reference beam (k=5) decode
  under the same objective and n_max;
* sweep rows match rows rebuilt from reference exact decodes;
* every verify check passes;
* at seed 0, outputs equal those recorded in ``expected_seed0.json``
  (tokens per line, sweep rows, and the number of checks each verify
  suite runs).

A check that fails marks its sentence (or verify check) failed; the run
goes on and the failures are reported in ``failed``. The spec re-scores
are timed, for ``checks_per_s`` on the decode workloads.

``expected_seed0.json`` is data. When a change to the program's outputs is
intended, the file is edited with it, and the change says why.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import regdecode

from workloads import Decode, Sweep, Verify

TOL = 1e-9
REFERENCE_BEAM_K = 5
SAME_TOKENS = (("greedy", "beam_k1"),)
SWEEP_HEADER = ["lambda", "k", "bleu", "mean_sigma", "mean_len", "empty_rate"]
EXPECTED_PATH = Path(__file__).resolve().parent / "expected_seed0.json"


class OutputFormatError(Exception):
    """An output lost a field the benchmark's metrics are read from."""


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


@dataclass
class Outcome:
    """What one invocation produced, as far as the metrics need it."""

    attempted: int = 0  # sentences or verify checks
    failed: int = 0
    nodes: int = 0  # decode only: summed nodes_expanded from the JSONL
    out_tokens: int = 0  # decode only: output tokens including the end marker
    observed: object = None  # comparable form for the seed-0 expectation
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        if len(self.problems) < 5:
            self.problems.append(problem)


class Gate:
    def __init__(self, workload, files, seed: int, run_cli) -> None:
        """Load the model for re-scoring and run the reference decodes.

        ``run_cli(argv) -> exit code`` runs the CLI the same way the passes do.
        """
        self.files = files
        self.seed = seed
        self.spec_checks = 0  # decode records re-scored with the spec
        self.spec_s = 0.0  # time in those re-scores
        self.expected = None
        if seed == 0 and EXPECTED_PATH.exists():
            data = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
            self.expected = data.get(workload.name)
        self.model = regdecode.load_model(files.model) if files.model else None
        self.sources = _lines(files.inputs) if files.inputs else []
        self.refs = _lines(files.refs) if files.refs else []
        self.reference_totals: dict[str, list[float] | None] = {}
        self.sweep_rows: dict[str, list[list[float]] | None] = {}
        ref_dir = files.work / "reference"
        ref_dir.mkdir(exist_ok=True)
        for inv in workload.invocations:
            if isinstance(inv, Decode) and inv.decoder == "exact":
                beam = Decode(inv.label, "beam", inv.objective, k=REFERENCE_BEAM_K, n_max=inv.n_max)
                recs = _reference(run_cli, beam, files, ref_dir / f"{inv.label}.jsonl", seed)
                self.reference_totals[inv.label] = None if recs is None else [r["total"] for r in recs]
            elif isinstance(inv, Sweep):
                self.sweep_rows[inv.label] = self._reference_sweep(inv, run_cli, ref_dir)

    def _reference_sweep(self, inv: Sweep, run_cli, ref_dir: Path):
        rows = []
        for i, lam in enumerate(inv.lambdas):
            objective = "" if lam == 0.0 else f"{inv.objective_kind}={lam!r}"
            recs = _reference(
                run_cli, Decode(inv.label, inv.decoder, objective, n_max=inv.n_max),
                self.files, ref_dir / f"{inv.label}-{i}.jsonl", self.seed,
            )
            if recs is None:
                return None
            hyps = [r["tokens"] for r in recs]
            n = len(recs)
            rows.append([
                lam,
                1,
                regdecode.corpus_bleu(hyps, self.refs).corpus_bleu,
                sum(statistics.pstdev(r["surprisals"]) for r in recs) / n,
                sum(len(h) for h in hyps) / n,
                sum(1 for h in hyps if not h) / n,
            ])
        return rows

    def planned(self, inv) -> int:
        """Sentences or checks an invocation should produce."""
        if isinstance(inv, Decode):
            return len(self.sources)
        if isinstance(inv, Sweep):
            return len(self.sources) * len(inv.lambdas)
        return 0  # verify: known only from its report

    def check(self, inv, out: Path, exit_code: int) -> Outcome:
        outcome = Outcome(attempted=self.planned(inv))
        if isinstance(inv, Verify) and out.exists():
            # verify writes its report, failed checks included, before exiting 1.
            self._check_verify(inv, out, outcome)
        elif exit_code != 0:
            outcome.fail(outcome.attempted, f"exit code {exit_code}")
            return outcome
        elif isinstance(inv, Decode):
            self._check_decode(inv, out, outcome)
        else:
            self._check_sweep(inv, out, outcome)
        if self.expected is not None:
            want = self.expected.get(inv.label)
            if want is None:
                outcome.fail(outcome.attempted, "no recorded seed-0 expectation")
            else:
                self._compare_expected(inv, want, outcome)
        return outcome

    def _compare_expected(self, inv, want, outcome: Outcome) -> None:
        """Fail the sentences or checks that differ from the recorded ones.

        A decode line that already failed a check is not counted again.
        """
        got = outcome.observed
        if isinstance(inv, Verify):
            differ = abs(want - got)
        elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
            per_item = len(self.sources) if isinstance(inv, Sweep) else 1
            differ = per_item * sum(g is not None and not _same(w, g) for w, g in zip(want, got))
        else:
            differ = outcome.attempted
        if differ:
            outcome.fail(differ, f"{differ} outputs differ from the recorded seed-0 ones")

    def cross_check(self, outcomes: dict[str, Outcome]) -> None:
        """Checks that compare two invocations of the same pass."""
        for a, b in SAME_TOKENS:
            if a in outcomes and b in outcomes:
                pairs = zip(outcomes[a].observed or (), outcomes[b].observed or ())
                for i, (ta, tb) in enumerate(pairs):
                    if ta is not None and tb is not None and ta != tb:
                        outcomes[b].fail(1, f"line {i}: {a} tokens {ta} != {b} tokens {tb}")

    def _check_decode(self, inv: Decode, out: Path, outcome: Outcome) -> None:
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        if len(records) != len(self.sources):
            outcome.fail(outcome.attempted, f"{len(records)} records for {len(self.sources)} inputs")
            return
        objective = (
            regdecode.MAP_OBJECTIVE if inv.decoder == "greedy"
            else regdecode.parse_objective(inv.objective)
        )
        references = self.reference_totals.get(inv.label, ())
        if references is None:
            outcome.fail(outcome.attempted, "reference beam decode failed")
            return
        vocab = self.model.vocabulary
        observed = []
        for i, (rec, source) in enumerate(zip(records, self.sources)):
            nodes = rec.get("nodes_expanded")
            if not isinstance(nodes, int) or isinstance(nodes, bool):
                raise OutputFormatError(
                    f"{inv.label}: decode record has no integer nodes_expanded field"
                )
            outcome.nodes += nodes
            problem = self._record_problem(rec, source, objective, vocab)
            if (
                problem is None and references
                and rec["total"] < references[i] and not close(rec["total"], references[i])
            ):
                problem = f"exact total {rec['total']} < beam k={REFERENCE_BEAM_K} total {references[i]}"
            if problem is not None:
                outcome.fail(1, f"line {i}: {problem}")
                observed.append(None)
                continue
            outcome.out_tokens += len(rec["tokens"]) + 1
            observed.append(rec["tokens"])
        outcome.observed = observed

    def _record_problem(self, rec, source, objective, vocab) -> str | None:
        try:
            tokens, complete = rec["tokens"], rec["complete"]
            total, log_prob, surprisals = rec["total"], rec["log_prob"], rec["surprisals"]
        except KeyError as exc:
            return f"record lacks field {exc}"
        if complete is not True:
            return "hypothesis did not reach the end marker"
        hyp = [vocab.bos, *tokens, vocab.eos]
        t0 = perf_counter()
        spec = regdecode.score(hyp, objective, self.model, source)
        trace = regdecode.trace(self.model, source, hyp)
        self.spec_s += perf_counter() - t0
        self.spec_checks += 1
        if len(trace) != len(surprisals) or not all(map(close, trace, surprisals)):
            return f"surprisals {surprisals} != spec {list(trace)}"
        if not close(spec.log_prob, log_prob):
            return f"log_prob {log_prob} != spec {spec.log_prob}"
        if not close(spec.total, total):
            return f"total {total} != spec {spec.total}"
        return None

    def _check_sweep(self, inv: Sweep, out: Path, outcome: Outcome) -> None:
        per_row = len(self.sources)
        with out.open(newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        if not table or table[0] != SWEEP_HEADER or len(table) - 1 != len(inv.lambdas):
            outcome.fail(outcome.attempted, f"unexpected sweep table shape {table[:1]}")
            return
        rows = [[float(v) for v in row] for row in table[1:]]
        outcome.observed = rows
        references = self.sweep_rows.get(inv.label)
        if references is None:
            outcome.fail(outcome.attempted, "reference exact decodes failed")
            return
        for row, ref in zip(rows, references):
            if not all(map(close, row, ref)):
                outcome.fail(per_row, f"row {row} != rebuilt {ref}")

    def _check_verify(self, inv: Verify, out: Path, outcome: Outcome) -> None:
        report = json.loads(out.read_text(encoding="utf-8"))
        checks, passed = int(report["checks"]), int(report["passed"])
        outcome.attempted = checks
        outcome.observed = checks
        if passed != checks:
            outcome.fail(checks - passed, f"{checks - passed} of {checks} checks failed")


def _lines(path: Path) -> list[list[str]]:
    return [line.split() for line in path.read_text(encoding="utf-8").splitlines()]


def _reference(run_cli, inv: Decode, files, out: Path, seed: int):
    """Records of one untimed decode, or None if the CLI failed."""
    if run_cli(inv.argv(files, out, seed)) != 0:
        return None
    return [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]


def _same(want, got) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        return isinstance(want, (int, float)) and isinstance(got, (int, float)) and (
            want == got or close(float(want), float(got))
        )
    if isinstance(want, list) and isinstance(got, list):
        return len(want) == len(got) and all(map(_same, want, got))
    return want == got


