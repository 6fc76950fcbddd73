"""Seeded inputs and the CLI invocations that make up each workload.

Every input is generated in-process from the workload seed; the program
only ever sees the files written here. ``Workload.set_up`` is the
benchmark's set-up phase and is what ``setup_s`` times.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BEAM_N_MAX = 30
EXACT_N_MAX = 8
NORM_N_MAX = 4  # len=norm expands 27,931 nodes here; at n_max=5, 46k-356k by seed


@dataclass(frozen=True)
class Files:
    """Paths of one set-up's inputs; model/inputs/refs are None for verify."""

    work: Path
    model: Path | None = None
    inputs: Path | None = None
    refs: Path | None = None


@dataclass(frozen=True)
class Decode:
    label: str
    decoder: str
    objective: str = ""
    k: int | None = None
    n_max: int = BEAM_N_MAX

    command = "decode"
    suffix = ".jsonl"

    def argv(self, files: Files, out: Path, seed: int, pass_index: int = 0) -> list[str]:
        argv = [
            "--seed", str(seed), "decode", str(files.model), str(files.inputs),
            "--decoder", self.decoder, "--objective", self.objective,
            "--n-max", str(self.n_max), "--out", str(out),
        ]
        if self.k is not None:
            argv += ["--k", str(self.k)]
        return argv


@dataclass(frozen=True)
class Sweep:
    label: str
    objective_kind: str
    lambdas: tuple[float, ...]
    n_max: int = EXACT_N_MAX
    decoder: str = "exact"

    command = "sweep"
    suffix = ".csv"

    def argv(self, files: Files, out: Path, seed: int, pass_index: int = 0) -> list[str]:
        return [
            "--seed", str(seed), "sweep", str(files.model), str(files.inputs), str(files.refs),
            "--objective-kind", self.objective_kind,
            "--lambdas", ",".join(repr(lam) for lam in self.lambdas),
            "--decoder", self.decoder, "--n-max", str(self.n_max), "--out", str(out),
        ]


@dataclass(frozen=True)
class Verify:
    label: str
    suite: str
    trials: int

    command = "verify"
    suffix = ".json"

    def argv(self, files: Files, out: Path, seed: int, pass_index: int = 0) -> list[str]:
        # Each pass draws fresh instances: a suite's cost depends on the mix
        # of instance sizes it draws, so pooling passes steadies the figures.
        return [
            "--seed", str(seed * 100 + pass_index), "verify", "--suite", self.suite,
            "--trials", str(self.trials), "--out", str(out),
        ]


def positional_lines(rng: random.Random, n_tokens: int, length: int, n_lines: int) -> list[str]:
    """Lines of exactly ``length`` tokens; position i draws uniformly from
    its own slice of a seed-shuffled vocabulary.

    A trigram context then pins the position, so every decode runs exactly
    ``length`` tokens plus the end marker whatever the seed. Uniform lines
    of random length would not do: across seeds their greedy paths ran 3
    to 29 tokens, a 5x spread in cost per sentence.
    """
    tokens = [f"t{i:03d}" for i in range(n_tokens)]
    rng.shuffle(tokens)
    width = n_tokens // length
    slices = [tokens[i * width : (i + 1) * width] for i in range(length)]
    return [" ".join(rng.choice(s) for s in slices) for _ in range(n_lines)]


def mixed_length_lines(
    rng: random.Random, n_tokens: int, n_lines: int, empty_share: float = 0.05
) -> list[str]:
    """Uniform tokens; a line is empty with probability ``empty_share``,
    otherwise 3 to 15 tokens long.

    The empty lines make the empty string the plain-objective optimum (the
    paper's degenerate-optimum phenomenon) while keeping the empty-string
    bound between prefix depths 3 and 4, so node counts do not jump by a
    factor of |V| between seeds.
    """
    tokens = [f"w{i:02d}" for i in range(n_tokens)]
    lines = []
    for _ in range(n_lines):
        length = 0 if rng.random() < empty_share else rng.randint(3, 15)
        lines.append(" ".join(rng.choice(tokens) for _ in range(length)))
    return lines


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    lines: Callable[[random.Random, int], list[str]] | None = None  # (rng, count) -> lines
    corpus_lines: int = 0
    order: int = 0
    add_k: float = 0.0
    n_sentences: int = 0

    def files(self, work: Path) -> Files:
        if self.lines is None:
            return Files(work)
        return Files(work, work / "model.json", work / "inputs.txt", work / "refs.txt")

    def set_up(self, root: Path, seed: int, work: Path) -> Files:
        """One set-up in a fresh interpreter: cold import, inputs, model.

        The measuring process only receives the file paths, so its peak
        memory is that of the passes, not of corpus generation or training.
        """
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), self.name, str(seed), str(work)],
            cwd=root, env=env, check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        return self.files(work)

    def write_inputs(self, seed: int, work: Path) -> None:
        """The set-up's body: write the seeded inputs and train-ngram to JSON."""
        from regdecode import cli

        if self.lines is None:
            return
        rng = random.Random(f"{self.name}:{seed}")
        files = self.files(work)
        corpus = work / "corpus.txt"
        _write_lines(corpus, self.lines(rng, self.corpus_lines))
        sample = self.lines(rng, 2 * self.n_sentences)
        _write_lines(files.inputs, sample[: self.n_sentences])
        _write_lines(files.refs, sample[self.n_sentences :])
        code = cli.main([
            "--seed", str(seed), "train-ngram", str(corpus),
            "--order", str(self.order), "--add-k", repr(self.add_k), "--out", str(files.model),
        ])
        if code != 0:
            raise SystemExit(f"train-ngram exited {code}")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


WORKLOADS = {
    w.name: w
    for w in (
        # Candidate scoring dominates and model lookup is cheap: where an
        # incremental scoring kernel shows. Greedy is the near-bypass reference.
        Workload(
            name="beam_ngram",
            lines=lambda rng, n: positional_lines(rng, 200, 10, n),
            corpus_lines=3000,
            order=3,
            add_k=0.1,
            n_sentences=4,
            invocations=(
                Decode("greedy", "greedy"),
                Decode("beam_k1", "beam", k=1),
                Decode("beam_k5", "beam", k=5),
                Decode("beam_k5_greedy1", "beam", "greedy=1", k=5),
                Decode("beam_k10_var_sq", "beam", "variance=1,square=0.1", k=10),
            ),
        ),
        # The agenda and the bound dominate and scoring is small: where
        # tighter admissible bounds show. The sweep loads evaluate/surprisal.
        Workload(
            name="exact_bigram",
            lines=lambda rng, n: mixed_length_lines(rng, 30, n),
            corpus_lines=30000,
            order=2,
            add_k=0.5,
            n_sentences=1,
            invocations=(
                Decode("exact_plain", "exact", "", n_max=EXACT_N_MAX),
                Decode("exact_greedy1", "exact", "greedy=1", n_max=EXACT_N_MAX),
                # 931 nodes a line. At len=reward:0.5 this corpus expands only
                # 31, so the weight is 1.0; this block holds sentence_ms_p50.
                Decode("exact_reward", "exact", "len=reward:1", n_max=EXACT_N_MAX),
                Decode("exact_local1", "exact", "local=1", n_max=EXACT_N_MAX),
                Decode("exact_norm_n4", "exact", "len=norm", n_max=NORM_N_MAX),
                Sweep("sweep_variance", "variance", (0.1, 1.0, 10.0)),
            ),
        ),
        # Many tiny table models, brute-force enumeration and scoring of
        # complete traces: a kernel that speeds beam but slows this shows here.
        # A quarter of each suite's default trials per pass: the same work in
        # a run, split into about a dozen passes whose median is steadier.
        Workload(
            name="verify_oracle",
            invocations=(
                Verify("verify_exactness", "exactness", 50),
                Verify("verify_thm1", "thm1", 25),
                Verify("verify_thm2", "thm2", 12),
                Verify("verify_bleu", "bleu", 1),
            ),
        ),
    )
}


if __name__ == "__main__":
    # python3 bench/workloads.py <workload> <seed> <work dir>, with the
    # program's src/ on PYTHONPATH: the set-up that Workload.set_up times.
    WORKLOADS[sys.argv[1]].write_inputs(int(sys.argv[2]), Path(sys.argv[3]))
