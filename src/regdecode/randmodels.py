"""Seeded random table models for the oracle and limit-check suites.

Contexts up to a fixed prefix depth get independent random conditionals;
everything deeper falls through to a termination-friendly default, which
keeps searches finite-horizon and guarantees complete hypotheses exist.
The generators only use the numpy Generator passed in, so a fixed seed
reproduces every model bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .exceptions import NoHypothesisError
from .models import TableModel
from .objectives import MAP_OBJECTIVE, r_beam_ids
from .search import beam_search
from .vocab import Vocabulary

TOKEN_POOL = ("a", "b", "c", "d", "e")

# (|V|, n_max) pairs kept small enough that a brute-force enumeration per
# objective stays cheap; both extremes appear, just not jointly.
EXACTNESS_SIZES = [
    (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
    (3, 3), (3, 4), (3, 5), (3, 6), (3, 7),
    (4, 3), (4, 4), (4, 5),
    (5, 3), (5, 4), (5, 5),
]


def random_distribution(
    rng: np.random.Generator,
    size: int,
    eos_index: int,
    eos_floor: float = 0.0,
    min_gap: float = 0.0,
) -> np.ndarray:
    """Random strictly positive distribution; optionally reserves mass for
    the end marker and enforces a surprisal gap between the two best entries."""
    for _ in range(64):
        raw = rng.random(size) + 1e-3
        p = raw / raw.sum()
        if eos_floor:
            p = (1.0 - eos_floor) * p
            p[eos_index] += eos_floor
        if min_gap <= 0.0 or _top_gap(p) >= min_gap:
            return p
    # Deterministic fallback: widen the lead of the current argmax.
    p[int(np.argmax(p))] *= math.exp(2.0 * min_gap)
    return p / p.sum()


def _top_gap(p: np.ndarray) -> float:
    second, first = np.sort(p)[-2:]
    return math.log(first / second)


def eos_heavy_distribution(
    rng: np.random.Generator, size: int, eos_index: int, eos_mass: float = 0.6
) -> np.ndarray:
    rest = rng.random(size) + 1e-3
    rest[eos_index] = 0.0
    rest = rest / rest.sum() * (1.0 - eos_mass)
    rest[eos_index] = eos_mass
    return rest


def random_table_model(
    rng: np.random.Generator,
    n_tokens: int,
    depth: int = 2,
    eos_floor: float = 0.05,
    min_gap: float = 0.0,
    default_eos_mass: float = 0.6,
) -> TableModel:
    vocab = Vocabulary(TOKEN_POOL[:n_tokens])
    size = vocab.dist_size
    names = list(vocab.tokens) + [vocab.eos]
    entries = {}
    for length in range(depth + 1):
        for body in itertools.product(vocab.tokens, repeat=length):
            ctx = " ".join((vocab.bos,) + body)
            p = random_distribution(rng, size, vocab.eos_id, eos_floor, min_gap)
            entries[ctx] = {name: float(v) for name, v in zip(names, p)}
    default_p = eos_heavy_distribution(rng, size, vocab.eos_id, default_eos_mass)
    if min_gap:
        # The end marker already dominates; keep the runner-up clear of it.
        second = max(v for i, v in enumerate(default_p) if i != vocab.eos_id)
        if math.log(default_p[vocab.eos_id] / second) < min_gap:
            default_p = eos_heavy_distribution(rng, size, vocab.eos_id, 0.8)
    default = {name: float(v) for name, v in zip(names, default_p)}
    return TableModel(vocab, entries, default)


def exactness_instance(seed: int) -> tuple[TableModel, int]:
    """Random model plus length budget for the exact-vs-brute-force suite."""
    rng = np.random.default_rng(seed)
    n_tokens, n_max = EXACTNESS_SIZES[int(rng.integers(len(EXACTNESS_SIZES)))]
    model = random_table_model(rng, n_tokens, depth=2, eos_floor=0.05)
    return model, n_max


def tie_free_instance(seed: int) -> tuple[TableModel, int]:
    """Model whose every conditional has a clear argmax, so a finite weight
    (1e6) on the greedy penalty already dominates any log-probability gap."""
    rng = np.random.default_rng(seed)
    n_tokens = int(rng.integers(2, 6))
    model = random_table_model(
        rng, n_tokens, depth=2, eos_floor=0.02, min_gap=0.05, default_eos_mass=0.7
    )
    return model, 8


def set_limit_instance(seed: int) -> tuple[TableModel, int, int]:
    """Tiny model, beam width, and length budget for the set-objective
    limit suite.

    Instances are resampled until the plain beam run keeps all of its k
    lines alive to completion (its output set then has zero set-deviation
    penalty); when lines die or merge the limit equivalence has no
    well-defined witness, so such draws are skipped.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.choice([2, 3]))
    if k == 2:
        n_tokens = int(rng.choice([2, 3]))
        n_max = int(rng.choice([3, 4, 5]))
    else:
        n_tokens = 2
        n_max = int(rng.choice([3, 4]))
    for _ in range(400):
        model = random_table_model(
            rng, n_tokens, depth=min(3, n_max), eos_floor=0.12, min_gap=0.05,
            default_eos_mass=0.7,
        )
        try:
            record = beam_search(model, None, MAP_OBJECTIVE, k, n_max)
        except NoHypothesisError:
            continue
        if len(record.beam_set) != k:
            continue
        members = [h.token_ids for h in record.beam_set]
        if r_beam_ids(members, model, "", k, n_max) < 1e-9:
            return model, k, n_max
    raise RuntimeError(f"could not draw a surviving-beam instance for seed {seed}")
