"""Locally normalized sequence models over a fixed vocabulary.

Two desk-scale implementations are provided: an explicit lookup-table
model (contexts are full target prefixes, optionally keyed by source) and
an add-k smoothed n-gram model trained from a token corpus. Both return
natural-log probabilities over the ordinary tokens plus the end marker.

Distributions are fixed at construction: every row that
``next_log_probs_ids`` returns is one array the model keeps for its
lifetime. ``NGramModel`` fills a private cache of context rows on first
use. Every model also carries ``row_terms``, the decoders' memo of each
distinct row's scoring terms (``objectives.step_terms``), keyed by the
row's identity. It holds one entry per distinct row visited and lives as
long as the model. Because of both memos, instances are not meant to be
shared between threads.
"""

from __future__ import annotations

import json
import logging
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exceptions import ContractError, ModelFormatError, VocabularyError
from .vocab import Vocabulary

log = logging.getLogger(__name__)

NORMALIZATION_TOL = 1e-6

TokenSeq = Sequence[str]


def _source_key(source: TokenSeq | str | None) -> str:
    if source is None:
        return ""
    if isinstance(source, str):
        return source
    return " ".join(source)


class SequenceModel:
    """Interface: a next-token log-probability distribution per (source, prefix).

    Subclasses implement ``_step_log_probs`` for prefixes that have not
    ended yet; the base class enforces prefix validity and the convention
    that an ended hypothesis only ever re-emits its end marker with
    probability one.
    """

    vocabulary: Vocabulary

    def __init__(self, vocabulary: Vocabulary) -> None:
        self.vocabulary = vocabulary
        absorbed = np.full(vocabulary.dist_size, -math.inf)
        absorbed[vocabulary.eos_id] = 0.0
        absorbed.setflags(write=False)
        self._absorbed = absorbed
        self.row_terms: dict[int, object] = {}

    def next_log_probs(self, source: TokenSeq | str | None, prefix: TokenSeq) -> np.ndarray:
        """Log-probability vector over ordinary tokens plus eos.

        ``prefix`` must start with the begin marker and may contain the end
        marker only as its final element.
        """
        return self.next_log_probs_ids(_source_key(source), self.vocabulary.prefix_ids(prefix))

    def next_log_probs_ids(self, source_key: str, prefix_ids: tuple[int, ...]) -> np.ndarray:
        """Unvalidated fast path used by the decoders; ids include the leading bos."""
        if prefix_ids[-1] == self.vocabulary.eos_id:
            return self._absorbed
        return self._step_log_probs(source_key, prefix_ids)

    def _step_log_probs(self, source_key: str, prefix_ids: tuple[int, ...]) -> np.ndarray:
        raise NotImplementedError


def _dist_to_log_array(dist: Mapping[str, float], vocab: Vocabulary, where: str) -> np.ndarray:
    probs = np.zeros(vocab.dist_size)
    for token, p in dist.items():
        if not isinstance(p, (int, float)) or math.isnan(p):
            raise ModelFormatError(f"{where}: probability for {token!r} is not a number")
        if p < 0:
            raise ModelFormatError(f"{where}: negative probability for {token!r}")
        tid = vocab.id_of(token)
        if tid == vocab.bos_id:
            raise ModelFormatError(f"{where}: begin marker cannot receive probability")
        probs[tid] += p
    total = probs.sum()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ModelFormatError(f"{where}: distribution sums to {total!r}, not 1")
    if total != 1.0:
        # Silent below 1e-9: that is float dust, not a sloppy file.
        if abs(total - 1.0) > 1e-9:
            log.warning("renormalizing distribution at %s (sum %.9f)", where, total)
        probs = probs / total
    with np.errstate(divide="ignore"):
        out = np.log(probs)
    out.setflags(write=False)
    return out


class TableModel(SequenceModel):
    """Explicit conditional table: full prefix context -> distribution.

    Any context absent from the table resolves through the default
    distribution, so lookup is total. When ``source_keyed`` is set the
    table is nested one level deeper by source key.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        entries: Mapping[str, Mapping[str, float]] | Mapping[str, Mapping[str, Mapping[str, float]]],
        default: Mapping[str, float],
        source_keyed: bool = False,
    ) -> None:
        super().__init__(vocabulary)
        self.source_keyed = source_keyed
        self._default = _dist_to_log_array(default, vocabulary, "default")
        self._tables: dict[str, dict[tuple[int, ...], np.ndarray]] = {}
        self._raw_entries = {k: dict(v) for k, v in entries.items()}
        self._raw_default = dict(default)
        if source_keyed:
            for src, ctxs in entries.items():
                self._tables[src] = self._build_table(ctxs, f"entries[{src!r}]")
        else:
            self._tables[""] = self._build_table(entries, "entries")

    def _build_table(self, ctxs: Mapping[str, Mapping[str, float]], where: str) -> dict:
        table = {}
        vocab = self.vocabulary
        for ctx, dist in ctxs.items():
            try:
                ids = vocab.prefix_ids(ctx.split())
            except ContractError as exc:
                raise ModelFormatError(f"{where}[{ctx!r}]: {exc}") from exc
            table[ids] = _dist_to_log_array(dist, vocab, f"{where}[{ctx!r}]")
        return table

    def _step_log_probs(self, source_key: str, prefix_ids: tuple[int, ...]) -> np.ndarray:
        table = self._tables.get(source_key if self.source_keyed else "")
        if table is not None:
            hit = table.get(prefix_ids)
            if hit is not None:
                return hit
        return self._default

    def to_spec(self) -> dict:
        spec = {
            "vocab": list(self.vocabulary.tokens),
            "bos": self.vocabulary.bos,
            "eos": self.vocabulary.eos,
            "entries": self._raw_entries,
            "default": self._raw_default,
        }
        if self.source_keyed:
            spec["source_keyed"] = True
        return spec


def _table_model_from_spec(raw: Mapping) -> TableModel:
    try:
        tokens = tuple(raw["vocab"])
        entries = raw.get("entries", {})
        default = raw["default"]
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"table model spec missing field: {exc}") from exc
    try:
        vocab = Vocabulary(
            tokens,
            bos=raw.get("bos", "<s>"),
            eos=raw.get("eos", "</s>"),
        )
        return TableModel(
            vocab, entries, default, source_keyed=bool(raw.get("source_keyed", False))
        )
    except (VocabularyError, ContractError) as exc:
        raise ModelFormatError(f"bad table model spec: {exc}") from exc


class NGramModel(SequenceModel):
    """Add-k smoothed n-gram model over the target side only.

    A context is the last ``order - 1`` tokens of the bos-padded prefix.
    Conditional mass is (count(ctx, y) + add_k) / (count(ctx) + add_k * D)
    with D the distribution size, so every vector sums to one exactly.
    The source is ignored: conditioning fidelity is not needed for the
    decoding math, and the model is treated as a black box.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        order: int,
        add_k: float,
        counts: Mapping[tuple[int, ...], Mapping[int, int]],
    ) -> None:
        if order < 1:
            raise ContractError("order must be >= 1")
        if not add_k > 0:
            raise ContractError("add_k must be > 0")
        super().__init__(vocabulary)
        self.order = order
        self.add_k = float(add_k)
        self._counts = {ctx: dict(c) for ctx, c in counts.items()}
        self._cache: dict[tuple[int, ...], np.ndarray] = {}

    def _context_of(self, prefix_ids: tuple[int, ...]) -> tuple[int, ...]:
        need = self.order - 1
        if need == 0:
            return ()
        padded = (self.vocabulary.bos_id,) * max(0, need - len(prefix_ids)) + prefix_ids
        return padded[-need:]

    def _step_log_probs(self, source_key: str, prefix_ids: tuple[int, ...]) -> np.ndarray:
        ctx = self._context_of(prefix_ids)
        cached = self._cache.get(ctx)
        if cached is not None:
            return cached
        size = self.vocabulary.dist_size
        counts = np.zeros(size)
        for tid, c in self._counts.get(ctx, {}).items():
            counts[tid] = c
        probs = (counts + self.add_k) / (counts.sum() + self.add_k * size)
        arr = np.log(probs)
        arr.setflags(write=False)
        self._cache[ctx] = arr
        return arr

    def to_spec(self) -> dict:
        vocab = self.vocabulary
        counts = {
            " ".join(vocab.token_of(i) for i in ctx): {
                vocab.token_of(tid): c for tid, c in sorted(events.items())
            }
            for ctx, events in sorted(self._counts.items())
        }
        return {
            "kind": "ngram",
            "vocab": list(vocab.tokens),
            "bos": vocab.bos,
            "eos": vocab.eos,
            "order": self.order,
            "add_k": self.add_k,
            "counts": counts,
        }


def train_ngram(corpus: Iterable[TokenSeq], order: int, add_k: float) -> NGramModel:
    """Count n-gram events from whitespace-tokenized lines.

    The corpus defines the vocabulary. Each line is padded with begin
    markers on the left and closed with one end-marker event, so an empty
    line still trains p(eos | bos-context).
    """
    lines = [list(line) for line in corpus]
    if not lines:
        raise ContractError("corpus must be nonempty")
    tokens = sorted({t for line in lines for t in line})
    vocab = Vocabulary(tuple(tokens))
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    pad = (vocab.bos_id,) * (order - 1)
    need = len(pad)  # never negative, so any order reaches NGramModel's check
    for line in lines:
        ids = pad + tuple(vocab.id_of(t) for t in line) + (vocab.eos_id,)
        for i in range(need, len(ids)):
            ctx = ids[i - need : i]
            events = counts.setdefault(ctx, {})
            events[ids[i]] = events.get(ids[i], 0) + 1
    return NGramModel(vocab, order, add_k, counts)


def _ngram_model_from_spec(raw: dict, path: str | Path) -> NGramModel:
    missing = [name for name in ("vocab", "order", "add_k", "counts") if name not in raw]
    if missing:
        raise ModelFormatError(f"n-gram model {path} is missing {', '.join(missing)}")
    if not isinstance(raw["counts"], dict) or not all(
        isinstance(events, dict) for events in raw["counts"].values()
    ):
        raise ModelFormatError(f"n-gram model {path}: counts must map contexts to token counts")
    try:
        vocab = Vocabulary(
            tuple(raw["vocab"]), bos=raw.get("bos", "<s>"), eos=raw.get("eos", "</s>")
        )
        counts: dict[tuple[int, ...], dict[int, int]] = {}
        for ctx_str, events in raw["counts"].items():
            ctx = tuple(vocab.id_of(t) for t in ctx_str.split())
            counts[ctx] = {vocab.id_of(t): _event_count(c, ctx_str, t) for t, c in events.items()}
        return NGramModel(vocab, int(raw["order"]), float(raw["add_k"]), counts)
    except (VocabularyError, ContractError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad n-gram model {path}: {exc}") from exc


def _event_count(value, ctx: str, token: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(
            f"count of {token!r} after {ctx!r} must be a non-negative integer, got {value!r}"
        )
    return value


def load_model(path: str | Path) -> SequenceModel:
    """Dispatch on the optional ``kind`` field; plain specs are table models.

    Every malformed file ends in ``ModelFormatError``. For an n-gram file
    that is a missing field, an unknown token, a count that is not a
    non-negative integer, or a bad order or smoothing constant.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot parse model {path}: {exc}") from exc
    if isinstance(raw, dict) and raw.get("kind") == "ngram":
        return _ngram_model_from_spec(raw, path)
    return _table_model_from_spec(raw)


def save_model(model: TableModel | NGramModel, path: str | Path) -> None:
    """Write ``model.to_spec()`` as the JSON file ``load_model`` reads."""
    Path(path).write_text(
        json.dumps(model.to_spec(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
