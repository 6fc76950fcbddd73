"""Locally normalized sequence models over a fixed vocabulary.

Two desk-scale implementations are provided: an explicit lookup-table
model (contexts are full target prefixes, optionally keyed by source) and
an add-k smoothed n-gram model trained from a token corpus. Both return
natural-log probabilities over the ordinary tokens plus the end marker.

Distributions are fixed at construction. ``NGramModel`` stores its counts
flat, whether they come from ``train_ngram`` or from a model file's count
columns: a map from each context, spelled as in a model file (its tokens
joined by single spaces), to the slice that holds its events in two numpy
columns, the event token ids and their int64 counts. A model file holds
the same layout, with the event tokens by name. ``train_ngram`` counts a
corpus into these columns in bulk numpy passes, contexts in first-seen
corpus order and each context's events in first-seen order.
``NGramModel`` checks and stores a file's columns in bulk passes, so a
valid file costs no per-event Python; columns that fail a check are walked
event by event, and the walk names the first fault. The columns are the
only n-gram file layout: a file that holds the older ``counts`` mapping
instead is missing them, a format error.

Every model keys its rows by state (``SequenceModel.state``): prefixes of
one state have one next-token row, an n-gram model's state being its
context. Each model keeps one cache from state to ``StepTerms``, the row
with what the decoders' expansion kernel reads of it: the allowed ids,
their surprisals and the step minimum. No penalty term is computed here;
each penalty computes its own from these in ``objectives``. Every reader
takes its rows from the cache: the decoders through
``SequenceModel.step_terms``, scoring, tracing and the oracles through
``next_log_probs_ids``. A table model fills it with all its rows when it
is built, so it never misses; any other model adds one entry per distinct
state visited, kept as long as the model. The states a decoding step
finds missing get their rows built together, as one block (for an n-gram
model, one counts matrix filled row by row from its columns), and their
surprisals from that block in one negation, each row and surprisal
vector a view, so a block lives while any of its entries does; a block
that holds a forbidden entry has each row's terms built as a single
row's are, and a single missing state is built on its own. Because of
this cache, instances are not meant to be shared between threads.

``best_step`` is the bound exact search puts on every step it has not
taken yet. A table model sets it when it is constructed; an n-gram model
computes it from its counts on first read, so a model decoded only by beam
search never pays for it. An n-gram model's state is Markov, so it also
has a ``CompletionTable``: per state and completion length, a bound on the
log-probability of the best completion, which exact search reads for the
children that pass its ``best_step`` bound. The table is built from the
count columns, without building the rows, the first time a decode needs it.

``load_model`` remembers the last n-gram file that passed every check, one
entry keyed by the sha256 of its bytes. Loading the same bytes again, as
repeated CLI calls in one process do, builds a new model from the
remembered vocabulary, parameters and count columns, with no JSON parsing
and no check. The instances share only read-only data and the file's
completion table: the column arrays are not writable, nothing writes
``context_index`` or ``offsets``, the file's ``best_step`` is computed
once, at the first repeat load, and its completion table once, by the
first decode of any of them that needs it, to rows that depend on the
file alone. Each instance has its own row cache, so its first decode
builds every row it visits, as after a cold load.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import logging
import math
from pathlib import Path
from typing import Hashable, Iterable, Mapping, NamedTuple, NoReturn, Sequence

import numpy as np

from .exceptions import ContractError, ModelFormatError, VocabularyError
from .vocab import DEFAULT_BOS, DEFAULT_EOS, Vocabulary

log = logging.getLogger(__name__)

NORMALIZATION_TOL = 1e-6
# Begin markers train_ngram may add, over all the contexts it spells, to
# pad them beyond the longest corpus line, where a huge order would
# exhaust memory. Each takes about 4 bytes of the stored contexts and as
# many of the model file: at the guard, training and saving a 5-line
# corpus peaks at 120 MB (tracemalloc) and writes a 40 MB file.
NGRAM_PADDING_GUARD = 10**7
# Completion lengths a ``CompletionTable`` holds a row for, whatever n_max
# is; each row takes 8 bytes per stored context and context class. Longer
# completions are bounded by the table's tail form.
COMPLETION_TABLE_ROWS = 32

TokenSeq = Sequence[str]


def _source_key(source: TokenSeq | str | None) -> str:
    if source is None:
        return ""
    if isinstance(source, str):
        return source
    return " ".join(source)


class StepTerms:
    """One next-token row in the form the expansion kernel reads.

    ``ids`` are the allowed token ids (finite log-probability) in ascending
    order (a ``range`` when every token is allowed) and ``u`` their
    surprisals, the negated row: a view of the negated block it was built
    in when every entry of that block is allowed, so that a beam step joins
    its members' children in one concatenation. Forbidden tokens never
    enter ``u``, so no ``0 * inf`` can arise. ``step_min`` is the step's
    minimum surprisal. A child's log-probability step is minus its
    surprisal: the kernel subtracts the surprisal, which IEEE arithmetic
    defines as adding its negation, the row entry itself. The end marker
    has the largest id of the row, so when it is allowed it is the last
    child, and ``end`` holds its surprisal as a float (``None`` otherwise).
    """

    __slots__ = ("row", "ids", "step_min", "u", "end")

    def __init__(self, row: np.ndarray, ids: Sequence[int], step_min: float,
                 u: np.ndarray) -> None:
        self.row = row
        self.ids = ids
        self.step_min = step_min
        self.u = u
        self.end = -float(row[-1]) if ids[-1] == len(row) - 1 else None


def _terms_of_row(row: np.ndarray) -> StepTerms:
    """The ``StepTerms`` of one row, on the row itself: the arithmetic of
    ``_terms_of_block``, which costs more than this for a single row."""
    allowed = np.nonzero(row > -math.inf)[0]
    step_min = -float(np.maximum.reduce(row))
    if len(allowed) == len(row):
        return StepTerms(row, range(len(row)), step_min, np.negative(row))
    return StepTerms(row, allowed.tolist(), step_min, np.negative(row[allowed]))


def _terms_of_block(block: np.ndarray) -> list[StepTerms]:
    """The ``StepTerms`` of the rows of a 2-D block, one per row, from one
    negation and one max over the block. Each entry's row is a view of the
    block and its surprisals a view of the negated block. A block that
    holds a forbidden entry has each row's terms built by
    ``_terms_of_row``, on that row of the block."""
    block.setflags(write=False)  # its rows are handed out
    if not np.minimum.reduce(block, axis=None) > -math.inf:
        return [_terms_of_row(row) for row in block]
    ids = range(block.shape[1])
    step_min = -np.maximum.reduce(block, axis=1)
    return [StepTerms(row, ids, row_min, u)
            for row, row_min, u in zip(block, step_min.tolist(), np.negative(block))]


class SequenceModel:
    """Interface: a next-token log-probability distribution per (source, prefix).

    Subclasses implement ``_state_row(state)``, the row of an open prefix's
    state, the one hook a model must provide; the base class enforces
    prefix validity and the convention that an ended hypothesis only ever
    re-emits its end marker with probability one.

    ``state`` keys the rows: two open prefixes with one state have one
    row. The base class keys each (source key, prefix) apart, so a model
    that keeps it caches a row for every prefix it is asked for, as
    decoding does; a subclass whose prefixes share rows overrides
    ``state`` (and ``_state_rows``, to build several rows at once). Every
    row is read from the ``_terms`` cache: ``step_terms`` serves the
    decoders and ``next_log_probs_ids`` every other reader.

    Each subclass also provides ``best_step``: at least every entry of
    every row the model can return, so no step of any hypothesis
    has a higher log-probability, and at most 0, since every row is a
    distribution. ``TableModel`` sets it when it is constructed and
    ``NGramModel`` computes it on first read. Exact search reads it; a
    custom model used with ``exact_search`` sets it itself. Exact search
    also reads ``completion_table``, which only ``NGramModel`` sets.
    """

    vocabulary: Vocabulary
    best_step: float
    # The sha256 hex digest of the bytes ``load_model`` parsed this model
    # from; None for a model built in memory.
    file_digest: str | None = None
    # Per-state completion bounds for exact search (``CompletionTable``);
    # None for a model whose state is not Markov, bounded by best_step alone.
    completion_table: CompletionTable | None = None

    def __init__(self, vocabulary: Vocabulary) -> None:
        self.vocabulary = vocabulary
        absorbed = np.full(vocabulary.dist_size, -math.inf)
        absorbed[vocabulary.eos_id] = 0.0
        absorbed.setflags(write=False)
        self._absorbed = absorbed
        self._terms: dict[Hashable, StepTerms] = {}

    def next_log_probs(self, source: TokenSeq | str | None, prefix: TokenSeq) -> np.ndarray:
        """Log-probability vector over ordinary tokens plus eos.

        ``prefix`` must start with the begin marker and may contain the end
        marker only as its final element.
        """
        return self.next_log_probs_ids(_source_key(source), self.vocabulary.prefix_ids(prefix))

    def next_log_probs_ids(self, source_key: str, prefix_ids: tuple[int, ...]) -> np.ndarray:
        """Unvalidated fast path; ids include the leading bos. An open
        prefix's row is read from the state cache, as the decoders read it."""
        if prefix_ids[-1] == self.vocabulary.eos_id:
            return self._absorbed
        return self._state_terms(self.state(source_key, prefix_ids)).row

    def state(self, source_key: str, prefix_ids: tuple[int, ...]) -> Hashable:
        """The key of an open prefix's next-token row: prefixes of one state
        have one row."""
        return source_key, prefix_ids

    def _state_row(self, state) -> np.ndarray:
        """The row of one state."""
        raise NotImplementedError

    def _state_rows(self, states: Sequence) -> np.ndarray:
        """The rows of distinct states, as the rows of one 2-D block."""
        return np.array([self._state_row(state) for state in states])

    def step_terms(self, source_key: str,
                   prefixes: Sequence[tuple[int, ...]]) -> list[StepTerms]:
        """The next-token rows of some open prefixes as ``StepTerms``, from
        the cache, keyed by state. The distinct states the cache lacks get
        their rows as one 2-D block, and their terms from that block, one
        cache entry each; a single missing state, as exact search and a
        width-1 beam meet it, is built on its own row (``_state_terms``),
        which costs less than a block of one."""
        cache = self._terms
        states = [self.state(source_key, ids) for ids in prefixes]
        terms = list(map(cache.get, states))
        if None in terms:
            missing = list(dict.fromkeys(s for s, known in zip(states, terms) if known is None))
            if len(missing) > 1:
                cache.update(zip(missing, _terms_of_block(self._state_rows(missing))))
            terms = list(map(self._state_terms, states))
        return terms

    def _state_terms(self, state) -> StepTerms:
        """The cache entry of one state, built on its own row if missing."""
        terms = self._terms.get(state)
        if terms is None:
            terms = self._terms[state] = _terms_of_row(self._state_row(state))
        return terms


def _dist_to_log_array(dist: Mapping[str, float], vocab: Vocabulary, where: str) -> np.ndarray:
    probs = np.zeros(vocab.dist_size)
    for token, p in _json_object(dist, where).items():
        try:
            number = isinstance(p, (int, float)) and not isinstance(p, bool) and not math.isnan(p)
        except OverflowError:  # an int beyond every float, maybe too long to print
            raise ModelFormatError(
                f"{where}: probability for {token!r} is an int too large for a float"
            ) from None
        if not number:
            raise ModelFormatError(f"{where}: probability for {token!r} is not a number")
        if p < 0:
            raise ModelFormatError(f"{where}: negative probability for {token!r}")
        tid = vocab.id_of(token)
        if tid == vocab.bos_id:
            raise ModelFormatError(f"{where}: begin marker cannot receive probability")
        probs[tid] += p
    total = probs.sum()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ModelFormatError(f"{where}: distribution sums to {float(total)}, not 1")
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
    table is nested one level deeper by source key. Every row is built
    into the state cache when the model is.
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
        # Every row, keyed by its state: None for the default row, then each
        # stored prefix with its source key ("" unless ``source_keyed``).
        rows = {None: _dist_to_log_array(default, vocabulary, "default")}
        if source_keyed:
            for src, ctxs in _json_object(entries, "entries").items():
                self._add_rows(rows, src, ctxs, f"entries[{src!r}]")
        else:
            self._add_rows(rows, "", entries, "entries")
        self._raw_entries = {k: dict(v) for k, v in entries.items()}
        self._raw_default = dict(default)
        block = np.array(list(rows.values()))
        # No entry exceeds 0: each is the log of a probability at most its
        # row's float sum, divided by that sum unless the sum is 1.
        self.best_step = float(block.max())
        self._terms.update(zip(rows, _terms_of_block(block)))

    def _add_rows(self, rows: dict, table_key: str, ctxs: Mapping[str, Mapping[str, float]],
                  where: str) -> None:
        vocab = self.vocabulary
        for ctx, dist in _json_object(ctxs, where).items():
            try:
                key = table_key, vocab.prefix_ids(ctx.split())
            except ContractError as exc:
                raise ModelFormatError(f"{where}[{ctx!r}]: {exc}") from exc
            if key[1][-1] == vocab.eos_id:  # an ended prefix only re-emits the end marker
                raise ModelFormatError(f"{where}[{ctx!r}]: a context cannot end in the end marker")
            if key in rows:  # the later distribution would silently win
                earlier = next(c for c in ctxs if c.split() == ctx.split())
                raise ModelFormatError(f"{where}: {earlier!r} and {ctx!r} spell the same prefix")
            rows[key] = _dist_to_log_array(dist, vocab, f"{where}[{ctx!r}]")

    def state(self, source_key: str, prefix_ids: tuple[int, ...]) -> Hashable:
        """A stored prefix, with its table's source key ("" unless
        ``source_keyed``), or ``None``, the one key of every prefix that
        reads the default row."""
        key = source_key if self.source_keyed else "", prefix_ids
        return key if key in self._terms else None

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


def _json_object(value, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ModelFormatError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _vocabulary_of(raw: dict) -> Vocabulary:
    """The vocabulary a model file names: ``vocab`` a list of strings, and
    ``bos`` and ``eos`` strings when given."""
    tokens = raw["vocab"]
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
        raise ContractError("vocab must be a list of strings")
    bos, eos = raw.get("bos", DEFAULT_BOS), raw.get("eos", DEFAULT_EOS)
    for name, marker in (("bos", bos), ("eos", eos)):
        if not isinstance(marker, str):
            raise ContractError(f"{name} must be a string, got {marker!r}")
    return Vocabulary(tuple(tokens), bos=bos, eos=eos)


def _table_model_from_spec(raw) -> TableModel:
    _json_object(raw, "table model spec")
    missing = [name for name in ("vocab", "default") if name not in raw]
    if missing:
        raise ModelFormatError(f"table model spec is missing {', '.join(missing)}")
    source_keyed = raw.get("source_keyed", False)
    if not isinstance(source_keyed, bool):
        raise ModelFormatError(f"source_keyed must be true or false, got {source_keyed!r}")
    try:
        return TableModel(_vocabulary_of(raw), raw.get("entries", {}), raw["default"], source_keyed)
    except (VocabularyError, ContractError) as exc:
        raise ModelFormatError(f"bad table model spec: {exc}") from exc


class NGramModel(SequenceModel):
    """Add-k smoothed n-gram model over the target side only.

    A context is the last ``order - 1`` tokens of the bos-padded prefix.
    Conditional mass is (count(ctx, y) + add_k) / (count(ctx) + add_k * D)
    with D the distribution size, so every vector sums to one exactly.
    ``order`` must be an ``int`` of at least 1 and ``add_k`` an ``int`` or
    ``float`` (neither a bool), finite and above 0: an infinite one makes
    every row NaN. The source is ignored: conditioning fidelity is not
    needed for the decoding math, and the model is treated as a black box.

    ``counts`` holds the four count columns of a model file, under their
    file names (``contexts``, ``events_per_context``, ``event_tokens``,
    ``event_counts``; other keys are ignored, so ``to_spec()`` serves), and
    they are checked as ``load_model`` checks a file's: a fault raises
    ``ContractError``, or ``VocabularyError`` for an unknown token, naming
    the first fault in file order. ``train_ngram`` passes the
    ``_CountColumns`` it has built instead. A context is stored, and
    written to a model file, as its tokens joined by single spaces, which
    the vocabulary's rule (no token or marker is empty or holds whitespace)
    keeps readable.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        order: int,
        add_k: float,
        counts: Mapping[str, list] | _CountColumns,
    ) -> None:
        _check_parameters(order, add_k)
        if not isinstance(counts, _CountColumns):  # train_ngram's are built checked
            columns = _column_lists(counts)
            counts = _checked_columns(*columns, vocabulary, order)
            if counts is None:  # a bulk check failed: the walk names the first fault
                _name_fault(*columns, vocabulary, order)
        super().__init__(vocabulary)
        self.order = order
        self.add_k = float(add_k)
        # Read-only, so that load_model can hand them to a later instance.
        counts.event_ids.setflags(write=False)
        counts.event_counts.setflags(write=False)
        self._columns = counts
        # With no stored context every lookup is the unseen-context row, so
        # no context is formed: the order may be too large to pad a prefix to.
        self._need = order - 1 if counts.context_index else 0
        self._token_name = vocabulary._names.__getitem__
        self.completion_table = CompletionTable(vocabulary, order, self.add_k, counts)

    def state(self, source_key: str, prefix_ids: tuple[int, ...]) -> tuple[int, ...]:
        """The context: the last ``order - 1`` ids of the bos-padded prefix."""
        short = self._need - len(prefix_ids)
        if short <= 0:
            return prefix_ids[-short:]
        return (self.vocabulary.bos_id,) * short + prefix_ids

    def _events(self, ctx: tuple[int, ...]) -> slice | None:
        """The slice of the event columns that holds a context's events, or
        None for an unseen context."""
        columns = self._columns
        k = columns.context_index.get(" ".join(map(self._token_name, ctx)))
        return None if k is None else slice(columns.offsets[k], columns.offsets[k + 1])

    def _state_row(self, ctx: tuple[int, ...]) -> np.ndarray:
        size = self.vocabulary.dist_size
        counts = _put_counts(np.zeros(size), self._columns, self._events(ctx))
        probs = (counts + self.add_k) / (counts.sum() + self.add_k * size)
        arr = np.log(probs)
        arr.setflags(write=False)
        return arr

    def _state_rows(self, contexts: Sequence[tuple[int, ...]]) -> np.ndarray:
        """``_state_row`` of each context, as one block: the same float
        operations on a counts matrix, each context's counts put into its
        row by ``_put_counts``, as into ``_state_row``'s 1-D row. A row sum
        along the matrix's contiguous axis is numpy's pairwise sum of that
        row, grouped as a 1-D row's sum is, so even a total beyond 2**53,
        where the grouping matters, equals the one-row build's."""
        columns = self._columns
        size = self.vocabulary.dist_size
        counts = np.zeros((len(contexts), size))
        for row, events in zip(counts, map(self._events, contexts)):
            _put_counts(row, columns, events)
        totals = counts.sum(axis=1)
        totals += self.add_k * size
        counts += self.add_k
        counts /= totals[:, None]
        return np.log(counts, out=counts)

    @functools.cached_property
    def best_step(self) -> float:
        """``SequenceModel.best_step``, computed on first read."""
        # A row's largest entry belongs to its largest count, so the counts
        # give every row's largest probability, with the arithmetic of
        # _state_row, without building the rows. The leading zeros are
        # the unseen-context row (and any context stored without events).
        # np.log is the function the rows use, but its result here is not
        # taken from a row, so it is raised by one ulp, and then capped at 0.
        offsets = np.array(self._columns.offsets)
        starts = offsets[:-1][offsets[:-1] < offsets[1:]]  # of the contexts with events
        counts = self._columns.event_counts
        top, total = np.zeros(len(starts) + 1), np.zeros(len(starts) + 1)
        if len(starts):
            top[1:] = np.maximum.reduceat(counts, starts)
            total[1:] = np.add.reduceat(counts, starts, dtype=float)  # no int64 overflow
        probs = (top + self.add_k) / (total + self.add_k * self.vocabulary.dist_size)
        return min(math.nextafter(float(np.log(probs).max()), math.inf), 0.0)

    def to_spec(self) -> dict:
        """The model file's fields, the counts in its four columns."""
        vocab = self.vocabulary
        columns = self._columns
        return {
            "kind": "ngram",
            "vocab": list(vocab.tokens),
            "bos": vocab.bos,
            "eos": vocab.eos,
            "order": self.order,
            "add_k": self.add_k,
            "contexts": list(columns.context_index),
            "events_per_context": np.diff(columns.offsets).tolist(),
            "event_tokens": list(map(self._token_name, columns.event_ids.tolist())),
            "event_counts": columns.event_counts.tolist(),
        }


def _raised(x):
    """``x`` raised by one ulp: at least the exact result of the one
    rounded float operation that gave ``x``."""
    return np.nextafter(x, math.inf)


def _row_codes(rows: np.ndarray, base: int) -> np.ndarray:
    """An int64 code per row of ids below ``base``, equal for equal rows
    only: built one column at a time and renumbered densely wherever the
    next column could overflow, as ``train_ngram`` codes its contexts."""
    codes, span = np.zeros(len(rows), dtype=np.int64), 1
    for column in rows.T:
        codes, span = _dense(codes, span, base)
        codes = codes * base + column
        span *= base
    return codes


def _row_index(keys: np.ndarray, queries: np.ndarray, base: int) -> np.ndarray:
    """The index of each row of ``queries`` among the rows of ``keys``,
    distinct rows of ids below ``base``, or -1 where it is none of them."""
    if not len(keys):
        return np.full(len(queries), -1, dtype=np.intp)
    codes = _row_codes(np.concatenate((keys, queries)), base)
    key_codes, query_codes = codes[:len(keys)], codes[len(keys):]
    order = np.argsort(key_codes)
    at = np.minimum(np.searchsorted(key_codes, query_codes, sorter=order), len(keys) - 1)
    found = order[at]
    return np.where(key_codes[found] == query_codes, found, -1)


class CompletionTable:
    """Per-state upper bounds on the log-probability of the best completion
    of an n-gram prefix: the outside estimate of A* search (Klein & Manning,
    NAACL 2003), which exact search reads for the children that pass its
    ``best_step`` bound.

    Let ``G[m][c]`` be the highest log-probability, in exact arithmetic on
    the model's float rows, of a completion of exactly m more steps from
    context c that ends in the end marker: ``G[1][c] = lp(eos | c)``, and
    ``G[m][c]`` the max over ordinary tokens t of ``lp(t | c) +
    G[m - 1][next(c, t)]``, where ``next(c, t)`` drops the first id of c and
    appends t. ``rows[m - 1, s]`` is at least ``G[m][c]`` for every context
    c of table state s, ``beyond[s]`` at least ``G[r][c]`` at every length
    r, and ``step`` at least every row's entry of every ordinary token, so
    that past the last row L, ``G[r][c] <= rows[L - 1].max() + (r - L) *
    step``. ``best`` and ``by_length`` read these for the children of a
    prefix, given their ``columns``.

    Table states are the stored contexts, in file order, then the classes
    of the others. An unseen context's row is the smoothed uniform one and
    its next states depend only on ``c[1:]``, so the unseen contexts with
    one ``c[1:]`` are one class; there is a class for each ``c[1:]`` that
    is the prefix ``d[:-1]`` of some stored context d, and last one for
    every other unseen context. Up to order 3 that class is exact too, as
    the next states of all its contexts are unseen and share their classes;
    above order 3 its value, and the value of the unseen next states of a
    prefix class, is bounded by the best class of the previous length.

    The sparse dynamic program: a stored context c with events ``E_c`` gives
    every other token its row's one smoothed entry ``base_c``, at most
    ``lp(t | c)`` for every event, so ``G[m][c]`` is the max of ``lp(t | c)
    + G[m - 1][next(c, t)]`` over its events and ``base_c + M[c[1:]]``,
    where ``M[p]`` is the best ``G[m - 1]`` over the next states ``p + (t,)``.
    Those are the stored contexts with prefix p and, for the tokens that
    make no stored context, their unseen classes: the best of these is the
    first such token in the order of its class value. A length costs
    O(events + contexts log contexts + |V| log |V|).

    Every log and every addition is raised by one ulp (``_raised``), so each
    entry is at least the exact ``G``; a log raised one ulp also covers
    ``np.log`` giving the neighbour of the row's own entry here, as for
    ``NGramModel.best_step``. An entry of row m exceeds ``G[m][c]`` by at
    most ``(3m + 1) * 2**-53 * |G[m][c]|``: each log at most two ulps up,
    each addition at most three half-ulps, all terms of one sign.

    The table holds ``COMPLETION_TABLE_ROWS`` rows, whatever the model, so
    its bounds never depend on a decode's ``n_max`` nor on which decode
    built it. The step of the program distributes over max, in floats too
    (rounding and ``_raised`` are monotone), so once the running max over
    lengths repeats, it stays at that fixed point at every later length:
    ``beyond`` is that running max when its last two lengths agree, and
    otherwise also holds the tail bound ``rows[-1].max() + step``. Rows past
    the fixed point still fall, and an objective with a length transform or
    a per-length lower form reads each of them.

    Built on the first ``columns`` call, so a decode that bounds no child
    with it never pays for it, and kept while the table is; ``load_model``
    hands one table to every model it builds from one file's bytes. The
    children's columns are kept too, so, like a model's row cache, a table
    is not meant to be shared between threads.
    """

    def __init__(self, vocabulary: Vocabulary, order: int, add_k: float,
                 counts: _CountColumns) -> None:
        self._model = vocabulary, order, add_k, counts
        self.rows: np.ndarray | None = None
        self._columns_of: dict[tuple[int, ...], np.ndarray] = {}

    def columns(self, state: tuple[int, ...]) -> np.ndarray:
        """The table state of each ordinary-token child of a context, in
        token order. The children's contexts are ``state[1:]`` and a token,
        so the columns are kept per ``state[1:]``, at most one entry per
        prefix of a context."""
        prefix = state[1:]
        columns = self._columns_of.get(prefix)
        if columns is None:
            if self.rows is None:
                # A forbidden entry's log is -inf and a sum of two raised ones
                # may overflow to it; _raised makes either the lowest float.
                with np.errstate(divide="ignore", over="ignore"):
                    self._build()
            columns = self._columns_of[prefix] = self._children(prefix)
        return columns

    def best(self, columns: np.ndarray, left: int) -> np.ndarray:
        """At least ``G[m]`` at every length m in 1..left, per column."""
        if left <= len(self.rows):
            return np.maximum.reduce(self.rows[:left, columns])
        return self.beyond[columns]

    def by_length(self, columns: np.ndarray, left: int) -> np.ndarray:
        """At least ``G[m]`` per length m in 1..left (rows) and column, as a
        new array: the table's rows, then the tail bound, never above
        ``beyond``."""
        stored = len(self.rows)
        if left <= stored:
            return self.rows[:left, columns]  # a new array
        out = np.empty((left, len(columns)))
        out[:stored] = self.rows[:, columns]
        past = np.arange(1.0, left - stored + 1)[:, None]  # r - L, exact
        tail = _raised(_raised(past * self.step) + self._top)
        np.minimum(tail, self.beyond[columns], out=out[stored:])
        return out

    def _build(self) -> None:
        vocab, order, add_k, counts = self._model
        size, n_tokens, width = vocab.dist_size, len(vocab.tokens), order - 1
        radix = vocab.bos_id + 1  # context ids are below it
        n_ctx = len(counts.context_index)
        ctx = np.array([[vocab._index[t] for t in c.split(" ")] if width else []
                        for c in counts.context_index], dtype=np.intp).reshape(n_ctx, width)
        # Each row's entries as _state_row builds them, each log raised.
        owner = np.repeat(np.arange(n_ctx), np.diff(counts.offsets))
        event_counts = counts.event_counts.astype(float)
        totals = np.bincount(owner, event_counts, minlength=n_ctx)  # exact below 2**53
        for k in np.flatnonzero(totals >= 2.0**53):  # a row sum whose grouping matters
            events = slice(counts.offsets[k], counts.offsets[k + 1])
            totals[k] = _put_counts(np.zeros(size), counts, events).sum()  # the row's sum
        totals = totals + add_k * size  # a float even with no event
        event_lp = _raised(np.log((event_counts + add_k) / totals[owner]))
        smoothed = _raised(np.log(add_k / totals))  # each stored row's entry of a non-event
        unseen = float(_raised(np.log(add_k / (0.0 + add_k * size))))
        ends = counts.event_ids == vocab.eos_id
        first = smoothed.copy()
        first[owner[ends]] = event_lp[ends]
        steps = ~ends
        step_owner, step_lp = owner[steps], event_lp[steps]
        self.step = max(unseen, float(smoothed.max(initial=-math.inf)),
                        float(step_lp.max(initial=-math.inf)))

        # Prefix classes; the class of a context's tail c[1:] is its index
        # among the prefixes, or ``other``.
        if width > 1 and n_ctx:
            first_of = np.unique(_row_codes(ctx[:, :-1], radix), return_index=True)[1]
            prefixes = ctx[np.sort(first_of), :-1]  # in the order the contexts first show them
        else:  # no stored context, or the one empty prefix of them all
            prefixes = np.zeros((min(n_ctx, 1) if width <= 1 else 0, max(width - 1, 0)), np.intp)
        group = _row_index(prefixes, ctx[:, :-1], radix)
        other = len(prefixes)

        def class_of(tails):
            index = _row_index(prefixes, tails, radix)
            return np.where(index < 0, other, index)

        # The next state of each step event: stored, or its unseen class.
        nxt = np.column_stack((ctx[step_owner, 1:], counts.event_ids[steps]))[:, :width]
        step_next = _row_index(ctx, nxt, radix)
        unseen_next = step_next < 0
        step_next[unseen_next] = n_ctx + class_of(nxt[unseen_next, 1:])
        step_starts = np.flatnonzero(np.diff(step_owner, prepend=-1))
        tail_class = class_of(ctx[:, 1:])
        # The next states of a prefix p are p + (t,) for each of ``slots``
        # tokens (one state for order 1): the stored ones, its members, and
        # the unseen ones, whose classes, up to order 3, do not depend on p.
        slots = n_tokens if width else 1
        last = ctx[:, -1] if width else np.zeros(n_ctx, np.intp)
        member = np.flatnonzero(last < slots)
        member = member[np.argsort(group[member], kind="stable")]
        starts = np.flatnonzero(np.diff(group[member], prepend=-1))
        sizes = np.diff(starts, append=len(member))
        present = group[member[starts]]
        group_size = np.zeros(other, np.intp)
        group_size[present] = sizes
        position = np.arange(len(member)) - np.repeat(starts, sizes)
        member_slot = last[member]
        group_key = group[member].astype(np.int64) * slots  # sorts members by group first
        unseen_class = (class_of(np.arange(slots)[:, None][:, :width - 1])
                        if width <= 2 else None)

        def advance(values: np.ndarray) -> np.ndarray:
            """The next row of the program from the last."""
            classes = values[n_ctx:]
            unseen_best = (classes[unseen_class] if unseen_class is not None
                           else np.full(slots, classes.max()))
            ranked = np.argsort(-unseen_best, kind="stable")
            rank = np.empty(slots, np.intp)
            rank[ranked] = np.arange(slots)
            best = np.full(other + 1, -math.inf)
            best[other] = unseen_best.max()
            if len(member):
                # Per prefix, the first token in rank order that is no member.
                ranks = np.sort(group_key + rank[member_slot]) - group_key
                taken = np.where(ranks == position, np.repeat(sizes, sizes), position)
                free = group_size.copy()
                free[present] = np.minimum.reduceat(taken, starts)
                best[:other] = np.append(unseen_best[ranked], -math.inf)[free]
                stored_best = np.maximum.reduceat(values[member], starts)
                best[present] = np.maximum(best[present], stored_best)
            else:
                best[:other] = unseen_best[ranked[0]]
            stored = _raised(smoothed + best[tail_class])
            if len(step_lp):
                events = _raised(step_lp + values[step_next])
                at = step_owner[step_starts]
                stored[at] = np.maximum(stored[at], np.maximum.reduceat(events, step_starts))
            return np.concatenate((stored, _raised(unseen + best)))

        rows = [np.concatenate((first, np.full(other + 1, unseen)))]
        running, last_running = rows[0], None
        while len(rows) < COMPLETION_TABLE_ROWS:
            rows.append(advance(rows[-1]))
            running, last_running = np.maximum(running, rows[-1]), running
        rows = np.array(rows)
        self._top = float(rows[-1].max())
        if last_running is not None and (running == last_running).all():  # the fixed point
            self.beyond = running
        else:
            self.beyond = np.maximum(running, _raised(self._top + self.step))
        # What ``_children`` reads.
        self._groups = {tuple(p): j for j, p in enumerate(prefixes.tolist())}
        self._group_members = {j: (member_slot[s:s + n], member[s:s + n])
                               for j, s, n in zip(present.tolist(), starts.tolist(),
                                                  sizes.tolist())}
        self._unseen_columns = None if unseen_class is None else n_ctx + unseen_class
        self._n_ctx, self._other = n_ctx, other
        self.rows = rows  # last: a table with rows is built

    def _children(self, prefix: tuple[int, ...]) -> np.ndarray:
        n_tokens = len(self._model[0].tokens)
        if self._model[1] == 1:  # every child is the one context
            return np.full(n_tokens, 0 if self._n_ctx else self._n_ctx + self._other)
        if self._unseen_columns is not None:
            columns = self._unseen_columns.copy()
        else:
            columns = np.array([self._n_ctx + self._groups.get(prefix[1:] + (t,), self._other)
                                for t in range(n_tokens)], dtype=np.intp)
        j = self._groups.get(prefix)
        if j in self._group_members:
            slots, member = self._group_members[j]
            columns[slots] = member
        return columns


def _check_parameters(order, add_k) -> None:
    """``NGramModel``'s rule for its order, an ``int`` of at least 1, and
    for its ``add_k``, an ``int`` or ``float`` that is finite and above 0
    (an infinite one makes every row NaN); a bool is neither. The order is
    named first."""
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise ContractError(f"order must be an integer >= 1, got {order!r}")
    fault = "add_k must be a finite number > 0, got "
    try:
        usable = (isinstance(add_k, (int, float)) and not isinstance(add_k, bool)
                  and math.isfinite(add_k) and add_k > 0)
    except OverflowError:  # an int beyond every float, maybe too long to print
        raise ContractError(fault + "an int too large for a float") from None
    if not usable:
        raise ContractError(fault + repr(add_k))


# The count columns of an n-gram model file.
_COLUMNS = ("contexts", "events_per_context", "event_tokens", "event_counts")


class _CountColumns(NamedTuple):
    """An n-gram model's counts, stored flat. The events of a context are
    ``event_ids[s:e]`` and ``event_counts[s:e]``, where
    ``s, e = offsets[k], offsets[k + 1]`` and ``k = context_index[c]``,
    ``c`` being the context's tokens joined by single spaces, as in a model
    file. Each context is listed once and its events are distinct. A
    model makes the arrays read-only, and nothing writes ``context_index``
    or ``offsets``, so models built from one file may share them."""

    context_index: dict[str, int]
    offsets: list[int]
    event_ids: np.ndarray  # intp
    event_counts: np.ndarray  # int64


def _put_counts(row: np.ndarray, counts: _CountColumns, events: slice | None) -> np.ndarray:
    """``row``, zeros of the distribution size, with the counts of a
    context's ``events`` (``NGramModel._events``; None, an unseen context,
    has none) put at their ids, and returned: the one layout of the counts
    that a model row is built from, so that every sum of them is the row's.
    A context's event ids are distinct, and the int64 -> float64 cast
    rounds each count as float() of the int would."""
    if events is not None:
        row[counts.event_ids[events]] = counts.event_counts[events]
    return row


def train_ngram(corpus: Iterable[TokenSeq], order: int, add_k: float) -> NGramModel:
    """Count n-gram events from whitespace-tokenized lines.

    The corpus defines the vocabulary. Each line is padded with begin
    markers on the left and closed with one end-marker event, so an empty
    line still trains p(eos | bos-context). Contexts are stored in the
    order the corpus first shows them, and the events of each context in
    the order they first follow it, which is the order a model file lists
    them in. Each line is read once, so it may be any iterable of tokens.

    Counting runs in bulk numpy passes over every event, one pass per
    context position: each context gets an integer code, built up one
    token at a time, and the (context, event) pairs are counted on the
    codes. No code passes int64, whatever the order and vocabulary: the
    codes are renumbered densely whenever the next position could overflow.
    """
    _check_parameters(order, add_k)  # before the padding does arithmetic on the order
    tokens: list = []
    ends = [tokens.extend(line) or len(tokens) for line in corpus]  # each line read once
    if not ends:
        raise ContractError("corpus must be nonempty")
    vocab = Vocabulary(tuple(sorted(set(tokens))))
    need = order - 1
    lengths = np.diff(ends, prepend=0)
    # Beyond the longest line every context token is the begin marker, so
    # only the nearest ``depth`` positions tell contexts apart.
    depth = min(need, int(lengths.max()))
    # Every line laid out as ``depth`` begin markers, its ids, then the end
    # marker; each event reads its context off the ``depth`` ids before it.
    stops = np.cumsum(lengths + depth + 1)  # one past each line's end marker
    layout = np.full(stops[-1], vocab.bos_id)
    is_token = np.ones(len(layout), dtype=bool)
    is_token[(stops - lengths - 1)[:, None] - np.arange(1, depth + 1)] = False  # padding
    events = np.flatnonzero(is_token)  # in corpus order: tokens and end markers
    is_token[stops - 1] = False
    layout[is_token] = np.fromiter(
        map(vocab._index.__getitem__, tokens), dtype=np.intp, count=len(tokens)
    )
    layout[stops - 1] = vocab.eos_id
    base = vocab.bos_id + 1  # context tokens are ids in [0, bos_id]
    codes, span = np.zeros(len(layout), dtype=np.int64), 1
    for back in range(depth, 0, -1):  # the farthest context position first
        codes, span = _dense(codes, span, base)
        codes *= base  # a padding position's code reads the line before: never counted
        codes[back:] += layout[:-back]
        span *= base
    size = vocab.dist_size
    codes, span = _dense(codes, span, size)
    present, first, counts = _count_pairs((codes * size + layout)[events])
    # The pairs come sorted by key, so each context's pairs are adjacent.
    context = present // size
    bounds = np.flatnonzero(np.diff(context, prepend=-1))
    # Counting read only ``depth`` positions; spelling the contexts is the
    # first step that grows with the order.
    if (need - depth) * len(bounds) > NGRAM_PADDING_GUARD:
        raise ContractError(
            f"order {order} would pad each of the {len(bounds)} contexts with {need - depth} "
            f"begin markers, beyond the guard of {NGRAM_PADDING_GUARD} in all"
        )
    pad = [vocab.bos] * (need - depth)
    context_first = np.minimum.reduceat(first, bounds)
    sizes = np.diff(bounds, append=len(present))
    # Contexts by their first event, and within each its events by theirs.
    order_of_pairs = np.lexsort((first, np.repeat(context_first, sizes)))
    order_of_contexts = np.argsort(context_first)
    seen = events[context_first[order_of_contexts]]
    spelled = layout[seen[:, None] - np.arange(depth, 0, -1)]
    names = np.array(vocab._names, dtype=object)
    contexts = [" ".join(pad + row) for row in names[spelled].tolist()]
    columns = _CountColumns(
        dict(zip(contexts, itertools.count())),
        list(itertools.accumulate(sizes[order_of_contexts].tolist(), initial=0)),
        (present % size)[order_of_pairs],
        counts[order_of_pairs].astype(np.int64),
    )
    return NGramModel(vocab, order, add_k, columns)


def _dense(codes: np.ndarray, span: int, factor: int) -> tuple[np.ndarray, int]:
    """``codes`` below ``span``, renumbered densely first when
    ``span * factor`` would not fit in int64, so that multiplying them by
    ``factor`` and adding a number below it cannot overflow."""
    if span * factor < 2**63:
        return codes, span
    codes = np.unique(codes, return_inverse=True)[1].astype(np.int64)
    return codes, int(codes.max()) + 1


def _count_pairs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``keys`` in ascending order, the index of each one's
    first occurrence, and how often each occurs."""
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    return ordered[starts], np.minimum.reduceat(order, starts), np.diff(starts, append=len(keys))


def _ngram_model_from_spec(raw: dict, path: str | Path) -> NGramModel:
    missing = [name for name in ("vocab", "order", "add_k", *_COLUMNS) if name not in raw]
    if missing:
        raise ModelFormatError(f"n-gram model {path} is missing {', '.join(missing)}")
    try:
        return NGramModel(_vocabulary_of(raw), raw["order"], raw["add_k"], raw)
    except (VocabularyError, ContractError) as exc:
        raise ModelFormatError(f"bad n-gram model {path}: {exc}") from exc


def _integers(values: list) -> bool:
    return all(t is not bool and issubclass(t, int) for t in set(map(type, values)))


def _column_lists(counts: Mapping[str, list]) -> tuple[list, list, list, list]:
    """The four count columns, once they are lists whose lengths agree and
    whose numbers of events split the events among the contexts."""
    if not isinstance(counts, Mapping):
        raise ContractError(
            f"counts must be a mapping of the count columns, got {type(counts).__name__}"
        )
    missing = [name for name in _COLUMNS if name not in counts]
    if missing:
        raise ContractError(f"counts is missing {', '.join(missing)}")
    for name in _COLUMNS:
        if not isinstance(counts[name], list):
            raise ContractError(f"{name} must be a list, got {type(counts[name]).__name__}")
    contexts, sizes, tokens, values = (counts[name] for name in _COLUMNS)
    if len(sizes) != len(contexts):
        raise ContractError(
            f"events_per_context has {len(sizes)} entries for {len(contexts)} contexts"
        )
    if len(values) != len(tokens):
        raise ContractError(
            f"event_counts has {len(values)} entries for {len(tokens)} event_tokens"
        )
    if not (_integers(sizes) and min(sizes, default=0) >= 0 and sum(sizes) == len(tokens)):
        raise ContractError(
            f"events_per_context must be non-negative integers summing to the {len(tokens)} events"
        )
    return contexts, sizes, tokens, values


def _checked_columns(
    contexts: list, sizes: list, tokens: list, counts: list, vocab: Vocabulary, order: int
) -> _CountColumns | None:
    """The columns, checked and built in bulk passes, or None when a check
    fails: a context listed twice, not spelled as ``order - 1`` known
    tokens joined by single spaces, an unknown or begin-marker event, an
    event listed twice in one context, or a count that is not an int (a
    bool is not), negative or 2**63 or more."""
    if not _integers(counts):
        return None
    try:
        context_index = dict(zip(contexts, itertools.count()))
        joined = " ".join(contexts)
        ids = np.fromiter(map(vocab._index.__getitem__, tokens), dtype=np.intp, count=len(tokens))
        values = np.fromiter(counts, dtype=np.int64, count=len(counts))
    except (TypeError, KeyError, OverflowError):
        return None
    if len(context_index) != len(contexts):
        return None
    if order == 1:
        spelled = not joined  # the one context of a unigram model is empty
    else:
        spelled = not contexts or (
            set(joined.split(" ")) <= vocab._index.keys()
            and set(map(str.count, contexts, itertools.repeat(" "))) == {order - 2}
        )
    if not spelled or (len(ids) and ids.max() >= vocab.dist_size) or (values < 0).any():
        return None
    # Each event's key, its context's number times D plus its id, repeats
    # only where a context lists an event twice.
    size = vocab.dist_size
    keys = np.repeat(np.arange(0, len(sizes) * size, size), sizes) + ids
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        return None
    return _CountColumns(context_index, list(itertools.accumulate(sizes, initial=0)), ids, values)


def _name_fault(
    contexts: list, sizes: list, tokens: list, counts: list, vocab: Vocabulary, order: int
) -> NoReturn:
    """Raises on the first fault of columns that ``_checked_columns``
    rejects, reading them one context and one event at a time in order."""
    events = zip(tokens, counts)
    seen: set[str] = set()
    for ctx, size in zip(contexts, sizes):
        if not isinstance(ctx, str):
            raise ContractError(f"context {ctx!r} is not a string")
        spelled = ctx.split()
        if " ".join(spelled) != ctx:
            raise ContractError(f"context {ctx!r} is not its tokens joined by single spaces")
        if len(spelled) != order - 1:
            raise ContractError(
                f"context {ctx!r} holds {len(spelled)} tokens, but an order-{order} context "
                f"holds {order - 1}"
            )
        vocab.encode(spelled)
        if ctx in seen:
            raise ContractError(f"context {ctx!r} is listed twice")
        seen.add(ctx)
        row: set[int] = set()
        for token, value in itertools.islice(events, size):
            where = f"{token!r} after {ctx!r}"
            if not isinstance(token, str):
                raise ContractError(f"event {where} is not a string")
            tid = vocab.id_of(token)
            if tid == vocab.bos_id:
                raise ContractError(f"event {where} is the begin marker, never predicted")
            if tid in row:
                raise ContractError(f"event {where} is listed twice")
            row.add(tid)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ContractError(
                    f"count of {where} must be a non-negative integer, got {value!r}"
                )
            if value >= 2**63:
                raise ContractError(f"count of {where} must be below 2**63, got {value!r}")
    raise AssertionError("the bulk check rejected count columns that hold no fault")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, or ValueError naming a key it repeats
    (plain ``json.loads`` would keep the last of them)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"key {key!r} appears twice in one object")
    return obj


# The sha256 of the last n-gram file load_model checked, and a model built
# from it that is never handed out: each later load of those bytes builds
# on its vocabulary, parameters and columns, and copies its best_step.
_last_ngram_file: tuple[str, NGramModel] | None = None


def load_model(path: str | Path) -> SequenceModel:
    """Dispatch on the optional ``kind`` field: ``"ngram"``, or none for a
    table model; any other ``kind`` is a format error. The file is read
    once, and the model's ``file_digest`` is the digest of the bytes it was
    parsed from.

    The last n-gram file that passed every check is remembered, one entry
    keyed by the sha256 of its bytes. When a load reads the same bytes, it
    skips JSON parsing and every check, and builds a new ``NGramModel``
    from the remembered vocabulary, parameters and read-only count columns,
    with its own empty row cache, the file's ``best_step``, computed
    once, at the first repeat load, and the file's ``CompletionTable``,
    built by the first decode of any model of those bytes that needs it.
    Table files are never remembered, since their load may log a
    renormalization warning, and neither is a file that fails a check, so
    a malformed file raises at every load.

    Every malformed file ends in ``ModelFormatError``, one that is not UTF-8
    text, whose JSON repeats a key within one object or nests deeper than
    the parser's recursion limit included. In any model file that is a
    ``vocab`` that is not a list of strings, a ``bos`` or ``eos`` that is
    not a string, or a token or marker that is empty or holds whitespace.
    For a table file it is also a spec that is not a JSON object, a missing
    ``vocab`` or ``default``, an ``entries``, source table or distribution
    that is not a JSON object, a prefix spelled twice in one table
    (``"<s>"`` and ``"<s>  "``), a context that ends in the end marker, or
    a ``source_keyed`` that is not a boolean. For an n-gram file it is a
    missing field (a file with only the older ``counts`` mapping is missing
    the four count columns), count columns that are not lists, disagree in
    length or do not split the events among the contexts, a context that
    is not ``order - 1`` known tokens joined by single spaces, a context
    listed twice, an unknown token, a begin-marker event, an event listed
    twice in one context, a count that is not a non-negative integer below
    2**63, an order that is not an integer of at least 1 (a JSON number
    with a fraction or exponent, or a boolean, is not), or an ``add_k``
    that is not a finite number above 0 (a boolean or a string is not); all
    of them are raised here, before any decode.
    """
    global _last_ngram_file
    try:
        text, digest = read_utf8(path)
        last = _last_ngram_file
        seen = last is not None and last[0] == digest  # bytes that passed every check
        raw = None if seen else json.loads(text, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: not UTF-8, not JSON, a repeated key; RecursionError: too deep
        raise ModelFormatError(f"cannot parse model {path}: {exc}") from exc
    if seen:
        kept = last[1]
        model = NGramModel(kept.vocabulary, kept.order, kept.add_k, kept._columns)
        # Computed once for the file, so that no repeat load's first exact
        # decode pays for it; a file loaded only once never computes it here.
        model.best_step = kept.best_step
        model.completion_table = kept.completion_table
    elif isinstance(raw, dict) and "kind" in raw:
        if raw["kind"] != "ngram":
            raise ModelFormatError(f"unknown model kind {raw['kind']!r}: expected 'ngram' or none")
        model = _ngram_model_from_spec(raw, path)
        kept = NGramModel(model.vocabulary, model.order, model.add_k, model._columns)
        kept.completion_table = model.completion_table  # built by whichever decode first needs it
        _last_ngram_file = digest, kept
    else:
        model = _table_model_from_spec(raw)
    model.file_digest = digest
    return model


def read_utf8(path: str | Path) -> tuple[str, str]:
    """A file's text and the sha256 hex digest of its bytes, from one read.

    The bytes are decoded as ``Path.read_text(encoding="utf-8")`` decodes
    them, universal newlines included, so the text and every
    ``UnicodeDecodeError`` message are the same as that call's."""
    data = Path(path).read_bytes()
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text, hashlib.sha256(data).hexdigest()


def save_model(model: TableModel | NGramModel, path: str | Path) -> None:
    """Write ``model.to_spec()`` as the JSON file ``load_model`` reads, with
    sorted keys and no indentation, which ``json`` encodes in C."""
    Path(path).write_text(json.dumps(model.to_spec(), sort_keys=True) + "\n", encoding="utf-8")
