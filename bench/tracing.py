"""Instrumentation installed around calls into regdecode's modules.

Two instruments, never installed together:

* ``DecoderClock`` (untraced passes): a bare timestamp pair around each
  call the CLI makes to a public decoder (greedy, beam, exact), for
  per-sentence latency. The brute-force oracles are not timed: in
  ``verify`` they are the check, not the decode under test.
* ``Tracer`` (traced passes): a span around every call into the public
  functions of each layer, kept in flat in-memory arrays (name, start,
  end, parent) and written out once when the run ends.

Both patch the names where they are bound (module globals and class
attributes) and restore the originals on exit, so the program itself is
never edited.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

DECODERS = ("greedy_search", "beam_search", "exact_search")
ORACLES = ("brute_force", "brute_force_set")

# (layer, module, function) for every traced public function.
FUNCTIONS = (
    ("models", "regdecode.models", "load_model"),
    ("objectives", "regdecode.objectives", "score_parts"),
    ("objectives", "regdecode.objectives", "score"),
    *(("search", "regdecode.search", name) for name in DECODERS + ORACLES),
    ("surprisal", "regdecode.surprisal", "stats"),
    ("evaluate", "regdecode.evaluate", "corpus_bleu"),
    ("evaluate", "regdecode.evaluate", "summarize_run"),
    ("randmodels", "regdecode.randmodels", "exactness_instance"),
    ("randmodels", "regdecode.randmodels", "tie_free_instance"),
    ("randmodels", "regdecode.randmodels", "set_limit_instance"),
)

# (layer, module, class, method); subclasses that override are wrapped too.
METHODS = (
    ("models", "regdecode.models", "SequenceModel", "next_log_probs_ids"),
    ("vocab", "regdecode.vocab", "Vocabulary", "decode"),
)


class Patches:
    """Replaces bindings and remembers the originals for ``restore``."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()

    def everywhere(self, original, wrapper) -> None:
        """Rebind ``original`` to ``wrapper`` in every loaded regdecode module."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "regdecode" or mod_name.startswith("regdecode.")):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self.set(module, name, wrapper)


class DecoderClock:
    """Per-call wall time of the decoders the CLI calls; nothing else."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    @contextmanager
    def installed(self):
        cli = importlib.import_module("regdecode.cli")
        patches = Patches()
        found = 0
        for name in DECODERS:
            fn = getattr(cli, name, None)
            if fn is None:
                continue
            patches.set(cli, name, self._timed(fn))
            found += 1
        if not found:
            raise LookupError("regdecode.cli binds none of the public decoders")
        try:
            yield self
        finally:
            patches.restore()

    def _timed(self, fn):
        clock = self

        def timed(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            clock.samples.append(perf_counter() - t0)
            return result

        return timed


class Tracer:
    """Flat span store plus the wrappers that fill it.

    A span is (name id, start, end, parent index); parent -1 marks a root.
    Decoder spans also add the returned record's ``nodes_expanded`` and
    output length (tokens after the begin marker) to ``record_nodes`` and
    ``record_tokens``.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.record_nodes = 0
        self.record_tokens = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, span_name: str, is_decoder: bool):
        name_id = self._name_id(span_name)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if is_decoder and not isinstance(result, list):
                # Read the public field directly: if it is ever renamed or
                # removed this raises instead of counting zero nodes.
                tracer.record_nodes += result.nodes_expanded
                tracer.record_tokens += len(result.best.token_ids) - 1
            return result

        return traced

    @contextmanager
    def installed(self):
        patches = Patches()
        try:
            for layer, mod_name, fn_name in FUNCTIONS:
                original = getattr(importlib.import_module(mod_name), fn_name)
                wrapper = self._wrap(original, f"{layer}.{fn_name}", layer == "search")
                patches.everywhere(original, wrapper)
            for layer, mod_name, cls_name, meth in METHODS:
                base = getattr(importlib.import_module(mod_name), cls_name)
                for cls in _with_subclasses(base):
                    if meth in vars(cls):
                        patches.set(cls, meth, self._wrap(vars(cls)[meth], f"{layer}.{meth}", False))
            yield self
        finally:
            patches.restore()

    def layer_stats(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer counts and self times of the spans in [lo, hi).

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap. A call
        counts once even when it re-enters its own layer (``score`` calling
        ``score_parts``).
        """
        name = np.array(self.name[lo:hi], dtype=np.int64)
        dur = np.array(self.end[lo:hi]) - np.array(self.start[lo:hi])
        parent = np.array(self.parent[lo:hi], dtype=np.int64) - lo
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=hi - lo)
        self_time = dur - child
        layer = np.array([n.split(".")[0] for n in self.names])[name]
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], "")

        def calls(lay: str) -> int:
            return int(((layer == lay) & (parent_layer != lay)).sum())

        def self_s(mask) -> float:
            return float(self_time[mask].sum())

        def named(span_name: str):
            return name == self._name_ids.get(span_name, -1)

        return {
            "objectives.score_calls": calls("objectives"),
            "objectives.self_s": self_s(layer == "objectives"),
            "search.self_s": self_s(layer == "search"),
            "models.calls": int(named("models.next_log_probs_ids").sum()),
            "models.self_s": self_s(named("models.next_log_probs_ids")),
            "models.load_s": float(dur[named("models.load_model")].sum()),
            "vocab.decode_calls": int(named("vocab.decode").sum()),
            "vocab.decode_s": self_s(layer == "vocab"),
            "randmodels.instances": calls("randmodels"),
            "randmodels.self_s": self_s(layer == "randmodels"),
            "evaluate.self_s": self_s(layer == "evaluate"),
            "surprisal.stats_calls": int(named("surprisal.stats").sum()),
            "cli.self_s": self_s(layer == "cli"),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int32),
        )


def _with_subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out
