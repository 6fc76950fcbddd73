"""Token inventory with distinguished begin/end-of-sequence markers.

Ordinary tokens get dense ids 0..n-1, the end marker gets id n, so a
next-token distribution is a vector of length n+1. The begin marker sits
outside that range (id n+1) and is never predicted. No token or marker is
empty or holds whitespace, since a model file spells a context as its
tokens joined by single spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exceptions import ContractError, VocabularyError

DEFAULT_BOS = "<s>"
DEFAULT_EOS = "</s>"


@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple[str, ...]
    bos: str = DEFAULT_BOS
    eos: str = DEFAULT_EOS
    # Every token name in id order: the ordinary tokens, the end marker, then
    # the begin marker.
    _names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bos == self.eos:
            raise ContractError("bos and eos markers must be distinct")
        if self.bos in self.tokens or self.eos in self.tokens:
            raise ContractError("bos/eos markers may not appear among ordinary tokens")
        if len(set(self.tokens)) != len(self.tokens):
            raise ContractError("tokens must be unique")
        names = (*self.tokens, self.eos, self.bos)
        if len(" ".join(names).split()) != len(names):
            raise ContractError("tokens and markers must be non-empty and hold no whitespace")
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_index", {tok: i for i, tok in enumerate(names)})

    @property
    def eos_id(self) -> int:
        return len(self.tokens)

    @property
    def bos_id(self) -> int:
        return len(self.tokens) + 1

    @property
    def dist_size(self) -> int:
        """Length of a next-token distribution (ordinary tokens plus eos)."""
        return len(self.tokens) + 1

    def id_of(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise VocabularyError(f"unknown token {token!r}") from None

    def token_of(self, token_id: int) -> str:
        if 0 <= token_id < len(self._names):
            return self._names[token_id]
        raise VocabularyError(f"token id {token_id} out of range")

    def encode(self, tokens) -> tuple[int, ...]:
        return tuple(map(self.id_of, tokens))

    def prefix_ids(self, tokens, stepped: bool = False) -> tuple[int, ...]:
        """Ids of a prefix: the begin marker first and nowhere else, the end
        marker only last.

        With ``stepped`` the last token is one predicted step taken after
        such a prefix, as in a hypothesis being scored: it may be any token
        but the begin marker, so an end marker may follow an end marker.
        A lone begin marker is a valid prefix either way.
        """
        if not tokens or tokens[0] != self.bos:
            raise ContractError("prefix must start with the begin-of-sequence marker")
        if self.bos in tokens[1:]:
            raise ContractError("begin marker may only appear as the first prefix element")
        if self.eos in tokens[1 : -2 if stepped else -1]:
            raise ContractError("end marker may only appear as the final prefix element")
        return self.encode(tokens)

    def decode(self, ids) -> tuple[str, ...]:
        return tuple(self.token_of(i) for i in ids)
