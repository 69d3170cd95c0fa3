"""Token-to-index vocabulary used to build feature matrices."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator


class Vocabulary:
    """A frozen-after-fit mapping from token to contiguous feature index.

    Tokens seen fewer than ``min_count`` times during :meth:`fit` are
    dropped; unseen tokens map to ``None`` via :meth:`index_of`.
    """

    def __init__(self, min_count: int = 1) -> None:
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        self.min_count = min_count
        self._index: dict[str, int] = {}
        self._tokens: list[str] = []
        self._fitted = False

    # -- construction --------------------------------------------------------

    def fit(self, documents: Iterable[Iterable[str]]) -> "Vocabulary":
        """Build the index from an iterable of token sequences."""
        if self._fitted:
            raise RuntimeError("Vocabulary is already fitted")
        counts: Counter[str] = Counter()
        for tokens in documents:
            counts.update(tokens)
        for token in sorted(counts):
            if counts[token] >= self.min_count:
                self._index[token] = len(self._tokens)
                self._tokens.append(token)
        self._fitted = True
        return self

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Vocabulary":
        """Build a vocabulary treating *tokens* as one document."""
        return cls().fit([list(tokens)])

    # -- lookup ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._tokens)

    def index_of(self, token: str) -> int | None:
        """Feature index of *token*, or ``None`` when out of vocabulary."""
        return self._index.get(token)

    def ids(self, tokens: Iterable[str]) -> list[int]:
        """Feature index of each token, ``-1`` when out of vocabulary."""
        get = self._index.get
        return [get(token, -1) for token in tokens]

    def token_at(self, index: int) -> str:
        """Inverse lookup; raises ``IndexError`` for invalid indices."""
        return self._tokens[index]

    @property
    def fitted(self) -> bool:
        return self._fitted
