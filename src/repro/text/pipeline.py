"""The snippet feature pipeline of Section 5.2.1.

``TextPipeline`` reproduces the paper's preparation of a snippet before
classification: lower-case, tokenize, drop English stopwords, Porter-stem the
rest, and associate each resulting token with its *normalised frequency* --
the number of occurrences divided by the snippet length (in kept tokens).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.text.porter import stem
from repro.text.stopwords import ENGLISH_STOPWORDS
from repro.text.tokenization import tokenize

_UNSEEN = object()
"""Missing-entry sentinel for the token memo.

An ``""`` default would collide with any token legitimately mapping to an
empty stem, recomputing (and historically double-counting) it on every
occurrence; a private object can never equal a stored mapping.
"""


@dataclass
class TextPipeline:
    """Configurable snippet-to-features pipeline.

    Parameters mirror the paper's choices and are all on by default;
    switching one off supports the ablation benchmarks.

    A per-instance memo caches each token's fate (dropped as a stopword,
    or its stem) so both :meth:`tokens` and :meth:`counts` pay the
    stopword lookup and stemmer only once per distinct token; the memo is
    discarded if the configuration flags are changed mid-flight.

    >>> TextPipeline().features("The Louvre is a museum in Paris")
    {'louvr': 0.3333333333333333, 'museum': 0.3333333333333333, 'pari': 0.3333333333333333}
    """

    remove_stopwords: bool = True
    apply_stemming: bool = True
    _memo: dict[str, str | None] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _memo_config: tuple[bool, bool] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def tokens(self, text: str) -> list[str]:
        """Lower-cased, stopword-filtered, stemmed tokens of *text*.

        Shares the per-token memo with :meth:`counts`, so each distinct
        token pays the stopword lookup and the stemmer once.  Training
        snippets and each new snippet word the vectorizer memoises come
        through here; per-token lookups are hoisted into locals.
        """
        memo = self._token_memo()
        memo_get = memo.get
        map_token = self._map_token
        unseen = _UNSEEN
        mapped_tokens: list[str] = []
        append = mapped_tokens.append
        for token in tokenize(text):
            mapped = memo_get(token, unseen)
            if mapped is unseen:
                mapped = map_token(token)
                memo[token] = mapped
            if mapped is not None:
                append(mapped)
        return mapped_tokens

    def counts(self, text: str) -> Counter[str]:
        """Raw token counts after the full pipeline.

        One :meth:`tokens` pass folded through ``Counter``'s C-level
        counting -- strictly the same mapping as counting inside the loop,
        minus the per-token dict updates in Python.
        """
        return Counter(self.tokens(text))

    def features(self, text: str) -> dict[str, float]:
        """Normalised-frequency features: count / snippet length.

        The snippet length is the number of tokens kept by the pipeline,
        so the feature values of one snippet always sum to 1.0 (or the
        dict is empty when no token survives filtering).
        """
        counts = self.counts(text)
        total = sum(counts.values())
        if total == 0:
            return {}
        return {token: count / total for token, count in counts.items()}

    # -- token memo ---------------------------------------------------------------

    def _token_memo(self) -> dict[str, str | None]:
        config = (self.remove_stopwords, self.apply_stemming)
        if self._memo_config != config:
            self._memo = {}
            self._memo_config = config
        return self._memo

    def _map_token(self, token: str) -> str | None:
        """Fate of one tokenised word: ``None`` when dropped, else its stem."""
        if self.remove_stopwords and token in ENGLISH_STOPWORDS:
            return None
        return stem(token) if self.apply_stemming else token
