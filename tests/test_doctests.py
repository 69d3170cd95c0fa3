"""Run every docstring example in the library as a test.

Documentation that drifts from the code is worse than none: the examples
embedded in public docstrings (``>>>`` blocks) are executed here so they
stay truthful.
"""

import doctest

import pytest

import repro.classify.metrics
import repro.core.annotation
import repro.core.annotator
import repro.core.clustering
import repro.eval.reporting
import repro.geo.gazetteer
import repro.kb.catalogue
import repro.persistence
import repro.service.protocol
import repro.synth.rng
import repro.tables.model
import repro.tables.render
import repro.text.language
import repro.text.pipeline
import repro.text.porter
import repro.text.stopwords
import repro.text.tokenization
import repro.text.vectorizer
import repro.web.search

_MODULES = [
    repro.classify.metrics,
    repro.core.annotation,
    repro.core.annotator,
    repro.core.clustering,
    repro.eval.reporting,
    repro.geo.gazetteer,
    repro.kb.catalogue,
    repro.persistence,
    repro.service.protocol,
    repro.synth.rng,
    repro.tables.model,
    repro.tables.render,
    repro.text.language,
    repro.text.pipeline,
    repro.text.porter,
    repro.text.stopwords,
    repro.text.tokenization,
    repro.text.vectorizer,
    repro.web.search,
]


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_docstring_examples(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, (
        f"{results.failed} doctest failures in {module.__name__}"
    )


def test_docstring_examples_exist_somewhere():
    total = sum(
        doctest.testmod(module, verbose=False).attempted for module in _MODULES
    )
    assert total >= 15, "expected a meaningful number of docstring examples"
