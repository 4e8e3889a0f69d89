"""Every document ``generate`` writes is read by writing it again.

The per-entry walk in ``parse_labeling_document`` gives the same result, only
slower; without this check, a document pushed onto it would show only as a
slower benchmark."""

import pytest

from oddgraceful import build_union_graph
from oddgraceful.construction import METHODS, force_params
from oddgraceful.formats import (
    _TextReader,
    _written_union,
    document_to_json,
    parse_labeling_document,
)

# below-bound cells included: force_params skips the path-length bound
CELLS = [(m, n) for m in range(4, 21, 2) for n in range(1, 31)] + [(8, 12000)]


@pytest.mark.parametrize("method", list(METHODS))
def test_generated_documents_take_the_canonical_parse(method):
    for m, n in CELLS:
        labeling = METHODS[method](force_params(m, n))
        text = document_to_json(build_union_graph(m, n), labeling)
        canonical = _written_union(_TextReader(text))
        assert canonical is not None, (m, n)
        assert canonical == parse_labeling_document(text), (m, n)
