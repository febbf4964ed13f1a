"""Cache keys and stored documents are byte-stable.

Every cached artifact kind is pinned against the corpus in
``tests/data/golden_cache_keys.json`` (regenerated only via
``tests/tools/capture_cache_keys.py`` after an intentional change): the
key of each configuration, including every field that joins a key only
when it is not at its default, and the sha256 of one stored document
per kind, and every cache file a cold run of each entry point writes. A
drifted key turns every warm result cache cold; a drifted document
breaks caches shared between versions of the code.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tools import capture_cache_keys as corpus  # noqa: E402

GOLDEN = json.loads(corpus.FIXTURE.read_text())

KEY_BUILDERS = {
    "cell": corpus.cell_keys,
    "scaleout": corpus.scaleout_keys,
    "serving": corpus.serving_keys,
    "cache_ablation": corpus.ablation_keys,
    "entry_point": corpus.entry_point_keys,
}


def test_corpus_covers_every_kind():
    assert set(GOLDEN["keys"]) == set(KEY_BUILDERS)
    assert set(GOLDEN["documents"]) == {"cell", "scaleout", "serving", "cache_ablation"}


@pytest.mark.parametrize("kind", sorted(KEY_BUILDERS))
def test_cache_keys_are_byte_identical(kind):
    assert KEY_BUILDERS[kind]() == GOLDEN["keys"][kind]


def test_keys_within_a_kind_are_distinct():
    for kind, keys in GOLDEN["keys"].items():
        assert len(set(keys.values())) == len(keys), kind


def test_stored_documents_are_byte_identical():
    assert corpus.document_digests() == GOLDEN["documents"]


def test_entry_points_write_the_same_cache_files():
    assert corpus.entry_point_files() == GOLDEN["files"]

