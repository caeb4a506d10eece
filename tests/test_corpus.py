"""Corpus replay: every committed fuzz reproducer stays fixed.

Each JSON file under ``tests/data/corpus/`` records an instance on which
a solver once misbehaved (or a synthetic failure used to seed the
corpus).  Replaying it with the current, correct solver set must yield
zero findings — a failing replay means a historical bug is back.
"""

from pathlib import Path

import pytest

from repro.core.serialize import instance_to_dict
from repro.verify import discover_corpus, load_corpus_file, replay_file
from repro.verify.corpus import CORPUS_FORMAT, CORPUS_VERSION, _canonical_json, corpus_instance

CORPUS_FILES = discover_corpus(Path(__file__).parent / "data" / "corpus")


def test_committed_corpus_is_not_empty():
    """The repository ships seed reproducers; an empty corpus means the
    discovery path (tests/data/corpus) broke."""
    assert CORPUS_FILES, "no corpus files found under tests/data/corpus"


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
def test_corpus_envelope_valid(path):
    doc = load_corpus_file(path)
    assert doc["format"] == CORPUS_FORMAT
    assert doc["version"] == CORPUS_VERSION
    for key in ("kind", "algorithm", "check", "gamma", "seed", "instance"):
        assert key in doc, f"{path.name} missing {key!r}"
    inst = corpus_instance(doc)
    assert inst.num_slots >= 1
    assert inst.num_sensors >= 1


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
def test_corpus_replays_clean(path):
    surviving = replay_file(path)
    assert surviving == [], (
        f"{path.name}: historical failure reproduces again: "
        + "; ".join(f"{f.kind}/{f.algorithm}/{f.check}" for f in surviving)
    )


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
def test_corpus_instance_round_trips_byte_identically(path):
    """Loading a reproducer into the flat instance and writing it back
    through the per-sensor views gives the committed bytes."""
    doc = load_corpus_file(path)
    doc["instance"] = instance_to_dict(corpus_instance(doc))
    assert _canonical_json(doc) == path.read_text(encoding="utf-8")
