import re

import pytest

from qosorch.model import QoSSpec
from qosorch.registry import (
    Registry,
    RegistryError,
    dump_registry,
    load_registry,
)
from qosorch.selection import CandidateService


def cand(cid, ontology, rt, cost):
    return CandidateService(cid, ontology, QoSSpec(rt, cost))


def test_bookstore_fixture_loads(fixtures_dir):
    registry = load_registry(fixtures_dir / "bookstore_registry.jsonl")
    assert len(registry.candidates()) == 12
    assert len(registry.entries) == 6
    for _, group in registry.entries:
        assert list(group) == sorted(group, key=lambda c: c.candidate_id)


def test_empty_file_gives_empty_registry(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    registry = load_registry(path)
    assert registry.candidates() == ()
    assert registry.query("anything") == []


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "dup.jsonl"
    line = (
        '{"candidate_id": "x", "cost_cents": 1, "ontology": "A",'
        ' "record": "candidate", "response_time_ms": 1}'
    )
    path.write_text(line + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(RegistryError, match=f"^{re.escape(str(path))}:2: duplicate candidate_id 'x'$"):
        load_registry(path)


def test_negative_qos_rejected_with_line_context(tmp_path):
    path = tmp_path / "neg.jsonl"
    path.write_text(
        '{"candidate_id": "x", "cost_cents": -1, "ontology": "A",'
        ' "record": "candidate", "response_time_ms": 1}\n',
        encoding="utf-8",
    )
    with pytest.raises(RegistryError, match=":1:"):
        load_registry(path)


def test_invalid_json_rejected_with_line_context(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json\n", encoding="utf-8")
    with pytest.raises(RegistryError, match=":1:"):
        load_registry(path)


class TestQuery:
    registry = Registry.from_candidates(
        [cand("a1", "A", 100, 5), cand("a2", "A", 50, 9)]
    )

    def test_unknown_ontology_is_empty(self):
        assert self.registry.query("Z") == []

    def test_absent_bound_returns_everything(self):
        assert [c.candidate_id for c in self.registry.query("A")] == ["a1", "a2"]


def test_round_trip_preserves_fields(tmp_path, fixtures_dir):
    original = load_registry(fixtures_dir / "bookstore_registry.jsonl")
    path = tmp_path / "copy.jsonl"
    dump_registry(original, path)
    assert load_registry(path) == original
    assert path.read_text() == (fixtures_dir / "bookstore_registry.jsonl").read_text()
