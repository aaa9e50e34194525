"""Simulated service directory: candidate services indexed by ontology.

Registries are loaded once from a JSONL file (one candidate record per line)
and are read-only afterwards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .model import QoSSpec
from .selection import CandidateService


class RegistryError(ValueError):
    """A registry file failed to parse or validate."""


@dataclass(frozen=True)
class Registry:
    """Candidates grouped by ontology; lists ordered by candidate id."""

    entries: tuple[tuple[str, tuple[CandidateService, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    @classmethod
    def from_candidates(cls, candidates: Iterable[CandidateService]) -> Registry:
        seen: dict[str, CandidateService] = {}
        for candidate in candidates:
            if candidate.candidate_id in seen:
                raise RegistryError(f"duplicate candidate_id {candidate.candidate_id!r}")
            seen[candidate.candidate_id] = candidate
        groups: dict[str, list[CandidateService]] = {}
        for candidate in seen.values():
            groups.setdefault(candidate.ontology, []).append(candidate)
        entries = tuple(
            (ontology, tuple(sorted(groups[ontology], key=lambda c: c.candidate_id)))
            for ontology in sorted(groups)
        )
        return cls(entries=entries)

    def candidates(self) -> tuple[CandidateService, ...]:
        return tuple(c for _, group in self.entries for c in group)

    def query(self, ontology: str) -> list[CandidateService]:
        """All candidates of an ontology, ordered by id; [] if it is unknown."""
        for candidate_ontology, group in self.entries:
            if candidate_ontology == ontology:
                return list(group)
        return []


def candidate_to_record(candidate: CandidateService) -> dict:
    return {
        "record": "candidate",
        "candidate_id": candidate.candidate_id,
        "ontology": candidate.ontology,
        "response_time_ms": candidate.qos.response_time_ms,
        "cost_cents": candidate.qos.cost_cents,
    }


def candidate_from_record(record: dict) -> CandidateService:
    try:
        return CandidateService(
            candidate_id=record["candidate_id"],
            ontology=record["ontology"],
            qos=QoSSpec(
                response_time_ms=record["response_time_ms"],
                cost_cents=record["cost_cents"],
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise RegistryError(f"bad candidate record: {exc}") from exc


def load_registry(path: str | Path) -> Registry:
    """Load and validate a registry file (one JSON candidate record per line)."""
    from .formats import FormatError, _load_records  # formats imports this module

    try:
        numbered = _load_records(path, "candidate", candidate_from_record)
    except FormatError as exc:
        raise RegistryError(str(exc)) from exc
    seen: set[str] = set()
    for line_no, candidate in numbered:
        cid = candidate.candidate_id
        if cid in seen:
            raise RegistryError(f"{path}:{line_no}: duplicate candidate_id {cid!r}")
        seen.add(cid)
    return Registry.from_candidates(candidate for _, candidate in numbered)


def dump_registry(registry: Registry, path: str | Path) -> None:
    lines = [json.dumps(candidate_to_record(c), sort_keys=True) for c in registry.candidates()]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
