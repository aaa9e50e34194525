"""QoS aggregation, budget-constrained service selection, parameter routing.

An instance that fans out to n component services in parallel costs the sum
of the component costs and responds in the worst component response time:

    cost(instance)          = sum_i cost(service_i)
    response_time(instance) = max_i response_time(service_i)

Selection chooses one candidate per activity so the aggregate stays within
the requested budget, componentwise and inclusively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .model import AllocatedBinding, Params, QoSSpec, freeze_params

if TYPE_CHECKING:
    from .registry import Registry


class UnknownOntologyError(LookupError):
    """An activity requires an ontology no registry candidate advertises."""


class IncompleteOutputsError(ValueError):
    """Instance outputs were requested before every activity returned."""


@dataclass(frozen=True)
class CandidateService:
    """A registered component service: id, ontology, advertised QoS."""

    candidate_id: str
    ontology: str
    qos: QoSSpec

    def __post_init__(self) -> None:
        if not self.candidate_id:
            raise ValueError("candidate_id must be non-empty")
        if not self.ontology:
            raise ValueError("ontology must be non-empty")


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of a selection: granted with per-activity picks, the bindings
    the granted reply carries, or denied."""

    granted: bool
    per_activity: tuple[AllocatedBinding, ...] | None = None

    def __post_init__(self) -> None:
        if self.granted and self.per_activity is None:
            raise ValueError("a granted allocation must carry per-activity picks")
        if not self.granted and self.per_activity is not None:
            raise ValueError("a denied allocation carries no picks")
        if self.per_activity is not None:
            object.__setattr__(self, "per_activity", tuple(self.per_activity))

    def aggregate(self) -> QoSSpec:
        if not self.granted or self.per_activity is None:
            raise ValueError("denied allocations have no aggregate")
        return aggregate_qos([binding.qos for binding in self.per_activity])


def aggregate_qos(bindings: Sequence[QoSSpec]) -> QoSSpec:
    """Fold component QoS couples into the instance couple (max time, total cost)."""
    if not bindings:
        return QoSSpec(0, 0)
    return QoSSpec(
        response_time_ms=max(b.response_time_ms for b in bindings),
        cost_cents=sum(b.cost_cents for b in bindings),
    )


def qos_allocate(
    request_qos: QoSSpec,
    activities: Sequence[tuple[str, str]],
    registry: Registry,
) -> AllocationResult:
    """Pick one candidate per (activity, ontology) pair within the budget.

    The pick is exact and deterministic: among all assignments that fit the
    budget it minimises total cost, then worst response time, then the tuple
    of candidate ids.  Aggregate cost is a sum and aggregate time a max, so
    this needs no search.  The minimum cost is the sum of each slot's
    cheapest candidate within the time bound.  Sweeping thresholds upward,
    the total reaches that minimum exactly when every slot has reached its
    own cheapest cost, so the least worst time is the largest of the slots'
    fastest cheapest response times.  Below that threshold the slots are
    independent, and the smallest id tuple takes each slot's smallest id.
    The cost is linear in the number of candidates.

    Unknown ontologies are an error, distinct from denial: denial means the
    ontologies are known but no combination fits the budget.
    """
    if not activities:
        raise ValueError("at least one activity is required")
    cheapest: list[list[CandidateService]] = []
    for aa_name, ontology in activities:
        group = registry.query(ontology)
        if not group:
            raise UnknownOntologyError(
                f"activity {aa_name!r} requires ontology {ontology!r} "
                f"with no registered candidates"
            )
        fast = [c for c in group if c.qos.response_time_ms <= request_qos.response_time_ms]
        low = min((c.qos.cost_cents for c in fast), default=None)
        cheapest.append([c for c in fast if c.qos.cost_cents == low])
    if not all(cheapest) or (
        sum(slot[0].qos.cost_cents for slot in cheapest) > request_qos.cost_cents
    ):
        return AllocationResult(granted=False)
    worst = max(min(c.qos.response_time_ms for c in slot) for slot in cheapest)
    per_activity = []
    for (aa_name, _), slot in zip(activities, cheapest):
        candidate = min(
            (c for c in slot if c.qos.response_time_ms <= worst),
            key=lambda c: c.candidate_id,
        )
        per_activity.append(AllocatedBinding(aa_name, candidate.candidate_id, candidate.qos))
    return AllocationResult(granted=True, per_activity=tuple(per_activity))


def map_input_parameters(
    instance_inputs: Params, activity_names: Sequence[str]
) -> dict[str, Params]:
    """Split instance inputs across activities.

    A key prefixed with an activity name plus '.' routes the suffix to that
    activity (longest matching name wins); unprefixed keys broadcast to every
    activity.
    """
    routed: dict[str, dict[str, str]] = {name: {} for name in activity_names}
    broadcast: dict[str, str] = {}
    for key, value in instance_inputs:
        matches = [name for name in activity_names if key.startswith(name + ".")]
        if matches:
            target = max(matches, key=len)
            routed[target][key[len(target) + 1 :]] = value
        else:
            broadcast[key] = value
    result: dict[str, Params] = {}
    for name in activity_names:
        merged = dict(broadcast)
        merged.update(routed[name])
        result[name] = freeze_params(merged)
    return result


def map_output_parameters(activity_outputs: Mapping[str, Params | None]) -> Params:
    """Join per-activity outputs into instance outputs, prefixing each key
    with the producing activity's name.  The prefixing is injective, so no
    output value is lost or collides."""
    merged: dict[str, str] = {}
    for aa_name in sorted(activity_outputs):
        outputs = activity_outputs[aa_name]
        if outputs is None:
            raise IncompleteOutputsError(f"activity {aa_name!r} has not returned outputs")
        for key, value in dict(outputs).items():
            merged[f"{aa_name}.{key}"] = value
    return freeze_params(merged)
