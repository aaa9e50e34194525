"""Regenerate the shipped fixture files (workflows, registries, requests).

The BookStore fixture models a six-activity bookshop orchestration; each
activity's ontology has a cheap/slow and a fast/expensive candidate, so the
feasible budget grants the all-basic assignment and the infeasible budget
denies outright.  The minimal (one activity) and pair (two activities)
fixtures keep exhaustive exploration at desk scale.
"""

from __future__ import annotations

from pathlib import Path

from qosorch.formats import dump_requests, dump_workflow
from qosorch.model import QoSSpec, WorkflowDef, WsoRequest
from qosorch.registry import Registry, dump_registry
from qosorch.selection import CandidateService

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "qosorch" / "fixtures"


def candidate(cid: str, ontology: str, rt: int, cost: int) -> CandidateService:
    return CandidateService(cid, ontology, QoSSpec(rt, cost))


def request(cid: str, ontology: str, rt: int, cost: int, inputs=None) -> WsoRequest:
    return WsoRequest(cid, ontology, inputs or {}, QoSSpec(rt, cost))


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)

    bookstore = WorkflowDef(
        ontology="BookStore",
        activities=(
            ("Send List of Books", "BookListing"),
            ("Receive Selected Books", "BookSelection"),
            ("Calculate the Price", "PriceCalculation"),
            ("Send Price of Books", "PriceQuote"),
            ("Get Pays", "Payment"),
            ("Ship by Train or Ship by Air", "Shipment"),
        ),
    )
    dump_workflow(bookstore, FIXTURES / "bookstore_workflow.jsonl")
    dump_registry(
        Registry.from_candidates(
            [
                candidate("listing-basic", "BookListing", 120, 3),
                candidate("listing-express", "BookListing", 40, 9),
                candidate("selection-basic", "BookSelection", 100, 2),
                candidate("selection-express", "BookSelection", 35, 7),
                candidate("pricing-basic", "PriceCalculation", 80, 2),
                candidate("pricing-express", "PriceCalculation", 30, 6),
                candidate("quote-basic", "PriceQuote", 90, 2),
                candidate("quote-express", "PriceQuote", 25, 5),
                candidate("payment-basic", "Payment", 150, 4),
                candidate("payment-express", "Payment", 60, 11),
                candidate("shipment-rail", "Shipment", 200, 5),
                candidate("shipment-air", "Shipment", 70, 18),
            ]
        ),
        FIXTURES / "bookstore_registry.jsonl",
    )
    dump_requests(
        [
            request(
                "c1",
                "BookStore",
                250,
                20,
                {
                    "title_filter": "fiction",
                    "Get Pays.amount": "120",
                    "Get Pays.currency": "USD",
                },
            )
        ],
        FIXTURES / "bookstore_requests_feasible.jsonl",
    )
    dump_requests(
        [request("c1", "BookStore", 50, 6)],
        FIXTURES / "bookstore_requests_infeasible.jsonl",
    )

    minimal = WorkflowDef(ontology="EchoDesk", activities=(("Echo Input", "Echo"),))
    dump_workflow(minimal, FIXTURES / "minimal_workflow.jsonl")
    dump_registry(
        Registry.from_candidates(
            [candidate("echo-basic", "Echo", 20, 1), candidate("echo-fast", "Echo", 5, 4)]
        ),
        FIXTURES / "minimal_registry.jsonl",
    )
    dump_requests(
        [request("c1", "EchoDesk", 30, 5, {"text": "hello"})],
        FIXTURES / "minimal_requests_one.jsonl",
    )
    dump_requests(
        [
            request("c1", "EchoDesk", 30, 5, {"text": "hello"}),
            request("c2", "EchoDesk", 1, 0),
        ],
        FIXTURES / "minimal_requests_two.jsonl",
    )

    pair = WorkflowDef(
        ontology="OrderDesk",
        activities=(("Reserve Stock", "Inventory"), ("Charge Card", "Billing")),
    )
    dump_workflow(pair, FIXTURES / "pair_workflow.jsonl")
    dump_registry(
        Registry.from_candidates(
            [
                candidate("inv-basic", "Inventory", 30, 2),
                candidate("inv-fast", "Inventory", 10, 5),
                candidate("bill-basic", "Billing", 40, 3),
                candidate("bill-fast", "Billing", 15, 8),
            ]
        ),
        FIXTURES / "pair_registry.jsonl",
    )
    dump_requests(
        [request("c1", "OrderDesk", 60, 10, {"sku": "A-100"})],
        FIXTURES / "pair_requests_one.jsonl",
    )
    dump_requests(
        [request("c1", "OrderDesk", 5, 1), request("c2", "OrderDesk", 5, 1)],
        FIXTURES / "pair_requests_two_denied.jsonl",
    )
    dump_requests(
        [request("c1", "OrderDesk", 60, 10, {"sku": "A-100"}), request("c2", "OrderDesk", 5, 1)],
        FIXTURES / "pair_requests_mixed.jsonl",
    )
    print(f"fixtures written to {FIXTURES}")


if __name__ == "__main__":
    main()
