"""QoS-aware service orchestration: a rule engine over immutable
configurations, a budget-constrained service selector, and three-layer
trace conformance checking."""
