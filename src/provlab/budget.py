"""Explicit resource budgets shared by proof search and countermodel enumeration."""

from __future__ import annotations

from dataclasses import dataclass, field


class BudgetExhausted(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class Budget:
    """Mutable accounting object; one per prove() call unless shared deliberately.

    steps bounds backward-search expansions; models bounds the number of
    (frame, valuation) pairs countermodel enumeration may inspect.  A modal
    countermodel search escalates to escalate_nodes, max_nodes + 2 unless given.
    """

    steps: int = 100_000
    models: int = 20_000_000
    max_nodes: int = 6
    escalate_nodes: int | None = None
    steps_used: int = field(default=0, compare=False)
    models_used: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.escalate_nodes is None:
            self.escalate_nodes = self.max_nodes + 2

    def spend_step(self, n: int = 1) -> None:
        self.steps_used += n
        if self.steps_used > self.steps:
            raise BudgetExhausted(f"search budget exhausted ({self.steps} steps)")

    def spend_models(self, n: int) -> None:
        self.models_used += n
        if self.models_used > self.models:
            raise BudgetExhausted(f"countermodel budget exhausted ({self.models} models)")
