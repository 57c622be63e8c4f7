"""Deciding BPC, EBPC, FPL, IPC, MPC and CPC through the modal provers.

Each propositional logic maps to a translation flavor and a modal logic
(BPC/K4, EBPC/KD4, IPC/S4, FPL/GL under b; MPC/S4 under w); the verdict is
delegated to the modal sequent prover on the translated sequent.  CPC is
decided by truth tables (equivalently, the one-reflexive-point frame).  Where
a direct Kripke semantics exists (all but EBPC) a propositional countermodel
is also produced and re-verified by the forcing checker.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .budget import Budget, BudgetExhausted
from .calculus import Logic
from .formulas import (
    And,
    Atom,
    Bot,
    Formula,
    Imp,
    Neg,
    Or,
    Top,
    atoms,
    is_box_free,
)
from .frames import find_entailment_countermodel
from .kripke import KripkeModel, check_int, int_frame, validate_frame
from .prover import Exhausted, NotProvable, Provable, ProveResult, derives
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
DIRECT_SEMANTICS = (PropLogic.BPC, PropLogic.IPC, PropLogic.MPC, PropLogic.FPL, PropLogic.CPC)


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


def _classical_value(f: Formula, assignment: dict[str, bool]) -> bool:
    match f:
        case Atom(name):
            return assignment.get(name, False)
        case Bot():
            return False
        case Top():
            return True
        case Neg(sub):
            return not _classical_value(sub, assignment)
        case And(l, r):
            return _classical_value(l, assignment) and _classical_value(r, assignment)
        case Or(l, r):
            return _classical_value(l, assignment) or _classical_value(r, assignment)
        case Imp(l, r):
            return (not _classical_value(l, assignment)) or _classical_value(r, assignment)
    raise TypeError(f"not a propositional formula: {f!r}")


def _cpc_verdict(gamma: tuple[Formula, ...], a: Formula) -> PropVerdict:
    names = sorted(set(atoms(a)).union(*(atoms(g) for g in gamma)) if gamma else atoms(a))
    for values in itertools.product((False, True), repeat=len(names)):
        assignment = dict(zip(names, values))
        if all(_classical_value(g, assignment) for g in gamma) and not _classical_value(a, assignment):
            model = KripkeModel(
                ("k0",),
                frozenset({("k0", "k0")}),
                {n: frozenset({"k0"}) for n in names if assignment[n]},
            )
            assert check_int(model, "k0", a, "CPC") is False
            return PropVerdict(PropLogic.CPC, gamma, a, False, "truth-table",
                               countermodel=(model, "k0"))
    return PropVerdict(PropLogic.CPC, gamma, a, True, "truth-table")


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
        return _cpc_verdict(gamma, a)
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
        try:
            cm = find_entailment_countermodel(gamma, a, int_frame(logic.value), countermodel_nodes)
        except BudgetExhausted:
            cm = None
        if cm is not None and validate_frame(cm[0], int_frame(logic.value)) != []:
            raise AssertionError("countermodel failed re-verification")
    return PropVerdict(provable=False, countermodel=cm, **base)


@dataclass(frozen=True)
class PropCrosscheck:
    logic: PropLogic
    formula: Formula
    translation_verdict: bool | None
    semantics_refuted: bool
    countermodel: tuple[KripkeModel, str] | None
    hard_failure: bool  # semantic refutation despite a Provable translation verdict
    agree: bool


def crosscheck_prop(
    logic: PropLogic, f: Formula, max_nodes: int = 5, budget: Budget | None = None
) -> PropCrosscheck:
    """Compare the translation verdict with direct bounded Kripke semantics.

    A refutation within the bound against a Provable verdict is a hard
    failure; a NotProvable verdict without a small refutation only means the
    bound was too small and is reported as a (benign) disagreement.
    """
    if logic not in DIRECT_SEMANTICS:
        raise ValueError(f"{logic.value} has no direct semantics in this workbench")
    verdict = prove_prop(logic, (), f, budget)
    hit = find_entailment_countermodel((), f, int_frame(logic.value), max_nodes)
    refuted = hit is not None
    hard = refuted and verdict.provable is True
    agree = (verdict.provable is True and not refuted) or (verdict.provable is False and refuted)
    return PropCrosscheck(logic, f, verdict.provable, refuted, hit, hard, agree)
