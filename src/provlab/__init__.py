"""provlab: sequent provers, Kripke countermodels, and the witness calculus
for the modal provability logics K4, KD4, S4, GL, GLS and their
propositional counterparts."""

from .budget import Budget, BudgetExhausted
from .calculus import Derivation, Logic, check_derivation, diagnose_derivation
from .corpus import BOX_FREE_PARAMS, Corpus, CorpusParams, DEFAULT_PARAMS, generate_corpus
from .crosscheck import SUITES, run_crosscheck
from .formulas import (
    Atom,
    BOT,
    Bot,
    Box,
    And,
    Formula,
    Imp,
    InputError,
    Neg,
    Or,
    Sequent,
    TOP,
    Top,
    box_occurrences,
    modal_degree,
    parse_modal,
    parse_prop,
    print_formula,
    print_sequent,
)
from .frames import enumerate_models, find_countermodel, sweep_refutations
from .kripke import (
    FrameClass,
    GL_FRAME,
    K4_FRAME,
    KD4_FRAME,
    KripkeModel,
    S4_FRAME,
    check,
    check_int,
    int_frame,
    validate_frame,
)
from .prop import PropLogic, crosscheck_prop, prove_prop
from .prover import Exhausted, NotProvable, Provable, derives, gls_reduce, prove
from .provability import (
    canonical_witness,
    expansions,
    interpret,
    is_expansion,
    print_term,
    translate_bhk,
    translate_k4_to_gl,
    witness_check,
)
from .unwind import claim2_holds, t_complexity, unwind, verify_transfer

__all__ = [name for name in dir() if not name.startswith("_")]
