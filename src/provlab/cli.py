"""Command-line surface.

Structured results are printed as JSON on stdout; human-oriented notes go to
stderr (suppressed entirely under --json).  The crosscheck subcommand exits
nonzero on any disagreement or evidence re-verification failure.  Bad input
exits 2 with one `error: <message>` line on stderr ({"error": <message>} on
stdout under --json) and no traceback; so does a formula nested too deeply for
the recursive parser or printer.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .budget import Budget, BudgetExhausted
from .calculus import Logic
from .corpus import CorpusParams, generate_corpus
from .crosscheck import SUITES, run_crosscheck
from .formulas import (ATOM_RE, FormulaSyntaxError, ReservedAtomError, Sequent, parse_modal, parse_prop,
                       print_formula)
from .frames import find_countermodel
from .kripke import (
    FrameViolationError,
    GL_FRAME,
    K4_FRAME,
    KD4_FRAME,
    KripkeModel,
    ModelFormatError,
    S4_FRAME,
    int_frame,
)
from .prop import PropLogic, prove_prop
from .prover import Exhausted, NotProvable, Provable, prove
from .provability import (
    InvalidWitnessError,
    ReservedAtomCollision,
    canonical_witness,
    expansions,
    interpret,
    parse_witness,
    print_term,
    print_witness,
    translate_bhk,
    translate_k4_to_gl,
    witness_check,
)
from .unwind import unwind

MODAL_LOGICS = {l.value.lower(): l for l in Logic}
PROP_LOGICS = {l.value.lower(): l for l in PropLogic}


class UsageError(ValueError):
    """An option a command needs is missing or malformed."""


# bad input: reported in one line, exit code 2, no traceback
INPUT_ERRORS = (FormulaSyntaxError, ReservedAtomError, InvalidWitnessError, ReservedAtomCollision,
                FrameViolationError, ModelFormatError, UsageError, json.JSONDecodeError, OSError)

FRAME_CLASSES = {
    "k4": K4_FRAME,
    "kd4": KD4_FRAME,
    "s4": S4_FRAME,
    "gl": GL_FRAME,
    **{f"int-{fl.lower()}": int_frame(fl) for fl in ("BPC", "IPC", "MPC", "FPL", "CPC")},
}


def _note(args, message: str) -> None:
    if not args.json:
        print(message, file=sys.stderr)


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _budget(args) -> Budget:
    return Budget(steps=args.budget_steps, max_nodes=args.max_nodes,
                  escalate_nodes=args.max_nodes + 2)


def _countermodel(args, payload: dict, model: KripkeModel, node: str) -> None:
    """Put model and its refuting node into payload; write --dot's file."""
    payload["countermodel"] = model.to_json()
    payload["refuting_node"] = node
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(model.to_dot(refuting=node))


def _cmd_prove(args) -> int:
    name = args.logic.lower()
    if name in MODAL_LOGICS:
        logic = MODAL_LOGICS[name]
        gamma = tuple(parse_modal(s) for s in args.assume)
        goal = parse_modal(args.formula)
        res = prove(logic, Sequent(gamma, (goal,)), _budget(args))
        payload = {"logic": logic.value,
                   "sequent": [list(map(print_formula, gamma)), print_formula(goal)]}
        match res:
            case Provable(_, _, derivation, reduction):
                payload["verdict"] = "provable"
                payload["derivation"] = derivation.to_json()
                if reduction is not None:
                    payload["reduction"] = print_formula(reduction)
            case NotProvable(_, _, model, node, reduction):
                payload["verdict"] = "not-provable"
                _countermodel(args, payload, model, node)
                if reduction is not None:
                    payload["reduction"] = print_formula(reduction)
            case Exhausted(_, _, reason):
                payload["verdict"] = "exhausted"
                payload["reason"] = reason
        _emit(payload)
        return 0
    logic = PROP_LOGICS[name]
    gamma = tuple(parse_prop(s) for s in args.assume)
    goal = parse_prop(args.formula)
    v = prove_prop(logic, gamma, goal, _budget(args), countermodel_nodes=args.max_nodes)
    payload = {
        "logic": logic.value,
        "sequent": [list(map(print_formula, gamma)), print_formula(goal)],
        "verdict": {True: "provable", False: "not-provable", None: "exhausted"}[v.provable],
        "method": v.method,
    }
    if v.translated is not None:
        payload["translated"] = print_formula(v.translated)
        payload["translated_gamma"] = list(map(print_formula, v.translated_gamma))
        payload["modal_logic"] = v.modal_logic.value
    if v.countermodel is not None:
        _countermodel(args, payload, *v.countermodel)
    _emit(payload)
    return 0


def _cmd_countermodel(args) -> int:
    frame_class = FRAME_CLASSES[args.frame_class.lower()]
    f = parse_modal(args.formula)
    payload = {"formula": args.formula, "frame_class": str(frame_class), "countermodel": None}
    try:
        hit = find_countermodel(f, frame_class, args.max_nodes, _budget(args))
    except BudgetExhausted as e:
        hit, payload["reason"] = None, e.reason
    if hit is not None:
        _countermodel(args, payload, *hit)
    else:
        _note(args, payload.get("reason", f"no countermodel within {args.max_nodes} nodes"))
    _emit(payload)
    return 0


def _cmd_translate(args) -> int:
    if args.flavor in ("b", "w", "g"):
        f = parse_prop(args.formula)
        out = translate_bhk(f, args.flavor)
    else:
        f = parse_modal(args.formula)
        if args.t is None:
            raise UsageError("k4gl translation needs --t")
        out = translate_k4_to_gl(f, parse_witness(args.t))
    _emit({"flavor": args.flavor, "input": args.formula, "output": print_formula(out)})
    return 0


def _cmd_expand(args) -> int:
    if args.max_disjuncts < 1:
        raise UsageError(f"--max-disjuncts must be at least 1, got {args.max_disjuncts}")
    f = parse_modal(args.formula)
    out = []
    for g in expansions(f, args.max_disjuncts, args.max_size):
        out.append(print_formula(g))
        if args.limit and len(out) >= args.limit:
            break
    _emit({"formula": args.formula, "expansions": out})
    return 0


def _cmd_witness(args) -> int:
    f = parse_modal(args.formula)
    if args.mode == "check":
        if args.witness is None:
            raise UsageError("witness check needs --witness")
        wit = parse_witness(args.witness)
        _emit({"formula": args.formula, "witness": print_witness(wit),
               "valid": witness_check(wit, f)})
        return 0
    wit = canonical_witness(f, args.start)
    _emit({"formula": args.formula, "start": args.start, "witness": print_witness(wit)})
    return 0


def _cmd_render(args) -> int:
    f = parse_modal(args.formula)
    wit = parse_witness(args.witness)
    sigma = {}
    for item in args.sigma:
        name, _, value = item.partition("=")
        if not value:
            raise UsageError(f"--sigma expects atom=sentence, got {item!r}")
        from .provability import SigmaAtom

        sigma[name] = SigmaAtom(value)
    term = interpret(f, wit, sigma or None)
    _emit({"formula": args.formula, "witness": print_witness(wit),
           "interpretation": print_term(term)})
    return 0


def _cmd_unwind(args) -> int:
    with open(args.model) as fh:
        model = KripkeModel.from_json(fh.read())
    f = parse_modal(args.formula)
    t = parse_witness(args.t)
    out = unwind(model, f, t)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(out.to_dot())
    _emit({"model": out.to_json(), "translated": print_formula(translate_k4_to_gl(f, t))})
    return 0


def _corpus_params(args) -> CorpusParams:
    atoms = tuple(args.atoms.split(",")) if args.atoms else ("p", "q")
    for name in atoms:
        if not ATOM_RE.match(name) or name in ("bot", "top"):
            raise UsageError(f"--atoms expects comma-separated atom names, got {name!r}")
    for option in ("max_connectives", "max_degree", "sample"):
        value = getattr(args, option)
        if value is not None and value < 0:
            raise UsageError(f"--{option.replace('_', '-')} must be non-negative, got {value}")
    return CorpusParams(
        atoms=atoms,
        max_connectives=args.max_connectives,
        max_degree=args.max_degree,
        sample_size=args.sample,
        seed=args.seed,
    )


def _cmd_corpus(args) -> int:
    corpus = generate_corpus(_corpus_params(args))
    _emit({
        "params": dataclasses.asdict(corpus.params),
        "digest": corpus.digest(),
        "formulas": [print_formula(f) for f in corpus.formulas],
    })
    return 0


def _cmd_crosscheck(args) -> int:
    corpus = generate_corpus(_corpus_params(args)) if args.atoms or args.sample else None
    report = run_crosscheck(
        args.suite,
        corpus=corpus,
        budget_steps=args.budget_steps,
        max_nodes=args.max_nodes,
        seed=args.seed,
        instances=args.instances,
    )
    print(report.to_json())
    _note(args, f"{args.suite}: {'ok' if report.ok else 'FAILED'} {report.summary}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="provlab",
                                     description="modal provability logic workbench")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="suppress stderr notes")
    common.add_argument("--dot", metavar="PATH", default=None, help="write a DOT rendering")
    common.add_argument("--budget-steps", type=int, default=100_000, dest="budget_steps")
    common.add_argument("--max-nodes", type=int, default=6, dest="max_nodes")
    common.add_argument("--seed", type=int, default=1)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", parents=[common], help="decide a sequent")
    p.add_argument("--logic", required=True,
                   choices=sorted(MODAL_LOGICS) + sorted(PROP_LOGICS))
    p.add_argument("--assume", action="append", default=[], metavar="FORMULA")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("countermodel", parents=[common], help="bounded countermodel search")
    p.add_argument("--class", dest="frame_class", required=True, choices=sorted(FRAME_CLASSES))
    p.add_argument("formula")
    p.set_defaults(func=_cmd_countermodel)

    p = sub.add_parser("translate", parents=[common], help="apply a translation")
    p.add_argument("--flavor", required=True, choices=["b", "w", "g", "k4gl"])
    p.add_argument("--t", default=None, help="translation sequence, e.g. 1,2,1")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("expand", parents=[common], help="enumerate expansions")
    p.add_argument("--max-disjuncts", type=int, default=2, dest="max_disjuncts")
    p.add_argument("--max-size", type=int, default=64, dest="max_size")
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("formula")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("witness", parents=[common], help="check or build witnesses")
    p.add_argument("mode", choices=["check", "canonical"])
    p.add_argument("--witness", default=None, help="comma-separated naturals")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("formula")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("render", parents=[common], help="render a symbolic interpretation")
    p.add_argument("--witness", required=True)
    p.add_argument("--sigma", action="append", default=[], metavar="atom=sentence")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("unwind", parents=[common], help="unwind clusters into a GL model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--formula", required=True)
    p.add_argument("--t", required=True)
    p.set_defaults(func=_cmd_unwind)

    corpus_common = argparse.ArgumentParser(add_help=False)
    corpus_common.add_argument("--atoms", default=None, help="comma-separated atom names")
    corpus_common.add_argument("--max-connectives", type=int, default=7, dest="max_connectives")
    corpus_common.add_argument("--max-degree", type=int, default=3, dest="max_degree")
    corpus_common.add_argument("--sample", type=int, default=None)

    p = sub.add_parser("corpus", parents=[common, corpus_common], help="generate a formula corpus")
    p.set_defaults(func=_cmd_corpus, atoms="p,q", sample=2000)

    p = sub.add_parser("crosscheck", parents=[common, corpus_common],
                       help="run a cross-validation suite")
    p.add_argument("suite", choices=list(SUITES))
    p.add_argument("--instances", type=int, default=200)
    p.set_defaults(func=_cmd_crosscheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as e:
        message = str(e)
    except RecursionError:
        message = "formula nested too deeply for this command"
    if args.json:
        _emit({"error": message})
    else:
        print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
