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
from .crosscheck import SUITES, run_crosscheck, suite_params
from .formulas import ATOM_RE, InputError, Sequent, parse_modal, parse_prop, print_formula
from .frames import find_countermodel
from .kripke import INT_FLAVORS, KripkeModel, int_frame
from .prop import PropLogic, prove_prop
from .prover import FRAME_OF_LOGIC, Exhausted, NotProvable, Provable, prove
from .provability import (
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


class UsageError(InputError):
    """An option a command needs is missing or malformed."""


# bad input: reported in one line, exit code 2, no traceback
INPUT_ERRORS = (InputError, json.JSONDecodeError, OSError)

FRAME_CLASSES = {**{logic.value.lower(): fc for logic, fc in FRAME_OF_LOGIC.items()},
                 **{f"int-{fl.lower()}": int_frame(fl) for fl in INT_FLAVORS}}


def _note(args, message: str) -> None:
    if not args.json:
        print(message, file=sys.stderr)


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


# options that count something; a negative value is bad input
COUNTS = ("max_nodes", "budget_steps", "max_size", "limit", "instances", "start", "sample",
          "max_connectives", "max_degree")


def _check_counts(args) -> None:
    for option in COUNTS:
        value = getattr(args, option, None)
        if value is not None and value < 0:
            raise UsageError(f"--{option.replace('_', '-')} must be non-negative, got {value}")


def _countermodel(args, payload: dict, model: KripkeModel, node: str) -> None:
    """Put model and its refuting node into payload; write --dot's file."""
    payload["countermodel"] = model.to_json()
    payload["refuting_node"] = node
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(model.to_dot(refuting=node))


def _cmd_prove(args) -> int:
    budget = Budget(steps=args.budget_steps, max_nodes=args.max_nodes)
    modal = MODAL_LOGICS.get(args.logic)
    parse = parse_modal if modal else parse_prop
    gamma = tuple(parse(s) for s in args.assume)
    goal = parse(args.formula)
    payload = {"sequent": [list(map(print_formula, gamma)), print_formula(goal)]}
    if modal:
        payload["logic"] = modal.value
        reduction = None
        match prove(modal, Sequent(gamma, (goal,)), budget):
            case Provable(_, _, derivation, reduction):
                payload.update(verdict="provable", derivation=derivation.to_json())
            case NotProvable(_, _, model, node, reduction):
                payload["verdict"] = "not-provable"
                _countermodel(args, payload, model, node)
            case Exhausted(_, _, reason):
                payload.update(verdict="exhausted", reason=reason)
        if reduction is not None:
            payload["reduction"] = print_formula(reduction)
        _emit(payload)
        return 0
    v = prove_prop(PROP_LOGICS[args.logic], gamma, goal, budget, countermodel_nodes=args.max_nodes)
    payload.update(logic=v.logic.value, method=v.method,
                   verdict={True: "provable", False: "not-provable", None: "exhausted"}[v.provable])
    if v.reason is not None:
        payload["reason"] = v.reason
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
    f = (parse_prop if frame_class.kind == "Int" else parse_modal)(args.formula)
    payload = {"formula": args.formula, "frame_class": str(frame_class), "countermodel": None}
    try:
        hit = find_countermodel(f, frame_class, args.max_nodes, Budget())
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


def _cmd_corpus(args) -> int:
    atoms = tuple(args.atoms.split(",")) if args.atoms else ("p", "q")
    for name in atoms:
        if not ATOM_RE.match(name) or name in ("bot", "top"):
            raise UsageError(f"--atoms expects comma-separated atom names, got {name!r}")
    corpus = generate_corpus(CorpusParams(atoms, args.max_connectives, args.max_degree, args.sample, args.seed))
    _emit({
        "params": dataclasses.asdict(corpus.params),
        "digest": corpus.digest(),
        "formulas": [print_formula(f) for f in corpus.formulas],
    })
    return 0


def _cmd_crosscheck(args) -> int:
    corpus = None
    if args.sample is not None:
        params = dataclasses.replace(suite_params(args.suite), sample_size=args.sample, seed=args.seed)
        corpus = generate_corpus(params)
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


# options that several commands take; each command names the ones it reads
SHARED_OPTIONS = {
    "--dot": dict(metavar="PATH", default=None, help="write a DOT rendering"),
    "--budget-steps": dict(type=int, default=100_000),
    "--max-nodes": dict(type=int, default=6),
    "--seed": dict(type=int, default=1),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="provlab",
                                     description="modal provability logic workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, *shared: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--json", action="store_true", help="suppress stderr notes")
        for option in shared:
            p.add_argument(option, **SHARED_OPTIONS[option])
        p.set_defaults(func=func)
        return p

    p = command("prove", _cmd_prove, "decide a sequent", "--dot", "--budget-steps", "--max-nodes")
    p.add_argument("--logic", required=True,
                   choices=sorted(MODAL_LOGICS) + sorted(PROP_LOGICS))
    p.add_argument("--assume", action="append", default=[], metavar="FORMULA")
    p.add_argument("formula")

    p = command("countermodel", _cmd_countermodel, "bounded countermodel search", "--dot", "--max-nodes")
    p.add_argument("--class", dest="frame_class", required=True, choices=sorted(FRAME_CLASSES))
    p.add_argument("formula")

    p = command("translate", _cmd_translate, "apply a translation")
    p.add_argument("--flavor", required=True, choices=["b", "w", "g", "k4gl"])
    p.add_argument("--t", default=None, help="translation sequence, e.g. 1,2,1")
    p.add_argument("formula")

    p = command("expand", _cmd_expand, "enumerate expansions")
    p.add_argument("--max-disjuncts", type=int, default=2)
    p.add_argument("--max-size", type=int, default=64)
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("formula")

    p = command("witness", _cmd_witness, "check or build witnesses")
    p.add_argument("mode", choices=["check", "canonical"])
    p.add_argument("--witness", default=None, help="comma-separated naturals")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("formula")

    p = command("render", _cmd_render, "render a symbolic interpretation")
    p.add_argument("--witness", required=True)
    p.add_argument("--sigma", action="append", default=[], metavar="atom=sentence")
    p.add_argument("formula")

    p = command("unwind", _cmd_unwind, "unwind clusters into a GL model", "--dot")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--formula", required=True)
    p.add_argument("--t", required=True)

    p = command("corpus", _cmd_corpus, "generate a formula corpus", "--seed")
    p.add_argument("--atoms", default=None, help="comma-separated atom names (default p,q)")
    p.add_argument("--max-connectives", type=int, default=7)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--sample", type=int, default=2000)

    p = command("crosscheck", _cmd_crosscheck, "run a cross-validation suite",
                "--budget-steps", "--max-nodes", "--seed")
    p.add_argument("suite", choices=list(SUITES))
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--sample", type=int, default=None,
                   help="re-sample the suite's corpus at this size, with --seed")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_counts(args)
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
