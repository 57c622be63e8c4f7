import argparse
import hashlib
import json
import time
from dataclasses import replace

import pytest

from provlab.budget import Budget
from provlab.cli import FRAME_CLASSES, INPUT_ERRORS, UsageError, build_parser, main
from provlab.corpus import BOX_FREE_PARAMS, generate_corpus
from provlab.formulas import FormulaSyntaxError, InputError, ReservedAtomError, parse_modal
from provlab.kripke import FrameViolationError, ModelFormatError
from provlab.provability import InvalidWitnessError, ReservedAtomCollision, WitnessLengthError
from provlab.unwind import QAtomCollision


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_prove_gl_loeb(capsys):
    code, payload = run_cli(capsys, "prove", "--logic", "gl", "[]([]p -> p) -> []p")
    assert code == 0
    assert payload["verdict"] == "provable"
    assert payload["derivation"]["rule"]


def test_prove_k4_with_countermodel(capsys):
    code, payload = run_cli(capsys, "prove", "--logic", "k4", "[]p -> p")
    assert code == 0
    assert payload["verdict"] == "not-provable"
    assert payload["countermodel"]["nodes"]
    assert payload["refuting_node"] in payload["countermodel"]["nodes"]


def test_prove_with_assumptions(capsys):
    code, payload = run_cli(
        capsys, "prove", "--logic", "k4", "--assume", "[](p -> q)", "--assume", "[]p", "[]q"
    )
    assert payload["verdict"] == "provable"


def test_prove_prop_logic(capsys):
    code, payload = run_cli(capsys, "prove", "--logic", "ipc", "bot -> p")
    assert payload["verdict"] == "provable"
    assert payload["modal_logic"] == "S4"
    assert payload["translated"] == "[]([]bot -> []p)"


def test_prove_prop_reports_why_it_exhausted(capsys):
    code, payload = run_cli(capsys, "prove", "--logic", "ebpc", "--budget-steps", "10",
                            "((bot -> q) -> (top -> p) \\/ (q -> bot) -> bot) -> p")
    assert code == 0 and payload["verdict"] == "exhausted"
    assert payload["reason"] == "search budget exhausted (10 steps)"


def test_prove_gls_reports_reduction(capsys):
    code, payload = run_cli(capsys, "prove", "--logic", "gls", "[]p -> p")
    assert payload["verdict"] == "provable"
    assert "reduction" in payload


def test_countermodel_command_and_dot(tmp_path, capsys):
    dot = tmp_path / "m.dot"
    code, payload = run_cli(
        capsys, "countermodel", "--class", "k4", "--dot", str(dot), "[]p -> p"
    )
    assert code == 0
    assert payload["countermodel"] is not None
    assert dot.read_text().startswith("digraph")


def test_countermodel_absent(capsys):
    code, payload = run_cli(
        capsys, "countermodel", "--class", "s4", "--max-nodes", "4", "~[](~[]p /\\ p)"
    )
    assert payload["countermodel"] is None


def test_countermodel_of_a_local_tautology_stops_after_one_node(capsys):
    # a box-free formula that no one-node model refutes holds in every model,
    # so the 7-node bound costs no enumeration past one node
    code, payload = run_cli(capsys, "countermodel", "--class", "k4", "--max-nodes", "7", "p \\/ ~p")
    assert code == 0 and payload["countermodel"] is None


def test_translate_flavors(capsys):
    _, payload = run_cli(capsys, "translate", "--flavor", "b", "p -> q")
    assert payload["output"] == "[]([]p -> []q)"
    _, payload = run_cli(capsys, "translate", "--flavor", "w", "bot")
    assert payload["output"] == "[]qw"
    _, payload = run_cli(capsys, "translate", "--flavor", "g", "~p")
    assert payload["output"] == "[](~[]p)" or payload["output"] == "[]([]p -> bot)"
    _, payload = run_cli(capsys, "translate", "--flavor", "k4gl", "--t", "1,2,1",
                         "[]p -> [][]p")
    assert payload["output"] == "[](q0 /\\ q1 -> p) -> [](q0 /\\ q1 /\\ q2 -> [](q0 /\\ q1 -> p))"


def test_expand_command(capsys):
    _, payload = run_cli(capsys, "expand", "--max-disjuncts", "2", "--max-size", "12", "[]p")
    assert "[]p" in payload["expansions"]
    assert "[](p \\/ p)" in payload["expansions"]


def test_witness_commands(capsys):
    _, payload = run_cli(capsys, "witness", "check", "--witness", "5,3,1,2",
                         "[](p -> q) \\/ [](~[]p -> []q)")
    assert payload["valid"] is True
    _, payload = run_cli(capsys, "witness", "canonical", "--start", "2", "[][]p")
    assert payload["witness"] == "3,2"


def test_render_command(capsys):
    _, payload = run_cli(capsys, "render", "--witness", "5,3,1,2",
                         "[](p -> q) \\/ [](~[]p -> []q)")
    assert payload["interpretation"] == "Pr_5(p -> q) \\/ Pr_3(~Pr_1(p) -> Pr_2(q))"


def test_render_with_sigma(capsys):
    _, payload = run_cli(capsys, "render", "--witness", "4", "--sigma", "p=phi", "[]p")
    assert payload["interpretation"] == "Pr_4(phi)"


def test_unwind_command(tmp_path, capsys):
    model = {
        "nodes": ["k"],
        "relation": [["k", "k"]],
        "clusters": [["k"]],
        "valuation": {"p": ["k"]},
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    _, payload = run_cli(capsys, "unwind", "--model", str(path), "--formula", "[]p", "--t", "0")
    assert sorted(payload["model"]["nodes"]) == ["k", "k|k"]
    assert payload["translated"] == "[](q0 -> p)"


def test_corpus_command(capsys):
    _, payload = run_cli(capsys, "corpus", "--atoms", "p", "--max-connectives", "1",
                         "--max-degree", "1", "--sample", "100")
    assert len(payload["formulas"]) == 36
    assert payload["formulas"][:3] == ["p", "bot", "top"]


def test_crosscheck_command_exit_status(capsys):
    code = main(["crosscheck", "l34", "--instances", "6", "--json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert payload["ok"] is True
    assert payload["summary"]["items"] == 6


def test_crosscheck_sample_resamples_the_suites_corpus(capsys):
    # t99 re-samples its box-free corpus; a modal one would fail translate_bhk
    assert main(["crosscheck", "t99-fpl", "--sample", "20", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["corpus"] == generate_corpus(replace(BOX_FREE_PARAMS, sample_size=20)).digest()
    args = build_parser().parse_args(["crosscheck", "t99-bpc"])
    assert args.sample is None and not hasattr(args, "atoms")


def test_l34_on_a_corpus_without_instances(capsys):
    # no formula of degree <= 2 to draw from: no instance runs, and no traceback
    assert main(["crosscheck", "l34", "--sample", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["items"] == 0 and payload["params"]["instances"] == 200


# each command's options, without -h; a new option is an edit here
OPTIONS = {
    "prove": {"--json", "--dot", "--budget-steps", "--max-nodes", "--logic", "--assume"},
    "countermodel": {"--json", "--dot", "--max-nodes", "--class"},
    "translate": {"--json", "--flavor", "--t"},
    "expand": {"--json", "--max-disjuncts", "--max-size", "--limit"},
    "witness": {"--json", "--witness", "--start"},
    "render": {"--json", "--witness", "--sigma"},
    "unwind": {"--json", "--dot", "--model", "--formula", "--t"},
    "corpus": {"--json", "--seed", "--atoms", "--max-connectives", "--max-degree", "--sample"},
    "crosscheck": {"--json", "--budget-steps", "--max-nodes", "--seed", "--instances", "--sample"},
}


def test_each_command_takes_only_its_options():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    found = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
             for name, p in commands.items()}
    assert found == OPTIONS
    assert sum(map(len, found.values())) == 40


def bad_input(capsys, *argv):
    """Run the CLI on bad input, in text mode and under --json: exit code 2,
    one error line on stderr and nothing on stdout, or one JSON error object
    on stdout and nothing on stderr.  Returns the JSON error message."""
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert main([*argv, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert list(payload) == ["error"] and lines[0] == f"error: {payload['error']}"
    return payload["error"]


def test_syntax_error_is_raised(capsys):
    # the parser raises; the CLI reports it as bad input
    with pytest.raises(FormulaSyntaxError):
        parse_modal("[](")
    assert "offset" in bad_input(capsys, "prove", "--logic", "k4", "[](")


def test_box_in_propositional_input_exits_2(capsys):
    assert "box" in bad_input(capsys, "prove", "--logic", "ipc", "[]p -> p")


def test_missing_model_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert missing in bad_input(capsys, "unwind", "--model", missing, "--formula", "[]p", "--t", "0")


def test_bad_translation_exits_2(tmp_path, capsys):
    assert "naturals" in bad_input(capsys, "translate", "--flavor", "k4gl", "--t", "a", "[]p")
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"nodes": ["k"], "relation": [], "clusters": [["k"]], "valuation": {}}))
    assert "not a valid translation" in bad_input(
        capsys, "unwind", "--model", str(path), "--formula", "[][]p", "--t", "0,1")


def test_non_k4_model_exits_2(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"nodes": ["a"], "relation": [["a", "a"]], "valuation": {}}))
    assert "clusters-missing" in bad_input(capsys, "unwind", "--model", str(path), "--formula", "[]p", "--t", "0")


@pytest.mark.parametrize("data,key", [({"relation": []}, "'nodes'"), ([], "object"),
                                      ({"nodes": 3, "relation": []}, "nodes")],
                         ids=["no-nodes", "not-an-object", "nodes-not-a-list"])
def test_malformed_model_file_exits_2(tmp_path, capsys, data, key):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert key in bad_input(capsys, "unwind", "--model", str(path), "--formula", "[]p", "--t", "0")


def test_k4gl_without_t_exits_2(capsys):
    assert "--t" in bad_input(capsys, "translate", "--flavor", "k4gl", "[]p")


def test_witness_check_without_witness_exits_2(capsys):
    assert "--witness" in bad_input(capsys, "witness", "check", "[]p")


def test_bad_sigma_exits_2(capsys):
    assert "atom=sentence" in bad_input(capsys, "render", "--witness", "4", "--sigma", "p", "[]p")


@pytest.mark.parametrize("argv,message", [
    (["corpus", "--sample", "-1"], "--sample must be non-negative, got -1"),
    (["corpus", "--max-connectives", "-1"], "--max-connectives must be non-negative, got -1"),
    (["corpus", "--max-degree", "-1"], "--max-degree must be non-negative, got -1"),
    (["crosscheck", "t99-bpc", "--sample", "-3"], "--sample must be non-negative, got -3"),
    (["expand", "--max-disjuncts", "0", "[]p"], "--max-disjuncts must be at least 1, got 0"),
    (["corpus", "--atoms", "p,,q"], "--atoms expects comma-separated atom names, got ''"),
    (["corpus", "--atoms", "a_b,X"], "--atoms expects comma-separated atom names, got 'X'"),
    (["corpus", "--atoms", "p,bot"], "--atoms expects comma-separated atom names, got 'bot'"),
    (["countermodel", "--class", "k4", "--max-nodes", "-1", "p"], "--max-nodes must be non-negative, got -1"),
    (["prove", "--logic", "k4", "--budget-steps", "-1", "p"], "--budget-steps must be non-negative, got -1"),
    (["expand", "--max-size", "-1", "[]p"], "--max-size must be non-negative, got -1"),
    (["expand", "--limit", "-1", "[]p"], "--limit must be non-negative, got -1"),
    (["crosscheck", "l34", "--instances", "-2"], "--instances must be non-negative, got -2"),
    (["witness", "canonical", "--start", "-1", "[]p"], "--start must be non-negative, got -1"),
], ids=["sample", "max-connectives", "max-degree", "crosscheck-sample", "max-disjuncts",
        "empty-atom", "upper-case-atom", "constant-as-atom", "max-nodes", "budget-steps", "max-size",
        "limit", "instances", "start"])
def test_bad_option_values_exit_2(capsys, argv, message):
    assert bad_input(capsys, *argv) == message


UNWIND_MODEL = {"nodes": ["a", "b"], "relation": [["a", "b"], ["b", "b"]],
                "clusters": [["a"], ["b"]], "valuation": {"p": ["b"]}}
SEP_MODEL = {"nodes": ["a|b"], "relation": [], "clusters": [["a|b"]], "valuation": {}}


@pytest.mark.parametrize("argv,message", [
    (["render", "--witness", "1", "p"], "witness length 1 != 0 box occurrences"),
    (["witness", "check", "--witness", "1,2", "[]p"], "witness length 2 != 1 box occurrences"),
    (["translate", "--flavor", "k4gl", "--t", "1,2", "[]p"], "translation length 2 != 1 box occurrences"),
    (["unwind", "--model", "MODEL", "--formula", "[]p", "--t", "1,2"], "translation length 2 != 1 box occurrences"),
    (["unwind", "--model", "SEP_MODEL", "--formula", "[]p", "--t", "0"],
     "node id 'a|b' contains the path separator '|'"),
    (["corpus", "--max-connectives", "4", "--sample", "5000000"],
     "1766856 formulas within bounds; pass sample_size to down-sample"),
    (["countermodel", "--class", "int-ipc", "[]p"], "box is not allowed in propositional input at offset 0"),
    (["countermodel", "--class", "int-bpc", "q0 -> p"], "atom 'q0' is reserved for generated formulas"),
    (["corpus", "--atoms", "p,p", "--max-connectives", "1", "--max-degree", "0", "--sample", "100"],
     "atom 'p' is listed more than once"),
    # an entry past the bound is refused before int() reads it (past 4300
    # digits int() itself raises), and a non-ASCII digit is no digit
    (["witness", "check", "--witness", "1" * 4301, "[]p"], "witness entry of 4301 digits is above the bound of 18"),
    (["render", "--witness", "\u00b2", "[]p"], "witness entries must be naturals, got '\u00b2'"),
    (["translate", "--flavor", "k4gl", "--t", "9" * 19, "[]p"], "witness entry of 19 digits is above the bound of 18"),
    (["unwind", "--model", "MODEL", "--formula", "[]p", "--t", "\u00b2"], "witness entries must be naturals, got '\u00b2'"),
], ids=["render-length", "witness-length", "translate-length", "unwind-length", "unwind-separator",
        "corpus-bound", "countermodel-int-box", "countermodel-int-reserved", "corpus-repeated-atom", "witness-digits",
        "render-superscript", "translate-digits", "unwind-superscript"])
def test_input_errors_exit_2(tmp_path, capsys, argv, message):
    files = {"MODEL": UNWIND_MODEL, "SEP_MODEL": SEP_MODEL}
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    assert bad_input(capsys, *[str(tmp_path / a) if a in files else a for a in argv]) == message


# Option values that would start unbounded work: each is refused by the bound
# it exceeds, before any work starts.  CLUSTER_MODEL is one reflexive 2-node
# cluster: at top entry 11 its unwinding has the 2^k paths of each length
# k <= 13, each related to its k - 1 proper prefixes.
CLUSTER_MODEL = {"nodes": ["a", "b"], "relation": [["a", "a"], ["a", "b"], ["b", "a"], ["b", "b"]],
                 "clusters": [["a", "b"]], "valuation": {"p": ["a"]}}


@pytest.mark.parametrize("argv,message", [
    (["corpus", "--max-connectives", "5", "--sample", "10000000"],
     "sample of 10000000 formulas is above the bound of 500000"),
    (["unwind", "--model", "MODEL", "--formula", "[]p", "--t", "9999999"],
     "translation entry 9999999 is above the bound of 65 (64 over the box count)"),
    (["translate", "--flavor", "k4gl", "--t", "9999999", "[]p"], "translation entry 9999999 is above the bound of 65 (64 over the box count)"),
    (["unwind", "--model", "CLUSTER_MODEL", "--formula", "[]p", "--t", "11"],
     "the unwound model would relate 180228 pairs, above the bound of 100000"),
], ids=["corpus-sample", "unwind-entry", "translate-entry", "unwind-pairs"])
def test_work_bounds_exit_2_at_once(tmp_path, capsys, argv, message):
    files = {"MODEL": UNWIND_MODEL, "CLUSTER_MODEL": CLUSTER_MODEL}
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    start = time.perf_counter()
    assert bad_input(capsys, *[str(tmp_path / a) if a in files else a for a in argv]) == message
    assert time.perf_counter() - start < 5


def test_prove_prints_a_deep_k4_chain(capsys):
    # the derivation of []^25(p /\ q) -> []^25 p has one Box4R per modal layer
    # and 30 nodes, so its JSON nests shallowly enough to print
    code, payload = run_cli(capsys, "prove", "--logic", "k4", "[]" * 25 + "(p /\\ q) -> " + "[]" * 25 + "p")
    assert code == 0 and payload["verdict"] == "provable"
    rules, stack = [], [payload["derivation"]]
    while stack:
        d = stack.pop()
        rules.append(d["rule"])
        stack += d["premises"]
    assert len(rules) == 30 and rules.count("Box4R") == 25


def test_bad_input_is_one_exception_type():
    assert INPUT_ERRORS == (InputError, json.JSONDecodeError, OSError)
    for cls in (FormulaSyntaxError, ReservedAtomError, WitnessLengthError, InvalidWitnessError,
                ReservedAtomCollision, QAtomCollision, FrameViolationError, ModelFormatError, UsageError):
        assert issubclass(cls, InputError) and issubclass(cls, ValueError)


def test_frame_classes_are_pinned():
    # the countermodel command's --class choices
    assert [(key, str(fc)) for key, fc in FRAME_CLASSES.items()] == [
        ("k4", "K4Frame"), ("kd4", "KD4Frame"), ("s4", "S4Frame"), ("gl", "GLFrame"),
        ("int-bpc", "IntFrame(BPC)"), ("int-ipc", "IntFrame(IPC)"), ("int-mpc", "IntFrame(MPC)"),
        ("int-fpl", "IntFrame(FPL)"), ("int-cpc", "IntFrame(CPC)")]


# sha256 over each command's stdout, then its --dot file ("-" when none is
# written), of the commands that report or write a countermodel; MODEL stands
# for a file holding UNWIND_MODEL.  A change to any payload key, value or
# layout, or to the DOT rendering, moves a digest.
CLI_PINS = {
    "prove-modal-not-provable": (["prove", "--logic", "k4", "[]p -> p"],
        "b7ce2a8545743a08a747c47788bb0746d65485c034c6a6887ad2ba35357e945b"),
    "prove-prop-not-provable": (["prove", "--logic", "ipc", "p \\/ ~p"],
        "19e7396bf446f1a8f0ab940e5a885b81e06bb55e11440ff998edc2f6908af571"),
    "prove-exhausted": (["prove", "--logic", "k4", "--budget-steps", "1", "[]([]p -> p) -> []p"],
        "1e0eaaf6ac4e91218d3345d1a97947ec5e088df7708ab5c27cd57a92d68e4d93"),
    "countermodel-found": (["countermodel", "--class", "s4", "p -> []p"],
        "1c2e7bae191f1688ac8b6776ce7e5979a15cb5cdc2e8c7bc19d064eae2e2c5ee"),
    "countermodel-absent": (["countermodel", "--class", "s4", "--max-nodes", "4", "~[](~[]p /\\ p)"],
        "9b4eed8c030abafc184ae9bdde33206eb5cf7fb53184cf0f0c4ab49bced0b2a6"),
    "unwind": (["unwind", "--model", "MODEL", "--formula", "[][]p", "--t", "1,0"],
        "4ba28d63cc551de59c301fdff86acd9dbc0080fbbb6c3814ad442ba74a39d29f"),
}


@pytest.mark.parametrize("case", sorted(CLI_PINS))
def test_cli_outputs_are_pinned(tmp_path, capsys, case):
    argv, digest = CLI_PINS[case]
    model, dot = tmp_path / "m.json", tmp_path / "out.dot"
    model.write_text(json.dumps(UNWIND_MODEL))
    assert main([str(model) if a == "MODEL" else a for a in argv] + ["--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    body = out + "\n--dot--\n" + (dot.read_text() if dot.exists() else "-")
    assert hashlib.sha256(body.encode()).hexdigest() == digest


def test_countermodel_reports_an_exhausted_budget(monkeypatch, capsys):
    # K4 proves axiom 4, so the search runs through every model until the budget ends
    monkeypatch.setattr("provlab.cli.Budget", lambda: Budget(models=10))
    assert main(["countermodel", "--class", "k4", "[]p -> [][]p"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["countermodel"] is None
    assert payload["reason"] == "countermodel budget exhausted (10 models)"
    assert captured.err.splitlines() == [payload["reason"]]
    assert main(["countermodel", "--class", "k4", "--json", "[]p -> [][]p"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == payload and captured.err == ""


DEEP = 10_000


@pytest.mark.parametrize("shape", ["~" * DEEP + "p", "[]" * DEEP + "p", "p -> (" * DEEP + "p" + ")" * DEEP],
                         ids=["neg", "box", "imp"])
@pytest.mark.parametrize("command", [["prove", "--logic", "k4"], ["prove", "--logic", "ipc"],
                                     ["countermodel", "--class", "k4"], ["translate", "--flavor", "b"],
                                     ["witness", "canonical"], ["render", "--witness", ""]],
                         ids=["prove-k4", "prove-ipc", "countermodel", "translate", "witness", "render"])
def test_deep_formula_exits_2(capsys, command, shape):
    assert bad_input(capsys, *command, shape) == "formula nested too deeply for this command"
