import json

import pytest

from provlab.cli import main
from provlab.formulas import FormulaSyntaxError, parse_modal


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
