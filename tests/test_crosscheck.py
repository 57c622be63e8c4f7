import hashlib
import json

import pytest

from provlab.corpus import CorpusParams, generate_corpus
from provlab.crosscheck import SUITES, _valid_translations, run_crosscheck
from provlab.formulas import Atom, Box, Imp, parse_modal
from provlab.provability import translation_valid

SMALL = generate_corpus(CorpusParams(("p", "q"), 7, 3, 60, 1))
SMALL_BF = generate_corpus(CorpusParams(("p", "q"), 7, 0, 60, 1))


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_crosscheck("nope")


def test_valid_translations_exhaustive_against_filter():
    for text in ("[]p", "[][]p", "[]p /\\ []q", "[]([]p -> []q)"):
        f = parse_modal(text)
        from provlab.formulas import count_boxes
        import itertools

        brute = [
            t
            for t in itertools.product(range(4), repeat=count_boxes(f))
            if translation_valid(t, f)
        ]
        assert sorted(_valid_translations(f, 3)) == sorted(brute)


def test_valid_translations_box_free():
    assert list(_valid_translations(Atom("p"), 3)) == [()]


def test_oracle_suite_report_shape():
    r = run_crosscheck("oracle-k4", corpus=SMALL)
    assert r.ok
    assert r.summary["items"] == 60
    assert r.summary["provable"] + r.summary["not_provable"] + r.summary["exhausted"] == 60
    payload = json.loads(r.to_json())
    assert payload["suite"] == "oracle-k4"
    assert len(payload["records"]) == 60
    verdicts = {rec["verdict"] for rec in payload["records"]}
    assert verdicts <= {"provable", "not-provable", "exhausted"}


def test_oracle_reports_are_reproducible():
    a = run_crosscheck("oracle-s4", corpus=SMALL).to_json()
    b = run_crosscheck("oracle-s4", corpus=SMALL).to_json()
    assert a == b


# sha256 of the report bytes on SMALL.  The reports carry derivation evidence
# hashes, so a change to any derivation shows here, across processes and hash
# seeds.  SMALL is sampled with random.Random, so the digests assume Python 3.11.
ORACLE_REPORT_DIGESTS = {
    "oracle-k4": "ccc682ba786cdd311e2f1d7ee2a65d010f9383da4c06a2e2e975b63171eeacf8",
    "oracle-kd4": "05747c4cf7e74b0499917e16e72c863c547246839b52022759391db048ceddad",
    "oracle-s4": "022df2de54293d143bf4eda5342a9c5fe59487c01a0ddb707db625f444b920e8",
    "oracle-gl": "d6876f3d3f06405ecda26849fa500b64a968cf7b59372ec8ced40f44c405cbe5",
}


@pytest.mark.parametrize("suite", sorted(ORACLE_REPORT_DIGESTS))
def test_oracle_report_bytes_are_pinned(suite):
    report = run_crosscheck(suite, corpus=SMALL).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == ORACLE_REPORT_DIGESTS[suite]


# The same for the transfer and translation suites: t33 and l34 on SMALL
# (l34 with 60 instances), the t99 suites on SMALL_BF.  t33 and l34 draw
# from a seeded RNG in the order the translations are enumerated and drawn,
# so a change to that order shows here.
TRANSFER_REPORT_DIGESTS = {
    "t33": "88441c254be2eee4eec268ebf74f941e4188eb1fdb49081f91ed33ed506517ab",
    "l34": "40faeaac1b6a8280cdf080dcc9246506541db254aed655cbba6296dda727a910",
    "t99-bpc": "5a5709e6a64c7e6e2c71dc3aa2d6176324220f1fec7793a22f488a117fd10513",
    "t99-ebpc": "338bd28883119ade10d69cfdfae52374cd475ba67f75da44c65134d9afdf6c6a",
    "t99-ipc": "85076dff5b18453a992bc297cae3351fb794bd3c6d767f2b0d6a7417cdc67c14",
    "t99-fpl": "856a07b60a7e125a9ea3158fe000aec7252b2dc32411ad9f92ae297726aff315",
    "t99-mpc": "a1e659e7b009b1d7b869adf9adc3deded50b0f4854ba6395e156f1e86850d654",
}


@pytest.mark.parametrize("suite", sorted(TRANSFER_REPORT_DIGESTS))
def test_transfer_report_bytes_are_pinned(suite):
    if suite.startswith("t99"):
        report = run_crosscheck(suite, corpus=SMALL_BF)
    else:
        report = run_crosscheck(suite, corpus=SMALL, instances=60)
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == TRANSFER_REPORT_DIGESTS[suite]


def test_t99_suite_small():
    r = run_crosscheck("t99-fpl", corpus=SMALL_BF)
    assert r.ok
    assert r.summary["verdict_mismatches"] == 0
    assert r.summary["semantic_hard_failures"] == 0


def test_t33_suite_small():
    r = run_crosscheck("t33", corpus=SMALL)
    assert r.ok
    assert r.summary["violations"] == 0
    assert r.summary["transfer_failures"] == 0
    assert r.summary["translations_checked"] > 0


def test_l34_suite_exercises_negative_half():
    r = run_crosscheck("l34", corpus=SMALL, instances=30)
    assert r.ok
    assert r.summary["negative_half_nodes"] > 0


def test_lattice_suite_small():
    small = generate_corpus(CorpusParams(("p", "q"), 5, 2, 40, 1))
    small_modal = generate_corpus(CorpusParams(("p", "q"), 5, 2, 40, 2))
    r = run_crosscheck("lattice", corpus=small_modal)
    assert r.ok


def test_all_suite_names_run():
    assert set(SUITES) == {
        "t99-bpc", "t99-ebpc", "t99-ipc", "t99-fpl", "t99-mpc",
        "t33", "l34", "oracle-k4", "oracle-kd4", "oracle-s4", "oracle-gl", "lattice",
    }
