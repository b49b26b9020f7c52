import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weyldiag import UsageError, Word
from weyldiag.cli import parse_diagram, parse_word, run

from conftest import system_of
from test_completion import mutant_sizes


def test_verify_json_example():
    res = run(["verify", "--type", "A", "--rank", "2", "--word", "1,2,1",
               "--format", "json"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["positive_count"] == 6
    assert payload["bijection_ok"] is True
    assert "elapsed" not in payload


def test_positive_false_example():
    res = run(["positive", "--type", "A", "--rank", "2", "--word", "1,2,1",
               "--diagram", "1,3"])
    assert res.exit_code == 0
    assert res.stdout == "false\n"


def test_positive_true():
    res = run(["positive", "--type", "A", "--rank", "2", "--word", "1,2,1",
               "--diagram", "2,3"])
    assert res.exit_code == 0
    assert res.stdout == "true\n"


def test_betas_non_reduced_gives_exit_3():
    res = run(["betas", "--type", "A", "--rank", "2", "--word", "1,1"])
    assert res.exit_code == 3
    assert "1,1" in res.stderr
    assert res.stdout == ""


def test_betas_output():
    res = run(["betas", "--type", "A", "--rank", "2", "--word", "1,2,1"])
    assert res.exit_code == 0
    assert res.stdout == "1,0\n1,1\n0,1\n"


def test_roots_text_and_json():
    res = run(["roots", "--type", "A", "--rank", "2"])
    assert res.exit_code == 0
    assert res.stdout == "0,1\n1,0\n1,1\n"
    res = run(["roots", "--type", "A", "--rank", "2", "--format", "json"])
    payload = json.loads(res.stdout)
    assert payload["positive_roots"] == [[0, 1], [1, 0], [1, 1]]


def test_roots_d3_warning_on_stderr():
    res = run(["roots", "--type", "D", "--rank", "3"])
    assert res.exit_code == 0
    assert "D3" in res.stderr


def test_invalid_rank_gives_exit_3():
    res = run(["roots", "--type", "E", "--rank", "5"])
    assert res.exit_code == 3
    assert "E5" in res.stderr


GRID_COMMANDS = (["qm"], ["le", "--grid", "1,1"], ["pipedream", "--grid", "1,1"])


def test_rank_above_the_classical_bound_gives_exit_3():
    res = run(["roots", "--type", "A", "--rank", "400"])
    assert res.exit_code == 3
    assert res.stderr == "error: no root system A400: family A needs rank in 1..64\n"
    # A 40x26 grid word lives in A65.
    for name, *rest in GRID_COMMANDS:
        res = run([name, "--p", "40", "--m", "26", *rest])
        assert res.exit_code == 3, name
        assert res.stderr == "error: no root system A65: family A needs rank in 1..64\n", name


def test_rank_at_the_classical_bound_builds():
    res = run(["roots", "--type", "B", "--rank", "64"])
    assert res.exit_code == 0
    assert len(res.stdout.splitlines()) == 64 * 64
    for name, *rest in GRID_COMMANDS:
        res = run([name, "--p", "40", "--m", "25", *rest])
        assert res.exit_code == 0, (name, res.stderr)


def test_parse_word_examples():
    a2 = system_of("A", 2)
    assert parse_word(a2, "1,2,1") == Word(a2, (1, 2, 1))
    assert parse_word(a2, "") == Word(a2, ())
    assert parse_word(a2, "  1 , 2 ") == Word(a2, (1, 2))
    with pytest.raises(UsageError):
        parse_word(a2, "1,x")


def test_parse_diagram_round_trip():
    from weyldiag import format_diagram

    a2 = system_of("A", 2)
    word = Word(a2, (1, 2, 1))
    for positions in [(), (2,), (1, 3), (1, 2, 3)]:
        d = parse_diagram(word, ",".join(map(str, positions)))
        assert d.positions == positions
        assert parse_diagram(word, format_diagram(d)) == d


def test_malformed_word_gives_exit_2():
    res = run(["betas", "--type", "A", "--rank", "2", "--word", "1,x"])
    assert res.exit_code == 2
    assert "error" in res.stderr


def test_out_of_range_letter_gives_exit_3():
    res = run(["betas", "--type", "A", "--rank", "2", "--word", "1,7"])
    assert res.exit_code == 3


def test_unknown_flag_gives_exit_2():
    res = run(["roots", "--type", "A", "--rank", "2", "--bogus"])
    assert res.exit_code == 2


def test_zeta_command():
    res = run(["zeta", "--type", "A", "--rank", "2", "--word", "1,2,1",
               "--diagram", "2"])
    assert res.exit_code == 0
    assert res.stdout == "2\n"
    res = run(["zeta", "--type", "A", "--rank", "2", "--word", "1,2,1",
               "--diagram", "", "--format", "json"])
    payload = json.loads(res.stdout)
    assert payload == {"word": "", "length": 0, "matrix": [[1, 0], [0, 1]]}


def test_diagram_for_command():
    res = run(["diagram-for", "--type", "A", "--rank", "2", "--word", "1,2,1",
               "--element", "2"])
    assert res.exit_code == 0
    assert res.stdout == "2\n"
    res = run(["diagram-for", "--type", "A", "--rank", "2", "--word", "1",
               "--element", "2"])
    assert res.exit_code == 0
    assert res.stdout == "absent\n"
    res = run(["diagram-for", "--type", "A", "--rank", "2", "--word", "1",
               "--element", "2", "--format", "json"])
    assert json.loads(res.stdout) == {"diagram": None}


def test_enumerate_command():
    res = run(["enumerate", "--type", "A", "--rank", "2", "--word", "1,2,1"])
    assert res.exit_code == 0
    assert res.stdout == "count 6\n\n1\n2\n1,2\n2,3\n1,2,3\n"


def test_interval_command():
    res = run(["interval", "--type", "A", "--rank", "2", "--word", "1,2,1"])
    assert res.exit_code == 0
    assert res.stdout == "6\n"


def test_interval_command_builds_no_subword_products(monkeypatch):
    import weyldiag.diagrams as diagrams
    import weyldiag.verify as verify_mod
    from weyldiag import format_word, subword_products
    from weyldiag.verify import SWEEP_CAP_ENV
    from test_acceptance import suite_words

    # interval counts the orbit points of the scan; the matrix oracle must
    # not run, and its count must be the scan's.
    words = suite_words()
    expected = [len(subword_products.__wrapped__(word)) for word in words]

    def refusing(word):
        raise AssertionError("interval built the subword products")

    monkeypatch.setattr(diagrams, "subword_products", refusing)
    monkeypatch.setattr(verify_mod, "subword_products", refusing)
    for word, count in zip(words, expected):
        args = ["interval", "--type", word.system.ctype.family,
                "--rank", str(word.system.rank), "--word", format_word(word)]
        res = run(args)
        assert (res.exit_code, res.stdout) == (0, f"{count}\n"), word
    assert run(["interval", "--type", "A", "--rank", "2", "--word", "1,1"]).exit_code == 3
    monkeypatch.setenv(SWEEP_CAP_ENV, "2")
    res = run(["interval", "--type", "A", "--rank", "2", "--word", "1,2,1"])
    assert res.exit_code == 4
    assert "cap" in res.stderr


def test_census_command():
    res = run(["census", "--type", "A", "--rank", "2", "--format", "json"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload == {
        "type": "A2",
        "positive_root_count": 3,
        "positive_count": 6,
        "group_order": 6,
        "ok": True,
    }


def test_census_command_names_the_first_wrong_size(monkeypatch):
    import weyldiag.verify as verify_mod

    # A sweep whose joined child moves up two lanes: A2's sizes 1, 2, 2, 1
    # read 1, 0, 2, 0, so size 1 is the first wrong one.  The witness is
    # printed only when there is one.
    monkeypatch.setattr(verify_mod, "_sizes", mutant_sizes(shift=2))
    res = run(["census", "--type", "A", "--rank", "2"])
    assert (res.exit_code, res.stdout) == (1, (
        "positive_root_count 3\npositive_count 3\ngroup_order 6\n"
        'witness {"size": 1, "count": 0, "expected": 2}\nok false\n'
    ))
    res = run(["census", "--type", "A", "--rank", "2", "--format", "json"])
    assert res.exit_code == 1
    assert json.loads(res.stdout)["witness"] == {"size": 1, "count": 0, "expected": 2}


@pytest.mark.parametrize("family,rank,roots,order", [
    ("A", 2, 3, 6), ("A", 3, 6, 24), ("A", 4, 10, 120), ("B", 3, 9, 48),
    ("C", 3, 9, 48), ("D", 4, 12, 192), ("G", 2, 6, 12), ("F", 4, 24, 1152),
])
def test_census_command_builds_no_group(monkeypatch, family, rank, roots, order):
    import weyldiag.verify as verify_mod

    # census reads |W| off the root heights; the closure must not run, nor
    # its product on tuples.
    def refusing(*args):
        raise AssertionError("census built the group")

    monkeypatch.setattr(verify_mod, "group_elements", refusing)
    monkeypatch.setattr(verify_mod, "_right_mul", refusing)
    res = run(["census", "--type", family, "--rank", str(rank)])
    assert (res.exit_code, res.stdout) == (
        0, f"positive_root_count {roots}\npositive_count {order}\ngroup_order {order}\nok true\n"
    )


def test_qm_command_and_degenerate_note():
    res = run(["qm", "--p", "2", "--m", "3"])
    assert res.exit_code == 0
    assert res.stdout == "2,1,3,2,4,3\n"
    assert res.stderr == ""
    res = run(["qm", "--p", "1", "--m", "3"])
    assert res.exit_code == 0
    assert res.stdout == "1,2,3\n"
    assert "note" in res.stderr


def test_le_command():
    res = run(["le", "--p", "2", "--m", "2", "--grid", "2,2"])
    assert res.exit_code == 0 and res.stdout == "false\n"
    res = run(["le", "--p", "2", "--m", "2", "--grid", "2,2 1,2"])
    assert res.exit_code == 0 and res.stdout == "true\n"


def test_pipedream_command():
    res = run(["pipedream", "--p", "2", "--m", "2",
               "--grid", "1,1 1,2 2,1 2,2"])
    assert res.exit_code == 0
    assert res.stdout == "3,4,1,2\n"
    res = run(["pipedream", "--p", "2", "--m", "2", "--grid", "", "--render"])
    assert res.exit_code == 0
    assert res.stdout.splitlines()[0] == "1,2,3,4"
    assert "-.-" in res.stdout


def test_verify_output_file(tmp_path):
    target = tmp_path / "report.json"
    res = run(["verify", "--type", "A", "--rank", "2", "--word", "1,2,1",
               "--output", str(target)])
    assert res.exit_code == 0
    assert res.stdout == ""
    payload = json.loads(target.read_text())
    assert payload["positive_count"] == 6


def test_verify_output_to_unwritable_path_gives_exit_2(tmp_path):
    target = tmp_path / "missing" / "report.json"
    for path in (str(target), ""):  # an empty path names no file either
        res = run(["verify", "--type", "A", "--rank", "2", "--word", "1,2,1",
                   "--output", path])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: cannot write report: ")
        assert res.stdout == ""
    assert not target.exists()


def _run_under_python_O(*args, env=None):
    from weyldiag.verify import SWEEP_CAP_ENV

    env = {k: v for k, v in os.environ.items() if k != SWEEP_CAP_ENV} | (env or {})
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-O", "-m", "weyldiag.cli", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_census_under_python_O():
    res = _run_under_python_O("census", "--type", "C", "--rank", "4")
    assert res.returncode == 0, res.stderr
    assert "positive_count 384" in res.stdout.splitlines()


def test_e6_census_under_python_O():
    # t = 36 needs the documented cap override.
    res = _run_under_python_O("census", "--type", "E", "--rank", "6",
                              env={"WEYLDIAG_SWEEP_CAP": "36"})
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert "positive_count 51840" in lines
    assert "group_order 51840" in lines
    assert "ok true" in lines


def test_verify_under_python_O():
    # Without __debug__ no assert runs; the report must not change.  F4 w0
    # reads coroot pairings of 2 in the obstruction walk.
    f4_w0 = "1,2,1,3,2,1,3,2,3,4,3,2,1,3,2,3,4,3,2,1,3,2,3,4"
    for argv, positives in (
        (["verify", "--type", "D", "--rank", "4", "--word", "1,2,1,3,2,1,4,2,1,3,2,4"], 192),
        (["verify", "--type", "A", "--rank", "4", "--word", "2,1,3,2,4,3"], 46),  # 2x3 grid
        (["verify", "--type", "F", "--rank", "4", "--word", f4_w0], 1152),  # longest word
    ):
        argv += ["--format", "json"]
        res = _run_under_python_O(*argv)
        assert res.returncode == 0, res.stderr
        assert res.stdout == run(argv).stdout
        report = json.loads(res.stdout)
        assert report["positive_count"] == positives
        assert report["obstruction_ok"] is True


def test_verify_exit_1_when_a_check_fails(monkeypatch):
    import weyldiag.cli as cli
    from weyldiag.verify import VerificationReport

    def fake_verify(word, include_order_stats=False):
        return VerificationReport(
            ctype="A2", word="1,2,1", total_diagrams=8, positive_count=6,
            interval_count=6, bijection_ok=False, roundtrip_ok=True,
            dual_ok=True, obstruction_ok=True, le_equivalence_ok=None,
            order_stats=None, elapsed=0.0,
        )

    monkeypatch.setattr(cli, "verify_word", fake_verify)
    res = run(["verify", "--type", "A", "--rank", "2", "--word", "1,2,1"])
    assert res.exit_code == 1


def test_sweep_cap_exit_4(monkeypatch):
    from weyldiag.verify import SWEEP_CAP_ENV

    monkeypatch.setenv(SWEEP_CAP_ENV, "2")
    res = run(["enumerate", "--type", "A", "--rank", "2", "--word", "1,2,1"])
    assert res.exit_code == 4
    assert "cap" in res.stderr


def test_outputs_are_byte_deterministic():
    args = ["verify", "--type", "A", "--rank", "2", "--word", "1,2,1",
            "--format", "json", "--order-stats"]
    assert run(args).stdout == run(args).stdout


def test_help_exits_zero():
    res = run(["--help"])
    assert res.exit_code == 0
    assert "weyldiag" in res.stdout


_A2 = ["--type", "A", "--rank", "2"]
_A2W = [*_A2, "--word", "1,2,1"]
_D3_NOTE = "note: D3 is isomorphic to A3; accepted for cross-checks only\n"
_RENDER = ("   3  4\n   |  |\n2 -.--.- 4\n   |  |\n   |  |\n"
           "1 -.--.- 3\n   |  |\n   1  2\n")

# argv, exit code, text stdout, JSON payload (None: no stdout), stderr.
# The same argv with --format json must print the payload, with the same
# exit code and stderr.
GOLDEN = [
    (["roots", *_A2], 0, "0,1\n1,0\n1,1\n",
     {"type": "A2", "positive_roots": [[0, 1], [1, 0], [1, 1]], "warnings": []}, ""),
    (["roots", "--type", "D", "--rank", "3"], 0,
     "0,0,1\n0,1,0\n1,0,0\n1,0,1\n1,1,0\n1,1,1\n",
     {"type": "D3",
      "positive_roots": [[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]],
      "warnings": ["D3 is isomorphic to A3; accepted for cross-checks only"]},
     _D3_NOTE),
    (["betas", *_A2W], 0, "1,0\n1,1\n0,1\n",
     {"word": "1,2,1", "betas": [[1, 0], [1, 1], [0, 1]]}, ""),
    (["positive", *_A2W, "--diagram", "2,3"], 0, "true\n", {"positive": True}, ""),
    (["zeta", *_A2W, "--diagram", "2"], 0, "2\n",
     {"word": "2", "length": 1, "matrix": [[1, 1], [0, -1]]}, ""),
    (["diagram-for", *_A2W, "--element", "2"], 0, "2\n", {"diagram": [2]}, ""),
    (["diagram-for", *_A2, "--word", "1", "--element", "2"], 0, "absent\n",
     {"diagram": None}, ""),
    (["enumerate", *_A2W], 0, "count 6\n\n1\n2\n1,2\n2,3\n1,2,3\n",
     {"count": 6, "diagrams": [[], [1], [2], [1, 2], [2, 3], [1, 2, 3]]}, ""),
    (["interval", *_A2W], 0, "6\n", {"interval_count": 6}, ""),
    (["verify", *_A2W], 0,
     'type "A2"\nword "1,2,1"\ntotal_diagrams 8\npositive_count 6\ninterval_count 6\n'
     "bijection_ok true\nroundtrip_ok true\ndual_ok true\nobstruction_ok true\n",
     {"type": "A2", "word": "1,2,1", "total_diagrams": 8, "positive_count": 6,
      "interval_count": 6, "bijection_ok": True, "roundtrip_ok": True, "dual_ok": True,
      "obstruction_ok": True}, ""),
    (["verify", "--type", "A", "--rank", "3", "--word", "1,3,2,1,3,2", "--order-stats"], 0,
     'type "A3"\nword "1,3,2,1,3,2"\ntotal_diagrams 64\npositive_count 24\n'
     "interval_count 24\nbijection_ok true\nroundtrip_ok true\ndual_ok true\n"
     'obstruction_ok true\norder_stats {"inclusion_pairs": 156, "inclusion_and_bruhat": 156, '
     '"bruhat_pairs": 189, "bruhat_and_inclusion": 156}\n',
     {"type": "A3", "word": "1,3,2,1,3,2", "total_diagrams": 64, "positive_count": 24,
      "interval_count": 24, "bijection_ok": True, "roundtrip_ok": True, "dual_ok": True,
      "obstruction_ok": True,
      "order_stats": {"inclusion_pairs": 156, "inclusion_and_bruhat": 156,
                      "bruhat_pairs": 189, "bruhat_and_inclusion": 156}}, ""),
    (["census", *_A2], 0, "positive_root_count 3\npositive_count 6\ngroup_order 6\nok true\n",
     {"type": "A2", "positive_root_count": 3, "positive_count": 6, "group_order": 6,
      "ok": True}, ""),
    (["qm", "--p", "2", "--m", "3"], 0, "2,1,3,2,4,3\n",
     {"p": 2, "m": 3, "rank": 4, "degenerate": False, "word": "2,1,3,2,4,3"}, ""),
    (["qm", "--p", "1", "--m", "3"], 0, "1,2,3\n",
     {"p": 1, "m": 3, "rank": 3, "degenerate": True, "word": "1,2,3"},
     "note: single-row or single-column grid; outside the usual quantum-matrices range\n"),
    (["le", "--p", "2", "--m", "2", "--grid", "2,2 1,2"], 0, "true\n", {"le": True}, ""),
    (["pipedream", "--p", "2", "--m", "2", "--grid", "", "--render"], 0, "1,2,3,4\n" + _RENDER,
     {"permutation": [1, 2, 3, 4], "render": _RENDER}, ""),
    (["betas", *_A2, "--word", "1,x"], 2, "", None,
     "error: bad token 'x', expected an integer\n"),
    (["roots", *_A2, "--bogus"], 2, "", None, "error: unrecognized arguments: --bogus\n"),
    # A token is an optional sign and ASCII digits: int() alone reads "1_0"
    # as 10 and the Arabic-Indic digit two as 2.
    (["verify", "--type", "A", "--rank", "10", "--word", "1_0"], 2, "", None,
     "error: bad token '1_0', expected an integer\n"),
    (["betas", *_A2, "--word", "1,\u0662"], 2, "", None,
     "error: bad token '\u0662', expected an integer\n"),
    (["le", "--p", "2", "--m", "12", "--grid", "1,1_0"], 2, "", None,
     "error: bad token '1_0', expected an integer\n"),
    # The same rule holds for --rank, --p and --m, where argparse's int
    # read "1_0" as 10 and the Arabic-Indic three as 3.
    (["roots", "--type", "A", "--rank", "1_0"], 2, "", None,
     "error: bad token '1_0', expected an integer\n"),
    (["roots", "--type", "A", "--rank", "\u0663"], 2, "", None,
     "error: bad token '\u0663', expected an integer\n"),
    (["qm", "--p", "\u0662", "--m", "3"], 2, "", None,
     "error: bad token '\u0662', expected an integer\n"),
    (["le", "--p", "2", "--m", "1_0", "--grid", ""], 2, "", None,
     "error: bad token '1_0', expected an integer\n"),
    (["le", "--p", "2", "--m", "2", "--grid", "1,1 1,1"], 3, "", None,
     "error: box 1,1 repeated\n"),
    # The root system's note comes before the word's parse error ...
    (["betas", "--type", "D", "--rank", "3", "--word", "1,x"], 2, "", None,
     _D3_NOTE + "error: bad token 'x', expected an integer\n"),
    (["betas", *_A2, "--word", "1,1"], 3, "", None,
     "error: word 1,1 is not reduced: root (-1, 0) at position 2 is negative\n"),
    (["roots", "--type", "E", "--rank", "5"], 3, "", None,
     "error: no root system E5: family E needs rank in {6, 7, 8}\n"),
    # ... and an invalid rank wins over a malformed word.
    (["betas", "--type", "E", "--rank", "5", "--word", "1,x"], 3, "", None,
     "error: no root system E5: family E needs rank in {6, 7, 8}\n"),
    (["census", "--type", "E", "--rank", "6"], 4, "", None,
     "error: 2^36 diagram sweep exceeds the cap of 2^24 (override with WEYLDIAG_SWEEP_CAP)\n"),
]


@pytest.mark.parametrize("argv,code,text,payload,stderr", GOLDEN,
                         ids=[" ".join(row[0]) for row in GOLDEN])
def test_golden_output(monkeypatch, argv, code, text, payload, stderr):
    from weyldiag.verify import SWEEP_CAP_ENV

    monkeypatch.delenv(SWEEP_CAP_ENV, raising=False)
    as_json = "" if payload is None else json.dumps(payload, indent=2) + "\n"
    for extra, stdout in [([], text), (["--format", "json"], as_json)]:
        res = run([*argv, *extra])
        assert (res.exit_code, res.stdout, res.stderr) == (code, stdout, stderr)


def test_parser_keeps_no_state_between_runs():
    flagged = run(["verify", *_A2W, "--order-stats", "--format", "json"])
    assert "order_stats" in json.loads(flagged.stdout)
    plain = run(["verify", *_A2W])
    assert plain.exit_code == 0
    assert plain.stdout.startswith('type "A2"\n') and "order_stats" not in plain.stdout
    rendered = run(["pipedream", "--p", "2", "--m", "2", "--grid", "", "--render"])
    assert rendered.stdout == "1,2,3,4\n" + _RENDER
    assert run(["pipedream", "--p", "2", "--m", "2", "--grid", ""]).stdout == "1,2,3,4\n"
