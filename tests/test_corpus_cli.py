"""Embedded reproduction corpus and the command line front end.

CLI tests run the installed entry point through subprocess, so exit codes,
stdout formatting and stderr routing are all part of the pinned contract.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from idealtop import cli, corpus, dsl

REPO = Path(__file__).resolve().parent.parent
SPACES_DIR = REPO / "src" / "idealtop" / "spaces"


def sabotage(document: str, *checks) -> tuple[str, ...]:
    """The failures of a corpus entry made of deliberately wrong checks."""
    return corpus.run_entry(corpus.CorpusEntry("fake", "sabotage", document, checks)).failures


class TestCorpusLibrary:
    def test_all_entries_pass(self):
        reports = corpus.run_corpus()
        assert len(reports) == 11
        assert all(r.passed for r in reports)
        assert [r.entry_id for r in reports] == [
            "ex-3.3-1", "ex-3.3-2", "ex-3.6", "ex-3.7", "ex-3.8",
            "ex-3.10", "ex-4.2", "ex-4.3", "ex-4.4", "ex-4.7", "ex-4.8",
        ]
        assert all(r.checks >= 3 for r in reports)
        assert all(r.failures == () for r in reports)

    def test_only_filter(self):
        reports = corpus.run_corpus(only="ex-4.2")
        assert len(reports) == 1
        assert reports[0].entry_id == "ex-4.2"

    def test_unknown_entry(self):
        with pytest.raises(ValueError, match="no such entry: ex-9.9"):
            corpus.run_corpus(only="ex-9.9")

    def test_entry_ids_unique(self):
        ids = [e.id for e in corpus.ENTRIES]
        assert len(ids) == len(set(ids))

    def test_sabotaged_expectation_is_caught(self):
        # a pinned value is the law ``<expr> == R`` at R = the value; its
        # failure names both the expected subset (rhs) and the actual (lhs)
        check = corpus.LawCheck("sstar(A) == R", True, (("A", 5), ("R", 0)))
        assert sabotage("ex-3.3-1", check) == (
            "sstar(A) == R [A={w1,w3}, R={}]: expected Holds, got Violated at "
            "A={w1,w3} R={} lhs={w1} rhs={}",
        )

    def test_failing_law_check_prints_its_witness_by_label(self):
        entry = corpus.CorpusEntry(
            "fake",
            "deliberately wrong expectations",
            "ex-3.3-2",
            (
                corpus.LawCheck("additivity:pstar", holds=True),
                corpus.LawCheck("psi-cap:pstar", holds=True),
            ),
        )
        assert corpus.run_entry(entry).failures == (
            "additivity:pstar: expected Holds, got Violated at "
            "A={w3} B={w4} lhs={w1,w2,w3,w4} rhs={w3,w4}",
            "psi-cap:pstar: expected Holds, got Violated at A={w3} B={w4} lhs={} rhs={w1} (inter)",
        )

    # One sabotaged LawCheck per form: the whole law, the whole law with the
    # first failing template's tag, bindings alone, and bindings on a tagged
    # template.
    def test_law_that_holds_is_caught(self):
        law = "star(union(A,B)) == union(star(A),star(B))"
        assert sabotage("ex-3.3-1", corpus.LawCheck(law, holds=False)) == (
            f"{law}: expected Violated, got Holds",
        )

    def test_other_first_failing_axiom_is_caught(self):
        check = corpus.LawCheck("kuratowski:pstar", False, tag="idempotent")
        assert sabotage("ex-3.3-2", check) == (
            "kuratowski:pstar: expected Violated (idempotent), got Violated at "
            "A={w3} B={w4} lhs={w1,w2,w3,w4} rhs={w3,w4} (additive)",
        )

    def test_bindings_with_the_other_verdict_are_caught(self):
        checks = (
            corpus.LawCheck("additivity:pstar", False, (("A", corpus.W1), ("B", corpus.W2))),
            corpus.LawCheck("A <= psip(A)", True, (("A", corpus.W2),)),
        )
        assert sabotage("ex-3.3-2", *checks) == (
            "additivity:pstar [A={w1}, B={w2}]: expected Violated, got Holds",
            "A <= psip(A) [A={w2}]: expected Holds, got Violated at A={w2} lhs={w2} rhs={}",
        )

    def test_bindings_that_cover_no_template_are_refused(self, space_a):
        for at in ((("A", 5),), (("A", 5), ("C", 6))):
            with pytest.raises(ValueError, match="^additivity:sstar: bindings of A"):
                corpus.LawCheck("additivity:sstar", True, at).run(space_a)

    def test_wrong_family_is_caught(self):
        check = corpus.FamilyCheck("semi", (0, 15))
        assert sabotage("ex-3.3-2", check) == (
            "semi-open family: expected [{}, {w1,w2,w3,w4}], got "
            "[{}, {w3,w4}, {w1,w3,w4}, {w2,w3,w4}, {w1,w2,w3,w4}]",
        )
        check = corpus.FamilyCheck("open", (0, 15))
        assert sabotage("ex-3.3-1", check) == (
            "open family: expected [{}, {w1,w2,w3,w4}], got "
            "[{}, {w1}, {w2}, {w1,w2}, {w1,w2,w3,w4}]",
        )

    def test_kuratowski_pair_that_does_not_violate_is_caught(self):
        pair = (("A", corpus.W1), ("B", corpus.W2))
        check = corpus.LawCheck("kuratowski:pstar", False, pair, "additive")
        assert sabotage("ex-3.3-2", check) == (
            "kuratowski:pstar [A={w1}, B={w2}]: expected Violated (additive), got Holds",
        )

    def test_four_variable_law_text_runs(self):
        # a law text is scanned under a cap read from its own variables
        law = "union(A,union(B,union(C,D))) == union(D,union(C,union(B,A)))"
        at = (("A", corpus.W1), ("B", corpus.W2 | corpus.W3), ("C", 0), ("D", corpus.ALL))
        checks = (corpus.LawCheck(law, True), corpus.LawCheck(law, True, at))
        assert sabotage("ex-3.3-1", *checks) == ()
        assert sabotage("ex-3.3-1", corpus.LawCheck(law, False)) == (
            f"{law}: expected Violated, got Holds",
        )

    @pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.id)
    def test_every_check_bites(self, entry):
        # each check's negation fails, and bindings bind exactly the
        # variables of a template they check, so no check passes whatever
        # it expects, nor holds vacuously (say, a pinned value whose law
        # text lost its R)
        for check in entry.checks:
            if isinstance(check, corpus.FamilyCheck):
                assert sabotage(entry.document, check._replace(expected=check.expected[1:]))
                continue
            assert sabotage(entry.document, check._replace(holds=not check.holds)), check
            if check.at is not None:
                templates = corpus._resolve_law(check.law).templates
                bound = [set(ast.free_vars) for t, ast in templates if check.tag in (None, t)]
                assert set(dict(check.at)) in bound, check

    def test_documents_are_only_the_two_reference_spaces(self):
        assert {e.document for e in corpus.ENTRIES} == {"ex-3.3-1", "ex-3.3-2"}


class TestCorpusFiles:
    def test_one_file_per_entry(self):
        # every entry's space is one shipped file, and no shipped file is unused
        shipped = sorted(p.name for p in SPACES_DIR.glob("*.json"))
        assert shipped == sorted({f"{e.document}.json" for e in corpus.ENTRIES})
        for entry in corpus.ENTRIES:
            assert json.loads(corpus.space_text(entry.document))["name"] == entry.document


def run_cli(*argv, cwd=REPO, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "idealtop", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )


SPACE_A_FILE = str(SPACES_DIR / "ex-3.3-1.json")
SPACE_B_FILE = str(SPACES_DIR / "ex-3.3-2.json")
NOT_A_VARIABLE = "is not a variable (single uppercase letter other than X)"
NON_STRING_NAME_DOC = '{"name": [1, 2], "points": ["a"], "topology": [[], ["a"]], "ideal": [[]]}'
# read as the second "points" list if a repeated key were let through
DUPLICATE_KEY_DOC = '{"points": ["a"], "points": ["b"], "topology": [[], ["b"]], "ideal": [[]]}'
# a subset listed twice in one family, and a label listed twice in one subset
DUPLICATE_SUBSET_DOC = '{"points": ["a", "b"], "topology": [[], ["a", "b"], ["b", "a"]], "ideal": [[]]}'
DUPLICATE_LABEL_DOC = '{"points": ["a", "b"], "topology": [[], ["a", "b", "a"]], "ideal": [[]]}'


class TestEvalCommand:
    def test_formats_subset(self):
        out = run_cli("eval", "--space", SPACE_A_FILE, "xis(union(A,B))",
                      "--bind", "A=w2,w3", "--bind", "B=w1,w3")
        assert (out.returncode, out.stdout) == (0, "{w1,w2,w3,w4}\n")

    def test_raw_bitmask(self):
        out = run_cli("eval", "--space", SPACE_A_FILE, "sstar(A)", "--bind", "A=w1,w3", "--raw")
        assert (out.returncode, out.stdout) == (0, "1\n")

    def test_empty_set_output_and_binding(self):
        out = run_cli("eval", "--space", SPACE_A_FILE, "star(A)", "--bind", "A=")
        assert (out.returncode, out.stdout) == (0, "{}\n")

    def test_json_payload(self):
        out = run_cli("eval", "--space", SPACE_A_FILE, "cl(A)", "--bind", "A=w1", "--json")
        payload = json.loads(out.stdout)
        assert payload == {
            "expr": "cl(A)",
            "bindings": {"A": ["w1"]},
            "value": ["w1", "w3", "w4"],
            "raw": 13,
        }

    def test_raw_and_json_are_exclusive(self):
        out = run_cli("eval", "--space", SPACE_A_FILE, "cl(A)", "--bind", "A=w1", "--raw", "--json")
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.splitlines()[-1] == (
            "idealtop eval: error: argument --json: not allowed with argument --raw"
        )

    def test_parse_error_exits_2(self):
        out = run_cli("eval", "--space", SPACE_A_FILE, "union(A B)")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error:")
        assert "offset 8" in out.stderr

    def test_missing_file_exits_2(self):
        out = run_cli("eval", "--space", "no-such-file.json", "star(A)", "--bind", "A=")
        assert out.returncode == 2
        assert out.stderr.startswith("error:")

    def test_unknown_label_exits_2(self):
        out = run_cli("eval", "--space", SPACE_A_FILE, "star(A)", "--bind", "A=w9")
        assert out.returncode == 2
        assert "w9" in out.stderr

    @pytest.mark.parametrize(
        "binds, message",
        [
            (["X=w1"], f"--bind 'X=w1': 'X' {NOT_A_VARIABLE}"),
            (["foo=w1"], f"--bind 'foo=w1': 'foo' {NOT_A_VARIABLE}"),
            (["A=w1", "A=w2"], "--bind 'A=w2': variable A is already bound"),
            (["A"], "--bind 'A': a binding looks like A=w1,w3"),
            (["A=w9"], "--bind 'A=w9': unknown point label 'w9'"),
            (["A=w1", "B=w2"], "--bind 'B=w2': variable B does not occur in the expression"),
            (["A=w1,w3,w1"], "--bind 'A=w1,w3,w1': point label 'w1' listed twice in one subset"),
        ],
    )
    def test_bad_binding_exits_2(self, binds, message):
        argv = [arg for bind in binds for arg in ("--bind", bind)]
        out = run_cli("eval", "--space", SPACE_A_FILE, "star(A)", *argv)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("label", ["a\v", "b\u00a0"])
    def test_label_with_whitespace_is_refused_with_its_file(self, label, tmp_path, capsys):
        # accepted, ``--bind A=<label>`` would find the label stripped and unknown
        doc = tmp_path / "space.json"
        doc.write_text(json.dumps({"points": [label], "topology": [[], [label]], "ideal": [[]]}))
        assert cli.main(["eval", "star(A)", "--bind", f"A={label}", "--space", str(doc)]) == 2
        assert capsys.readouterr() == ("", f"error: {doc}: bad point label {label!r}\n")

    @pytest.mark.parametrize(
        "expr, binds, name",
        [("star(A)", [], "A"), ("union(A,B)", ["--bind", "A=w1"], "B"), ("inter(B,A)", [], "B")],
    )
    def test_unbound_variable_names_bind(self, expr, binds, name, capsys):
        assert cli.main(["eval", expr, "--space", SPACE_A_FILE, *binds]) == 2
        assert capsys.readouterr() == (
            "", f"error: unbound variable '{name}': bind it with --bind {name}=SUBSET\n"
        )


class TestCheckCommand:
    def test_violated_law_with_witness(self):
        out = run_cli("check", "--space", SPACE_A_FILE, "--name", "additivity:sstar")
        assert out.returncode == 1
        assert out.stdout == (
            "Violated  additivity:sstar  "
            "[A={w1} B={w2} lhs={w1,w2,w3,w4} rhs={w1,w2}]\n"
        )

    def test_holding_law(self):
        out = run_cli("check", "--space", SPACE_A_FILE,
                      "--law", "star(union(A,B)) == union(star(A),star(B))")
        assert out.returncode == 0
        assert out.stdout == "Holds     star(union(A,B)) == union(star(A),star(B))\n"

    def test_repeated_law_checks_each_in_order(self):
        out = run_cli("check", "--space", SPACE_A_FILE,
                      "--law", "sstar(union(A,B)) == union(sstar(A),sstar(B))",
                      "--law", "A <= clstar:star(A)")
        assert (out.returncode, out.stderr) == (1, "")
        assert out.stdout == (
            "Violated  sstar(union(A,B)) == union(sstar(A),sstar(B))  "
            "[A={w1} B={w2} lhs={w1,w2,w3,w4} rhs={w1,w2}]\n"
            "Holds     A <= clstar:star(A)\n"
        )

    def test_laws_file(self, tmp_path):
        laws_file = tmp_path / "laws.txt"
        laws_file.write_text(
            "# two laws\n"
            "A <= clstar:star(A)\n"
            "sstar(union(A,B)) == union(sstar(A),sstar(B))\n"
        )
        out = run_cli("check", "--space", SPACE_A_FILE, "--laws-file", str(laws_file))
        lines = out.stdout.splitlines()
        assert out.returncode == 1
        assert lines[0] == "Holds     A <= clstar:star(A)"
        assert lines[1].startswith("Violated  sstar(union(A,B))")

    def test_registry_witness_with_operation_tag(self):
        # rhs is psi of lhs: {w1} is not in its psi image, so the meet of
        # two psi-fixed sets is not psi-fixed
        out = run_cli("check", "--space", SPACE_B_FILE, "--name", "eta-topology:pstar")
        assert (out.returncode, out.stderr) == (1, "")
        assert out.stdout == (
            "Violated  eta-topology:pstar  [A={w1,w3} B={w1,w4} lhs={w1} rhs={} (inter)]\n"
        )

    def test_repeated_name_checks_each_in_order(self):
        out = run_cli("check", "--space", SPACE_A_FILE, "--name", "eta-topology:xis",
                      "--name", "family-cap-closed:semi", "--name", "additivity:xis")
        assert (out.returncode, out.stderr) == (1, "")
        assert out.stdout == (
            "Violated  eta-topology:xis  [A={w1,w3} B={w2,w3} lhs={w3} rhs={} (inter)]\n"
            "Violated  family-cap-closed:semi  [A={w1,w3} B={w2,w3} lhs={w3} rhs={} (inter)]\n"
            "Violated  additivity:xis  [A={w1} B={w2} lhs={w1,w2,w3,w4} rhs={w1,w2}]\n"
        )

    def test_laws_then_names_then_file(self, tmp_path):
        laws_file = tmp_path / "laws.txt"
        laws_file.write_text("inter(A,B)<=cl(int(inter(A,B))) if A<=cl(int(A)),B<=cl(int(B))\n")
        out = run_cli("check", "--space", SPACE_A_FILE, "--laws-file", str(laws_file),
                      "--name", "family-cap-closed:open", "--law", "A <= X if A <= B")
        assert (out.returncode, out.stderr) == (1, "")
        assert out.stdout == (
            "Holds     A <= X if A <= B\n"
            "Holds     family-cap-closed:open\n"
            "Violated  inter(A,B) <= cl(int(inter(A,B))) if A <= cl(int(A)), B <= cl(int(B))  "
            "[A={w1,w3} B={w2,w3} lhs={w3} rhs={}]\n"
        )

    def test_nothing_to_check_exits_2(self):
        out = run_cli("check", "--space", SPACE_A_FILE)
        assert out.returncode == 2
        assert "nothing to check" in out.stderr

    def test_laws_file_without_a_law_is_named(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("# only a comment\n\n")
        out = run_cli("check", "--space", SPACE_A_FILE, "--laws-file", str(empty))
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == f"error: {empty}: no law in the file\n"

    def test_laws_file_syntax_error_names_file_and_line(self, tmp_path):
        laws_file = tmp_path / "laws.txt"
        laws_file.write_text("star(A) == A\nbad((\n")
        out = run_cli("check", "--space", SPACE_A_FILE, "--laws-file", str(laws_file))
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == f"error: {laws_file}:2: expected an expression (offset 4)\n"
        # the offset is the column in the file's line, indentation included
        laws_file.write_text("# a comment\n\n   star(A) <= A\n   bad((  # trailing comment\n")
        out = run_cli("check", "--space", SPACE_A_FILE, "--laws-file", str(laws_file))
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == f"error: {laws_file}:4: expected an expression (offset 7)\n"

    def test_laws_file_over_the_cap_names_file_and_line(self, tmp_path, monkeypatch, capsys):
        laws_file = tmp_path / "laws.txt"
        laws_file.write_text("star(A) == X\nA <= B\n")
        scanned = []
        scan_law = dsl.scan_law

        def recording(space, law, **kw):
            scanned.append(law)
            return scan_law(space, law, **kw)

        monkeypatch.setattr(dsl, "scan_law", recording)
        argv = ["check", "--space", SPACE_A_FILE, "--laws-file", str(laws_file), "--var-cap", "1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: {laws_file}:2: law has 2 free variables, cap is 1\n"
        )
        assert scanned == []  # refused before line 1 is scanned

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--space", SPACE_A_FILE, "--law", "A <= B", "--laws-file", "laws.txt"),
             "laws.txt:2: expected an expression (offset 4)"),
            (("--space", SPACE_A_FILE, "--name", "additivity:nope", "--law", "A <= B"),
             "unknown operator alias 'nope' in 'additivity:nope'"),
            (("--space", "bad.json", "--law", "bad(("), "expected an expression (offset 4)"),
        ],
        ids=["laws-file-after-law", "unknown-name-after-law", "bad-law-and-bad-space"],
    )
    def test_every_law_is_resolved_before_any_scan(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        # the laws of every source are read before the space file, so the
        # first bad law is the error, nothing is scanned, and a space file
        # that is not JSON is never decoded (as in search)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "laws.txt").write_text("star(A) == A\nbad((\n")
        (tmp_path / "bad.json").write_text("not json\n")
        scans = []
        scan_law = dsl.scan_law

        def counting(*args, **kw):
            scans.append(args)
            return scan_law(*args, **kw)

        monkeypatch.setattr(dsl, "scan_law", counting)
        assert cli.main(["check", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert scans == []

    def test_malformed_space_file_is_named(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"points": ["a"], x}')
        out = run_cli("check", "--space", str(bad), "--law", "star(A) == A")
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == (
            f"error: {bad}: invalid JSON: Expecting property name enclosed in "
            "double quotes: line 1 column 19 (char 18)\n"
        )

    def test_duplicate_key_is_named(self, tmp_path):
        doc = tmp_path / "twice.json"
        doc.write_text(DUPLICATE_KEY_DOC)
        out = run_cli("check", "--space", str(doc), "--law", "A <= X")
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == f"error: {doc}: duplicate key 'points'\n"

    def test_non_string_name_is_named(self, tmp_path):
        doc = tmp_path / "named.json"
        doc.write_text(NON_STRING_NAME_DOC)
        out = run_cli("check", "--space", str(doc), "--law", "A <= X")
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == f"error: {doc}: 'name' must be a string\n"

    @pytest.mark.parametrize(
        "argv",
        [["check", "--space", SPACE_A_FILE, "--law", "A == A"], ["search", "A == A"]],
        ids=["check", "search"],
    )
    def test_one_variable_over_the_cap_is_singular(self, argv, capsys):
        assert cli.main([*argv, "--var-cap", "0"]) == 2
        assert capsys.readouterr() == ("", "error: law has 1 free variable, cap is 0\n")

    def test_negative_var_cap_exits_2(self):
        out = run_cli("check", "--space", SPACE_A_FILE, "--law", "A <= X", "--var-cap", "-1")
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == "error: --var-cap must be >= 0, got -1\n"

    def test_json_output(self):
        out = run_cli("check", "--space", SPACE_B_FILE, "--name", "kuratowski:pstar", "--json")
        payload = json.loads(out.stdout)
        assert out.returncode == 1
        assert payload == [
            {
                "law": "kuratowski:pstar",
                "status": "Violated",
                "witness": {
                    "bindings": {"A": ["w3"], "B": ["w4"]},
                    "lhs": ["w1", "w2", "w3", "w4"],
                    "rhs": ["w3", "w4"],
                    "operation": "additive",
                },
            }
        ]


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "star(A)", "--bind", "A="),
        ("check", "--law", "A <= X"),
        ("families", "semi"),
    ],
    ids=["eval", "check", "families"],
)
def test_second_space_is_refused(argv):
    out = run_cli(*argv, "--space", SPACE_B_FILE, "--space", SPACE_A_FILE)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == f"error: --space takes one file, got 2: {SPACE_B_FILE}, {SPACE_A_FILE}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "star(A)", "--bind", "A=", "--space", "{bad}"),
        ("check", "--law", "A <= X", "--space", "{bad}"),
        ("families", "semi", "--space", "{bad}"),
        ("search", "star(A) == A", "--space", SPACE_A_FILE, "--space", "{bad}"),
        ("check", "--space", SPACE_A_FILE, "--laws-file", "{bad}"),
    ],
    ids=["eval", "check", "families", "search", "laws-file"],
)
def test_file_that_is_not_utf8_is_named(tmp_path, argv):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b"\xff{}")
    out = run_cli(*(str(bad) if arg == "{bad}" else arg for arg in argv))
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (
        f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )


class TestFamiliesCommand:
    def test_semi_family_listing(self):
        out = run_cli("families", "semi", "--space", SPACE_A_FILE)
        lines = out.stdout.splitlines()
        assert out.returncode == 0
        assert len(lines) == 13
        assert lines[0] == "{}"
        assert lines[-1] == "{w1,w2,w3,w4}"
        assert "{w1,w3}" in lines

    def test_raw_listing_matches_masks(self):
        out = run_cli("families", "pre", "--space", SPACE_B_FILE, "--raw")
        assert [int(x) for x in out.stdout.split()] == [0] + list(range(4, 16))

    def test_json_listing(self):
        out = run_cli("families", "open", "--space", SPACE_A_FILE, "--json")
        assert json.loads(out.stdout) == [
            [], ["w1"], ["w2"], ["w1", "w2"], ["w1", "w2", "w3", "w4"],
        ]


    def test_raw_and_json_are_exclusive(self):
        out = run_cli("families", "open", "--space", SPACE_A_FILE, "--raw", "--json")
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.splitlines()[-1] == (
            "idealtop families: error: argument --json: not allowed with argument --raw"
        )


class TestSearchCommand:
    def test_certified_exits_0(self):
        out = run_cli("search", "star(union(A,B)) == union(star(A),star(B))", "--points", "2")
        assert out.returncode == 0
        report = json.loads(out.stdout)
        assert report["status"] == "LawCertified"
        assert report["stats"]["spaces_scanned"] == 16

    def test_found_exits_1(self):
        out = run_cli("search", "sstar(union(A,B)) == union(sstar(A),sstar(B))")
        assert out.returncode == 1
        report = json.loads(out.stdout)
        assert report["status"] == "CounterexampleFound"
        assert report["witnesses"][0]["bindings"] == {"A": ["w1"], "B": ["w2"]}

    def test_budget_exits_3(self):
        out = run_cli("search", "sstar(union(A,B)) == union(sstar(A),sstar(B))",
                      "--budget-spaces", "5")
        assert out.returncode == 3
        assert json.loads(out.stdout)["status"] == "BudgetExhausted"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--budget-spaces", "-1", "budget_spaces must be >= 0, got -1"),
            ("--budget-assignments", "-5", "budget_assignments must be >= 0, got -5"),
            ("--workers", "-4", "--workers must be >= 1, got -4"),
            ("--workers", "0", "--workers must be >= 1, got 0"),
            ("--var-cap", "-1", "var_cap must be >= 0, got -1"),
        ],
    )
    def test_bad_search_numbers_exit_2(self, flag, value, message):
        out = run_cli("search", "star(A) == star(A)", "--points", "2", flag, value)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == f"error: {message}\n"

    def test_seed_is_not_an_option(self):
        out = run_cli("search", "star(A) == star(A)", "--points", "2", "--seed", "1")
        assert (out.returncode, out.stdout) == (2, "")
        assert "unrecognized arguments: --seed 1" in out.stderr

    def test_malformed_space_file_is_named(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"points": ["a"], x}')
        out = run_cli("search", "star(A) == A", "--space", SPACE_A_FILE, "--space", str(bad))
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == (
            f"error: {bad}: invalid JSON: Expecting property name enclosed in "
            "double quotes: line 1 column 19 (char 18)\n"
        )

    def test_duplicate_key_is_named(self, tmp_path):
        doc = tmp_path / "twice.json"
        doc.write_text(DUPLICATE_KEY_DOC)
        out = run_cli("search", "A <= X", "--space", SPACE_A_FILE, "--space", str(doc))
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == f"error: {doc}: duplicate key 'points'\n"

    def test_non_string_name_is_named(self, tmp_path):
        doc = tmp_path / "named.json"
        doc.write_text(NON_STRING_NAME_DOC)
        out = run_cli("search", "A <= X", "--space", str(doc))
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == f"error: {doc}: 'name' must be a string\n"

    def test_invalid_space_file_is_named(self, tmp_path):
        doc = tmp_path / "ideal.json"
        doc.write_text('{"points": ["a"], "topology": [[], ["a"]], "ideal": [["a"]]}')
        out = run_cli("search", "star(A) == A", "--space", str(doc))
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == f"error: {doc}: ideal must contain the empty set\n"

    def test_bad_law_exits_2(self):
        out = run_cli("search", "sstar(union(A,B) == union(sstar(A),sstar(B))")
        assert out.returncode == 2
        assert out.stderr.startswith("error:")

    def test_bad_law_is_reported_before_the_space_files_are_read(self, tmp_path):
        # the law is parsed before the stream is built, so a space file
        # that is not JSON is never decoded
        bad = tmp_path / "bad.json"
        bad.write_text("not json\n")
        out = run_cli("search", "bad(", "--space", str(bad))
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == "error: expected an expression (offset 4)\n"

    def test_space_files_imply_documents_mode(self):
        out = run_cli("search", "xis(union(A,B)) == union(xis(A),xis(B))",
                      "--space", SPACE_A_FILE)
        assert out.returncode == 1
        report = json.loads(out.stdout)
        assert report["mode"] == "documents"
        assert report["n"] is None
        doc = report["witnesses"][0]["space"]
        assert doc["points"] == ["w1", "w2", "w3", "w4"]
        assert doc["topology"] == [
            [], ["w1"], ["w2"], ["w1", "w2"], ["w1", "w2", "w3", "w4"],
        ]

    def test_documents_mode_needs_files(self):
        out = run_cli("search", "star(A) == star(A)", "--mode", "documents")
        assert out.returncode == 2

    def test_space_files_conflict_with_enumerated_modes(self):
        out = run_cli("search", "star(A) == star(A)", "--mode", "exhaustive",
                      "--space", SPACE_A_FILE)
        assert out.returncode == 2
        assert "conflict" in out.stderr

    def test_points_conflict_with_space_files(self):
        out = run_cli("search", "star(A) == A", "--points", "2", "--space", SPACE_A_FILE)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == "error: --points conflicts with --space files\n"

    def test_points_zero_keeps_its_message(self):
        out = run_cli("search", "star(A) == A", "--points", "0")
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == "error: point count must be between 1 and 8, got 0\n"

    def test_workers_do_not_change_output(self):
        argv = ("search", "xip(union(A,B)) == union(xip(A),xip(B))", "--all-minimal")
        one = run_cli(*argv, "--workers", "1")
        two = run_cli(*argv, "--workers", "2")
        assert one.returncode == two.returncode == 1
        assert one.stdout == two.stdout


class TestReproCommand:
    def test_full_run_passes(self):
        out = run_cli("repro")
        assert out.returncode == 0
        assert out.stdout.splitlines() == [
            "PASS ex-3.3-1 (7 checks) semi-star additivity fails where open-star additivity holds",
            "PASS ex-3.3-2 (16 checks) pre-star and beta-star additivity fail; "
            "their star closures are not Kuratowski",
            "PASS ex-3.6 (4 checks) the difference law fails for the semi local function",
            "PASS ex-3.7 (4 checks) the difference law fails for the pre local function",
            "PASS ex-3.8 (10 checks) psi of the pre local function distributes over "
            "neither meet nor join",
            "PASS ex-3.10 (5 checks) sets below their psi-pre image do not form a topology",
            "PASS ex-4.2 (6 checks) the closure-expanded semi local function is not additive",
            "PASS ex-4.3 (5 checks) the closure-expanded beta local function is not additive",
            "PASS ex-4.4 (5 checks) the closure-expanded pre local function is not additive",
            "PASS ex-4.7 (10 checks) psi of the closure-expanded semi operator breaks meets "
            "and its fix family",
            "PASS ex-4.8 (10 checks) psi of the closure-expanded beta operator breaks meets "
            "and its fix family",
            "11/11 entries passed",
        ]
        assert out.stderr == ""

    def test_single_entry(self):
        out = run_cli("repro", "--only", "ex-3.6")
        lines = out.stdout.splitlines()
        assert out.returncode == 0
        assert lines[0].startswith("PASS ex-3.6 (")
        assert lines[-1] == "1/1 entries passed"

    def test_unknown_entry_exits_2(self):
        out = run_cli("repro", "--only", "ex-9.9")
        assert out.returncode == 2
        assert "no such entry" in out.stderr

    def test_json_report(self):
        out = run_cli("repro", "--json")
        payload = json.loads(out.stdout)
        assert out.returncode == 0
        assert [r["id"] for r in payload] == [e.id for e in corpus.ENTRIES]
        assert all(r["passed"] and r["failures"] == [] for r in payload)

    def test_repeated_runs_are_identical(self):
        first = run_cli("repro", "--json")
        second = run_cli("repro", "--json")
        assert first.stdout == second.stdout


class TestUsageErrors:
    def test_no_subcommand(self):
        out = run_cli()
        assert out.returncode == 2

    def test_unknown_family_kind(self):
        out = run_cli("families", "clopen", "--space", SPACE_A_FILE)
        assert out.returncode == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            (DUPLICATE_SUBSET_DOC, "'topology' lists the subset {a,b} twice"),
            (DUPLICATE_LABEL_DOC,
             ''''topology' subset ["a", "b", "a"]: point label 'a' listed twice in one subset'''),
        ],
        ids=["subset", "label"],
    )
    def test_duplicated_input_is_named(self, text, message, tmp_path, capsys):
        # search and check refuse it with one message that names the file
        doc = tmp_path / "twice.json"
        doc.write_text(text)
        for argv in (["search", "A == A", "--space", str(doc)],
                     ["check", "--law", "A == A", "--space", str(doc)]):
            assert cli.main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {doc}: {message}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
            ("[" + "9" * 5_000 + "]", "Exceeds the limit (4300 digits) for integer string conversion"),
        ],
        ids=["deep", "long-integer"],
    )
    def test_undecodable_json_is_named(self, text, message, tmp_path, capsys):
        # every decoder failure exits 2 from each command that reads a space file
        doc = tmp_path / "bad.json"
        doc.write_text(text)
        for argv in (["eval", "star(A)", "--bind", "A=", "--space", str(doc)],
                     ["check", "--law", "A == A", "--space", str(doc)],
                     ["families", "semi", "--space", str(doc)],
                     ["search", "A == A", "--space", str(doc)]):
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert (out, err.count("\n")) == ("", 1)
            assert err.startswith(f"error: {doc}: invalid JSON: {message}")

    @pytest.mark.parametrize("command", ["search", "check-law", "check-laws-file", "eval"])
    def test_law_nesting_is_bounded(self, command, tmp_path, capsys):
        # at the bound the text is scanned (a violation, or eval's value);
        # one call more, or 10,000, is refused at once at the first call
        # past the bound, as a syntax error
        laws_file = tmp_path / "laws.txt"

        def run(depth):
            expr = "star(" * depth + "A" + ")" * depth
            law = expr + " == A"
            laws_file.write_text(law + "\n")
            argv = {
                "search": ["search", law, "--points", "1"],
                "check-law": ["check", "--law", law, "--space", SPACE_A_FILE],
                "check-laws-file": ["check", "--laws-file", str(laws_file), "--space", SPACE_A_FILE],
                "eval": ["eval", expr, "--bind", "A=w1", "--space", SPACE_A_FILE],
            }[command]
            return (cli.main(argv), *capsys.readouterr())

        bound = dsl.MAX_NESTING
        status, out, err = run(bound)
        assert (status, err) == (0 if command == "eval" else 1, "") and out
        where = f"{laws_file}:1: " if command == "check-laws-file" else ""
        message = f"calls nest deeper than {bound} levels (offset {5 * bound})"
        for depth in (bound + 1, 10_000):
            assert run(depth) == (2, "", f"error: {where}{message}\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", [("repro",), ("search", "star(A) <= cl(A)", "--points", "2")], ids=["repro", "search"]
)
def test_closed_stdout_exits_141_and_writes_no_error(argv, unbuffered):
    # stdout is a pipe whose read end is closed before the child starts, so
    # its first write fails: exit 128 + SIGPIPE, as a killed tool does
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        out = subprocess.run(
            [sys.executable, "-m", "idealtop", *argv],
            stdout=write_end, stderr=subprocess.PIPE, cwd=REPO, env=env, timeout=300,
        )
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (141, b"")


# Modules a launch should import only when it needs them.
LAZY = (
    "dataclasses", "inspect", "concurrent.futures", "multiprocessing", "idealtop.corpus",
    "idealtop.laws",
)
# Runs one command in a fresh interpreter (``-S``: no site hooks, so only
# idealtop's own imports count), then prints its exit code and which of
# ``LAZY`` are loaded.
STARTUP_PROBE = f"""
import sys
import idealtop.cli as cli
code = cli.main(sys.argv[1:])
print(code, sorted(m for m in {LAZY!r} if m in sys.modules))
"""


class TestStartup:
    """What a launch imports: the search path needs neither ``dataclasses``
    (nor the ``inspect`` it pulls in), a process pool, the law registry nor
    the corpus, and ``--workers 2`` changes none of that."""

    def probe(self, *argv, script=STARTUP_PROBE):
        out = subprocess.run(
            [sys.executable, "-S", "-c", script, *argv],
            capture_output=True, text=True, cwd=REPO, timeout=120,
        )
        assert out.stderr == ""
        return out.stdout.splitlines()[-1]

    def test_one_worker_search_loads_none_of_them(self):
        law = "star(union(A,B)) == union(star(A),star(B))"
        assert self.probe("search", law, "--points", "2") == "0 []"

    def test_two_worker_search_loads_none_of_them(self):
        law = "star(union(A,B)) == union(star(A),star(B))"
        assert self.probe("search", law, "--points", "2", "--workers", "2") == "0 []"

    def test_search_loads_exactly_its_launch_path(self):
        # Without a bytecode cache each of these is compiled on every
        # launch, so a module added here should be a visible decision.
        script = STARTUP_PROBE + (
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'idealtop'))\n"
        )
        law = "star(union(A,B)) == union(star(A),star(B))"
        assert self.probe("search", law, "--points", "2", script=script) == str([
            "idealtop", "idealtop.cli", "idealtop.dsl", "idealtop.operators",
            "idealtop.search", "idealtop.space",
        ])

    def test_check_loads_the_registry(self):
        probe = self.probe("check", "--space", SPACE_A_FILE, "--name", "additivity:star")
        assert probe == "0 ['idealtop.laws']"

    def test_package_resolves_registry_names_on_first_use(self):
        code = (
            "import sys, idealtop; loaded = 'idealtop.laws' in sys.modules; "
            "from idealtop import Law, get_law; "
            "from idealtop.laws import Law as L; "
            "print(loaded, Law is L is idealtop.Law, get_law is idealtop.get_law, "
            "all(hasattr(idealtop, name) for name in idealtop.__all__), "
            "hasattr(idealtop, 'no_such_name'))"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True, text=True, cwd=REPO, timeout=120,
        )
        assert (out.stderr, out.stdout) == ("", "False True True True False\n")
