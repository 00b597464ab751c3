"""Tests for the command-line interface: exit codes, text and JSON output."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from knotcover import cli
from knotcover.cli import main
from knotcover.cosets import DEFAULT_COSET_CAP
from knotcover.homcheck import GenAssignment, SternfeldRepro
from knotcover.perm import Perm, parse_cycles
from knotcover.presentations import trefoil_presentation
from knotcover.subgroups import KERNEL_HOMOLOGY_MAX_STAGES
from knotcover.words import GenSym, Presentation, Word, print_presentation, word

README = Path(__file__).parent.parent / "README.md"
GOLDEN_RUN_ALL = Path(__file__).parent / "data" / "run_all.json"
GOLDEN_RUN_ALL_TEXT = Path(__file__).parent / "data" / "run_all.txt"
GOOD_ASSIGNMENT = "a = (1,3,5,4,2)\nb = (1,2,3,4,5)\n"
BAD_ASSIGNMENT = "a = (1,2,3)\nb = (1,2,3,4,5)\n"


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.pres"
    path.write_text(print_presentation(trefoil_presentation()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_presentation_prints_the_dsl(capsys):
    code, out, _ = run_cli(capsys, "presentation", "--kind", "trefoil")
    assert code == 0
    assert "gens: a b" in out
    assert "rel:" in out


def test_presentation_json_counts(capsys):
    code, out, _ = run_cli(
        capsys, "presentation", "--kind", "kj", "--j", "2", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["generators"] == 18
    assert report["relators"] == 21
    assert report["schema"] == "knotcover-report/2"


def test_verify_tables_passes_and_notes_small_stages(capsys):
    code, out, _ = run_cli(capsys, "verify-tables", "--j", "1")
    assert code == 0
    assert "image order 2" in out
    assert "note:" in out
    code, out, _ = run_cli(capsys, "verify-tables", "--j", "3")
    assert code == 0
    assert "image order 60" in out
    assert "note:" not in out


def test_check_hom_accepts_the_pinned_assignment(capsys, tmp_path, trefoil_file):
    assign = tmp_path / "assign.txt"
    assign.write_text(GOOD_ASSIGNMENT)
    code, out, _ = run_cli(
        capsys, "check-hom", "--pres", trefoil_file, "--assign", str(assign)
    )
    assert code == 0
    assert "image order 60" in out
    assert "ok" in out


def test_check_hom_reports_each_violation_on_its_own_line(
    capsys, tmp_path, trefoil_file
):
    assign = tmp_path / "assign.txt"
    assign.write_text(BAD_ASSIGNMENT)
    code, out, _ = run_cli(
        capsys, "check-hom", "--pres", trefoil_file, "--assign", str(assign)
    )
    assert code == 1
    violation_lines = [l for l in out.splitlines() if l.startswith("  violated")]
    assert len(violation_lines) == 1
    # names are not part of the DSL, so the file round trip falls back
    # to positional relator names
    assert "relator[0]" in violation_lines[0]
    assert "FAIL" in out


def test_check_hom_rejects_malformed_assignment_file(
    capsys, tmp_path, trefoil_file
):
    assign = tmp_path / "assign.txt"
    assign.write_text("a (1,2,3)\n")
    code, _, err = run_cli(
        capsys, "check-hom", "--pres", trefoil_file, "--assign", str(assign)
    )
    assert code == 2
    assert "expected 'name = cycles'" in err


def test_search_hom_respects_limit(capsys, trefoil_file):
    code, out, _ = run_cli(
        capsys, "search-hom", "--pres", trefoil_file, "--limit", "3", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 3
    assert len(report["assignments"]) == 3


def test_reproduce_sternfeld_error(capsys):
    code, out, _ = run_cli(capsys, "reproduce-sternfeld-error")
    assert code == 0
    assert "mismatch reproduced" in out
    assert "(1,2)(3,5)" in out
    assert "(1,2)(3,4)" in out


def test_cosets_cyclic_mode(capsys, trefoil_file):
    code, out, _ = run_cli(
        capsys, "cosets", "--pres", trefoil_file, "--mode", "cyclic", "--k", "3"
    )
    assert code == 0
    assert "index 3" in out


def test_cosets_kernel_mode(capsys, tmp_path, trefoil_file):
    assign = tmp_path / "assign.txt"
    assign.write_text(GOOD_ASSIGNMENT)
    code, out, _ = run_cli(
        capsys, "cosets", "--pres", trefoil_file, "--mode", "kernel",
        "--assign", str(assign), "--json",
    )
    assert code == 0
    assert json.loads(out)["index"] == 60


def test_cosets_kernel_requires_assignment(capsys, trefoil_file):
    code, _, err = run_cli(
        capsys, "cosets", "--pres", trefoil_file, "--mode", "kernel"
    )
    assert code == 2
    assert "--assign" in err


def test_cosets_subgroup_mode(capsys, tmp_path, trefoil_file):
    words_file = tmp_path / "subgroup.txt"
    words_file.write_text("a a\na b\n")
    code, out, _ = run_cli(
        capsys, "cosets", "--pres", trefoil_file, "--mode", "subgroup",
        "--subgroup", str(words_file),
    )
    assert code == 0
    assert "index 2" in out


def test_abelianize_command(capsys, trefoil_file):
    code, out, _ = run_cli(capsys, "abelianize", "--pres", trefoil_file)
    assert code == 0
    assert out.strip() == "Z"


def test_cover_quotient_routes_agree(capsys):
    code, out, _ = run_cli(capsys, "cover-quotient", "--fold", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 3
    assert report["routes_agree"] is True
    assert report["abelianization"] == {"free_rank": 0, "torsion": [3]}


def test_kernel_homology_command(capsys):
    code, out, _ = run_cli(capsys, "kernel-homology", "--j", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["homology"] == {"free_rank": 1, "torsion": [3]}
    assert report["min_generators"] == 2


def test_kernel_homology_guard_is_an_error_exit(capsys):
    past_cap = str(KERNEL_HOMOLOGY_MAX_STAGES + 1)
    code, out, err = run_cli(capsys, "kernel-homology", "--j", past_cap)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "force" in err


@pytest.mark.parametrize("fold", range(1, 13))
def test_cover_quotient_orders_repeat_with_period_six(capsys, fold):
    expected = [1, 3, 4, 3, 1, None][(fold - 1) % 6]
    code, out, _ = run_cli(capsys, "cover-quotient", "--fold", str(fold), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == report["order_from_abelianization"] == expected
    assert (report["abelianization"]["free_rank"] > 0) == (expected is None)
    assert report["routes_agree"] is (None if expected is None else True)


def test_infinite_cover_quotient_skips_the_enumeration(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("coset enumeration of an infinite group")
    monkeypatch.setattr(cli, "todd_coxeter", refuse)
    code, out, _ = run_cli(capsys, "cover-quotient", "--fold", "6")
    assert code == 0
    assert out.splitlines() == [
        "6-fold cover modulo boundary: order infinite by abelianization Z + Z",
        "coset enumeration skipped",
    ]


def test_rank_bound_command(capsys):
    code, out, _ = run_cli(capsys, "rank-bound", "--m", "102", "--i", "60", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["value"] == "161/60"
    assert report["ceiling"] == 3


def test_run_all_small_passes(capsys):
    code, out, _ = run_cli(
        capsys, "run-all", "--jmax", "1", "--kernel-jmax", "1", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["failed"] == []
    assert report["results"]["sternfeld"]["mismatch"] is True


def test_run_all_rejects_nonpositive_jmax(capsys):
    code, _, err = run_cli(capsys, "run-all", "--jmax", "0")
    assert code == 2
    assert "jmax" in err


def test_run_all_kernel_stages_do_not_depend_on_jmax(capsys):
    code, out, _ = run_cli(capsys, "run-all", "--jmax", "2", "--kernel-jmax", "3")
    assert code == 0
    kernel = [line for line in out.splitlines()
              if line.startswith("kernel homology j=")]
    assert [line.split(":")[0] for line in kernel] == [
        "kernel homology j=1", "kernel homology j=2", "kernel homology j=3",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel-homology", "--j", "0"],
        ["verify-tables", "--j", "0"],
        ["cover-quotient", "--fold", "0"],
        ["rank-bound", "--m", "3", "--i", "0"],
        ["abelianize", "--pres", "{missing}"],
        ["check-hom", "--pres", "{trefoil}", "--assign", "{bad_name}"],
        ["abelianize", "--pres", "{not_utf8}"],
        ["presentation", "--kind", "kj", "--j", "0"],
        ["--cap", "0", "cover-quotient", "--fold", "2"],
        ["search-hom", "--pres", "{trefoil}", "--limit", "0"],
        ["run-all", "--kernel-jmax", "0"],
        ["run-all", "--kernel-jmax", "-1"],
    ],
    ids=["kernel-j0", "tables-j0", "fold0", "index0", "missing-file",
         "bad-generator-name", "not-utf8-file", "presentation-j0", "cap0",
         "limit0", "kernel-jmax0", "kernel-jmax-negative"],
)
def test_bad_input_exits_2_with_one_error_line(capsys, tmp_path, trefoil_file, argv):
    bad_name = tmp_path / "assign.txt"
    bad_name.write_text("A = (1,2)\n")
    not_utf8 = tmp_path / "binary.pres"
    not_utf8.write_bytes(b"\xff")
    paths = {"missing": str(tmp_path / "missing.pres"), "trefoil": trefoil_file,
             "bad_name": str(bad_name), "not_utf8": str(not_utf8)}
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_run_all_json_matches_golden(capsys):
    # the committed report of the default battery; any change to it must be
    # a deliberate schema or claim change
    code, out, _ = run_cli(capsys, "run-all", "--json")
    assert code == 0
    assert out.encode("utf-8") == GOLDEN_RUN_ALL.read_bytes()


def test_run_all_text_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "run-all")
    assert code == 0
    assert out.encode("utf-8") == GOLDEN_RUN_ALL_TEXT.read_bytes()


def test_json_output_is_byte_identical_across_runs(capsys):
    argv = ["run-all", "--jmax", "1", "--kernel-jmax", "1", "--json"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_json_report_reparses_to_an_equal_object(capsys):
    code, out, _ = run_cli(capsys, "verify-tables", "--j", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert json.loads(json.dumps(report, sort_keys=True)) == report


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "knotcover.cli", "rank-bound", "--m", "5", "--i", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "rank >= 3" in result.stdout


@pytest.mark.parametrize("argv", [
    ["cover-quotient", "--fold", "2"],
    ["cover-quotient", "--fold", "2", "--json"],
], ids=["text", "json"])
def test_closed_stdout_keeps_the_exit_code_without_a_traceback(argv):
    # a pipe whose read end is closed before the command writes, which
    # `| head -c 0` only gives when the reader wins the race
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "knotcover.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, "")


# -- the claim registry ------------------------------------------------------

REGISTRY_IDS = [claim for claims, _ in cli.SECTIONS for claim in claims]


def test_readme_claim_table_matches_the_registry():
    section = README.read_text().split("## Claim registry", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `([a-z0-9-]+)` \|", section, flags=re.MULTILINE)
    assert sorted(documented) == sorted(REGISTRY_IDS)


def _kill_first_generator(kj_presentation):
    def corrupted(j):
        p = kj_presentation(j)
        extra = Word(((p.generators[0], 1),))
        return Presentation(p.generators, p.relators + (extra,))
    return corrupted


# For each claim id: a name its section reads in knotcover.cli, and a
# function from the real object to a corrupted stand-in.
CORRUPTIONS = {
    # one table entry changed
    cli.CLAIM_TABLES: ("phi_tables", lambda real: lambda j: real(j).with_value(
        GenSym("e", j), parse_cycles("(1,2,3)"))),
    # the trivial assignment satisfies every relator but has image order 1
    cli.CLAIM_SMALL_STAGE_ORDERS: ("phi_tables", lambda real: lambda j: (
        GenAssignment(dict.fromkeys(real(j).mapping, Perm.identity())))),
    # the sewing word evaluates to the required image
    cli.CLAIM_FRAGMENT_MISMATCH: ("sternfeld_error_repro", lambda real: lambda: (
        SternfeldRepro(real().expected, real().expected))),
    cli.CLAIM_TREFOIL_SURJECTION: ("search_surjections",
                                   lambda real: lambda p, limit: []),
    # the cover of the next fold
    cli.CLAIM_COVER_H1: ("cyclic_cover_table",
                         lambda real: lambda p, k: real(p, k + 1)),
    # enumeration of the whole group: a table of index 1
    cli.CLAIM_BOUNDARY_QUOTIENT: ("todd_coxeter", lambda real: lambda p, gens, cap: (
        real(p, [Word(((g, 1),)) for g in p.generators], cap=cap))),
    # a word off the boundary in place of the longitude
    cli.CLAIM_BOUNDARY_TRANSITIVE: ("TREFOIL_LONGITUDE", lambda real: word("b")),
    # one meridian killed, so H1 is trivial
    cli.CLAIM_KNOT_H1: ("kj_presentation", _kill_first_generator),
    # the stage-1 kernel at every stage count: no growth
    cli.CLAIM_KERNEL_GROWTH: ("kernel_homology",
                              lambda real: lambda j, force=False: real(1)),
}
VACUOUS = {
    cli.CLAIM_BOUNDARY_TRANSITIVE: (
        "cannot fail today: on every cyclic cover the meridian alone acts as "
        "a k-cycle, so the longitude is never tested (ROADMAP item 1)"
    ),
}


@pytest.mark.parametrize("claim", [
    pytest.param(c, marks=pytest.mark.xfail(strict=True, reason=VACUOUS[c]))
    if c in VACUOUS else c
    for c in REGISTRY_IDS
])
def test_corrupted_input_fails_its_claim(monkeypatch, claim):
    name, corrupt = CORRUPTIONS[claim]
    monkeypatch.setattr(cli, name, corrupt(getattr(cli, name)))
    claims, section = next(s for s in cli.SECTIONS if claim in s[0])
    _, failed, lines = section({"jmax": 3, "kernel_jmax": 3, "cap": DEFAULT_COSET_CAP})
    assert claim in failed
    assert set(failed) <= set(claims)
    assert any(line.startswith("FAIL") for line in lines)


@pytest.mark.parametrize("claim", [cli.CLAIM_TREFOIL_SURJECTION,
                                   cli.CLAIM_KERNEL_GROWTH])
def test_run_all_text_names_a_failed_claim(capsys, monkeypatch, claim):
    # these sections print no ok/FAIL mark on their lines, so the claim
    # id is named on a line of its own
    name, corrupt = CORRUPTIONS[claim]
    monkeypatch.setattr(cli, name, corrupt(getattr(cli, name)))
    code, out, _ = run_cli(capsys, "run-all", "--jmax", "3", "--kernel-jmax", "3")
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [f"FAIL {claim}"]
    assert lines[-1] == "status: fail"


def test_run_all_exits_1_when_a_claim_fails(capsys, monkeypatch):
    monkeypatch.setattr(cli, "search_surjections", lambda p, limit: [])
    code, out, _ = run_cli(
        capsys, "run-all", "--jmax", "1", "--kernel-jmax", "1", "--json"
    )
    assert code == 1
    report = json.loads(out)
    assert report["failed"] == [cli.CLAIM_TREFOIL_SURJECTION]
    assert report["status"] == "fail"
