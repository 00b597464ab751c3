"""Tests for the command-line interface: exit codes, text and JSON output."""

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import re
import select
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import pytest

from knotcover import cli, presentations
from knotcover.cli import KERNEL_HOMOLOGY_MAX_STAGES, main
from knotcover.cosets import COSET_CAP, CosetTable
from knotcover.errors import CapacityError
from knotcover.homcheck import GenAssignment, SternfeldRepro, check_relators
from knotcover.perm import Perm, parse_cycles
from knotcover.presentations import (
    STAGE_CAP,
    kj_presentation,
    kjss_presentation,
    staged_presentations,
    trefoil_presentation,
)
from knotcover.subgroups import BOUNDARY_QUOTIENT_MAX_FOLD, AbelianInvariants
from knotcover.words import Presentation, Word, print_presentation, word

README = Path(__file__).parent.parent / "README.md"
DATA = Path(__file__).parent / "data"
GOLDEN_RUN_ALL = Path(__file__).parent / "data" / "run_all.json"
GOLDEN_RUN_ALL_TEXT = Path(__file__).parent / "data" / "run_all.txt"
GOLDEN_RUN_ALL_JMAX8 = Path(__file__).parent / "data" / "run_all_jmax8.json"
GOLDEN_RUN_ALL_JMAX100 = Path(__file__).parent / "data" / "run_all_jmax100.sha256"
GOLDEN_KJSS_J8 = Path(__file__).parent / "data" / "presentation_kjss_j8.json"
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
    assert report["schema"] == "knotcover-report/5"


def test_presentation_json_matches_golden(capsys):
    # every stage renaming and strand identification of Kss_8 as text,
    # through the public checks of the words and the presentation
    code, out, _ = run_cli(
        capsys, "presentation", "--kind", "kjss", "--j", "8", "--json"
    )
    assert code == 0
    assert out.encode("utf-8") == GOLDEN_KJSS_J8.read_bytes()


REPORT_GOLDENS = [
    # H1 past the stage counts that the other tests pin (8)
    ("kernel-homology --j 11", "kernel_homology_j11.json"),
    # meridian^1000 from each of the 1000 cosets of the largest quotient
    ("cover-quotient --fold 1000", "cover_quotient_fold1000.json"),
    # the largest enumeration any claim or workload runs: the trefoil
    # modulo a^5 by the trivial subgroup, index 600
    ("cosets --pres {data}/trefoil_mod_a5.pres --mode subgroup",
     "cosets_trefoil_mod_a5.json"),
    # the two other table builders: the image table of the trefoil group's
    # map onto A5, and its 12-fold cyclic cover
    ("cosets --pres {data}/trefoil.pres --mode kernel "
     "--assign {data}/trefoil_a5.assign", "cosets_trefoil_kernel_a5.json"),
    ("cosets --pres {data}/trefoil.pres --mode cyclic --k 12",
     "cosets_trefoil_cyclic_k12.json"),
    # every surjection onto A5 in the discovery order of A5's closure, so a
    # closure that finds its elements in another order shows here
    ("search-hom --pres {data}/trefoil.pres --limit 1000",
     "search_hom_trefoil.json"),
    # an all-zero row and zeros beside b and 2c reach the elimination
    ("abelianize --pres {data}/zero_sums.pres", "abelianize_zero_sums.json"),
    # the first stage count that meets all five sewing configurations
    ("verify-tables --j 6", "verify_tables_j6.json"),
    ("check-hom --pres {data}/trefoil.pres --assign {data}/trefoil_a5.assign",
     "check_hom_trefoil_a5.json"),
    ("reproduce-sternfeld-error", "reproduce_sternfeld_error.json"),
]


@pytest.mark.parametrize("argv, golden", REPORT_GOLDENS,
                         ids=[g.removesuffix(".json") for _, g in REPORT_GOLDENS])
def test_report_matches_golden(capsys, argv, golden):
    code, out, _ = run_cli(capsys, *(a.format(data=DATA) for a in argv.split()),
                           "--json")
    assert code == 0
    assert out.encode("utf-8") == (DATA / golden).read_bytes()


def test_failing_check_matches_golden(capsys):
    # an assignment onto S5 that breaks both relators of the trefoil
    # modulo a^5: each violation with its value, then the image order
    code, out, _ = run_cli(
        capsys, "check-hom", "--pres", str(DATA / "trefoil_mod_a5.pres"),
        "--assign", str(DATA / "trefoil_mod_a5_s5.assign"))
    assert code == 1
    assert out.encode("utf-8") == (
        DATA / "check_hom_trefoil_mod_a5_s5.txt").read_bytes()


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


def test_kernel_entry_builds_the_image_group_once(monkeypatch):
    # the index comes from the kernel's coset table, not a second closure
    calls = []

    def counted(real):
        def closure(gens):
            calls.append(gens)
            return real(gens)
        return closure

    for name, module in list(sys.modules.items()):
        if name.startswith("knotcover.") and hasattr(module, "closure"):
            monkeypatch.setattr(module, "closure", counted(module.closure))
    entry, _ = cli._kernel_entry(4)
    assert len(calls) == 1
    assert (entry["min_generators"], entry["rank_bound"]) == (142, "67/20")


def _record_kernel_entries(monkeypatch) -> list:
    """Replace ``cli._kernel_entry`` with a stub; return the stage counts it
    is called with."""
    seen = []

    def record(j):
        seen.append(j)
        entry = {"j": j, "rank_bound": "1", "rank_bound_ceiling": 1}
        return entry, AbelianInvariants(free_rank=1)

    monkeypatch.setattr(cli, "_kernel_entry", record)
    return seen


def test_kernel_homology_guard_is_an_error_exit(capsys, monkeypatch):
    assert KERNEL_HOMOLOGY_MAX_STAGES == 25
    seen = _record_kernel_entries(monkeypatch)
    past_cap = str(KERNEL_HOMOLOGY_MAX_STAGES + 1)
    code, out, err = run_cli(capsys, "kernel-homology", "--j", past_cap)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "--force" in err
    assert seen == []


def test_force_computes_past_the_stage_limit(capsys, monkeypatch):
    # the limit is the command's alone: --force hands the stage count on
    seen = _record_kernel_entries(monkeypatch)
    past_cap = str(KERNEL_HOMOLOGY_MAX_STAGES + 1)
    code, _, _ = run_cli(capsys, "kernel-homology", "--j", past_cap, "--force")
    assert (code, seen) == (0, [KERNEL_HOMOLOGY_MAX_STAGES + 1])


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
        capsys, "run-all", "--jmax", "1", "--kernel-jmax", "3", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["failed"] == []
    assert report["results"]["sternfeld"]["mismatch"] is True


def test_run_all_rejects_nonpositive_jmax(capsys):
    code, _, err = run_cli(capsys, "run-all", "--jmax", "0")
    assert code == 2
    assert err == "error: jmax must be at least 1, got 0\n"


def test_run_all_kernel_stages_do_not_depend_on_jmax(capsys):
    code, out, _ = run_cli(capsys, "run-all", "--jmax", "2", "--kernel-jmax", "3")
    assert code == 0
    kernel = [line for line in out.splitlines()
              if line.startswith("kernel homology j=")]
    assert [line.split(":")[0] for line in kernel] == [
        "kernel homology j=1", "kernel homology j=2", "kernel homology j=3",
    ]


def _must_not_run(*args, **kwargs):
    raise AssertionError("kernel homology computed for a rejected input")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["kernel-homology", "--j", "0"], "stage count must be positive"),
        (["verify-tables", "--j", "0"], "stage count must be positive"),
        (["cover-quotient", "--fold", "0"], "fold count must be positive"),
        (["rank-bound", "--m", "3", "--i", "0"], "i >= 1"),
        (["abelianize", "--pres", "{missing}"], "cannot read"),
        (["check-hom", "--pres", "{trefoil}", "--assign", "{bad_name}"],
         "bad generator name 'A'"),
        (["abelianize", "--pres", "{not_utf8}"], "cannot read"),
        (["presentation", "--kind", "kj", "--j", "0"],
         "stage count must be positive"),
        (["search-hom", "--pres", "{trefoil}", "--limit", "0"],
         "limit must be at least 1"),
        (["run-all", "--kernel-jmax", "0"],
         "kernel_jmax must be at least 3, got 0"),
        (["run-all", "--kernel-jmax", "-1"],
         "kernel_jmax must be at least 3, got -1"),
        (["run-all", "--kernel-jmax", "2"],
         "kernel growth is compared from stage count 2 to 3"),
        (["cosets", "--pres", "{trefoil}", "--mode", "subgroup",
          "--subgroup", "{unknown_gen}"], "subgroup.words:2: unknown generator 'c'"),
        (["cosets", "--pres", "{trefoil}", "--mode", "cyclic", "--k", "0"],
         "fold count must be positive, got 0"),
        (["kernel-homology", "--j", "x"], "argument --j: invalid int value"),
        (["kernel-homology"], "the following arguments are required: --j"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["check-hom", "--pres", "{trefoil}", "--assign", "{duplicate}"],
         "duplicate.txt:2: generator 'a' assigned twice"),
        (["presentation", "--kind", "trefoil", "--j", "0"],
         "stage count must be positive, got 0"),
        (["presentation", "--kind", "trefoil", "--j", "-3"],
         "stage count must be positive, got -3"),
        (["check-hom", "--pres", "{trefoil}", "--assign", "{superscript}"],
         "expected point at position 1, got '²'"),
        (["check-hom", "--pres", "{trefoil}", "--assign", "{arabic_indic}"],
         "expected point at position 1, got '١'"),
        (["run-all", "--kernel-jmax", str(KERNEL_HOMOLOGY_MAX_STAGES + 1)],
         "knotcover kernel-homology --j N --force"),
        (["cosets", "--pres", "{trefoil}", "--mode", "subgroup"],
         f"exceeded cap of {COSET_CAP} cosets ({COSET_CAP} defined, "),
        (["cosets", "--pres", "{trefoil}", "--mode", "subgroup",
          "--subgroup", "{bad_syllable}"],
         "bad_syllable.words:2: bad syllable 'b^2': only ^-1 is allowed"),
        (["check-hom", "--pres", "{trefoil}", "--assign", "{unclosed}"],
         "unclosed.txt:2: expected ',' or ')' at position 4, got 'end of input'"),
        (["check-hom", "--pres", "{trefoil}", "--assign", "{bad_name_line2}"],
         "bad_name_line2.txt:2: bad generator name 'B'"),
        (["check-hom", "--pres", "{bad_pres}", "--assign", "{bad_name}"],
         "bad.pres: line 2, col 8: unknown generator 'x'"),
        (["cover-quotient", "--fold", str(BOUNDARY_QUOTIENT_MAX_FOLD + 1)],
         f"fold {BOUNDARY_QUOTIENT_MAX_FOLD + 1} exceeds the limit "
         f"{BOUNDARY_QUOTIENT_MAX_FOLD}"),
        (["cosets", "--pres", "{trefoil}", "--mode", "cyclic",
          "--k", str(COSET_CAP + 1)],
         f"fold {COSET_CAP + 1} exceeds the coset cap {COSET_CAP}"),
        (["run-all", "--cap", "5000"], "unrecognized arguments: --cap 5000"),
        (["check-hom", "--pres", "{trefoil}", "--assign", "{unknown_assigned}"],
         "unknown_assigned.txt:3: unknown generator 'z'"),
        # the name is checked before its cycle text is parsed
        (["check-hom", "--pres", "{trefoil}", "--assign", "{unknown_unclosed}"],
         "unknown_unclosed.assign:1: unknown generator 'z'"),
        (["cosets", "--pres", "{trefoil}", "--mode", "kernel",
          "--assign", "{unknown_assigned}"],
         "unknown_assigned.txt:3: unknown generator 'z'"),
        (["cosets", "--pres", "{no_generators}", "--mode", "cyclic", "--k", "3"],
         "the presentation has no generators, so the cyclic cover is not "
         "defined"),
        (["check-hom", "--pres", "{trefoil}", "--assign", "{trailing_comma}"],
         "trailing_comma.assign:1: expected point at position 5, got ')'"),
        (["cosets", "--pres", "{trefoil}", "--mode", "cyclic"],
         "--mode cyclic requires --k K"),
        # a subgroup word is checked token by token, before free reduction
        (["cosets", "--pres", "{trefoil_mod_a5}", "--mode", "subgroup",
          "--subgroup", "{cancelling_unknown}"],
         "cancelling_unknown.words:1: unknown generator 'c'"),
        (["cosets", "--pres", "{trefoil_mod_a5}", "--mode", "subgroup",
          "--subgroup", "{unknown_then_bad}"],
         "unknown_then_bad.words:1: unknown generator 'c'"),
        # only "()" spells the identity; a blank image is refused
        (["check-hom", "--pres", "{trefoil}", "--assign", "{blank_image}"],
         "blank_image.assign:1: empty cycle expression"),
        # each cosets mode refuses the options only the other modes read
        (["cosets", "--pres", "{trefoil}", "--mode", "cyclic", "--k", "3",
          "--assign", "{trefoil_a5}"], "--mode cyclic does not read --assign"),
        (["cosets", "--pres", "{trefoil}", "--mode", "subgroup", "--k", "3"],
         "--mode subgroup does not read --k"),
        (["cosets", "--pres", "{trefoil}", "--mode", "kernel",
          "--assign", "{trefoil_a5}", "--subgroup", "{unknown_gen}"],
         "--mode kernel does not read --subgroup"),
        # every stage count has the one cap
        (["presentation", "--kind", "kj", "--j", str(STAGE_CAP + 1)],
         f"stage count {STAGE_CAP + 1} exceeds the stage cap {STAGE_CAP}"),
        (["verify-tables", "--j", str(STAGE_CAP + 1)],
         f"stage count {STAGE_CAP + 1} exceeds the stage cap {STAGE_CAP}"),
        (["run-all", "--jmax", str(STAGE_CAP + 1)],
         f"stage count {STAGE_CAP + 1} exceeds the stage cap {STAGE_CAP}"),
        (["kernel-homology", "--j", str(STAGE_CAP + 1), "--force"],
         f"stage count {STAGE_CAP + 1} exceeds the stage cap {STAGE_CAP}"),
    ],
    ids=["kernel-j0", "tables-j0", "fold0", "index0", "missing-file",
         "bad-generator-name", "not-utf8-file", "presentation-j0",
         "limit0", "kernel-jmax0", "kernel-jmax-negative", "kernel-jmax2",
         "subgroup-unknown-generator", "cyclic-k0", "usage-bad-int",
         "usage-missing-required", "usage-unknown-subcommand",
         "duplicate-assignment", "presentation-trefoil-j0",
         "presentation-trefoil-j-negative", "superscript-digit",
         "arabic-indic-digit", "kernel-jmax-above-limit", "cap-reached",
         "subgroup-bad-syllable", "assignment-unclosed-cycle",
         "assignment-bad-name-located", "presentation-error-names-its-file",
         "fold-above-limit", "cyclic-fold-above-cap", "cap-option-retired",
         "assignment-unknown-generator", "assignment-name-before-cycles",
         "kernel-cosets-unknown-generator",
         "cyclic-cover-no-generators", "assignment-trailing-comma",
         "cyclic-without-k", "subgroup-cancelling-unknown-generator",
         "subgroup-first-bad-token", "assignment-blank-image",
         "cyclic-refuses-assign", "subgroup-refuses-k",
         "kernel-refuses-subgroup", "presentation-above-stage-cap",
         "tables-above-stage-cap", "jmax-above-stage-cap",
         "forced-kernel-above-stage-cap"],
)
def test_bad_input_exits_2_with_one_error_line(capsys, monkeypatch, tmp_path,
                                               trefoil_file, argv, message):
    if argv[0] == "run-all":
        # bad run-all inputs are refused before any section runs
        monkeypatch.setattr(cli, "kernel_cover", _must_not_run)
    bad_name = tmp_path / "assign.txt"
    bad_name.write_text("A = (1,2)\n")
    duplicate = tmp_path / "duplicate.txt"
    duplicate.write_text("a = (1,2,3)\na = (1,3,5,4,2)\nb = (1,2,3,4,5)\n")
    not_utf8 = tmp_path / "binary.pres"
    not_utf8.write_bytes(b"\xff")
    unknown_gen = tmp_path / "subgroup.words"
    unknown_gen.write_text("a b\na c\n")
    bad_syllable = tmp_path / "bad_syllable.words"
    bad_syllable.write_text("a\na b^2\n")
    superscript = tmp_path / "superscript.txt"
    superscript.write_text("a = (²,1)\nb = (1,2,3,4,5)\n", encoding="utf-8")
    arabic_indic = tmp_path / "arabic_indic.txt"
    arabic_indic.write_text("a = (١,2)\nb = (1,2,3,4,5)\n", encoding="utf-8")
    unclosed = tmp_path / "unclosed.txt"
    unclosed.write_text("a = (1,3,5,4,2)\nb = (1,2\n")
    bad_name_line2 = tmp_path / "bad_name_line2.txt"
    bad_name_line2.write_text("a = (1,3,5,4,2)\nB = (1,2)\n")
    bad_pres = tmp_path / "bad.pres"
    bad_pres.write_text("gens: a b\nrel: a x\n")
    unknown_then_bad = tmp_path / "unknown_then_bad.words"
    unknown_then_bad.write_text("c b^2\n")
    unknown_assigned = tmp_path / "unknown_assigned.txt"
    unknown_assigned.write_text("a = (1,3,5,4,2)\nb = (1,2,3,4,5)\nz = (1,2)\n")
    paths = {"missing": str(tmp_path / "missing.pres"), "trefoil": trefoil_file,
             "bad_name": str(bad_name), "not_utf8": str(not_utf8),
             "unknown_gen": str(unknown_gen), "duplicate": str(duplicate),
             "superscript": str(superscript), "arabic_indic": str(arabic_indic),
             "bad_syllable": str(bad_syllable), "unclosed": str(unclosed),
             "bad_name_line2": str(bad_name_line2), "bad_pres": str(bad_pres),
             "unknown_assigned": str(unknown_assigned),
             "no_generators": str(DATA / "no_generators.pres"),
             "trailing_comma": str(DATA / "trailing_comma.assign"),
             "unknown_unclosed": str(DATA / "unknown_unclosed.assign"),
             "trefoil_mod_a5": str(DATA / "trefoil_mod_a5.pres"),
             "cancelling_unknown": str(DATA / "cancelling_unknown.words"),
             "blank_image": str(DATA / "blank_image.assign"),
             "trefoil_a5": str(DATA / "trefoil_a5.assign"),
             "unknown_then_bad": str(unknown_then_bad)}
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as e:
        main(["kernel-homology", "--help"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: knotcover kernel-homology")


def _set_cpus(monkeypatch, n: int) -> None:
    """Make the CPUs this process may use look like n."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


@pytest.fixture(params=["own-cpus", "one-cpu"])
def cpus(request, monkeypatch):
    """Run-all spread over the machine's CPUs, or on one, in this process."""
    if request.param == "one-cpu":
        _set_cpus(monkeypatch, 1)


@pytest.mark.parametrize("argv,golden", [
    pytest.param([], GOLDEN_RUN_ALL, id="default"),
    # stage counts to 8 meet all five sewing configurations and two
    # periods of the staged boundary counts, which the default does not
    pytest.param(["--jmax", "8"], GOLDEN_RUN_ALL_JMAX8, id="jmax8"),
])
def test_run_all_json_matches_golden(capsys, cpus, argv, golden):
    # the committed reports of the battery; any change to them must be
    # a deliberate schema or claim change
    code, out, _ = run_cli(capsys, "run-all", *argv, "--json")
    assert code == 0
    assert out.encode("utf-8") == golden.read_bytes()


def test_run_all_text_matches_golden(capsys, cpus):
    code, out, _ = run_cli(capsys, "run-all")
    assert code == 0
    assert out.encode("utf-8") == GOLDEN_RUN_ALL_TEXT.read_bytes()


def test_run_all_at_the_stage_cap_matches_its_digest(capsys):
    # the tables and every staged boundary torus at each stage count up to
    # STAGE_CAP; the report is pinned by its sha256, as `sha256sum` prints it
    code, out, _ = run_cli(capsys, "run-all", "--jmax", str(STAGE_CAP), "--json")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_RUN_ALL_JMAX100.read_text().split()[0]


def test_library_defaults_equal_the_cli_defaults(cpus):
    # run_all and the parser each write the defaults; only the parser's
    # are compared with the goldens above
    assert cli.run_all() == json.loads(GOLDEN_RUN_ALL.read_text())
    assert cli.run_all(jmax=8) == json.loads(GOLDEN_RUN_ALL_JMAX8.read_text())


def _registry_entry(claim: str) -> tuple:
    """The registry entry whose section gives a verdict on ``claim``."""
    return next(entry for entry in cli.SECTIONS if claim in entry[0])


def _run_entry(entry: tuple, inputs: dict) -> tuple:
    """A registry entry's section, its tasks run one after another here."""
    _, tasks, section = entry
    return section(inputs, {key: task() for key, task in tasks(inputs).items()})


def test_the_kernel_section_equals_the_kernel_part_of_run_all(cpus):
    # run one after another here, the entry's tasks give the section what
    # run-all's tasks give it
    fragment, verdicts, lines = _run_entry(
        _registry_entry(cli.CLAIM_KERNEL_GROWTH), {"jmax": 3, "kernel_jmax": 4})
    report, report_lines = cli._run_sections(jmax=3, kernel_jmax=4)
    assert fragment == {key: report["results"][key] for key in fragment}
    assert verdicts == {
        cli.CLAIM_KERNEL_GROWTH: cli.CLAIM_KERNEL_GROWTH not in report["failed"]}
    assert lines == [line for line in report_lines
                     if line.startswith("kernel homology ")]


def test_run_all_calls_the_registered_kernel_section_once(monkeypatch, cpus):
    # the registry alone says how the section runs: the substitute entry
    # is the only patch.  The section reads each stage count's entry from
    # run-all's tasks, and calling it computes nothing in this process
    computed, calls = [], []

    def counted(task):
        computed.append(task)
        return task()

    def tasks(inputs):
        return {j: partial(counted, task)
                for j, task in real_tasks(inputs).items()}

    def section(inputs, results):
        calls.append((inputs, results, len(computed)))
        return real_section(inputs, results)

    kernel = _registry_entry(cli.CLAIM_KERNEL_GROWTH)
    claims, real_tasks, real_section = kernel
    monkeypatch.setattr(cli, "SECTIONS", tuple(
        (claims, tasks, section) if entry is kernel else entry
        for entry in cli.SECTIONS))
    report, _ = cli._run_sections(**SMALL_INPUTS)
    [(inputs, results, before)] = calls
    assert inputs == SMALL_INPUTS and sorted(results) == [1, 2, 3]
    # each stage count is computed at most once here, none once the
    # section is called
    assert before == len(computed) <= 3
    assert [results[j][0] for j in (1, 2, 3)] == report["results"][
        "kernel_homology"] == [cli._kernel_entry(j)[0] for j in (1, 2, 3)]


def _spy_run_tasks(monkeypatch) -> list:
    """Wrap ``cli._run_tasks``; return a list of (tasks, outcomes), one per
    call."""
    seen = []

    def spy(tasks):
        seen.append((tasks, real(tasks)))
        return seen[-1][1]

    real = cli._run_tasks
    monkeypatch.setattr(cli, "_run_tasks", spy)
    return seen


@pytest.mark.parametrize("n", [1, 2], ids=["one-cpu", "two-cpus"])
def test_run_all_pulls_the_kernel_stage_counts_first_largest_first(monkeypatch, n):
    # the largest stage count takes about as long as every other task
    # together, so run-all's run time rests on its being pulled first
    _set_cpus(monkeypatch, n)
    seen = _spy_run_tasks(monkeypatch)
    report, _ = cli._run_sections(jmax=1, kernel_jmax=4)
    assert report["status"] == "pass"
    kernel = cli.SECTIONS.index(_registry_entry(cli.CLAIM_KERNEL_GROWTH))
    one_task = [m for m in range(len(cli.SECTIONS)) if m != kernel]
    [(tasks, _)] = seen
    assert list(tasks) == [(kernel, j) for j in (4, 3, 2, 1)] + [
        (m, 0) for m in one_task]


@pytest.mark.parametrize("n", [1, 2], ids=["one-cpu", "two-cpus"])
def test_an_entry_gets_the_results_of_exactly_the_tasks_it_names(monkeypatch, n):
    # a substitute registry of one entry whose section names two tasks
    _set_cpus(monkeypatch, n)
    computed, calls = [], []

    def task(key):
        computed.append(key)
        return key, os.getpid()

    def tasks(inputs):
        return {key: partial(task, key) for key in ("first", "second")}

    def section(inputs, results):
        calls.append((inputs, results, len(computed)))
        return {"two_tasks": sorted(results)}, {"two-tasks": True}, ["two tasks"]

    monkeypatch.setattr(cli, "SECTIONS", ((("two-tasks",), tasks, section),))
    seen = _spy_run_tasks(monkeypatch)
    report, lines = cli._run_sections(**SMALL_INPUTS)
    [(_, outcomes)] = seen
    [(inputs, results, before)] = calls
    assert inputs == SMALL_INPUTS
    assert sorted(results) == ["first", "second"]
    assert all(results[key][0] == key for key in results)
    # the very objects `_run_tasks` returned, and no task run again
    assert sorted(map(id, results.values())) == sorted(
        id(value) for ok, value in outcomes.values() if ok)
    assert len(outcomes) == 2 and len(computed) == before
    assert report["results"] == {"two_tasks": ["first", "second"]}
    assert (report["failed"], lines) == ([], ["two tasks", "status: pass"])


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def gates():
    """A pipe per stage count 2 and 3, for ``_meet``."""
    pipes = {j: os.pipe() for j in (2, 3)}
    yield pipes
    for fd in (fd for pair in pipes.values() for fd in pair):
        os.close(fd)


def _meet(gates, j):
    """Wait, at most 10 s, until the task of the other stage count has
    started; with two processes the two tasks then run one in each."""
    os.write(gates[j][1], b".")
    select.select([gates[5 - j][0]], [], [], 10)


def test_an_error_in_a_child_reaches_the_caller(monkeypatch, gates):
    # stage counts 3 and 2 are pulled first; the child's one raises
    _set_cpus(monkeypatch, 2)
    parent = os.getpid()
    real = cli._kernel_entry

    def entry(j):
        if j in gates:
            _meet(gates, j)
            if os.getpid() != parent:
                raise CapacityError(f"stage count {j} in a child")
        return real(j)

    monkeypatch.setattr(cli, "_kernel_entry", entry)
    with pytest.raises(CapacityError, match=r"^stage count [23] in a child$"):
        cli.run_all(jmax=1, kernel_jmax=3)
    _assert_no_child_left()


def test_a_child_result_that_cannot_be_pickled_is_computed_here(monkeypatch, gates):
    _set_cpus(monkeypatch, 2)

    def lock(j):
        _meet(gates, j)
        return threading.Lock()

    outcomes = cli._run_tasks({j: partial(lock, j) for j in gates})
    assert sorted(outcomes) == [2, 3]
    assert all(ok and hasattr(value, "acquire") for ok, value in outcomes.values())
    _assert_no_child_left()


def test_an_interrupt_kills_and_reaps_the_children(monkeypatch, gates):
    _set_cpus(monkeypatch, 2)
    parent = os.getpid()

    def task(j):
        _meet(gates, j)
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli._run_tasks({j: partial(task, j) for j in gates})
    assert time.monotonic() - start < 30
    _assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="lists open file descriptors from /proc")
def test_more_than_256_tasks_are_refused_before_a_pipe_opens(monkeypatch):
    # the task pipe carries each index as one byte, so a 257th task is
    # refused before the pipe opens: no task runs and no fd is left open
    _set_cpus(monkeypatch, 2)
    ran = []
    open_fds = set(os.listdir("/proc/self/fd"))
    with pytest.raises(ValueError, match="^at most 256 tasks, got 257$"):
        cli._run_tasks({i: partial(ran.append, i) for i in range(257)})
    assert set(os.listdir("/proc/self/fd")) == open_fds
    assert ran == []
    _assert_no_child_left()


def test_run_all_raises_the_error_met_first_in_registry_order(monkeypatch, cpus):
    # the surjection section comes before the kernel section, whose largest
    # stage count is pulled first
    def refuse(what):
        def raises(*args, **kwargs):
            raise CapacityError(what)
        return raises

    monkeypatch.setattr(cli, "search_surjections", refuse("search"))
    monkeypatch.setattr(cli, "_kernel_entry", refuse("kernel"))
    with pytest.raises(CapacityError, match="^search$"):
        cli.run_all()
    _assert_no_child_left()


def test_run_all_forks_no_child_while_a_second_thread_runs(monkeypatch):
    _set_cpus(monkeypatch, 2)

    def children_user() -> float:
        return os.times().children_user

    # the control: with one thread the child's time is counted once reaped
    before = children_user()
    cli.run_all()
    assert children_user() > before
    _assert_no_child_left()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        before = children_user()
        assert cli.run_all()["status"] == "pass"
        assert children_user() == before
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()


def test_a_failed_fork_runs_every_task_here(monkeypatch):
    # out of processes: the child's pipe is closed and its tasks run here
    _set_cpus(monkeypatch, 2)
    forks = []

    def fork():
        forks.append(1)
        raise OSError("no more processes")

    monkeypatch.setattr(cli.os, "fork", fork)
    fds = sorted(os.listdir("/proc/self/fd"))
    assert cli.run_all() == json.loads(GOLDEN_RUN_ALL.read_text())
    assert forks == [1]
    _assert_no_child_left()
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_json_output_is_byte_identical_across_runs(capsys):
    argv = ["run-all", "--jmax", "1", "--kernel-jmax", "3", "--json"]
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

REGISTRY_IDS = [claim for claims, _, _ in cli.SECTIONS for claim in claims]


def test_readme_claim_table_matches_the_registry():
    section = README.read_text().split("## Claim registry", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `([a-z0-9-]+)` \|", section, flags=re.MULTILINE)
    assert sorted(documented) == sorted(REGISTRY_IDS)


def test_readme_subcommand_table_matches_the_parser():
    section = README.read_text().split("## Subcommands", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `([a-z0-9-]+)` \|", section, flags=re.MULTILINE)
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert sorted(documented) == sorted(subparsers.choices)


def test_readme_library_example_runs():
    # the documented API: a deletion that breaks the example fails here
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "import" in code
    exec(compile(code, "README.md", "exec"), {})


def _parser_options(parser: argparse.ArgumentParser) -> set[str]:
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _parser_options(sub)
    return options


def test_readme_names_only_real_options():
    # a retired option must leave README too; the install and benchmark
    # commands pass options to other programs
    text = "\n".join(line for line in README.read_text().splitlines()
                     if "pip install" not in line and "bench/run.py" not in line)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    assert named and named <= _parser_options(cli.build_parser()), sorted(named)


def test_readme_names_only_real_code():
    # `module.name` and `CosetTable.name` must resolve and `name.py` must
    # be a module file; paths such as bench/... and the quoted error
    # messages are none of the three
    package = Path(cli.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    kinds = set()
    for ref in re.findall(r"`([^`\s]+)`", README.read_text()):
        if re.fullmatch(r"\w+\.py", ref):
            assert (package / ref).is_file(), ref
            kinds.add("file")
            continue
        m = re.fullmatch(r"(\w+)\.(\w+)(?:\(.*\))?", ref)
        if m and m[1] in modules:
            module = importlib.import_module(f"knotcover.{m[1]}")
            assert hasattr(module, m[2]), ref
            kinds.add("module")
        elif m and m[1] == "CosetTable":
            assert hasattr(CosetTable, m[2]), ref
            kinds.add("class")
    assert kinds == {"file", "module", "class"}


def test_readme_quick_start_transcript(capsys):
    # each "$ knotcover ..." command with the lines printed under it; the
    # run-all block elides its middle, so only its last line is compared
    section = README.read_text().split("## Quick start", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    for chunk in block.strip().split("\n\n"):
        command, *expected = chunk.splitlines()
        assert command.startswith("$ knotcover ")
        assert main(command.split()[2:]) == 0
        out = capsys.readouterr().out.splitlines()
        if "..." in expected:
            assert out[-1] == expected[-1]
        else:
            assert out == expected, command


def test_readme_word_example_parses():
    example = re.search(r"syllables like `([^`]+)`", README.read_text()).group(1)
    assert str(word(example)) == example


def _kill_first_generator(kj_presentation):
    def corrupted(j):
        p = kj_presentation(j)
        extra = Word(((p.generators[0], 1),))
        # unnamed: relator[i] names each relator by its position
        return Presentation(p.generators, p.relators + (extra,))
    return corrupted


def _corrupt_e(real):
    # one table entry changed
    return lambda j: GenAssignment(
        {**real(j).mapping, f"e{j}": parse_cycles("(1,2,3)")})


# For each claim id: a name its section reads in knotcover.cli, and a
# function from the real object to a corrupted stand-in.
CORRUPTIONS = {
    cli.CLAIM_TABLES: ("phi_tables", _corrupt_e),
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
    cli.CLAIM_BOUNDARY_QUOTIENT: ("todd_coxeter", lambda real: lambda p: (
        real(p, [Word(((g, 1),)) for g in p.generators]))),
    # a word off the boundary in place of the longitude
    cli.CLAIM_BOUNDARY_COMPONENTS: ("TREFOIL_LONGITUDE", lambda real: word("b")),
    # one meridian killed, so H1 is trivial
    cli.CLAIM_KNOT_H1: ("kj_presentation", _kill_first_generator),
    # the stage-1 kernel entry at every stage count: no growth (the entry,
    # not kernel_cover, which the boundary section reads as well)
    cli.CLAIM_KERNEL_GROWTH: ("_kernel_entry",
                              lambda real: lambda j: real(1)),
}


SMALL_INPUTS = {"jmax": 3, "kernel_jmax": 3}


def test_each_section_gives_a_verdict_for_exactly_its_claims():
    for entry in cli.SECTIONS:
        claims = entry[0]
        _, verdicts, _ = _run_entry(entry, SMALL_INPUTS)
        assert sorted(verdicts) == sorted(claims), claims
        # the uncorrupted inputs: every claim holds
        assert all(v is True for v in verdicts.values()), claims


def _swap_stage_pairing(real):
    # (alpha, gamma) and (beta, delta) in place of the two tori
    def swapped(l):
        (alpha, beta), (gamma, delta) = real(l)
        return (alpha, gamma), (beta, delta)
    return swapped


def _assert_corruption_fails(monkeypatch, claim, name, corrupt):
    monkeypatch.setattr(cli, name, corrupt(getattr(cli, name)))
    entry = _registry_entry(claim)
    claims = entry[0]
    _, verdicts, _ = _run_entry(entry, SMALL_INPUTS)
    assert verdicts[claim] is False
    # the runner, not the section, names the failure
    report, lines = cli._run_sections(**SMALL_INPUTS)
    assert claim in report["failed"]
    assert set(report["failed"]) <= set(claims)
    assert sorted(line for line in lines if line.startswith("FAIL ")
                  and line[len("FAIL "):] in REGISTRY_IDS) == [
        f"FAIL {c}" for c in report["failed"]]
    assert lines[-1] == "status: fail"


@pytest.mark.parametrize("claim", REGISTRY_IDS)
def test_corrupted_input_fails_its_claim(monkeypatch, claim):
    _assert_corruption_fails(monkeypatch, claim, *CORRUPTIONS[claim])


def test_swapped_stage_pairing_fails_the_boundary_claim(monkeypatch):
    # a second control, for the staged kernels the longitude never reaches
    _assert_corruption_fails(monkeypatch, cli.CLAIM_BOUNDARY_COMPONENTS,
                             "stage_boundary_words", _swap_stage_pairing)


def test_torus_orbits_tell_commuting_curves_apart():
    t = cli.kernel_coset_table(trefoil_presentation(), cli.TREFOIL_A5)
    torus = (cli.TREFOIL_MERIDIAN, cli.TREFOIL_LONGITUDE)
    assert cli._torus_orbits(t, torus) == (12, True)
    # the generators, two 5-cycles that generate A5, do not commute
    assert cli._torus_orbits(t, (word("a"), word("b"))) == (1, False)


def test_boundary_counts_reach_past_the_kernel_stage_limit():
    # the section builds kernel tables only, not their homology, so the
    # homology's stage limit does not bound --jmax
    j = KERNEL_HOMOLOGY_MAX_STAGES + 1
    assert cli.kernel_cover(j)[1].index == 60
    fragment, verdicts, _ = cli._boundary_section({"jmax": j})
    assert verdicts == {cli.CLAIM_BOUNDARY_COMPONENTS: True}
    assert fragment["boundary_components"]["staged_kernels"][-1]["j"] == j


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_plain_violations_match_a_check_of_the_plain_presentation(monkeypatch, j):
    # the tables entry reads K_j's violations off one check of Kss_j; the
    # old route, a second check of K_j itself, is the oracle
    real = cli.phi_tables

    def corrupted(n):
        return GenAssignment({**real(n).mapping, "a1": parse_cycles("(1,2,4)"),
                              f"e{n}": parse_cycles("(1,2)")})

    monkeypatch.setattr(cli, "phi_tables", corrupted)
    entry = cli._check_tables_at(j)[0]
    plain = check_relators(kj_presentation(j), corrupted(j))
    identified = check_relators(kjss_presentation(j), corrupted(j))
    assert plain.violations
    # a1 no longer equals b1, so a strand relator fails as well
    assert len(identified.violations) > len(plain.violations)
    assert entry["violations_plain"] == [v.name for v in plain.violations]
    assert entry["violations_identified"] == [
        v.name for v in identified.violations]
    assert not entry["ok"]


def test_each_tables_violation_is_listed_and_counted_once(monkeypatch, capsys):
    corrupted = _corrupt_e(cli.phi_tables)
    monkeypatch.setattr(cli, "phi_tables", corrupted)
    expected = [v.name for v in check_relators(
        kjss_presentation(2), corrupted(2)).violations]
    assert len(expected) == len(set(expected)) == 4
    code, out, _ = run_cli(capsys, "verify-tables", "--j", "2")
    assert code == 1
    assert [line.split(":")[0].split()[-1] for line in out.splitlines()
            if line.startswith("  violated")] == expected
    _, _, lines = cli._tables_section({"jmax": 2})
    start = next(k for k, line in enumerate(lines) if "tables j=2" in line)
    assert lines[start].startswith("FAIL tables j=2: 4 violations")
    assert lines[start + 1:] == [f"  violated {name}" for name in expected]


def test_tables_check_reads_unnamed_relators(monkeypatch):
    # relator_names[i] names an unnamed relator by its position, and Kss_j's
    # relators start with K_j's, so the positions agree
    def unnamed(j):
        return tuple(Presentation(p.generators, p.relators)
                     for p in staged_presentations(j))

    monkeypatch.setattr(cli, "staged_presentations", unnamed)
    entry = cli._check_tables_at(3)[0]
    assert entry["ok"] and entry["violations_plain"] == []
    corrupted = _corrupt_e(cli.phi_tables)
    monkeypatch.setattr(cli, "phi_tables", corrupted)
    entry = cli._check_tables_at(3)[0]
    plain = check_relators(unnamed(3)[0], corrupted(3)).violations
    assert plain
    assert entry["violations_plain"] == [v.name for v in plain]
    assert entry["violations_plain"][0].startswith("relator[")
    assert not entry["ok"]


def test_tables_check_builds_the_plain_presentation_once(monkeypatch):
    # one K_j per check, by either name it is imported under; Kss_j is
    # built from it
    calls = []

    def spy(j):
        calls.append(j)
        return real(j)

    real = presentations.kj_presentation
    monkeypatch.setattr(presentations, "kj_presentation", spy)
    monkeypatch.setattr(cli, "kj_presentation", spy)
    cli._check_tables_at(3)
    assert calls == [3]


def test_boundary_section_builds_each_stage_tori_once(monkeypatch):
    calls = []

    def spy(l):
        calls.append(l)
        return real(l)

    real = cli.stage_boundary_words
    monkeypatch.setattr(cli, "stage_boundary_words", spy)
    _, verdicts, _ = cli._boundary_section({"jmax": 5})
    assert verdicts == {cli.CLAIM_BOUNDARY_COMPONENTS: True}
    assert sorted(calls) == [1, 2, 3, 4, 5]


def test_kernel_growth_fails_when_only_the_bounds_stop_growing(monkeypatch):
    # the stage-3 bound taken at index 1 is 102, above stage 4's 67/20,
    # while the generator counts still grow
    real = cli.schreier_rank_bound
    monkeypatch.setattr(cli, "schreier_rank_bound",
                        lambda m, i: real(m, 1 if m == 102 else i))
    fragment, verdicts, _ = _run_entry(
        _registry_entry(cli.CLAIM_KERNEL_GROWTH), {"jmax": 1, "kernel_jmax": 4})
    assert [k["rank_bound"] for k in fragment["kernel_homology"]][2:] == [
        "102", "67/20"]
    assert verdicts == {cli.CLAIM_KERNEL_GROWTH: False}


@pytest.mark.parametrize("claim", [cli.CLAIM_TREFOIL_SURJECTION,
                                   cli.CLAIM_KERNEL_GROWTH])
def test_run_all_text_names_a_failed_claim(capsys, monkeypatch, claim):
    # these sections print no ok/FAIL mark on their lines, so the claim id
    # line the runner adds is the only FAIL line
    name, corrupt = CORRUPTIONS[claim]
    monkeypatch.setattr(cli, name, corrupt(getattr(cli, name)))
    code, out, _ = run_cli(capsys, "run-all", "--jmax", "3", "--kernel-jmax", "3")
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [f"FAIL {claim}"]
    assert lines[-1] == "status: fail"


def test_trefoil_claim_reads_the_onto_a5_flag(monkeypatch):
    # a report of order 60 that is not onto A5 fails the claim: the section
    # reads check_relators' verdict, not the image order
    real = cli.check_relators
    monkeypatch.setattr(cli, "check_relators", lambda p, a: dataclasses.replace(
        real(p, a), surjective_onto_a5=False))
    fragment, verdicts, _ = _run_entry(
        _registry_entry(cli.CLAIM_TREFOIL_SURJECTION), SMALL_INPUTS)
    assert fragment["trefoil_surjection"]["image_order"] == 60
    assert verdicts == {cli.CLAIM_TREFOIL_SURJECTION: False}


def test_run_all_exits_1_when_a_claim_fails(capsys, monkeypatch):
    monkeypatch.setattr(cli, "search_surjections", lambda p, limit: [])
    code, out, _ = run_cli(
        capsys, "run-all", "--jmax", "1", "--kernel-jmax", "3", "--json"
    )
    assert code == 1
    report = json.loads(out)
    assert report["failed"] == [cli.CLAIM_TREFOIL_SURJECTION]
    assert report["status"] == "fail"
