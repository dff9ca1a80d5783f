"""End-to-end runs of the command line front end, all in-process.

Exit code contract: 0 holds / success, 1 legitimate failure or refusal,
2 malformed input, 3 a stored record that no longer replays.
"""

import contextlib
import copy
import functools
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelab.cli import main
from latticelab.convergence import (
    FamilyMetadata,
    SampledPolicy,
    SequenceFamily,
    check_buo_cauchy,
    check_order_convergence,
    truncation_family,
)
from latticelab.config import CheckConfig
from latticelab.core import Carrier, LatticeElement, SpaceTag, Tail
from latticelab.counterexamples import build_refinement
from latticelab.serialize import (
    canonical_json,
    family_to_json,
    load_family,
    sha256_of,
    space_to_json,
    verdict_to_json,
    write_json,
)

CAR3 = Carrier.index_set(3)


def el(vals, tail=None):
    return LatticeElement(CAR3, np.asarray(vals, dtype=np.float64),
                          tail or Tail.zero())


def halving_family(limit=True):
    members = [el([2.0 ** -n, 0.0, 1.0]) for n in range(1, 25)]
    meta = FamilyMetadata(
        common_bound=el([1.0, 1.0, 1.0], Tail.constant(1.0)),
        space_tag=SpaceTag.linf(), growth="bounded",
        limit=el([0.0, 0.0, 1.0]) if limit else None)
    return SequenceFamily(members=members, metadata=meta)


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "fam.json"
    write_json(path, family_to_json(halving_family()))
    return path


def test_importing_the_cli_loads_neither_mpmath_nor_a_thread_pool():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, latticelab.cli; "
            "print(sorted({'mpmath', 'concurrent.futures'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# check


def test_check_order_holds(family_file, tmp_path, capsys):
    out = tmp_path / "report"
    code = main(["check", "--family", str(family_file), "--mode", "order",
                 "--tolerance", "1e-6", "--out", str(out)])
    assert code == 0
    assert "order: holds" in capsys.readouterr().out
    doc = json.loads((out / "check_report.json").read_text())
    assert doc["outcome"] == "holds"
    assert doc["provenance"]["args"]["mode"] == "order"
    assert "timestamp" not in json.dumps(doc)


def test_check_report_matches_the_in_memory_verdict(family_file, tmp_path):
    out = tmp_path / "report"
    main(["check", "--family", str(family_file), "--mode", "order",
          "--tolerance", "1e-6", "--out", str(out)])
    doc = json.loads((out / "check_report.json").read_text())
    doc.pop("provenance")
    fam = load_family(family_file)
    verdict = check_order_convergence(fam, fam.metadata.limit,
                                      CheckConfig(tolerance=1e-6))
    assert doc == json.loads(canonical_json(verdict_to_json(verdict)))


def test_check_reports_are_byte_identical_across_reruns(family_file, tmp_path):
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        code = main(["check", "--family", str(family_file), "--mode",
                     "buo-equals-order", "--tolerance", "1e-6", "--out", str(out)])
        assert code == 0
    assert sha256_of(outs[0] / "check_report.json") == \
        sha256_of(outs[1] / "check_report.json")


def test_check_paired_mode_prints_both_verdicts(family_file, tmp_path, capsys):
    code = main(["check", "--family", str(family_file), "--mode",
                 "buo-equals-order", "--tolerance", "1e-6",
                 "--out", str(tmp_path / "o")])
    assert code == 0
    assert "order=holds buo=holds equal=True" in capsys.readouterr().out


def test_check_failure_exits_one(tmp_path):
    alt = SequenceFamily(
        members=[el([1.0, 0, 0]) if n % 2 else el([-1.0, 0, 0])
                 for n in range(12)],
        metadata=FamilyMetadata(common_bound=el([1, 1, 1], Tail.constant(1.0))))
    path = tmp_path / "alt.json"
    write_json(path, family_to_json(alt))
    code = main(["check", "--family", str(path), "--mode", "buo-cauchy",
                 "--policy", "sampled", "--out", str(tmp_path / "o")])
    assert code == 1
    doc = json.loads((tmp_path / "o" / "check_report.json").read_text())
    assert doc["outcome"] == "fails"


def test_check_inconclusive_also_exits_one(family_file, tmp_path, capsys):
    # the halving family declares no cauchy norms and is not monotone, so
    # no certificate route applies; inconclusive is not a pass
    code = main(["check", "--family", str(family_file), "--mode", "buo-cauchy",
                 "--policy", "certificate", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "buo_cauchy: inconclusive" in capsys.readouterr().out


def test_check_missing_family_file_exits_two(tmp_path, capsys):
    code = main(["check", "--family", str(tmp_path / "ghost.json"),
                 "--mode", "order", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "input error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# generate, then feed the outputs back in


def test_generate_hats_is_deterministic_and_checkable(tmp_path, capsys):
    dirs = [tmp_path / "g1", tmp_path / "g2"]
    for d in dirs:
        code = main(["generate", "hats", "--levels", "3,5,9", "--depth", "6",
                     "--out", str(d)])
        assert code == 0
    for name in ("hat_family.json", "hat_escape.json"):
        assert sha256_of(dirs[0] / name) == sha256_of(dirs[1] / name)
    code = main(["check", "--family", str(dirs[0] / "hat_family.json"),
                 "--mode", "buo-cauchy", "--out", str(tmp_path / "c")])
    assert code == 0
    assert "buo_cauchy: holds" in capsys.readouterr().out


def test_generate_ladder_writes_trend_tables(tmp_path):
    out = tmp_path / "ladder"
    code = main(["generate", "ladder", "--levels", "4,8,16", "--n-max", "3",
                 "--out", str(out)])
    assert code == 0
    esc = json.loads((out / "ladder_escape.json").read_text())
    assert esc["scale_fit"][0] == pytest.approx(-0.5, abs=1e-9)
    trend = (out / "level_trend.csv").read_text().splitlines()
    assert trend[0] == "level,scale,delta,lipschitz"
    assert len(trend) == 4
    blowups = (out / "blowups.csv").read_text().splitlines()
    assert blowups[0] == "b_label,a_label,t,ratio,lower_bound"


def test_generate_steps_guards(tmp_path, capsys):
    assert main(["generate", "steps", "--size", "5", "--depth", "9",
                 "--out", str(tmp_path)]) == 2
    assert "freeze the plateau" in capsys.readouterr().err
    assert main(["generate", "steps", "--eps", "-1",
                 "--out", str(tmp_path)]) == 2


def test_generated_truncation_keeps_its_model(tmp_path):
    out = tmp_path / "t"
    assert main(["generate", "truncation", "--exponent", "1.0", "--p", "1.0",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "truncation_family.json").read_text())
    assert doc["generator"]["horizon"] == 10 ** 9


@pytest.mark.parametrize("key, value, said", [
    ("size", True, "size: malformed value (expected an integer, got true)"),
    ("horizon", 2.5, "horizon: malformed value (expected an integer, got 2.5)"),
    ("exponent", False, "exponent: malformed value (expected a number, got false)"),
    ("coeff", True, "coeff: malformed value (expected a number, got true)"),
])
def test_a_generator_field_of_the_wrong_type_exits_two(key, value, said, tmp_path, capsys):
    out = tmp_path / "t"
    main(["generate", "truncation", "--exponent", "1.0", "--out", str(out)])
    doc = json.loads((out / "truncation_family.json").read_text())
    doc["generator"][key] = value
    bad = out / "typed.json"
    write_json(bad, doc)
    capsys.readouterr()
    assert main(["check", "--family", str(bad), "--mode", "order", "--candidate", "zero",
                 "--out", str(out)]) == 2
    assert f"{bad}.generator.{said}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# witness extraction and replay


def test_witness_jumps_round_trip(tmp_path, capsys):
    out = tmp_path / "w"
    main(["generate", "steps", "--out", str(out)])
    fam = str(out / "step_family.json")
    code = main(["witness", "jumps", "--family", fam, "--eps", "0.25",
                 "--count", "5", "--out", str(out)])
    assert code == 0
    assert "extracted and re-verified 5 jumps above 0.25" in capsys.readouterr().out
    assert (out / "witness.json").exists() and (out / "refutation.json").exists()
    code = main(["verify", "--family", fam, "--witness", str(out / "witness.json")])
    assert code == 0
    assert "witness re-verified" in capsys.readouterr().out


def test_tampered_witness_replay_exits_three(tmp_path, capsys):
    out = tmp_path / "w"
    main(["generate", "steps", "--out", str(out)])
    fam = str(out / "step_family.json")
    main(["witness", "jumps", "--family", fam, "--eps", "0.25",
          "--count", "5", "--out", str(out)])
    doc = json.loads((out / "witness.json").read_text())
    doc["jumps"] = [j * 0.5 for j in doc["jumps"]]
    write_json(out / "tampered.json", doc)
    code = main(["verify", "--family", fam, "--witness", str(out / "tampered.json")])
    assert code == 3
    assert "invariant breach" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("horizon", True), ("index_shift", True), ("eps", True), ("coordinates", [True, 3, 4, 5, 6]),
])
def test_a_witness_field_of_the_wrong_type_exits_two(key, value, tmp_path, capsys):
    out = tmp_path / "w"
    main(["generate", "steps", "--out", str(out)])
    fam = str(out / "step_family.json")
    main(["witness", "jumps", "--family", fam, "--eps", "0.25", "--count", "5",
          "--out", str(out)])
    doc = json.loads((out / "witness.json").read_text())
    doc[key] = value
    bad = out / "typed.json"
    write_json(bad, doc)
    capsys.readouterr()
    assert main(["verify", "--family", fam, "--witness", str(bad)]) == 2
    assert f"{bad}.{key}: malformed value (expected a" in capsys.readouterr().err


@pytest.mark.parametrize("shift", [5, -1, 1e308])
def test_a_realigned_jump_witness_does_not_replay(shift, tmp_path, capsys):
    out = tmp_path / "w"
    main(["generate", "steps", "--out", str(out)])
    fam = str(out / "step_family.json")
    main(["witness", "jumps", "--family", fam, "--eps", "0.25",
          "--count", "5", "--out", str(out)])
    doc = json.loads((out / "witness.json").read_text())
    doc["index_shift"] = shift
    write_json(out / "shifted.json", doc)
    capsys.readouterr()
    assert main(["verify", "--family", fam, "--witness", str(out / "shifted.json")]) == 3
    assert "marks a realigned record" in capsys.readouterr().err


def test_witness_blocks_and_the_convergent_refusal(tmp_path, capsys):
    t1 = tmp_path / "div"
    main(["generate", "truncation", "--exponent", "1.0", "--p", "1.0",
          "--out", str(t1)])
    code = main(["witness", "blocks", "--family",
                 str(t1 / "truncation_family.json"), "--p", "1.0",
                 "--count", "2", "--out", str(t1)])
    assert code == 0
    assert "2 disjoint blocks" in capsys.readouterr().out
    t2 = tmp_path / "conv"
    main(["generate", "truncation", "--exponent", "2.0", "--p", "1.0",
          "--out", str(t2)])
    code = main(["witness", "blocks", "--family",
                 str(t2 / "truncation_family.json"), "--p", "1.0",
                 "--count", "2", "--out", str(t2)])
    assert code == 1
    assert "refused: the pointwise limit lies in lp(p=1)" in capsys.readouterr().err


def test_witness_jumps_refusal_and_constants_guard(tmp_path, capsys):
    out = tmp_path / "w"
    main(["generate", "steps", "--out", str(out)])
    fam = str(out / "step_family.json")
    code = main(["witness", "jumps", "--family", fam, "--eps", "10.0",
                 "--count", "5", "--out", str(out)])
    assert code == 1
    assert "large-value hypothesis" in capsys.readouterr().err
    code = main(["witness", "jumps", "--family", fam, "--eps", "0.25",
                 "--constants", "nope", "--out", str(out)])
    assert code == 2
    assert "not name=value" in capsys.readouterr().err


def test_witness_jumps_constants_reach_the_record(tmp_path, capsys):
    out = tmp_path / "w"
    main(["generate", "steps", "--out", str(out)])
    fam = str(out / "step_family.json")
    # the plateau is 1.0, above 4 * 0.2
    assert main(["witness", "jumps", "--family", fam, "--eps", "0.2",
                 "--constants", "eps-factor=4", "--out", str(out)]) == 0
    assert json.loads((out / "witness.json").read_text())["factor"] == 4.0
    for spec, said in (("nope=1", "unknown constant 'nope'"),
                       ("eps-factor=abc", "constant 'eps-factor' has non-numeric value 'abc'")):
        capsys.readouterr()
        assert main(["witness", "jumps", "--family", fam, "--eps", "0.2",
                     "--constants", spec, "--out", str(out)]) == 2
        assert said in capsys.readouterr().err


def test_a_block_witness_replays_and_a_tampered_one_does_not(tmp_path, capsys):
    out = tmp_path / "t"
    main(["generate", "truncation", "--exponent", "1.0", "--p", "1.0", "--out", str(out)])
    fam = str(out / "truncation_family.json")
    assert main(["witness", "blocks", "--family", fam, "--p", "1.0", "--count", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--family", fam, "--witness", str(out / "witness.json")]) == 0
    assert "witness re-verified" in capsys.readouterr().out
    # still above 1, so the record checks pass; the replayed norm differs
    doc = json.loads((out / "witness.json").read_text())
    doc["norms"][1] += 0.5
    write_json(out / "tampered.json", doc)
    assert main(["verify", "--family", fam, "--witness", str(out / "tampered.json")]) == 3
    assert "block 2 norms" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# certificate replay


def test_verify_replays_an_order_report(family_file, tmp_path, capsys):
    out = tmp_path / "r"
    main(["check", "--family", str(family_file), "--mode", "order",
          "--tolerance", "1e-6", "--out", str(out)])
    code = main(["verify", "--family", str(family_file),
                 "--report", str(out / "check_report.json")])
    assert code == 0
    assert "certificate re-verified" in capsys.readouterr().out


def test_verify_rejects_a_tampered_report(family_file, tmp_path):
    out = tmp_path / "r"
    main(["check", "--family", str(family_file), "--mode", "order",
          "--tolerance", "1e-6", "--out", str(out)])
    doc = json.loads((out / "check_report.json").read_text())
    doc["certificate"]["final_sup"] = 999.0
    write_json(out / "tampered.json", doc)
    assert main(["verify", "--family", str(family_file),
                 "--report", str(out / "tampered.json")]) == 3


def test_verify_rejects_a_monotone_report_with_a_rewritten_bound(tmp_path, capsys):
    out = tmp_path / "h"
    main(["generate", "hats", "--levels", "3,10,20", "--depth", "10", "--out", str(out)])
    fam = str(out / "hat_family.json")
    assert main(["check", "--family", fam, "--mode", "buo-cauchy", "--out", str(out)]) == 0
    assert main(["verify", "--family", fam,
                 "--report", str(out / "check_report.json")]) == 0
    doc = json.loads((out / "check_report.json").read_text())
    assert doc["certificate"]["type"] == "monotone"
    bound = doc["certificate"]["bound"]
    bound["values"] = [-5.0] * len(bound["values"])
    write_json(out / "tampered.json", doc)
    capsys.readouterr()
    assert main(["verify", "--family", fam, "--report", str(out / "tampered.json")]) == 3
    assert "stored monotone certificate does not replay" in capsys.readouterr().err


def test_verify_replays_a_buo_report(family_file, tmp_path, capsys):
    out = tmp_path / "r"
    main(["check", "--family", str(family_file), "--mode", "buo",
          "--tolerance", "1e-6", "--out", str(out)])
    code = main(["verify", "--family", str(family_file),
                 "--report", str(out / "check_report.json")])
    assert code == 0
    assert "certificate re-verified" in capsys.readouterr().out


def _hats(tmp_path) -> str:
    out = tmp_path / "h"
    main(["generate", "hats", "--levels", "3,10,20", "--depth", "10", "--out", str(out)])
    return str(out / "hat_family.json")


@pytest.mark.parametrize("family, argv, code, said", [
    ("steps", ["--mode", "buo-cauchy", "--policy", "sampled", "--seed", "3"], 1,
     "buo_cauchy fails verdict re-verified"),
    ("halving", ["--mode", "buo-cauchy", "--policy", "sampled", "--tolerance", "1e-3"], 1,
     "buo_cauchy inconclusive verdict re-verified"),
    ("halving", ["--mode", "buo", "--tolerance", "1e-6", "--seed", "4"], 0,
     "certificate re-verified"),
    ("halving", ["--mode", "buo-equals-order", "--tolerance", "1e-6"], 0,
     "paired verdict re-verified"),
    ("halving", ["--mode", "order", "--candidate", "zero"], 1,
     "order fails verdict re-verified"),
    ("hats", ["--mode", "order"], 1, "order fails verdict re-verified"),
    ("hats", ["--mode", "buo-cauchy"], 0, "certificate re-verified"),
], ids=["sampled-fails", "sampled-inconclusive", "buo", "paired", "order-zero",
        "order-hats", "monotone"])
def test_verify_replays_every_report_kind(family, argv, code, said, family_file, tmp_path,
                                          capsys):
    if family == "steps":
        main(["generate", "steps", "--out", str(tmp_path / "s")])
        fam = str(tmp_path / "s" / "step_family.json")
    else:
        fam = _hats(tmp_path) if family == "hats" else str(family_file)
    out = tmp_path / "r"
    assert main(["check", "--family", fam, *argv, "--out", str(out)]) == code
    capsys.readouterr()
    assert main(["verify", "--family", fam, "--report", str(out / "check_report.json")]) == 0
    assert f"{said} against {fam}" in capsys.readouterr().out


@pytest.mark.parametrize("family, include, outcome", [
    ("alternating", ((1, 2),), "fails"),
    ("alternating", ((2, 4), (3, 5)), "fails"),
    ("halving", ((20, 24),), "inconclusive"),
])
def test_a_report_with_included_subsequences_replays(family, include, outcome, tmp_path,
                                                     capsys):
    if family == "alternating":
        values = np.array([[(-1.0) ** n, 0.0, 1.0] for n in range(1, 21)])
        fam = SequenceFamily(values=values, tails=Tail.zero(), carrier=CAR3)
    else:
        fam = halving_family()
    fam_path, report = tmp_path / "fam.json", tmp_path / "report.json"
    write_json(fam_path, family_to_json(fam))
    verdict = check_buo_cauchy(fam, SampledPolicy(count=4, max_len=16, include=include),
                               CheckConfig(tolerance=1e-3))
    assert verdict.outcome == outcome
    doc = dict(verdict_to_json(verdict), provenance={})
    assert doc["included"] == [list(seq) for seq in include]
    write_json(report, doc)
    assert main(["verify", "--family", str(fam_path), "--report", str(report)]) == 0
    assert f"buo_cauchy {outcome} verdict re-verified" in capsys.readouterr().out
    # the included subsequences are input to the re-run: a rewritten one
    # re-runs to another report, a missing or malformed one is damage
    for included, code, said in (
            ([[1, 2, 3]] * len(include), 3, "does not replay"),
            (None, 2, "report.json: missing required field 'included'"),
            ("x", 2, "report.json.included: malformed value"),
            ([[True, 2]] * len(include), 2,
             "report.json.included: malformed value (expected an integer, got true)"),
            ([[2, 4]] * (len(include) + 1), 2,
             f"report.json.included: {len(include) + 1} subsequences, but the policy "
             f"names {len(include)}")):
        damaged = {k: v for k, v in doc.items() if k != "included"}
        if included is not None:
            damaged["included"] = included
        write_json(report, damaged)
        assert main(["verify", "--family", str(fam_path), "--report", str(report)]) == code
        assert said in capsys.readouterr().err


def test_a_report_without_included_subsequences_has_no_such_field(tmp_path):
    main(["generate", "steps", "--out", str(tmp_path / "s")])
    assert main(["check", "--family", str(tmp_path / "s" / "step_family.json"),
                 "--mode", "buo-cauchy", "--policy", "sampled", "--out", str(tmp_path)]) == 1
    assert "included" not in json.loads((tmp_path / "check_report.json").read_text())


@pytest.mark.parametrize("growth, tail, witness", [
    ("unbounded", Tail.zero(), {"type": "unbounded_growth", "declared": "unbounded",
                                "norm_trace": [1.0, 2.0, 3.0, 4.0]}),
    ("bounded", Tail.constant(1.0), {"type": "domination_failure", "tag": "c0",
                                     "reason": "tail holds the nonzero level 1"}),
])
def test_buo_failure_witnesses_are_written_field_by_field(growth, tail, witness, tmp_path,
                                                          capsys):
    members = [el([float(n), 0.0, 0.0], tail) for n in range(1, 5)]
    meta = FamilyMetadata(space_tag=SpaceTag.c0(), growth=growth)
    fam = tmp_path / "fam.json"
    write_json(fam, family_to_json(SequenceFamily(members=members, metadata=meta)))
    out = tmp_path / "r"
    assert main(["check", "--family", str(fam), "--mode", "buo", "--candidate", "zero",
                 "--out", str(out)]) == 1
    doc = json.loads((out / "check_report.json").read_text())
    assert doc["witness"] == witness
    capsys.readouterr()
    assert main(["verify", "--family", str(fam), "--report", str(out / "check_report.json")]) == 0
    assert "buo fails verdict re-verified" in capsys.readouterr().out
    if growth == "unbounded":
        doc["witness"]["norm_trace"][2] = 9.0
        said = "witness.norm_trace[2]: stored 9.0, re-run 3.0"
    else:
        doc["witness"]["reason"] = "edited"
        said = 'witness.reason: stored "edited"'
    write_json(out / "tampered.json", doc)
    assert main(["verify", "--family", str(fam), "--report", str(out / "tampered.json")]) == 3
    assert said in capsys.readouterr().err


@pytest.mark.parametrize("report, path, value, field", [
    ("hats", "tolerance", True, ".tolerance: malformed value (expected a number, got true)"),
    ("hats", "tolerance", "1e-09",
     '.tolerance: malformed value (expected a number, got "1e-09")'),
    ("hats", "horizon", True, ".horizon: malformed value (expected an integer, got true)"),
    ("hats", "horizon", 10.5, ".horizon: malformed value (expected an integer, got 10.5)"),
    ("hats", "schema_version", True, ": schema_version true unsupported"),
    ("hats", "schema_version", 1.0, ": schema_version 1.0 unsupported"),
    ("buo", "provenance.seed", False, ".provenance.seed: malformed value"),
    ("sampled", "seed", True, ".seed: malformed value (expected an integer, got true)"),
    ("sampled", "seed", 3.5, ".seed: malformed value (expected an integer, got 3.5)"),
], ids=["bool-tolerance", "text-number-tolerance", "bool-horizon", "fractional-horizon", "bool-version",
        "float-version", "bool-probe-seed", "bool-seed", "fractional-seed"])
def test_a_report_field_of_the_wrong_type_exits_two(report, path, value, field,
                                                     family_file, tmp_path, capsys):
    if report == "hats":
        fam, argv = _hats(tmp_path), ["--mode", "buo-cauchy"]
    elif report == "buo":
        fam, argv = str(family_file), ["--mode", "buo", "--tolerance", "1e-6"]
    else:
        main(["generate", "steps", "--out", str(tmp_path / "s")])
        fam = str(tmp_path / "s" / "step_family.json")
        argv = ["--mode", "buo-cauchy", "--policy", "sampled", "--seed", "3"]
    out = tmp_path / "r"
    main(["check", "--family", fam, *argv, "--out", str(out)])
    doc = json.loads((out / "check_report.json").read_text())
    _rewrite(doc, path, value)
    bad = out / "typed.json"
    write_json(bad, doc)
    capsys.readouterr()
    assert main(["verify", "--family", fam, "--report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}{field}" in err
    assert "Traceback" not in err


def _rewrite(doc: dict, path: str, value) -> None:
    *parents, last = path.split(".")
    for key in parents:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("report, path, value, code, said", [
    ("hats", "outcome", "fails", 3, "outcome: stored \"fails\", re-run \"holds\""),
    ("hats", "outcome", "x", 3, "outcome: stored \"x\""),
    ("order", "mode", "buo", 3, "bound: stored null, re-run 1.0"),
    ("hats", "tolerance", -1, 2, "tolerance must be positive"),
    ("order", "horizon", 5, 3, "certificate: stored {"),
    ("hats", "bound", 2.0, 3, "bound: stored 2.0, re-run 1.0"),
    ("hats", "bound", True, 3, "bound: stored true, re-run 1.0"),
    ("hats", "bound", 1, 3, "bound: stored 1, re-run 1.0"),
    ("hats", "horizon", 10.0, 3, "horizon: stored 10.0, re-run 10"),
    ("hats", "limit", {"values": [0.0], "tail": None}, 3, "limit: stored {"),
    ("hats", "witness", {"type": "x"}, 3, "witness: stored {\"type\": \"x\"}, re-run null"),
    ("order", "policy", "certificate", 3, "policy: stored \"certificate\", re-run null"),
    ("hats", "seed", 7, 3, "seed: stored 7, re-run null"),
    ("hats", "notes", ["edited"], 3, "notes[0]: stored \"edited\""),
    ("order", "certificate.regulator_tails", None, 3, "certificate.regulator_tails: stored null"),
    ("order", "certificate.thresholds", [], 3, "certificate.thresholds: stored []"),
], ids=["outcome", "outcome-x", "mode", "tolerance", "horizon", "bound", "bound-true",
        "bound-int", "horizon-float", "limit", "witness", "policy", "seed", "notes",
        "regulator-tails", "thresholds"])
def test_a_rewritten_report_field_does_not_replay(report, path, value, code, said,
                                                   family_file, tmp_path, capsys):
    if report == "hats":
        fam, argv = _hats(tmp_path), ["--mode", "buo-cauchy"]
    else:
        fam, argv = str(family_file), ["--mode", "order", "--tolerance", "1e-6"]
    out = tmp_path / "r"
    assert main(["check", "--family", fam, *argv, "--out", str(out)]) == 0
    doc = json.loads((out / "check_report.json").read_text())
    _rewrite(doc, path, value)
    write_json(out / "tampered.json", doc)
    capsys.readouterr()
    assert main(["verify", "--family", fam, "--report", str(out / "tampered.json")]) == code
    err = capsys.readouterr().err
    assert said in err
    if code == 3:
        cert = doc["certificate"]["type"]
        assert f"stored {cert} certificate does not replay: " in err


def _settled_family_file(tmp_path) -> str:
    """A family equal to its declared limit from the first member on, so its
    order regulator ends at exactly 0.0."""
    limit = el([1.0, 0.0, 2.0])
    fam = SequenceFamily(values=np.tile(limit.values, (5, 1)), tails=Tail.zero(), carrier=CAR3,
                         metadata=FamilyMetadata(limit=limit))
    path = tmp_path / "settled.json"
    write_json(path, family_to_json(fam))
    return str(path)


def _set_first(values: list, old, new) -> None:
    values[values.index(old)] = new


# claims rewritten to a value of another JSON type, or to the other zero, that
# equals the re-run's as a Python value (1 == 1.0 == True, -0.0 == 0.0), where
# the test above cannot reach them
@pytest.mark.parametrize("family, mode, rewrite, said", [
    ("hats", "buo-cauchy",
     lambda doc: _set_first(doc["certificate"]["bound"]["values"], 1.0, True),
     "certificate.bound.values[0]: stored true, re-run 1.0"),
    ("settled", "order", lambda doc: doc["certificate"].update(final_sup=0),
     "certificate.final_sup: stored 0, re-run 0.0"),
    ("settled", "order", lambda doc: doc["certificate"].update(final_sup=-0.0),
     "certificate.final_sup: stored -0.0, re-run 0.0"),
    ("settled", "order", lambda doc: _set_first(doc["certificate"]["thresholds"], 3, 3.0),
     "certificate.thresholds[2]: stored 3.0, re-run 3"),
    ("settled", "buo-equals-order", lambda doc: doc.update(equal=1),
     "equal: stored 1, re-run true"),
], ids=["certificate-bound-true", "final-sup-int", "final-sup-negative-zero",
        "threshold-float", "equal-int"])
def test_a_claim_rewritten_to_another_json_type_does_not_replay(family, mode, rewrite, said,
                                                                tmp_path, capsys):
    fam = _hats(tmp_path) if family == "hats" else _settled_family_file(tmp_path)
    out = tmp_path / "r"
    assert main(["check", "--family", fam, "--mode", mode, "--out", str(out)]) == 0
    doc = json.loads((out / "check_report.json").read_text())
    rewrite(doc)
    write_json(out / "tampered.json", doc)
    capsys.readouterr()
    assert main(["verify", "--family", fam, "--report", str(out / "tampered.json")]) == 3
    assert f"does not replay: {said}" in capsys.readouterr().err


@pytest.mark.parametrize("branch", ["tail-stuck", "tail-undeclared"])
def test_the_tail_branches_of_the_buo_check_replay(branch, tmp_path, capsys):
    if branch == "tail-stuck":
        # members match the zero candidate on the prefix, but under the
        # probe 1 the constant tail 1 stays above the tolerance
        fam = SequenceFamily(values=np.zeros((4, 3)), tails=Tail.constant(1.0), carrier=CAR3)
        argv, outcome, note = ["--candidate", "zero"], "fails", "probe ones stuck on the tail"
    else:
        # j**-1 minus j**-2 is no tail the algebra represents
        limit = el([1.0, 0.5, 0.25], Tail.power(2.0, 1.0))
        fam = SequenceFamily(values=np.tile(limit.values, (4, 1)), tails=Tail.power(1.0, 1.0),
                             carrier=CAR3, metadata=FamilyMetadata(limit=limit))
        argv, outcome, note = [], "inconclusive", "tail undeclared, prefix alone cannot certify"
    path, out = str(tmp_path / "fam.json"), tmp_path / "r"
    write_json(path, family_to_json(fam))
    assert main(["check", "--family", path, "--mode", "buo", *argv, "--out", str(out)]) == 1
    doc = json.loads((out / "check_report.json").read_text())
    assert doc["outcome"] == outcome
    assert note in doc["notes"][-1]
    if branch == "tail-stuck":
        assert doc["witness"]["trace_start"] == doc["horizon"] == 4
        assert doc["witness"]["trace"] == []
    capsys.readouterr()
    report = str(out / "check_report.json")
    assert main(["verify", "--family", path, "--report", report]) == 0
    assert f"buo {outcome} verdict re-verified" in capsys.readouterr().out
    doc["bound"] = 2.0
    write_json(out / "tampered.json", doc)
    assert main(["verify", "--family", path, "--report", str(out / "tampered.json")]) == 3
    assert "bound: stored 2.0, re-run 1.0" in capsys.readouterr().err


@pytest.mark.parametrize("damage, field", [
    (lambda doc: [doc], ": expected an object, got list"),
    (lambda doc: "report", ": expected an object, got str"),
    (lambda doc: dict(doc, limit=None), ".limit: expected an object, got NoneType"),
    (lambda doc: {k: v for k, v in doc.items() if k != "tolerance"},
     ": missing required field 'tolerance'"),
    (lambda doc: dict(doc, tolerance="abc"), ".tolerance: malformed value"),
    (lambda doc: dict(doc, schema_version=99), ": schema_version 99 unsupported"),
    (lambda doc: dict(doc, tolerance=-1), ": tolerance must be positive, got -1"),
    (lambda doc: dict(doc, mode="uo"), ".mode: unknown mode 'uo'"),
    (lambda doc: dict(doc, mode="buo_cauchy", policy="sampled(count=0,max_len=4)", seed=0),
     ": sampled policy needs count >= 1"),
    (lambda doc: dict(doc, mode="buo_cauchy", policy="sampled"), ".policy: malformed value"),
    (lambda doc: dict(doc, mode="buo", provenance={}), ".provenance: missing required field"),
], ids=["list", "string", "null-limit", "no-tolerance", "text-tolerance", "version-99",
        "negative-tolerance", "unknown-mode", "zero-count", "bare-policy", "no-probe-seed"])
def test_a_damaged_report_exits_two_naming_the_field(damage, field, family_file, tmp_path,
                                                     capsys):
    out = tmp_path / "r"
    main(["check", "--family", str(family_file), "--mode", "order",
          "--tolerance", "1e-6", "--out", str(out)])
    bad = tmp_path / "damaged.json"
    write_json(bad, damage(json.loads((out / "check_report.json").read_text())))
    capsys.readouterr()
    assert main(["verify", "--family", str(family_file), "--report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}{field}" in err
    assert "Traceback" not in err


def test_verify_input_guards(family_file, capsys):
    assert main(["verify", "--family", str(family_file)]) == 2
    assert "exactly one of" in capsys.readouterr().err
    assert main(["verify", "--family", str(family_file),
                 "--report", str(family_file)]) == 2
    assert "not a check report" in capsys.readouterr().err


@pytest.mark.parametrize("content, where", [
    (b"{not json", "line 1, column 2"),
    (b"\xff{", "not UTF-8 text"),
])
@pytest.mark.parametrize("argv", [
    ["verify", "--family", "{family}", "--witness", "{bad}"],
    ["verify", "--family", "{family}", "--report", "{bad}"],
    ["metric", "--space", "{bad}", "--format", "space-json"],
])
def test_invalid_json_exits_two_naming_the_file(argv, content, where, family_file,
                                                tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_bytes(content)
    argv = [a.format(family=family_file, bad=bad) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: {where}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["coords-csv", "distance-csv"])
def test_csv_that_is_not_utf8_exits_two_naming_the_file(fmt, tmp_path, capsys):
    bad = tmp_path / "space.csv"
    bad.write_bytes(b"\xfflabel,x1\na,0.0\nb,1.0\n")
    assert main(["metric", "--space", str(bad), "--format", fmt,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: not UTF-8 text" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt, text", [
    ("distance-csv", "a,b\n0,{long}\n1,0\n"),
    ("coords-csv", "label,x1\na,{long}\nb,1.0\n"),
])
def test_a_csv_field_over_the_size_limit_exits_two_naming_its_line(fmt, text, tmp_path, capsys):
    bad = tmp_path / "space.csv"
    bad.write_text(text.format(long="1." + "0" * 140_000))  # a number orjson reads
    assert main(["metric", "--space", str(bad), "--format", fmt,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: line 2: field larger than field limit (131072)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["check", "--family", "{folder}", "--mode", "order"],
    ["metric", "--space", "{folder}", "--format", "coords-csv"],
    ["verify", "--family", "{family}", "--witness", "{folder}"],
    ["verify", "--family", "{family}", "--report", "{folder}"],
])
def test_a_directory_given_as_an_input_file_exits_two_naming_it(argv, family_file,
                                                                tmp_path, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = [a.format(family=family_file, folder=folder) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert str(folder) in err
    assert "Traceback" not in err


# 10**15 float64 entries are 7 PiB, past any address space: numpy refuses at once
_HUGE = str(10**15)


@pytest.mark.parametrize("argv", [
    ["generate", "truncation", "--exponent", "1", "--size", _HUGE],
    ["generate", "steps", "--size", _HUGE, "--depth", "1"],
    ["generate", "hats", "--depth", _HUGE],
    ["check", "--family", "{huge}", "--mode", "order"],
])
def test_a_size_too_large_to_allocate_exits_two(argv, tmp_path, capsys):
    assert main(["generate", "truncation", "--exponent", "1", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "truncation_family.json").read_text())
    doc["generator"]["size"] = int(_HUGE)
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = [a.format(huge=huge) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Unable to allocate" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("path, value, field", [
    (("members", 2, 3), "x", ".members[3]: malformed value"),
    (("carrier",), 5, ".carrier: expected an object"),
    (("carrier", "size"), "x", ".carrier.size: malformed value"),
    (("tails",), 7, ".tails: malformed value"),
    (("metadata",), [1], ".metadata: expected an object"),
    (("metadata", "uniformly_cauchy_norms"), "abc",
     ".metadata.uniformly_cauchy_norms: malformed value"),
    (("tails", 4), {"kind": "constant", "value": math.inf},
     ".tails[5].value: inf is not a finite number"),
    (("carrier", "size"), True, ".carrier.size: malformed value (expected an integer, got true)"),
    (("carrier", "size"), 30.5, ".carrier.size: malformed value (expected an integer"),
    (("tails", 0), {"kind": "constant", "value": True},
     ".tails[1].value: malformed value (expected a number, got true)"),
    (("schema_version",), True, ": schema_version true unsupported"),
    (("carrier", "size"), "30", '.carrier.size: malformed value (expected an integer, got "30")'),
    (("metadata", "monotone_decreasing"), "false",
     '.metadata.monotone_decreasing: expected true or false, got "false"'),
    (("members",), "abc", ".members: malformed value (expected a list, got str)"),
    (("tails",), "z" * 30, ".tails: malformed value (expected a list, got str)"),
    (("metadata", "notes"), "abc", ".metadata.notes: malformed value (expected a list, got str)"),
    (("metadata", "growth"), "huge",
     ".metadata: growth must be bounded/unbounded/None, got 'huge'"),
    (("metadata", "space_tag"), {"kind": "l2"}, ".metadata.space_tag: unknown space tag 'l2'"),
    (("metadata", "space_tag"), {"kind": "lp"},
     ".metadata.space_tag: lp tag needs 1 <= p < inf, got None"),
    (("metadata", "uniformly_cauchy_norms"), [-1.0],
     ".metadata: uniform Cauchy norms must be finite and non-negative"),
    # refusals raised by the constructors behind the reader
    (("tails", 2), {"kind": "power", "exponent": 0.0, "scale": 1.0},
     ".tails[3]: power tail needs exponent > 0, got 0.0"),
    (("carrier", "size"), 0, ".carrier.size: index-set carrier needs size >= 1, got 0"),
    (("metadata", "monotone_decreasing"), True,
     ".metadata: family declared decreasing but member 2 exceeds member 1"),
    (("metadata", "common_bound"), {"values": [0.1] * 30, "tail": {"kind": "zero"}},
     ".metadata: member 1 exceeds the declared common bound"),
    # the space of a metric-points family (an empty path sets top-level fields)
    ((), {"carrier": {"kind": "points"},
          "space": {"schema_version": 1, "labels": ["a"], "coords": [[0.0], [1.0]]}},
     ".space: 1 labels for 2 points"),
    ((), {"carrier": {"kind": "points"},
          "space": {"schema_version": 1, "labels": ["a", "b"], "coords": [[0.0], [0.0]]}},
     ".space: metric axioms violated: points 'a' and 'b' coincide"),
    (("metadata", "common_bound"), {"values": [1.0] * 30, "tail": {"kind": "constant",
                                                                   "value": "1"}},
     ".metadata.common_bound.tail.value: malformed value"),
])
def test_a_damaged_family_file_exits_two_naming_the_field(path, value, field, tmp_path,
                                                          capsys):
    assert main(["generate", "steps", "--out", str(tmp_path / "gen")]) == 0
    doc = json.loads((tmp_path / "gen" / "step_family.json").read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    if path:
        node[path[-1]] = value
    else:
        doc.update(value)
    bad = tmp_path / "damaged.json"
    bad.write_text(json.dumps(doc))  # an infinite tail value is written as Infinity
    capsys.readouterr()
    assert main(["check", "--family", str(bad), "--mode", "order", "--candidate", "zero",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}{field}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value, field", [
    ("p", 0.5, ".generator: lp tag needs 1 <= p < inf, got 0.5"),
    ("exponent", -1.0, ".generator: truncation model needs exponent > 0, got -1.0"),
    ("coeff", -1, ".generator: truncation model needs coeff > 0, got -1.0"),
    ("size", 0, ".generator: index-set carrier needs size >= 1, got 0"),
    ("horizon", 0, ".generator: generator families need a horizon >= 1"),
    pytest.param("size", 10**400, ".generator: index-set carrier size 1000", id="size-huge"),
    pytest.param("carrier.size", 65, ".carrier: expected an index set of generator.size 64, "
                 "got index_set of size 65", id="carrier-size-65"),
])
def test_a_damaged_truncation_generator_exits_two_naming_it(key, value, field, tmp_path,
                                                            capsys):
    assert main(["generate", "truncation", "--exponent", "1", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "truncation_family.json").read_text())
    part, _, key = key.rpartition(".")
    doc[part or "generator"][key] = value
    bad = tmp_path / "damaged.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", "--family", str(bad), "--mode", "order",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}{field}" in err
    assert "Traceback" not in err


def test_tails_on_a_points_family_exit_two_naming_the_field(tmp_path, capsys):
    assert main(["generate", "hats", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "hat_family.json").read_text())
    doc["tails"] = [{"kind": "zero"}] * len(doc["members"])
    bad = tmp_path / "damaged.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", "--family", str(bad), "--mode", "order",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}.tails: tail descriptors apply to index-set carriers only" in err


# true and false in a list of numbers, which numpy would read as 1.0 and 0.0,
# and notes that are not strings
_ELEMENT = {"tail": {"kind": "zero"}}


@pytest.mark.parametrize("path, value, field", [
    (("members", 2, 3), True, ".members[3]: malformed value (expected a number, got true)"),
    (("members", 0, 0), False, ".members[1]: malformed value (expected a number, got false)"),
    (("metadata", "common_bound"), dict(_ELEMENT, values=[1.0] * 29 + [True]),
     ".metadata.common_bound.values: malformed value (expected a number, got true)"),
    (("metadata", "limit"), dict(_ELEMENT, values=[False] + [0.0] * 29),
     ".metadata.limit.values: malformed value (expected a number, got false)"),
    (("metadata", "uniformly_cauchy_norms"), [0.5, True, 0.25],
     ".metadata.uniformly_cauchy_norms: malformed value (expected a number, got true)"),
    (("metadata", "notes"), [1, True], ".metadata.notes[1]: expected a string, got 1"),
    (("metadata", "notes"), ["plateau", None], ".metadata.notes[2]: expected a string, got null"),
], ids=["member-true", "member-false", "common-bound", "limit", "uniform-norms",
        "notes-number", "notes-null"])
def test_a_boolean_number_or_a_non_string_note_exits_two_naming_the_field(
        path, value, field, tmp_path, capsys):
    assert main(["generate", "steps", "--out", str(tmp_path / "gen")]) == 0
    doc = json.loads((tmp_path / "gen" / "step_family.json").read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "damaged.json"
    write_json(bad, doc)
    capsys.readouterr()
    assert main(["check", "--family", str(bad), "--mode", "order", "--candidate", "zero",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}{field}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value, flag", [
    ("coords", [[0.0], [True], [2.5]], "true"),
    ("coords", [0.0, False, 2.5], "false"),
    ("matrix", [[0.0, True, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]], "true"),
])
def test_a_boolean_in_a_stored_space_exits_two_naming_the_field(key, value, flag, tmp_path,
                                                                capsys):
    bad = tmp_path / "space.json"
    write_json(bad, {"schema_version": 1, "labels": ["a", "b", "c"], key: value})
    assert main(["metric", "--space", str(bad), "--format", "space-json",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}.{key}: malformed value (expected a number, got {flag})" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value, text", [
    ("coords", [[0.0], ["1.5"], [2.5]], '"1.5"'),
    ("matrix", [[0.0, 1.0, 2.0], [1.0, 0.0, "1"], [2.0, 1.0, 0.0]], '"1"'),
])
def test_a_numeric_string_in_a_stored_space_exits_two_naming_the_field(key, value, text,
                                                                       tmp_path, capsys):
    bad = tmp_path / "space.json"
    write_json(bad, {"schema_version": 1, "labels": ["a", "b", "c"], key: value})
    assert main(["metric", "--space", str(bad), "--format", "space-json",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}.{key}: malformed value (expected a number, got {text})" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("path, value, field", [
    (("members", 2, 3), "1.5", '.members[3]: malformed value (expected a number, got "1.5")'),
    (("members", 0, 0), 10**400,
     ".members[1]: malformed value (int too large to convert to float)"),
    (("metadata", "common_bound"), dict(_ELEMENT, values=["1"] * 30),
     '.metadata.common_bound.values: malformed value (expected a number, got "1")'),
    (("metadata", "limit"), dict(_ELEMENT, values=[0.0] * 29 + ["0"]),
     '.metadata.limit.values: malformed value (expected a number, got "0")'),
    (("metadata", "uniformly_cauchy_norms"), [1.0] * 29 + ["1.0"],
     '.metadata.uniformly_cauchy_norms: malformed value (expected a number, got "1.0")'),
], ids=["member-string", "member-huge", "common-bound-string", "limit-string",
        "uniform-norms-string"])
def test_a_numeric_string_or_an_integer_beyond_floats_exits_two_naming_the_field(
        path, value, field, tmp_path, capsys):
    assert main(["generate", "steps", "--out", str(tmp_path / "gen")]) == 0
    doc = json.loads((tmp_path / "gen" / "step_family.json").read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "damaged.json"
    write_json(bad, doc)
    for argv in (["check", "--mode", "order", "--candidate", "zero"],
                 ["verify", "--report", str(tmp_path / "report.json")]):
        capsys.readouterr()
        assert main(argv + ["--family", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}{field}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("name, fmt, text, message", [
    ("space.json", "space-json", '{"schema_version": 1, "labels": ["a"], "coords": [[0], [1]]}',
     "1 labels for 2 points"),
    ("space.json", "space-json",
     '{"schema_version": 1, "labels": ["a", "b"], "matrix": [[0, 1], [2, 0]]}',
     "metric axioms violated: d(0,1) = 1.0 but d(1,0) = 2.0"),
    ("dist.csv", "distance-csv", "a,b\n0,1\n2,0\n",
     "metric axioms violated: d(0,1) = 1.0 but d(1,0) = 2.0"),
    ("coords.csv", "coords-csv", "label,x1\na,0\nb,0\n",
     "metric axioms violated: points 'a' and 'b' coincide"),
    ("coords.csv", "coords-csv", "label,x1\na,0\nb,x\n",
     "line 3, field 2: could not parse 'x' as a number"),
    ("dist.csv", "distance-csv", "a,b\n0,1\n1\n", "line 3: expected 2 numeric fields, got 1"),
], ids=["json-labels", "json-asymmetric", "csv-asymmetric", "csv-coincident", "csv-cell",
        "csv-row"])
def test_a_refused_space_file_exits_two_naming_it(name, fmt, text, message, tmp_path, capsys):
    bad = tmp_path / name
    bad.write_text(text)
    assert main(["metric", "--space", str(bad), "--format", fmt,
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"input error: {bad}: {message}\n"


@pytest.mark.parametrize("argv, option, text", [
    (["generate", "hats", "--levels", "3,x,10"], "--levels", "3,x,10"),
    (["generate", "ladder", "--levels", "10,1e3"], "--levels", "10,1e3"),
    (["envelope", "--space", "{space}", "--format", "space-json", "--set", "x0",
      "--ns", "1,two"], "--ns", "1,two"),
    (["witness", "jumps", "--family", "{family}", "--eps", "0.1", "--coordinates", "1,a"],
     "--coordinates", "1,a"),
], ids=["hats-levels", "ladder-levels", "ns", "coordinates"])
def test_a_non_integer_list_entry_exits_two_naming_the_option(argv, option, text, space_file,
                                                              family_file, tmp_path, capsys):
    argv = [a.format(space=space_file, family=family_file) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: {option}: expected comma-separated integers, got {text!r}\n"


def _number_leaves(node, path=()):
    """The paths of the number leaves of a JSON document."""
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _number_leaves(v, path + (k,))]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in _number_leaves(v, path + (i,))]
    return [path] if type(node) in (int, float) else []


def _named_field(path) -> str:
    """The field a refusal of the leaf at ``path`` names: a member or a tail by
    its 1-based index, a list of numbers as a whole, a schema version by the
    document that holds it, and every other field by its key."""
    text = ""
    for parent, key in zip(("",) + path, path):
        if key == "schema_version":
            return f"{text}: schema_version"
        if type(key) is str:
            text += f".{key}"
        elif parent not in ("members", "tails"):
            return text  # an entry of a list of numbers
        else:
            text += f"[{key + 1}]"
            if parent == "members":
                return text
    return text


@functools.cache
def _mutation_documents() -> dict:
    """Valid family documents that hold every kind of number field: member
    values, tail fields, elements and their tails, uniform Cauchy norms, a
    stored space and a truncation generator."""
    halving = family_to_json(halving_family())
    members = [el([2.0 ** -n, 0.0, 1.0], Tail.power(1.0, 1.0)) for n in range(1, 9)]
    uniform = family_to_json(SequenceFamily(members=members, metadata=FamilyMetadata(
        uniformly_cauchy_norms=tuple(2.0 ** -n for n in range(1, 9)),
        space_tag=SpaceTag.c0())))
    points = build_refinement("accumulation", [4]).spaces[0]
    on_points = family_to_json(SequenceFamily(
        values=[[1.0, 0.0, 0.5, 0.25, 0.0], [1.0, 0.0, 0.0, 0.25, 0.0]],
        carrier=Carrier.points(points),
        metadata=FamilyMetadata(common_bound=LatticeElement(Carrier.points(points), [1.0] * 5),
                                monotone_decreasing=True)))
    one = Carrier.index_set(1)  # where a list in place of a number keeps the rows even
    single = family_to_json(SequenceFamily(
        values=[[0.5], [0.25]], tails=Tail.zero(), carrier=one,
        metadata=FamilyMetadata(common_bound=LatticeElement(one, [1.0], Tail.constant(1.0)))))
    truncation = family_to_json(truncation_family(1.0, size=8, horizon=100))
    docs = {"halving": halving, "uniform": uniform, "points": on_points, "single": single,
            "truncation": truncation}
    return {name: json.loads(canonical_json(doc)) for name, doc in docs.items()}


@st.composite
def _mutations(draw):
    """A family document with one number leaf replaced by a bool, a numeric
    string, null, a list, or (where the field holds a float) an integer
    beyond the float range."""
    name = draw(st.sampled_from(sorted(_mutation_documents())))
    doc = copy.deepcopy(_mutation_documents()[name])
    fields = {}  # each field equally likely, however many numbers it holds
    for path in _number_leaves(doc):
        fields.setdefault(tuple(k for k in path if type(k) is str), []).append(path)
    path = draw(st.sampled_from(draw(st.sampled_from(sorted(fields.values())))))
    node = doc
    for key in path[:-1]:
        node = node[key]
    leaf = node[path[-1]]
    # a bool that compares equal to the number it replaces, where one does
    flag = leaf == 1 if leaf in (0, 1) else draw(st.booleans())
    kinds = ["bool", "string", "null", "list"] + (["huge"] if type(leaf) is float else [])
    node[path[-1]] = {"bool": flag, "string": json.dumps(leaf), "null": None,
                      "list": [leaf], "huge": 10**400}[draw(st.sampled_from(kinds))]
    return doc, path


@settings(max_examples=300)
@given(_mutations())
def test_a_mistyped_number_leaf_exits_two_naming_the_field(mutation):
    doc, path = mutation
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "family.json")
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["check", "--family", bad, "--mode", "order", "--candidate", "zero",
                         "--out", os.path.join(tmp, "o")])
    assert code == 2
    assert f"{bad}{_named_field(path)}" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_a_string_of_labels_exits_two_naming_the_field(tmp_path, capsys):
    bad = tmp_path / "space.json"
    write_json(bad, {"schema_version": 1, "labels": "ab", "coords": [[0.0], [1.0]]})
    assert main(["metric", "--space", str(bad), "--format", "space-json",
                 "--out", str(tmp_path / "o")]) == 2
    assert f"{bad}.labels: malformed value (expected a list, got str)" in capsys.readouterr().err


def test_a_report_with_a_seed_beyond_64_bits_replays(tmp_path, capsys):
    """The seed is stored as an integer literal of 30 digits; read as a float,
    it would draw other subsequences and the replay would not match."""
    gen = tmp_path / "gen"
    assert main(["generate", "hats", "--levels", "3,4,5", "--depth", "6",
                 "--out", str(gen)]) == 0
    fam = str(gen / "hat_family.json")
    assert main(["check", "--family", fam, "--mode", "buo-cauchy", "--policy", "sampled",
                 "--seed", "123456789012345678901234567890",
                 "--out", str(tmp_path / "c")]) == 1
    capsys.readouterr()
    assert main(["verify", "--family", fam, "--report", str(tmp_path / "c" / "check_report.json"),
                 "--out", str(tmp_path / "v")]) == 0
    assert "re-verified" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# metric and envelope


@pytest.fixture
def space_file(tmp_path):
    space = build_refinement("accumulation", [5]).spaces[0]
    path = tmp_path / "space.json"
    write_json(path, space_to_json(space))
    return path


def test_metric_report(space_file, tmp_path, capsys):
    out = tmp_path / "m"
    code = main(["metric", "--space", str(space_file), "--format", "space-json",
                 "--out", str(out)])
    assert code == 0
    assert "n=6 delta=" in capsys.readouterr().out
    doc = json.loads((out / "metric_report.json").read_text())
    assert doc["discreteness_constant"] == pytest.approx(1.0 / 20.0, rel=1e-12)
    assert doc["closest_pair"] == ["p04", "p05"]
    profile = (out / "isolation_profile.csv").read_text().splitlines()
    assert profile[0] == "label,isolation_radius"
    assert len(profile) == 7
    assert (out / "delta_trend.csv").exists()


def test_envelope_report(space_file, tmp_path):
    out = tmp_path / "e"
    code = main(["envelope", "--space", str(space_file), "--format",
                 "space-json", "--set", "x0", "--ns", "1,2,4", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "envelope_report.json").read_text())
    assert [r["n"] for r in doc["rows"]] == [1, 2, 4]
    assert doc["rows"][0]["alpha"] == 0.25
    # max slope of sqrt on the level-5 space is sqrt(5) < 4: already Lipschitz
    assert doc["rows"][2]["alpha"] == 0.0
    for row in doc["rows"]:
        assert row["achieved_error"] <= row["alpha"] + 1e-9


GEOMETRY_BYTES = pathlib.Path(__file__).parent / "data" / "reference_bytes" / "geometry"


def _write_geometry_reports():
    """In the working directory: a small 2-D cloud and a line as coords CSVs,
    and the metric and envelope reports of each.  Reports name their inputs
    by these relative paths."""
    rng = np.random.default_rng(1018)
    centres = rng.uniform(0.2, 0.8, (3, 2))
    cloud = (centres[rng.integers(0, 3, 80)] + rng.normal(size=(80, 2)) * 0.05).tolist()
    line = np.sort(rng.uniform(0.0, 1.0, 40)).tolist()
    pathlib.Path("cloud.csv").write_text("label,x1,x2\n" + "".join(
        f"c{i:02d},{x!r},{y!r}\n" for i, (x, y) in enumerate(cloud)))
    pathlib.Path("line.csv").write_text("label,x1\n" + "".join(
        f"t{i:02d},{x!r}\n" for i, x in enumerate(line)))
    for stem, target in (("cloud", "c00,c01,c02"), ("line", "t05,t20")):
        assert main(["metric", "--space", f"{stem}.csv", "--format", "coords-csv",
                     "--out", f"{stem}/metric"]) == 0
        assert main(["envelope", "--space", f"{stem}.csv", "--format", "coords-csv",
                     "--set", target, "--ns", "1,2,4,8,16,32",
                     "--out", f"{stem}/envelope"]) == 0


def test_metric_and_envelope_bytes_match_the_reference_files(tmp_path, monkeypatch):
    """tests/data/reference_bytes/geometry holds the files the tile route
    for isolation radii, and the writers before it, wrote for these runs."""
    monkeypatch.chdir(tmp_path)
    _write_geometry_reports()
    stored = sorted(p.relative_to(GEOMETRY_BYTES) for p in GEOMETRY_BYTES.rglob("*")
                    if p.is_file())
    assert len(stored) == 10
    for rel in stored:
        assert (tmp_path / rel).read_bytes() == (GEOMETRY_BYTES / rel).read_bytes(), rel


def test_envelope_rejects_unknown_labels(space_file, tmp_path, capsys):
    code = main(["envelope", "--space", str(space_file), "--format",
                 "space-json", "--set", "ghost", "--out", str(tmp_path / "e")])
    assert code == 2
    assert "unknown label 'ghost'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["metric"], ["envelope", "--set", "a"]],
                         ids=["metric", "envelope"])
@pytest.mark.parametrize("rows, said", [
    ("a,0.5\n", "{space}: {command} needs at least two points, got 1"),
    ("a,-1e200,0\nb,1e200,0\nc,0,1\n", "distances overflow: points 'a' and 'b' lie 2e+200 apart"),
], ids=["one-point", "overflow"])
def test_a_space_without_finite_distances_exits_two_before_writing(command, rows, said,
                                                                   tmp_path, capsys):
    space = tmp_path / "space.csv"
    width = rows.split("\n")[0].count(",")
    space.write_text(",".join(["label"] + [f"x{c}" for c in range(width)]) + "\n" + rows)
    out = tmp_path / "out"
    assert main([command[0], "--space", str(space), "--format", "coords-csv", *command[1:],
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert said.format(space=space, command=command[0]) in err
    assert "Traceback" not in err and not out.exists()


def test_csv_space_ingestion(tmp_path):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("label,x\na,0\nb,1\nc,3\n")
    out = tmp_path / "m"
    code = main(["metric", "--space", str(csv_path), "--format", "coords-csv",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "metric_report.json").read_text())
    assert doc["discreteness_constant"] == 1.0


def test_malformed_csv_exits_two(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("label,x\na,zero\n")
    code = main(["metric", "--space", str(csv_path), "--format", "coords-csv",
                 "--out", str(tmp_path / "m")])
    assert code == 2
    assert "could not parse 'zero'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# parser plumbing


def test_version_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "latticelab" in capsys.readouterr().out


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_one_parser_serves_every_call_without_carrying_values_over(family_file, tmp_path,
                                                                   capsys):
    from latticelab import cli

    check = ["check", "--family", str(family_file), "--mode", "order", "--tolerance", "1e-6"]
    assert main(check + ["--candidate", "zero", "--out", str(tmp_path / "zero")]) == 1
    assert main(check + ["--out", str(tmp_path / "reused")]) == 0
    fresh = cli.build_parser().parse_args(check + ["--out", str(tmp_path / "fresh")])
    assert cli.cmd_check(fresh) == 0
    reused = (tmp_path / "reused" / "check_report.json").read_bytes()
    assert reused == (tmp_path / "fresh" / "check_report.json").read_bytes()
    assert b'"candidate": "declared"' in reused
    for argv, code in ((["--version"], 0), (check[:4] + ["--mode", "nope"], 2)):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == code
    assert main(check + ["--out", str(tmp_path / "after")]) == 0
    assert (tmp_path / "after" / "check_report.json").read_bytes() == reused


# ---------------------------------------------------------------------------
# report headers and provenance


@pytest.fixture
def inputs(tmp_path, family_file, space_file):
    """Every kind of input file a subcommand reads, by the name the argv
    templates below use."""
    gen = tmp_path / "gen"
    assert main(["generate", "steps", "--out", str(gen)]) == 0
    assert main(["generate", "truncation", "--exponent", "1.0", "--p", "1.0",
                 "--out", str(gen)]) == 0
    report = tmp_path / "report" / "check_report.json"
    assert main(["check", "--family", str(family_file), "--mode", "buo-equals-order",
                 "--tolerance", "1e-6", "--out", str(report.parent)]) == 0
    return {"halving": str(family_file), "space": str(space_file), "report": str(report),
            "steps": str(gen / "step_family.json"),
            "truncation": str(gen / "truncation_family.json")}


@pytest.mark.parametrize("argv, written", [
    (["metric", "--space", "{space}", "--format", "space-json"],
     ["delta_trend.csv", "isolation_profile.csv", "metric_report.json"]),
    (["envelope", "--space", "{space}", "--format", "space-json", "--set", "x0", "--ns", "1,2"],
     ["envelope_report.json", "envelope_table.csv"]),
    (["check", "--family", "{halving}", "--mode", "order", "--tolerance", "1e-6"],
     ["check_report.json"]),
    (["check", "--family", "{halving}", "--mode", "buo-equals-order", "--tolerance", "1e-6"],
     ["check_report.json"]),
    (["check", "--family", "{steps}", "--mode", "buo-cauchy", "--policy", "sampled"],
     ["check_report.json"]),
    (["witness", "jumps", "--family", "{steps}", "--eps", "0.25", "--count", "5"],
     ["refutation.json", "witness.json"]),
    (["witness", "blocks", "--family", "{truncation}", "--p", "1.0", "--count", "2"],
     ["refutation.json", "witness.json"]),
    (["generate", "hats", "--levels", "3,5,9", "--depth", "6"],
     ["hat_escape.json", "hat_family.json"]),
    (["generate", "ladder", "--levels", "4,8,16", "--n-max", "3"],
     ["blowups.csv", "ladder_escape.json", "ladder_family.json", "level_trend.csv"]),
    (["generate", "steps"], ["step_family.json"]),
    (["generate", "truncation", "--exponent", "1.0"], ["truncation_family.json"]),
    (["verify", "--family", "{halving}", "--report", "{report}"], []),
    (["verify", "--family", "{steps}", "--witness", "{witness}"], []),
], ids=["metric", "envelope", "check-order", "check-paired", "check-sampled", "witness-jumps",
        "witness-blocks", "generate-hats", "generate-ladder", "generate-steps",
        "generate-truncation", "verify-report", "verify-witness"])
def test_every_json_output_carries_the_header_and_one_provenance_block(argv, written, inputs,
                                                                        tmp_path):
    if "{witness}" in argv:
        inputs["witness"] = str(tmp_path / "w" / "witness.json")
        assert main(["witness", "jumps", "--family", inputs["steps"], "--eps", "0.25",
                     "--out", str(tmp_path / "w")]) == 0
    out = tmp_path / "out"
    argv = [a.format(**inputs) for a in argv]
    assert main(argv + ["--out", str(out)]) in (0, 1)
    assert sorted(os.listdir(out)) == written if written else not out.exists()
    options = dict(zip(argv, argv[1:]))
    digests = {name: sha256_of(options[f"--{name}"]) for name in ("family", "space")
               if f"--{name}" in options}
    blocks = []
    for name in written:
        text = (out / name).read_text()
        if name.endswith(".csv"):
            header = text.splitlines()[0].split(",")
            assert not {"schema_version", "type", "provenance"} & set(header), name
            assert "provenance" not in text and "schema_version" not in text, name
            continue
        doc = json.loads(text)
        assert doc["schema_version"] == 1, name
        # a family is a document, not a report: it carries no report type
        assert ("type" in doc) != name.endswith("_family.json"), name
        assert doc["provenance"]["inputs"] == digests, name
        blocks.append(doc["provenance"])
    assert all(block == blocks[0] for block in blocks)
    if blocks:
        command = argv[:next((i for i, a in enumerate(argv) if a.startswith("-")), len(argv))]
        assert blocks[0]["command"] == " ".join(command)


@pytest.mark.parametrize("fixture", ["halving", "hats"])
def test_the_zero_candidate_report_is_the_check_against_explicit_zeros(fixture, family_file,
                                                                       tmp_path):
    path = str(family_file) if fixture == "halving" else _hats(tmp_path)
    out = tmp_path / "zero"
    assert main(["check", "--family", path, "--mode", "order", "--candidate", "zero",
                 "--out", str(out)]) == 1
    family = load_family(path)
    tail = Tail.zero() if family.carrier.is_index_set else None
    zero = LatticeElement(family.carrier, np.zeros(family.carrier.size), tail)
    doc = json.loads((out / "check_report.json").read_text())
    assert doc.pop("provenance")["args"]["candidate"] == "zero"
    assert doc == json.loads(canonical_json(verdict_to_json(
        check_order_convergence(family, zero, CheckConfig()))))


# ---------------------------------------------------------------------------
# seeds, tolerances and numpy warnings


def _sampled_report(tmp_path) -> tuple:
    main(["generate", "steps", "--out", str(tmp_path / "s")])
    fam = str(tmp_path / "s" / "step_family.json")
    assert main(["check", "--family", fam, "--mode", "buo-cauchy", "--policy", "sampled",
                 "--seed", "3", "--out", str(tmp_path / "r")]) == 1
    return fam, tmp_path / "r" / "check_report.json"


@pytest.mark.parametrize("argv", [
    ["--mode", "buo-cauchy", "--policy", "sampled", "--seed", "-1"],
    ["--mode", "buo", "--candidate", "zero", "--seed", "-1"],
    ["--mode", "order", "--seed", "-2"],
], ids=["sampled", "buo-zero", "order"])
def test_a_negative_seed_exits_two_naming_the_seed(argv, tmp_path, capsys):
    main(["generate", "steps", "--out", str(tmp_path / "s")])
    out = tmp_path / "out"
    assert main(["check", "--family", str(tmp_path / "s" / "step_family.json"), *argv,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"seed must be >= 0, got {argv[-1]}" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("where", ["seed", "provenance.seed"])
def test_a_stored_negative_seed_exits_two_naming_the_seed(where, family_file, tmp_path,
                                                          capsys):
    if where == "seed":
        fam, report = _sampled_report(tmp_path)
    else:
        fam, report = str(family_file), tmp_path / "r" / "check_report.json"
        assert main(["check", "--family", fam, "--mode", "buo-equals-order",
                     "--tolerance", "1e-6", "--out", str(report.parent)]) == 0
    doc = json.loads(report.read_text())
    if where == "seed":
        doc["seed"] = -1
    else:
        doc["provenance"]["seed"] = -1
    write_json(report, doc)
    capsys.readouterr()
    assert main(["verify", "--family", fam, "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert f"{report}: seed must be >= 0, got -1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tolerance", ["inf", "nan", "-inf"])
def test_a_tolerance_that_is_not_a_positive_finite_number_exits_two_before_the_check(
        tolerance, family_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["check", "--family", str(family_file), "--mode", "order",
                 f"--tolerance={tolerance}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    said = "finite" if tolerance == "inf" else "positive"
    assert f"tolerance must be {said}, got {tolerance}" in err
    assert not out.exists()


def _every_subcommand(tmp_path) -> dict:
    """A valid argv of each subcommand but check, before the common options."""
    main(["generate", "steps", "--out", str(tmp_path / "s")])
    fam = str(tmp_path / "s" / "step_family.json")
    assert main(["witness", "jumps", "--family", fam, "--eps", "0.25",
                 "--out", str(tmp_path / "w")]) == 0
    space = tmp_path / "line.csv"
    space.write_text("label,x\na,0\nb,1\nc,3\n")
    return {"metric": ["metric", "--space", str(space), "--format", "coords-csv"],
            "envelope": ["envelope", "--space", str(space), "--format", "coords-csv",
                         "--set", "a"],
            "witness": ["witness", "jumps", "--family", fam, "--eps", "0.25"],
            "generate": ["generate", "steps"],
            "verify": ["verify", "--family", fam, "--witness", str(tmp_path / "w" / "witness.json")]}


@pytest.mark.parametrize("option, value, said", [
    ("--seed", "-5", "seed must be >= 0, got -5"),
    ("--tolerance", "-1", "tolerance must be positive, got -1.0"),
    ("--horizon", "0", "horizon must be >= 1, got 0"),
], ids=["seed", "tolerance", "horizon"])
@pytest.mark.parametrize("command", ["metric", "envelope", "witness", "generate", "verify"])
def test_an_invalid_common_option_exits_two_in_every_subcommand(command, option, value, said,
                                                               tmp_path, capsys):
    """Every subcommand records --seed, --tolerance and --horizon in its
    provenance, so each checks them as check does, even where it reads none."""
    argv = _every_subcommand(tmp_path)[command]
    assert main([*argv, "--out", str(tmp_path / "valid")]) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, option, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert said in err and "Traceback" not in err
    assert not out.exists()


_OVERFLOWING = "a,b,c\na,0,1e308,1e308\nb,1e308,0,1e308\nc,1e308,1e308,0\n"


@pytest.mark.parametrize("argv, text, code", [
    (["metric", "--format", "distance-csv"], _OVERFLOWING, 0),
    (["envelope", "--format", "distance-csv", "--set", "a"], _OVERFLOWING, 0),
    (["envelope", "--format", "coords-csv", "--set", "p0", "--ns", "1,10000000000"],
     "label,x\np0,0\np1,1e300\np2,1.5e300\n", 0),
    # a triangle breach, d(a, c) > d(a, b) + d(b, c), where the pivot d overflows
    (["metric", "--format", "distance-csv"],
     "a,b,c,d\na,0,1,1e308,1e308\nb,1,0,1,1e308\nc,1e308,1,0,1e308\nd,1e308,1e308,1e308,0\n",
     2),
], ids=["metric-matrix", "envelope-matrix", "envelope-line", "triangle-breach"])
def test_a_distance_past_the_float_range_warns_nothing(argv, text, code, tmp_path, capsys):
    space = tmp_path / "space.csv"
    space.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([argv[0], "--space", str(space), *argv[1:],
                     "--out", str(tmp_path / "out")]) == code
    assert "Warning" not in capsys.readouterr().err
