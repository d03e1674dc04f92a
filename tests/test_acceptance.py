"""The acceptance gate: every criterion at its stated tolerance.

Runs the full-acceptance pipeline once in this process and asserts each
criterion from the report.  For the determinism criterion a fresh child
process runs ``python -m locus.cli full-acceptance`` under a different
``PYTHONHASHSEED`` and its report must match this one byte for byte.  One
pass/fail line prints per criterion.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from locus.harness import RunConfig, full_acceptance

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def acceptance_report():
    rep = full_acceptance(RunConfig(pipeline="full-acceptance"))
    return rep


# sha256 of the canonical full-acceptance report at the default seed 2024
FULL_ACCEPTANCE_SHA256 = "2efb4a7985d8150c124e13e502d503836c7a35eb75ccf956abc1062672f06fd1"


def test_report_bytes_pinned(acceptance_report):
    digest = hashlib.sha256(acceptance_report.canonical_bytes()).hexdigest()
    assert digest == FULL_ACCEPTANCE_SHA256


def _flag(report, key):
    node = report.data["results"][key]
    ok = _deep_pass(node)
    print(f"{key}: {'PASS' if ok else 'FAIL'}")
    return ok


def _deep_pass(node):
    if isinstance(node, dict):
        ok = True
        for k, v in node.items():
            if k in ("passed", "ok", "seconds_ok", "runtime_ok") and v is False:
                ok = False
            elif isinstance(v, (dict, list)):
                ok = ok and _deep_pass(v)
        return ok
    if isinstance(node, list):
        return all(_deep_pass(v) for v in node)
    return True


def test_criterion_01_locality_axioms(acceptance_report):
    node = acceptance_report.data["results"]["criterion_01_locality_axioms"]
    assert set(node) == {
        "s4/all-nontrivial", "a6/all-nontrivial", "a6/centric",
        "a6xc3/all-nontrivial", "ext27_sd16/all-nontrivial"}
    for name, rec in node.items():
        assert rec["passed"], name
        assert rec["seconds_ok"], name
    assert _flag(acceptance_report, "criterion_01_locality_axioms")


def test_criterion_02_fusion_equality(acceptance_report):
    assert _flag(acceptance_report, "criterion_02_fusion_equality")


def test_criterion_03_classification(acceptance_report):
    node = acceptance_report.data["results"]["criterion_03_classification"]
    assert node["essential_count"] == 2
    assert node["essentials_are_klein_fours"]
    assert node["centrics_are_order_ge_4"]
    assert node["subcentrics_all_nontrivial"]
    assert node["characteristic_2_type"]
    assert node["O2_of_S4_fusion_is_V4"]
    assert _flag(acceptance_report, "criterion_03_classification")


def test_criterion_04_signalizer(acceptance_report):
    node = acceptance_report.data["results"]["criterion_04_signalizer"]
    assert node["theta_hat_order"] == 3
    assert node["theta_hat_meets_S_trivially"]
    assert node["quotient_carrier_ratio"] == 3
    assert _flag(acceptance_report, "criterion_04_signalizer")


def test_criterion_05_opprime(acceptance_report):
    node = acceptance_report.data["results"]["criterion_05_opprime"]
    assert node["centric_a6_trivial"]
    assert node["quotient_reduced"]
    assert node["M432_centralizers_inside"]
    assert node["M432_O3prime_trivial"]
    assert _flag(acceptance_report, "criterion_05_opprime")


def test_criterion_06_orbit_universal(acceptance_report):
    node = acceptance_report.data["results"]["criterion_06_orbit_universal"]
    for name in ("s4", "a6"):
        assert node[name]["passed"], name
    assert node["runtime_ok"]
    assert _flag(acceptance_report, "criterion_06_orbit_universal")


def test_criterion_07_mor_counts(acceptance_report):
    assert _flag(acceptance_report, "criterion_07_mor_counts")


def test_criterion_08_cohomology(acceptance_report):
    node = acceptance_report.data["results"]["criterion_08_cohomology"]
    assert node["C2_dims"] == [1, 1, 1, 1, 1]
    assert node["V4_dims"] == [1, 2, 3]
    assert node["D8_dims"] == [1, 2, 3, 4]
    assert node["transfer_restriction_index"]
    assert node["mackey_squares"]
    assert _flag(acceptance_report, "criterion_08_cohomology")


def test_criterion_09_sharpness(acceptance_report):
    node = acceptance_report.data["results"]["criterion_09_sharpness"]
    for name in ("a6", "s4"):
        rec = node[name]
        assert rec["higher_vanish"], name
        assert rec["lim0_matches_stable"], name
        for key, dim in rec["table"].items():
            i = int(key.split("_")[0][1:])
            if i >= 1:
                assert dim == 0, (name, key)
    assert node["runtime_ok"]
    assert _flag(acceptance_report, "criterion_09_sharpness")


def test_criterion_10_lambda(acceptance_report):
    node = acceptance_report.data["results"]["criterion_10_lambda"]
    assert node["lambda_trivial"]
    assert node["lambda_C2_zero"]
    assert node["lambda_S3_higher_zero"]
    assert node["atomic_comparisons"]
    assert node["restrict_to_centrics_h1"]
    assert _flag(acceptance_report, "criterion_10_lambda")


def test_criterion_11_lie(acceptance_report):
    node = acceptance_report.data["results"]["criterion_11_lie"]
    assert node["pairing_beta1_alpha23_is_minus2"]
    assert node["pairing_alpha3_even"]
    assert all(node["sign_identities"].values())
    assert node["proddistinctinvs_and_fixed_counts"]
    assert node["roots_trivial_on"]
    assert node["extended_weyl"]
    assert node["chevrels_q3"]
    assert node["chevrels_q7"]
    assert node["chevrels_q7_power_clause"]
    assert node["runtime_ok"]
    assert _flag(acceptance_report, "criterion_11_lie")


@pytest.mark.slow
def test_criterion_12_determinism(acceptance_report, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    path = tmp_path / "acceptance.json"
    child = subprocess.run(
        [sys.executable, "-m", "locus.cli", "full-acceptance", "--report", str(path)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=1800)
    assert child.returncode == 0, child.stderr.decode()[-2000:]
    same = acceptance_report.canonical_bytes() == path.read_bytes()
    print(f"criterion_12_determinism: {'PASS' if same else 'FAIL'}")
    assert same


def test_overall(acceptance_report):
    assert acceptance_report.passed
