"""Signalizer functor tests, including the full quotient conclusions."""

import pytest

from locus.fusion import fusion_of_locality, fusion_systems_agree_via
from locus.harness import load_bundled
from locus.locality import (
    Locality,
    build_locality,
    delta_all_nontrivial,
    o_pprime_locality,
)
from locus.permgroups import load_group, sylow
from locus.signalizer import (
    ElementSignalizer,
    SignalizerError,
    characteristic_p_reduction,
    check_element_signalizer,
    default_theta,
    order_p_elements,
    theta_hat,
    theta_hat_quotient,
    theta_on_objects,
)

from conftest import S3XA5_GRP, bundled


def punctured(name, p):
    G = bundled(name)
    S = sylow(G, p)
    return build_locality(G, S, delta_all_nontrivial(S), p)


def test_default_theta_a6_trivial():
    L = punctured("a6", 2)
    theta = default_theta(L)
    assert all(len(v) == 1 for v in theta.assignment.values())


def test_default_theta_a6xc3_contains_c3():
    L = punctured("a6xc3", 2)
    theta = default_theta(L)
    assert all(len(v) == 3 for v in theta.assignment.values())


def test_default_theta_s4_trivial():
    L = punctured("s4", 2)
    theta = default_theta(L)
    assert all(len(v) == 1 for v in theta.assignment.values())


def test_check_element_signalizer_pass():
    L = punctured("a6xc3", 2)
    assert check_element_signalizer(default_theta(L)).passed


def test_check_element_signalizer_balance_fail():
    L = punctured("a6xc3", 2)
    theta = default_theta(L)
    broken = dict(theta.assignment)
    a = min(broken)
    broken[a] = frozenset([L.ambient.identity])  # others keep C3: balance breaks
    rep = check_element_signalizer(ElementSignalizer(L, broken))
    assert not rep.passed
    assert any("balance" in f or "conjugacy" in f for f in rep.failures)


def test_trivial_theta_passes():
    L = punctured("a6", 2)
    one = frozenset([L.ambient.identity])
    theta = ElementSignalizer(
        L, {a: one for a in order_p_elements(L, L.sylow.members)})
    assert check_element_signalizer(theta).passed


def test_theta_on_objects_a6xc3():
    L = punctured("a6xc3", 2)
    Theta, report = theta_on_objects(default_theta(L))
    assert report.passed
    for P in L.sorted_objects:
        assert len(Theta(P)) == 3


def test_theta_on_objects_trivial():
    L = punctured("a6", 2)
    Theta, report = theta_on_objects(default_theta(L))
    assert report.passed
    assert all(len(Theta(P)) == 1 for P in L.sorted_objects)


def test_balance_nested_objects():
    L = punctured("a6xc3", 2)
    Theta, _ = theta_on_objects(default_theta(L))
    S = frozenset(L.sylow.members)
    for P in L.sorted_objects:
        assert Theta(S) <= Theta(P)


def test_signalizer_quotient_conclusions():
    # the full conclusion set on the punctured group of A6 x C3
    L = punctured("a6xc3", 2)
    theta = default_theta(L)
    Theta, _ = theta_on_objects(theta)
    N, quotient, report = theta_hat_quotient(Theta, element_theta=theta)
    assert report.passed, report.failures
    assert N.order == 3
    assert N.members & L.sylow.members == {L.ambient.identity}
    assert len(quotient.locality.carrier) * 3 == len(L.carrier)


def test_quotient_recomputed_theta_trivial():
    L = punctured("a6xc3", 2)
    Theta, _ = theta_on_objects(default_theta(L))
    _, quotient, _ = theta_hat_quotient(Theta)
    theta2 = default_theta(quotient.locality)
    assert all(len(v) == 1 for v in theta2.assignment.values())


def test_characteristic_p_reduction_a6xc3():
    L = punctured("a6xc3", 2)
    quotient, report = characteristic_p_reduction(L)
    assert report.passed, report.failures
    assert len(quotient.locality.carrier) * 3 == len(L.carrier)
    N, route = o_pprime_locality(L)
    assert N.order == 3 and route == "signalizer"


def test_characteristic_p_reduction_a6_identity():
    L = punctured("a6", 2)
    quotient, report = characteristic_p_reduction(L)
    assert report.passed
    assert len(quotient.locality.carrier) == len(L.carrier)


def test_characteristic_p_reduction_aborts_on_component():
    # A6 x A5 at p = 2: normalizers of one-sided involutions contain a
    # component on the other side, so local quotients are not of
    # characteristic 2 and the reduction must refuse with a witness.
    text = ("degree 11\n(1 2 3 4 5)\n(4 5 6)\n"
            "(7 8 9 10 11)\n(9 10 11)\n")
    G = load_group(text, name="A6xA5")
    assert G.order == 21600
    S = sylow(G, 2)
    assert S.order == 32
    sm = S.members
    carrier = [g for g in range(G.order)
               if len([x for x in sm if G.conj(x, g) in sm]) > 1]
    L = Locality(G, S, 2, delta_all_nontrivial(S), carrier, name="punct(A6xA5)")
    with pytest.raises(SignalizerError, match="characteristic"):
        characteristic_p_reduction(L)


def test_signalizer_quotient_computes_each_local_subgroup_once(monkeypatch, capsys):
    # the 9 objects of a6xc3 at p = 2 have 9 centralizers and 9 normalizers
    # in L, and 9 normalizers in L/Theta-hat
    from locus.cli import main
    from locus.permgroups import Group

    computed = []
    subgroup = Group.subgroup

    def counting(self, members, name=""):
        if name in ("N_L(P)", "C_L(P)"):
            computed.append(name)
        return subgroup(self, members, name=name)

    monkeypatch.setattr(Group, "subgroup", counting)
    assert main(["signalizer-quotient", "--group", "a6xc3"]) == 0
    assert sorted(computed) == ["C_L(P)"] * 9 + ["N_L(P)"] * 18


def test_o_pprime_fallback_route(tmp_path):
    path = tmp_path / "s3xa5.grp"
    path.write_text(S3XA5_GRP)
    G = load_bundled(str(path))
    S = sylow(G, 2)
    N, route = o_pprime_locality(build_locality(G, S, delta_all_nontrivial(S), 2))
    assert N.order == 3
    assert route == "seeds+quotient-reduced"


def test_s3xs3_signalizer_route():
    # O_2'(S3 x S3) = A3 x A3, but elements nontrivial on both factors have
    # trivial S_g and fall outside the punctured carrier; O_2'(L) is the
    # 5-element union of the one-sided A3's.
    text = "degree 6\n(1 2)\n(1 2 3)\n(4 5)\n(4 5 6)\n"
    G = load_group(text, name="S3xS3")
    G.build_tables()
    S = sylow(G, 2)
    L = build_locality(G, S, delta_all_nontrivial(S), 2)
    mixed = next(x for x in range(G.order)
                 if G.element_order(x) == 3
                 and not all(G.perm(x)[i] == i for i in range(3))
                 and not all(G.perm(x)[i] == i for i in range(3, 6)))
    assert mixed not in L.carrier_set
    N, route = o_pprime_locality(L)
    assert N.order == 5
    assert route == "signalizer"
    from locus.locality import quotient_locality

    q = quotient_locality(L, N)
    assert len(q.locality.carrier) == len(L.carrier) // 5


def test_fusion_preserved_by_signalizer_quotient():
    L = punctured("a6xc3", 2)
    Theta, _ = theta_on_objects(default_theta(L))
    _, quotient, _ = theta_hat_quotient(Theta)
    FL = fusion_of_locality(L)
    FQ = fusion_of_locality(quotient.locality)
    iso = {s: quotient.projection[s] for s in L.sylow.members}
    assert fusion_systems_agree_via(FL, FQ, iso)


def test_theta_hat_is_union_of_theta():
    L = punctured("a6xc3", 2)
    theta = default_theta(L)
    assert check_element_signalizer(theta).passed
    assert theta_hat(theta_on_objects(theta)[0]) == theta.union()
