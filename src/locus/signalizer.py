"""Signalizer functors on elements of order p and on objects.

An element signalizer assigns to each order-p element a of S a normal
p'-subgroup theta(a) of C_L(a), subject to conjugacy and balance conditions.
From it one builds the object-level functor Theta(P) = (cap theta(x)) cap
C_L(P), whose union over all objects is a partial normal p'-subgroup; the
quotient keeps the fusion system and divides every normalizer by Theta(P).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .locality import (
    CheckReport,
    Locality,
    MemberSet,
    PartialNormalSubgroup,
    QuotientLocality,
    as_group,
    is_partial_normal,
    quotient_locality,
    subgroup_o_pprime,
)


class SignalizerError(ValueError):
    pass


def order_p_elements(L: Locality, members: Iterable[int]) -> List[int]:
    G = L.ambient
    return sorted(x for x in members if G.element_order(x) == L.prime)


class ElementSignalizer:
    """theta : I_p(S) -> normal p'-subgroups of the centralizers C_L(a)."""

    def __init__(self, host: Locality, assignment: Dict[int, MemberSet]):
        self.host = host
        self.assignment = {a: frozenset(v) for a, v in assignment.items()}

    def __call__(self, a: int) -> MemberSet:
        return self.assignment[a]

    def union(self) -> MemberSet:
        out = {self.host.ambient.identity}
        for v in self.assignment.values():
            out |= v
        return frozenset(out)


class ObjectSignalizer:
    """Theta : Delta -> normal p'-subgroups of the normalizers N_L(P)."""

    def __init__(self, host: Locality, assignment: Dict[MemberSet, MemberSet]):
        self.host = host
        self.assignment = {frozenset(k): frozenset(v) for k, v in assignment.items()}

    def __call__(self, P: MemberSet) -> MemberSet:
        return self.assignment[frozenset(P)]


def default_theta(L: Locality) -> ElementSignalizer:
    """theta(a) = O_{p'}(C_L(a)) on a punctured locality."""
    _require_punctured(L)
    G = L.ambient
    assignment: Dict[int, MemberSet] = {}
    for a in order_p_elements(L, L.sylow.members):
        C = L.local_subgroup(G.closure([a]), "centralizer")
        assignment[a] = subgroup_o_pprime(G, C, L.prime)
    return ElementSignalizer(L, assignment)


def _require_punctured(L: Locality) -> None:
    from .locality import delta_all_nontrivial

    need = set(delta_all_nontrivial(L.sylow))
    if need - set(L.objects):
        raise SignalizerError("locality is not a punctured group")


def check_element_signalizer(theta: ElementSignalizer) -> CheckReport:
    """Conjugacy and balance conditions, over all defined conjugations and
    all commuting ordered pairs; also theta(a) = theta(b) when <a> = <b>."""
    report = CheckReport("element-signalizer")
    L = theta.host
    G = L.ambient
    sm = L.sylow.members
    elems = order_p_elements(L, sm)
    cents: Dict[int, FrozenSet[int]] = {}
    for a in elems:
        cents[a] = L.local_subgroup(G.closure([a]), "centralizer").members
        v = theta(a)
        if not v <= cents[a]:
            report.fail(f"theta({a}) not inside C_L({a})")
            continue
        if any(G.element_order(x) % L.prime == 0 and x != G.identity for x in v):
            report.fail(f"theta({a}) is not a p'-group")
        sub = G.subgroup(v)
        if not sub.verify():
            report.fail(f"theta({a}) is not a subgroup")
        if any(L.conj_set(v, g) != v for g in cents[a]):
            report.fail(f"theta({a}) not normal in C_L({a})")

    # conjugacy: theta(a^g) = theta(a)^g whenever a^g lands in S
    for a in elems:
        for g in L.carrier:
            ag = L.conj_element(a, g)
            if ag is None or ag not in sm:
                continue
            if L.conj_set(theta(a), g) != theta(ag):
                report.fail(f"conjugacy fails at a={a}, g={g}")
                break
    report.note("conjugacy_pairs", len(elems) * len(L.carrier))

    # balance over all commuting ordered pairs in S
    pairs = 0
    for a in elems:
        for b in elems:
            if G.mul(a, b) != G.mul(b, a):
                continue
            pairs += 1
            if not (theta(a) & cents[b]) <= theta(b):
                report.fail(f"balance fails at ({a},{b})")
    report.note("balance_pairs", pairs)

    # theta depends only on the generated cyclic subgroup
    for a in elems:
        for b in elems:
            if G.closure([a]) == G.closure([b]) and theta(a) != theta(b):
                report.fail(f"theta differs on generators {a},{b} of one <a>")
    return report


def theta_on_objects(theta: ElementSignalizer) -> Tuple[ObjectSignalizer, CheckReport]:
    """Theta(P) = (cap_{x in I_p(P)} theta(x)) cap C_L(P), then verified."""
    L = theta.host
    G = L.ambient
    assignment: Dict[MemberSet, MemberSet] = {}
    for P in L.sorted_objects:
        xs = order_p_elements(L, P)
        C = L.local_subgroup(P, "centralizer")
        value = set(C.members)
        for x in xs:
            value &= theta(x)
        value.add(G.identity)
        assignment[P] = frozenset(value)
    Theta = ObjectSignalizer(L, assignment)
    report = check_object_signalizer(Theta)
    if not report.passed:
        raise SignalizerError(f"object signalizer invalid: {report.failures[:1]}")
    return Theta, report


def object_signalizer_from_locals(L: Locality,
                                  local_opprime: Dict[MemberSet, MemberSet]) -> ObjectSignalizer:
    """Theta(P) = O_{p'}(N_L(P)), verified as a signalizer functor on objects."""
    Theta = ObjectSignalizer(L, dict(local_opprime))
    report = check_object_signalizer(Theta)
    if not report.passed:
        raise SignalizerError(f"local O_p' do not form a signalizer functor: "
                              f"{report.failures[:1]}")
    return Theta


def check_object_signalizer(Theta: ObjectSignalizer) -> CheckReport:
    """Normality, conjugacy, and balance (over nested object pairs)."""
    report = CheckReport("object-signalizer")
    L = Theta.host
    G = L.ambient
    p = L.prime
    for P in L.sorted_objects:
        v = Theta(P)
        NP = L.local_subgroup(P, "normalizer")
        if not v <= NP.members:
            report.fail(f"Theta(P) escapes N_L(P), |P|={len(P)}")
            continue
        if any(x != G.identity and G.element_order(x) % p == 0 for x in v):
            report.fail(f"Theta(P) not a p'-group, |P|={len(P)}")
        if not G.subgroup(v).verify():
            report.fail(f"Theta(P) not a subgroup, |P|={len(P)}")
        if any(L.conj_set(v, g) != v for g in NP.members):
            report.fail(f"Theta(P) not normal in N_L(P), |P|={len(P)}")

    s_g = {g: L.s_word((g,)) for g in L.carrier}
    for P in L.sorted_objects:
        for g in L.carrier:
            if not P <= s_g[g]:
                continue
            if L.conj_set(Theta(P), g) != Theta(L.conj_set(P, g)):
                report.fail(f"object conjugacy fails, |P|={len(P)}, g={g}")
                break

    balance = 0
    for P in L.sorted_objects:
        for Q in L.sorted_objects:
            if not P <= Q:
                continue
            balance += 1
            if Theta(P) & L.local_subgroup(Q, "centralizer").members != Theta(Q):
                report.fail(f"object balance fails, |P|={len(P)}, |Q|={len(Q)}")
    report.note("balance_pairs", balance)
    return report


def theta_hat(Theta: ObjectSignalizer) -> MemberSet:
    out = {Theta.host.ambient.identity}
    for P in Theta.host.sorted_objects:
        out |= Theta(P)
    return frozenset(out)


def theta_hat_quotient(Theta: ObjectSignalizer,
                       element_theta: Optional[ElementSignalizer] = None
                       ) -> Tuple[PartialNormalSubgroup, QuotientLocality, CheckReport]:
    """Quotient by the union of the Theta(P), with all advertised checks.

    Asserts: the union is partial normal and meets S trivially; every member
    lies in Theta(S_x); the union equals the union of the element-level
    theta(x) when one is supplied; the quotient keeps the fusion system; and
    each normalizer maps onto its quotient with kernel exactly Theta(P).
    """
    report = CheckReport("theta-hat-quotient")
    L = Theta.host
    G = L.ambient
    hat = theta_hat(Theta)

    ok, why = is_partial_normal(L, hat)
    if not ok:
        raise SignalizerError(f"Theta-hat not partial normal: {why}")
    if hat & L.sylow.members != {G.identity}:
        raise SignalizerError("Theta-hat meets S nontrivially")
    for x in hat:
        if x == G.identity:
            continue
        sx = L.s_word((x,))
        if x not in Theta(sx):
            report.fail(f"x not in Theta(S_x) for x={x}")
    if element_theta is not None:
        if hat != element_theta.union():
            report.fail("Theta-hat differs from the union of theta(x)")
    report.note("hat_order", len(hat))

    N = PartialNormalSubgroup(L, hat)
    quotient = quotient_locality(L, N, name=f"{L.name}/Theta")
    if not quotient.report.passed:
        report.fail("quotient construction checks failed")

    # fusion is preserved through the quotient
    from .fusion import fusion_of_locality, fusion_systems_agree_via

    FL = fusion_of_locality(L)
    FQ = fusion_of_locality(quotient.locality)
    iso = {s: quotient.projection[s] for s in L.sylow.members}
    if not fusion_systems_agree_via(FL, FQ, iso):
        report.fail("F_S(L/Theta-hat) differs from F_S(L)")

    # kernels of the normalizer maps are exactly Theta(P)
    proj = quotient.projection
    for P in L.sorted_objects:
        NP = L.local_subgroup(P, "normalizer")
        Pbar = frozenset(proj[x] for x in P)
        NPbar = quotient.locality.local_subgroup(Pbar, "normalizer")
        kernel = frozenset(
            x for x in NP.members
            if proj[x] == quotient.locality.ambient.identity)
        if kernel != Theta(P):
            report.fail(f"kernel of N_L(P) -> N_Lbar(P) differs from Theta(P), |P|={len(P)}")
        image = frozenset(proj[x] for x in NP.members)
        if image != NPbar.members:
            report.fail(f"N_L(P) does not map onto N_Lbar(Pbar), |P|={len(P)}")
    return N, quotient, report


def characteristic_p_reduction(L: Locality) -> Tuple[QuotientLocality, CheckReport]:
    """Divide by Theta(P) = O_{p'}(N_L(P)) when local quotients have char p.

    Aborts with a witness if some N_L(P)/O_{p'}(N_L(P)) fails to have
    characteristic p.  On success the quotient is certified to be of
    objective characteristic p and Theta-hat equals O_{p'}(L).
    """
    from .locality import _quotient_has_char_p
    from .permgroups import char_p_tests

    report = CheckReport("characteristic-p-reduction")
    G = L.ambient
    local: Dict[MemberSet, MemberSet] = {}
    for P in L.sorted_objects:
        NP = L.local_subgroup(P, "normalizer")
        opp = subgroup_o_pprime(G, NP, L.prime)
        if not _quotient_has_char_p(G, NP, opp, L.prime):
            raise SignalizerError(
                f"precondition fails: N_L(P)/O_p' not of characteristic p "
                f"for object of order {len(P)}")
        local[P] = opp
    Theta = object_signalizer_from_locals(L, local)
    N, quotient, qreport = theta_hat_quotient(Theta)
    if not qreport.passed:
        report.fail("theta-hat quotient checks failed")
        report.failures.extend(qreport.failures)

    # quotient is of objective characteristic p
    Lbar = quotient.locality
    for P in Lbar.sorted_objects:
        NPbar = Lbar.local_subgroup(P, "normalizer")
        sub = as_group(Lbar.ambient, NPbar)
        if not char_p_tests(sub, L.prime)["is_characteristic_p"]:
            report.fail(f"quotient normalizer not of characteristic p, |P|={len(P)}")
    report.note("objects", len(Lbar.objects))
    return quotient, report

