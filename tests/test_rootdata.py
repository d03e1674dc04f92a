"""B3 root datum, sign table, torus, and extended Weyl group tests."""

from fractions import Fraction

import numpy as np
import pytest

from locus.rootdata import (
    BETAS,
    SIMPLE,
    NormalizerModel,
    SignTable,
    Torus,
    all_roots,
    beta_basis_check,
    coroot_coords,
    extended_weyl_report,
    lattice_index_of_beta_coroots,
    mu_candidates,
    n_element,
    pairing,
    pairing_table,
    reduced_word,
    reflect,
    verify_chevrels,
    weyl_group,
    x_element,
    _so7_root_vector,
)

import functools


# -- checks of the so(7) matrix model ------------------------------------------

def _check_so7(X: np.ndarray) -> bool:
    J = np.zeros((7, 7), dtype=np.int64)
    for i, mi in ((0, 4), (1, 5), (2, 6)):
        J[i, mi] = J[mi, i] = 1
    J[3, 3] = 2
    return not np.any(X.T @ J + J @ X)


def _assert_inverse(A: np.ndarray, B: np.ndarray) -> None:
    assert np.array_equal(A @ B, np.eye(7, dtype=np.int64))


def _n_element_exact(alpha, t: Fraction) -> np.ndarray:
    """n_alpha(t) = x_alpha(t) x_-alpha(-1/t) x_alpha(t) at a rational t."""
    t = Fraction(t)
    return (x_element(alpha, t) @ x_element(tuple(-a for a in alpha), -1 / t)
            @ x_element(alpha, t))


def _h_element_exact(alpha, t: Fraction) -> np.ndarray:
    """h_alpha(t) = n_alpha(1)^-1 n_alpha(t), with n_alpha(1)^-1 = n_alpha(-1)."""
    return n_element(alpha, -1) @ _n_element_exact(alpha, t)


def verify_chevalley_torus_relations() -> dict:
    """E:hn, E:n2, E:nn (n-form), and the pairing action, in so(7)."""
    out = {"hn": True, "n2": True, "nn": True, "pairing_action": True}
    roots = all_roots()
    lam = Fraction(2)
    signs = SignTable()
    ns = {a: n_element(a) for a in roots}
    n_inv = {a: n_element(a, -1) for a in roots}
    hs = {a: _h_element_exact(a, lam) for a in roots}
    for b in roots:
        _assert_inverse(ns[b], n_inv[b])
        for a in roots:
            w = reflect(a, b)
            if not np.array_equal(n_inv[b] @ hs[a] @ ns[b], hs[w]):
                out["hn"] = False
            lhs_n = n_inv[b] @ ns[a] @ ns[b]
            if not np.array_equal(lhs_n, n_element(w, signs.c(a, b))):
                out["nn"] = False
        if not np.array_equal(ns[b] @ ns[b], _h_element_exact(b, Fraction(-1))):
            out["n2"] = False
    # x_alpha(mu)^{h_beta(lam)} = x_alpha(lam^{<a,b>} mu)
    for b in roots[:6]:
        hb = hs[b]
        hbi = _h_element_exact(b, 1 / lam)
        _assert_inverse(hb, hbi)
        for a in roots:
            lhs = hbi @ x_element(a, 1) @ hb
            rhs = x_element(a, lam ** pairing(a, b))
            if not np.array_equal(lhs, rhs):
                out["pairing_action"] = False
    return out


def test_root_count_and_negation():
    roots = all_roots()
    assert len(roots) == 18
    assert all(tuple(-x for x in r) in set(roots) for r in roots)


def test_weyl_group_order_48():
    mats, index, lengths, rmul, tree = weyl_group()
    assert len(mats) == 48
    assert max(lengths) == 9  # longest element of B3


def test_pairing_values():
    a23 = (0, 1, 0)  # alpha_2 + alpha_3
    assert pairing(BETAS[0], a23) == -2
    for a in all_roots():
        assert pairing(a, SIMPLE[2]) % 2 == 0
        assert pairing(a, a) == 2


def test_beta_basis():
    report = beta_basis_check()
    assert report["passed"]
    assert report["alpha12_is_special"]  # alpha1+alpha2 in the span


def test_beta2_coroot_coordinates():
    assert coroot_coords(BETAS[1]) == (1, 2, 1)
    assert lattice_index_of_beta_coroots() == 2


def test_so7_root_vectors_live_in_so7():
    for a in all_roots():
        assert _check_so7(_so7_root_vector(a)), a


def test_so7_sl2_triples():
    # [X_a, X_-a] acts on X_b with the Cartan integer <b, a>
    for a in all_roots():
        X = np.array(_so7_root_vector(a), dtype=object)
        Y = np.array(_so7_root_vector(tuple(-x for x in a)), dtype=object)
        H = X @ Y - Y @ X
        for b in all_roots():
            Z = np.array(_so7_root_vector(b), dtype=object)
            bracket = H @ Z - Z @ H
            assert np.array_equal(bracket, pairing(b, a) * Z), (a, b)


@functools.lru_cache(maxsize=None)
def signs():
    return SignTable()


def test_sign_table_identities():
    out = signs().verify_identities()
    assert all(out.values()), out


def test_sign_examples():
    st = signs()
    a23 = (0, 1, 0)
    assert st.c(BETAS[2], a23) == -1          # root string through beta_3
    assert st.c(BETAS[0], BETAS[1]) == 1
    assert st.c(BETAS[0], BETAS[0]) == -1
    # c_{beta1, a23} = c_{beta2, a23} (the gamma consistency)
    assert st.c(BETAS[0], a23) == st.c(BETAS[1], a23)


def test_chevalley_torus_relations():
    out = verify_chevalley_torus_relations()
    assert all(out.values()), out


def test_torus_h_products():
    T = Torus(81, -1, 9)
    z = T.z()
    z1 = T.z1()
    # h_{beta2}(-1) = z1 z and the product of the three distinct involutions
    hb2 = T.h(BETAS[1], T.half)
    assert hb2 == T.mult(z1, z)
    total = T.mult(T.h(BETAS[0], T.half), hb2, T.h(BETAS[2], T.half))
    assert total == (0, 0, 0)


def test_torus_products_for_small_q():
    for q in (3, 5, 7, 9):
        T = Torus(q * q, -1 if q % 4 == 3 else 1, q)
        total = T.mult(T.h(BETAS[0], T.half), T.h(BETAS[1], T.half),
                       T.h(BETAS[2], T.half))
        assert total == (0, 0, 0)


def test_character_values():
    T = Torus(49, -1, 7)
    z = T.z()
    for a in all_roots():
        assert T.character(a, z) == 0  # z is in every root kernel
    lam = 5  # arbitrary exponent
    t = T.h(BETAS[0], lam)
    assert T.character(BETAS[0], t) == (2 * lam) % T.mod


def test_roots_trivial_on():
    T = Torus(49, -1, 7)
    assert len(T.roots_trivial_on([T.z()])) == 18
    expected = {BETAS[0], BETAS[1], BETAS[2]}
    expected |= {tuple(-x for x in b) for b in expected}
    assert set(T.roots_trivial_on([T.z1()])) == expected
    assert len(T.roots_trivial_on([(0, 0, 0)])) == 18


def test_roots_trivial_matches_divisibility():
    T = Torus(49, -1, 7)
    for beta in all_roots():
        for r in (2, 4):
            lam = T.mod // r
            X = [T.h(beta, lam)]
            lhs = set(T.roots_trivial_on(X))
            rhs = {a for a in all_roots() if pairing(a, beta) % r == 0}
            assert lhs == rhs, (beta, r)


def test_sigma_fixed_points():
    for q in (3, 5, 7, 9):
        eps = 1 if q % 4 == 1 else -1
        T = Torus(q * q, eps, q)
        assert T.fixed_count(eps * q) == (q - eps) ** 3
        assert T.fixed_count(-eps * q) == (q + eps) ** 3


def test_extended_weyl_384():
    T = Torus(49, -1, 7)
    report = extended_weyl_report(T)
    assert report["passed"], report


def test_extended_weyl_matches_so7_matrices():
    # The abstract cocycle model is validated against the honest 7x7 group.
    # The defining representation factors through the quotient by the
    # central z, so phi is exactly 2-to-1 with kernel {1, z}, and
    # phi(x . n_s) = phi(x) N_s holds for every element and generator.
    T = Torus(9, -1, 3)
    N = NormalizerModel(T)
    hatW = N.extended_weyl()
    assert len(hatW) == 384
    def as_int64(M):
        # at t = -1 the exact matrices are integral, so int64 is exact too
        assert all(Fraction(x).denominator == 1 for x in M.flat)
        return np.array(M.tolist(), dtype=np.int64)

    n_mats = [n_element(a) for a in SIMPLE]
    h_mats = [as_int64(_h_element_exact(a, Fraction(-1))) for a in SIMPLE]
    ident = np.eye(7, dtype=np.int64)

    def phi(el):
        w, t = el
        M = ident
        for s in reduced_word(N.tree, w):
            M = M @ n_mats[s]
        for i in range(3):
            if t[i] % T.mod == T.half:
                M = M @ h_mats[i]
            elif t[i] % T.mod:
                raise AssertionError("non-torsion part in the Tits group")
        return M

    z_pair = N.h_pair(T.z())
    assert np.array_equal(phi(z_pair), ident)  # z dies in SO7

    counts = {}
    for el in hatW:
        counts.setdefault(phi(el).tobytes(), []).append(el)
    assert len(counts) == 192
    for fiber in counts.values():
        assert len(fiber) == 2
        a, b = fiber
        assert a in (b, N.mul(z_pair, b))  # a b^-1 = z exactly when a = z b
    for el in hatW:
        for s in range(3):
            lhs = phi(N.mul(el, N.n_of_weyl(N.simple_refl[s])))
            rhs = phi(el) @ n_mats[s]
            assert np.array_equal(lhs, rhs)


def test_weyl_equivariance_of_torus_map():
    T = Torus(49, -1, 7)
    N = NormalizerModel(T)
    lam = 3
    for i, a in enumerate(SIMPLE):
        n = N.n_of_weyl(N.simple_refl[i])
        for b in all_roots():
            v = T.h(b, lam)
            moved = T.h(reflect(b, a), lam)
            # conjugation by n realizes the reflection on coweights
            assert N.conj_torus(v, n) == moved


def test_chevrels_q7():
    report = verify_chevrels(7)
    assert report["l"] == 1
    assert report["passed"], report
    assert report["c_power_clause"] is True
    # computed order is 2^{l+2}; the claimed 2^l is recorded alongside
    assert report["c_order"] == 8
    assert report["c_order_claimed"] == 2
    assert report["c_powers_into_E_minus_U"] is True


def test_chevrels_q3():
    report = verify_chevrels(3)
    assert report["l"] == 0
    assert report["passed"], report
    assert report["c_power_clause"] == "skipped (l = 0)"
    assert "c_order" in report  # recorded without judgment


def test_chevrels_q5():
    report = verify_chevrels(5)
    assert report["passed"], report


def test_mu_exists_small_q():
    for q in (3, 5, 7, 9):
        eps = 1 if q % 4 == 1 else -1
        T = Torus(q * q, eps, q)
        assert mu_candidates(T), q


def test_b3_pairing_table():
    table = pairing_table(all_roots())
    assert len(table) == 18 * 18
    assert table[f"{BETAS[0]}|{(0, 1, 0)}"] == -2
