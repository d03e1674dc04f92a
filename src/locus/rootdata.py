"""The B3 root system, Chevalley signs from so(7), finite torus arithmetic,
and the extended Weyl group.

Signs c_{alpha,beta} are read off from explicit 7x7 Chevalley generators of
so(7): the one-parameter subgroups x_alpha(t) are exponentials of root
vectors solved from the defining representation, and n_beta(1)-conjugation
moves x_alpha(1) to x_{w(alpha)}(+-1).  The model is integral: every root
vector X satisfies X^3 = 0 and has an even square, so
x_alpha(t) = 1 + tX + t^2 (X^2/2) is an integer matrix for integer t, and
n_beta(1)^-1 = n_beta(-1) needs no inverse.  Torus elements live in coroot
coordinates modulo Q-1 (field arithmetic reduces to exponent arithmetic),
and the extended Weyl group is the group of pairs (torsion, w) multiplied
through the reduced-word cocycle n_w n_s = n_{ws} (length up) or
n_{ws} h_{alpha_s}(-1) (length down).
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .permgroups import p_part

Vec = Tuple[int, int, int]


class RootDataError(ValueError):
    pass


# -- the B3 root system -------------------------------------------------------

def all_roots() -> List[Vec]:
    roots: List[Vec] = []
    for i in range(3):
        for s in (1, -1):
            v = [0, 0, 0]
            v[i] = s
            roots.append(tuple(v))
    for i in range(3):
        for j in range(i + 1, 3):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0, 0, 0]
                    v[i], v[j] = si, sj
                    roots.append(tuple(v))
    return sorted(roots)


SIMPLE = ((1, -1, 0), (0, 1, -1), (0, 0, 1))          # alpha_1..alpha_3
BETAS = ((1, -1, 0), (1, 1, 0), (0, 0, 1))            # beta_1..beta_3


def inner(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def pairing(alpha: Sequence[int], beta: Sequence[int]) -> int:
    """<alpha, beta> = 2(alpha, beta)/(beta, beta)."""
    bb = inner(beta, beta)
    if bb == 0:
        raise RootDataError("beta must be nonzero")
    num = 2 * inner(alpha, beta)
    if num % bb:
        raise RootDataError("pairing is not integral")
    return num // bb


def coroot(alpha: Sequence[int]) -> Vec:
    """alpha-vee = 2 alpha/(alpha, alpha)."""
    bb = inner(alpha, alpha)
    if bb == 0:
        raise RootDataError("alpha must be nonzero")
    if any(2 * a % bb for a in alpha):
        raise RootDataError("coroot is not integral")
    return tuple(2 * a // bb for a in alpha)


def reflect(alpha: Sequence[int], beta: Sequence[int]) -> Vec:
    """w_beta(alpha) = alpha - <alpha,beta> beta."""
    n = pairing(alpha, beta)
    return tuple(a - n * b for a, b in zip(alpha, beta))


def _triple(a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> int:
    """det[a b c] = (a, b x c)."""
    return inner(a, (b[1] * c[2] - b[2] * c[1], b[2] * c[0] - b[0] * c[2],
                     b[0] * c[1] - b[1] * c[0]))


_SIMPLE_COROOTS = tuple(coroot(a) for a in SIMPLE)
_SIMPLE_COROOTS_DET = _triple(*_SIMPLE_COROOTS)


def coroot_coords(beta: Sequence[int]) -> Vec:
    """Coordinates of beta-vee in the basis of simple coroots (Cramer's rule)."""
    v = coroot(beta)
    out = []
    for i in range(3):
        cols = list(_SIMPLE_COROOTS)
        cols[i] = v
        num = _triple(*cols)
        if num % _SIMPLE_COROOTS_DET:
            raise RootDataError("coroot is not an integer combination")
        out.append(num // _SIMPLE_COROOTS_DET)
    return tuple(out)


def weyl_matrix(beta: Sequence[int]) -> np.ndarray:
    """Matrix of w_beta on the standard basis of V."""
    cols = []
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        cols.append(reflect(e, beta))
    return np.array(cols, dtype=np.int64).T


def weyl_group() -> Tuple[List[np.ndarray], Dict[bytes, int], List[int],
                          List[List[int]], List[Optional[Tuple[int, int]]]]:
    """All 48 elements of W(B3) with lengths and a reduced-word tree.

    Returns (matrices, index-by-bytes, lengths, right multiplication table
    by the three simple reflections, BFS tree entries (parent, gen)).
    """
    gens = [weyl_matrix(a) for a in SIMPLE]
    ident = np.eye(3, dtype=np.int64)
    mats = [ident]
    index = {ident.tobytes(): 0}
    lengths = [0]
    tree: List[Optional[Tuple[int, int]]] = [None]
    rmul: List[List[int]] = []
    frontier = [0]
    while frontier:
        new = []
        for w in frontier:
            for gi, g in enumerate(gens):
                m = mats[w] @ g
                key = m.tobytes()
                if key not in index:
                    index[key] = len(mats)
                    mats.append(m)
                    lengths.append(lengths[w] + 1)
                    tree.append((w, gi))
                    new.append(index[key])
        frontier = new
    for w in range(len(mats)):
        row = []
        for g in gens:
            row.append(index[(mats[w] @ g).tobytes()])
        rmul.append(row)
    if len(mats) != 48:
        raise RootDataError(f"W(B3) enumeration found {len(mats)} elements")
    return mats, index, lengths, rmul, tree


def reduced_word(tree, w: int) -> List[int]:
    out: List[int] = []
    while tree[w] is not None:
        parent, gi = tree[w]
        out.append(gi)
        w = parent
    return list(reversed(out))


# -- beta basis facts ---------------------------------------------------------

def beta_basis_check() -> Dict[str, object]:
    """The beta_i span property and its failure for non-orthogonal pairs."""
    roots = set(all_roots())
    report: Dict[str, object] = {"passed": True}
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            bi, bj = BETAS[i], BETAS[j]
            if inner(bi, bj) != 0:
                report["passed"] = False
            span_roots = {
                r for r in roots
                if _in_span2(r, bi, bj)
            }
            expected = {bi, tuple(-x for x in bi), bj, tuple(-x for x in bj)}
            if span_roots != expected:
                report["passed"] = False
                report[f"pair_{i}{j}"] = sorted(span_roots)
    # the analogous claim fails for the simple pair (alpha1, alpha2)
    a1, a2 = SIMPLE[0], SIMPLE[1]
    bad = {r for r in roots if _in_span2(r, a1, a2)}
    report["alpha12_span_size"] = len(bad)
    report["alpha12_is_special"] = len(bad) > 4
    return report


def _in_span2(r: Vec, a: Vec, b: Vec) -> bool:
    for k in range(-3, 4):
        for l in range(-3, 4):
            if all(r[t] == k * a[t] + l * b[t] for t in range(3)):
                return True
    return False


# -- so(7) and the sign table --------------------------------------------------

def _so7_root_vector(alpha: Vec) -> np.ndarray:
    """Integer root vector X_alpha in the defining representation.

    Basis order (v_1, v_2, v_3, v_0, v_-1, v_-2, v_-3); the bilinear form
    pairs v_i with v_-i and has B(v_0, v_0) = 2.
    """
    idx_plus = {0: 0, 1: 1, 2: 2}
    idx_minus = {0: 4, 1: 5, 2: 6}
    X = np.zeros((7, 7), dtype=np.int64)
    support = [i for i in range(3) if alpha[i] != 0]
    if len(support) == 1:
        (i,) = support
        if alpha[i] == 1:       # e_i
            X[idx_plus[i], 3] = 2
            X[3, idx_minus[i]] = -1
        else:                   # -e_i
            X[3, idx_plus[i]] = 1
            X[idx_minus[i], 3] = -2
        return X
    i, j = support
    si, sj = alpha[i], alpha[j]
    if si == 1 and sj == -1:    # e_i - e_j
        X[idx_plus[i], idx_plus[j]] = 1
        X[idx_minus[j], idx_minus[i]] = -1
    elif si == -1 and sj == 1:  # e_j - e_i
        X[idx_plus[j], idx_plus[i]] = 1
        X[idx_minus[i], idx_minus[j]] = -1
    elif si == 1 and sj == 1:   # e_i + e_j
        X[idx_plus[i], idx_minus[j]] = 1
        X[idx_plus[j], idx_minus[i]] = -1
    else:                       # -e_i - e_j; sign makes [X_a, X_-a] = H_a
        X[idx_minus[i], idx_plus[j]] = -1
        X[idx_minus[j], idx_plus[i]] = 1
    return X


def x_element(alpha: Vec, t: int) -> np.ndarray:
    """x_alpha(t) = exp(t X_alpha) = 1 + t X + t^2 (X^2/2), exactly."""
    X = _so7_root_vector(alpha)
    X2 = X @ X
    if np.any(X @ X2) or np.any(X2 % 2):
        raise RootDataError("root vector not 3-step nilpotent with even square")
    return np.eye(7, dtype=np.int64) + t * X + t * t * (X2 // 2)


def n_element(alpha: Vec, t: int = 1) -> np.ndarray:
    """n_alpha(t) = x_alpha(t) x_-alpha(-1/t) x_alpha(t) for t = +-1."""
    if t not in (1, -1):
        raise RootDataError("n_element takes t = 1 or t = -1")
    return (x_element(alpha, t) @ x_element(tuple(-a for a in alpha), -t)
            @ x_element(alpha, t))


class SignTable:
    """c_{alpha,beta} for all ordered pairs of roots, from so(7)."""

    def __init__(self):
        roots = all_roots()
        self.roots = roots
        xs = {a: x_element(a, 1) for a in roots}
        ident = np.eye(7, dtype=np.int64)
        self.table: Dict[Tuple[Vec, Vec], int] = {}
        for b in roots:
            nb, nbi = n_element(b, 1), n_element(b, -1)
            if not np.array_equal(nb @ nbi, ident):
                raise RootDataError(f"n_{b}(-1) is not the inverse of n_{b}(1)")
            for a in roots:
                target = reflect(a, b)
                conj = nbi @ xs[a] @ nb
                if np.array_equal(conj, xs[target]):
                    self.table[(a, b)] = 1
                elif np.array_equal(conj, x_element(target, -1)):
                    self.table[(a, b)] = -1
                else:
                    raise RootDataError(
                        f"conjugate of x_{a} by n_{b} is not x_{target}(+-1)")

    def c(self, alpha: Vec, beta: Vec) -> int:
        return self.table[(tuple(alpha), tuple(beta))]

    def verify_identities(self) -> Dict[str, bool]:
        roots = self.roots
        rootset = set(roots)
        out = {"c1": True, "c2": True, "c3": True, "c4": True, "bibj": True}
        for a in roots:
            if self.c(a, a) != -1 or self.c(tuple(-x for x in a), a) != -1:
                out["c1"] = False
        for a in roots:
            for b in roots:
                if a == b or a == tuple(-x for x in b):
                    continue
                if self.c(tuple(-x for x in a), b) != self.c(a, b):
                    out["c2"] = False
                w = reflect(a, b)
                if self.c(a, b) * self.c(w, b) != (-1) ** pairing(a, b):
                    out["c3"] = False
                if inner(a, b) == 0:
                    s = 0
                    cur = tuple(x - y for x, y in zip(a, b))
                    while cur in rootset:
                        s += 1
                        cur = tuple(x - y for x, y in zip(cur, b))
                    if self.c(a, b) != (-1) ** s:
                        out["c4"] = False
        for i in range(3):
            for j in range(3):
                want = -1 if i == j else 1
                if self.c(BETAS[i], BETAS[j]) != want:
                    out["bibj"] = False
        return out


# -- finite torus -------------------------------------------------------------

class Torus:
    """T = (coroot lattice) tensor F_Q^x, elements as exponent triples."""

    def __init__(self, Q: int, eps: int = 1, q: Optional[int] = None):
        if Q % 2 == 0:
            raise RootDataError("field order must be odd")
        if Q < 3 or (q is not None and q < 3):
            raise RootDataError(f"field order must be at least 3 (Q = {Q}, q = {q})")
        for n in (q or Q, Q):
            # F_n^x is cyclic of order n - 1 only when n is a prime power,
            # a power of its least prime factor r
            r = next(d for d in range(2, n + 1) if n % d == 0)
            if p_part(n, r) != n:
                raise RootDataError(f"field order {n} is not a prime power")
        self.Q = Q
        self.mod = Q - 1
        self.eps = eps
        self.q = q if q is not None else Q
        self.half = self.mod // 2  # exponent of -1

    def h(self, beta: Sequence[int], exponent: int) -> Vec:
        """h_beta(g^exponent) in coroot coordinates."""
        cc = coroot_coords(beta)
        return tuple((c * exponent) % self.mod for c in cc)

    def mult(self, *ts: Sequence[int]) -> Vec:
        out = [0, 0, 0]
        for t in ts:
            for i in range(3):
                out[i] = (out[i] + t[i]) % self.mod
        return tuple(out)

    def character(self, alpha: Sequence[int], t: Sequence[int]) -> int:
        """Exponent of alpha(t) in the cyclic group F_Q^x."""
        total = 0
        for i in range(3):
            total += t[i] * pairing(alpha, SIMPLE[i])
        return total % self.mod

    def sigma(self, t: Sequence[int]) -> Vec:
        """Steinberg twist t -> t^{eps q}."""
        return tuple((self.eps * self.q * c) % self.mod for c in t)

    def fixed_count(self, scale: int) -> int:
        """Number of t with t^scale = t, per coordinate gcd(scale-1, Q-1)."""
        return gcd(scale - 1, self.mod) ** 3

    def roots_trivial_on(self, elements: Iterable[Sequence[int]]) -> List[Vec]:
        els = list(elements)
        return [a for a in all_roots()
                if all(self.character(a, t) == 0 for t in els)]

    def z(self) -> Vec:
        return self.h(SIMPLE[2], self.half)

    def z1(self) -> Vec:
        return self.h(SIMPLE[0], self.half)


# -- extended Weyl / normalizer model -----------------------------------------

class NormalizerModel:
    """Pairs (w, t) representing n_w h_t, with the Tits cocycle product.

    Right multiplication by a simple n_s sends (w, t) to (ws, s(t)) when the
    length goes up and tacks on h_{alpha_s}(-1) when it goes down; general
    products fold the second factor's fixed reduced word.  The torus part t
    is an exponent triple in coroot coordinates mod Q-1.
    """

    def __init__(self, torus: Torus):
        self.torus = torus
        mats, index, lengths, rmul, tree = weyl_group()
        self.mats = mats
        self.windex = index
        self.lengths = lengths
        self.rmul = rmul
        self.tree = tree
        # geometric action of w on coroot coordinates: column i is w(alpha_i)-vee
        self.action: List[np.ndarray] = [
            np.array([coroot_coords((m @ a).tolist()) for a in SIMPLE],
                     dtype=np.int64).T
            for m in mats]
        self.simple_refl = [index[weyl_matrix(a).tobytes()] for a in SIMPLE]

    # -- primitive operations --------------------------------------------

    def act(self, w: int, t: Sequence[int]) -> Vec:
        v = self.action[w] @ np.array(t, dtype=np.int64)
        return tuple(int(x) % self.torus.mod for x in v)

    def identity(self) -> Tuple[int, Vec]:
        return (0, (0, 0, 0))

    def h_pair(self, t: Sequence[int]) -> Tuple[int, Vec]:
        return (0, tuple(int(x) % self.torus.mod for x in t))

    def _mul_simple(self, el: Tuple[int, Vec], s: int) -> Tuple[int, Vec]:
        """(w, t) n_s = (ws, s(t) [+ h_{alpha_s}(-1) if length drops])."""
        w, t = el
        ws = self.rmul[w][s]
        t_new = self.act(self.simple_refl[s], t)
        if self.lengths[ws] < self.lengths[w]:
            extra = self.torus.h(SIMPLE[s], self.torus.half)
            t_new = self.torus.mult(t_new, extra)
        return (ws, t_new)

    def mul(self, a: Tuple[int, Vec], b: Tuple[int, Vec]) -> Tuple[int, Vec]:
        w2, t2 = b
        acc = a
        for s in reduced_word(self.tree, w2):
            acc = self._mul_simple(acc, s)
        w, t = acc
        return (w, self.torus.mult(t, t2))

    def _w_inverse(self, w: int) -> int:
        # W(B3) matrices are signed permutations, so the inverse is the transpose
        return self.windex[self.mats[w].T.tobytes()]

    # -- named elements ----------------------------------------------------

    def n_of_weyl(self, w: int) -> Tuple[int, Vec]:
        acc = self.identity()
        for s in reduced_word(self.tree, w):
            acc = self._mul_simple(acc, s)
        return acc

    def n_beta(self, beta: Sequence[int]) -> Tuple[int, Vec]:
        """n_beta(1), the Tits lift of the reflection in beta."""
        return self.n_of_weyl(self.windex[weyl_matrix(beta).tobytes()])

    # -- derived queries ----------------------------------------------------

    def conj_torus(self, t: Sequence[int], el: Tuple[int, Vec]) -> Vec:
        """t^el = el^-1 h_t el (only the Weyl part acts on the torus)."""
        w, _ = el
        return self.act(self._w_inverse(w), t)

    def commutes(self, a: Tuple[int, Vec], b: Tuple[int, Vec]) -> bool:
        return self.mul(a, b) == self.mul(b, a)

    def extended_weyl(self) -> List[Tuple[int, Vec]]:
        """Closure of the n_{alpha_i}(1): the Tits group."""
        gens = [self.n_of_weyl(self.simple_refl[s]) for s in range(3)]
        seen = {self.identity()}
        frontier = [self.identity()]
        while frontier:
            new = []
            for el in frontier:
                for g in gens:
                    nxt = self.mul(el, g)
                    if nxt not in seen:
                        seen.add(nxt)
                        new.append(nxt)
            frontier = new
        return sorted(seen)


# -- mu, c, and the chevrels verification ---------------------------------------

def mu_candidates(T: Torus) -> List[int]:
    """Exponents m with mu = g^m of 2-power order, mu^{eps q} = -mu, and
    mu^(order/4) equal to the fixed fourth root i = g^{(Q-1)/4}."""
    out = []
    mod = T.mod
    i_exp = mod // 4
    for m in range(mod):
        order = mod // gcd(mod, m) if m else 1
        if order & (order - 1):
            continue  # not a 2-power
        if order < 4:
            continue
        if (T.eps * T.q * m - m - T.half) % mod:
            continue
        if (m * (order // 4)) % mod != i_exp:
            continue
        out.append(m)
    return out


def element_e_set(T: Torus) -> List[Vec]:
    """E: the 2-torsion of the torus."""
    out = []
    for b1 in (0, T.half):
        for b2 in (0, T.half):
            for b3 in (0, T.half):
                out.append((b1, b2, b3))
    return out


def verify_chevrels(q: int) -> Dict[str, object]:
    """Torus-normalizer identities of the twisted form at q.

    Items: (i) the designated Weyl element acts as minus the identity,
    (ii) it inverts the torus, (iii) sign choices exist making it and the
    companion element commuting involutions, (iv) c is sigma-fixed and its
    2^(l-1) power is the product of the three simple -1 coweights, landing
    in E - U (power clause only when l >= 1).
    """
    eps = 1 if q % 4 == 1 else -1
    Q = q * q
    T = Torus(Q, eps, q)  # rejects q < 3 before p_part(Q - 1) could see 0
    l = p_part(Q - 1, 2) // 8
    l = l.bit_length() - 1  # 2^{l+3} | Q-1 exactly
    N = NormalizerModel(T)
    report: Dict[str, object] = {"q": q, "eps": eps, "l": l}

    w0_mat = weyl_matrix(BETAS[0]) @ weyl_matrix(BETAS[1]) @ weyl_matrix(BETAS[2])
    report["w0_is_minus_identity"] = bool(
        np.array_equal(w0_mat, -np.eye(3, dtype=np.int64)))
    w0_w = N.windex[w0_mat.tobytes()]

    # (ii): any representative with Weyl part w0 inverts the torus
    n_w0 = N.n_of_weyl(w0_w)
    inverts = True
    for t in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 5, 7)]:
        if N.conj_torus(t, n_w0) != tuple((-x) % T.mod for x in t):
            inverts = False
    report["w0_inverts_torus"] = inverts

    # (iii): existence of involution choices.  The reduced-word
    # representatives of the non-simple reflections may differ from true
    # Chevalley representatives by 2-torsion, so the search ranges over all
    # E-corrections (which subsume the +-1 sign choices) and both fourth
    # roots.
    half = T.half
    i_exp = T.mod // 4
    alpha23 = (0, 1, 0)  # alpha_2 + alpha_3 = e_2
    e_set_list = element_e_set(T)
    base_w0 = N.mul(N.mul(N.n_beta(BETAS[0]), N.n_beta(BETAS[1])),
                    N.n_beta(BETAS[2]))
    n23 = N.n_beta(alpha23)
    found = None
    for e0 in e_set_list:
        w0_el = N.mul(base_w0, N.h_pair(e0))
        if N.mul(w0_el, w0_el) != N.identity():
            continue
        for e_tau in e_set_list:
            for i_choice in (i_exp, (3 * i_exp) % T.mod):
                minus_i = (i_choice + half) % T.mod
                h_part = T.mult(e_tau,
                                T.h(BETAS[0], minus_i),
                                T.h(BETAS[1], i_choice),
                                T.h(BETAS[2], i_choice))
                tau = N.mul(n23, N.h_pair(h_part))
                if N.mul(tau, tau) != N.identity():
                    continue
                if not N.commutes(w0_el, tau):
                    continue
                if found is None:
                    found = (e0, e_tau, i_choice)
    report["involution_choices_exist"] = found is not None
    report["witness"] = found

    # (iv): mu and c.  The involution inside <c> must be the product of the
    # three simple -1 coweights and must land in E - U.  The computed order
    # of c is recorded next to the source's claimed exponent: every model
    # consistent with the mu conditions yields order 2^{l+2}, with the
    # E - U involution reached at the 2^{l+1} power.
    mus = mu_candidates(T)
    report["mu_found"] = bool(mus)
    if mus:
        m = mus[0]
        c = T.mult(T.h(BETAS[0], m), T.h(BETAS[1], m), T.h(BETAS[2], m))
        report["c_sigma_fixed"] = T.sigma(c) == c
        order = 1
        acc = c
        while acc != (0, 0, 0):
            acc = T.mult(acc, c)
            order += 1
        report["c_order"] = order
        report["c_order_claimed"] = 2 ** l
        target = T.mult(T.h(SIMPLE[0], half), T.h(SIMPLE[1], half),
                        T.h(SIMPLE[2], half))
        involution = c
        for _ in range(order // 2 - 1):
            involution = T.mult(involution, c)
        e_set = set(e_set_list)
        z, z1 = T.z(), T.z1()
        u_set = {(0, 0, 0), z, z1, T.mult(z, z1)}
        powers_into = (involution == target and involution in e_set
                       and involution not in u_set)
        report["c_powers_into_E_minus_U"] = powers_into
        if l >= 1:
            report["c_power_clause"] = powers_into
        else:
            report["c_power_clause"] = "skipped (l = 0)"

    # torus centralizer orders under sigma and sigma o w0
    report["fix_sigma"] = T.fixed_count(eps * q)
    report["fix_sigma_w0"] = T.fixed_count(-eps * q)
    report["fix_sigma_ok"] = T.fixed_count(eps * q) == (q - eps) ** 3
    report["fix_sigma_w0_ok"] = T.fixed_count(-eps * q) == (q + eps) ** 3

    report["passed"] = all([
        report["w0_is_minus_identity"], inverts,
        report["involution_choices_exist"], report["mu_found"],
        report.get("c_sigma_fixed", False),
        report.get("c_powers_into_E_minus_U", False),
        report["c_power_clause"] in (True, "skipped (l = 0)"),
        report["fix_sigma_ok"], report["fix_sigma_w0_ok"],
    ])
    return report


def extended_weyl_report(T: Torus) -> Dict[str, object]:
    """Order 384, torus intersection of order 8, and the n^2 relation."""
    N = NormalizerModel(T)
    hatW = N.extended_weyl()
    in_torus = [el for el in hatW if el[0] == 0]
    weyl_images = {el[0] for el in hatW}
    n2_ok = True
    for i, a in enumerate(SIMPLE):
        n = N.n_of_weyl(N.simple_refl[i])
        if N.mul(n, n) != N.h_pair(T.h(a, T.half)):
            n2_ok = False
    z1_ok = N.mul(N.n_of_weyl(N.simple_refl[0]),
                  N.n_of_weyl(N.simple_refl[0])) == N.h_pair(T.z1())
    return {
        "order": len(hatW),
        "torus_intersection": len(in_torus),
        "weyl_image_order": len(weyl_images),
        "n_squared_is_h_minus_one": n2_ok,
        "n_alpha1_squared_is_z1": z1_ok,
        "passed": (len(hatW) == 384 and len(in_torus) == 8
                   and len(weyl_images) == 48 and n2_ok and z1_ok),
    }


def lattice_index_of_beta_coroots() -> int:
    """Index of Z<beta_i-vee> inside the full coroot lattice."""
    return abs(_triple(*(coroot_coords(beta) for beta in BETAS)))


def pairing_table(roots: Sequence[Sequence[int]]) -> Dict[str, int]:
    """All pairings <alpha, beta>, keyed by the vector pair."""
    out: Dict[str, int] = {}
    for a in roots:
        for b in roots:
            out[f"{tuple(a)}|{tuple(b)}"] = pairing(a, b)
    return out
