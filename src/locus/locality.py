"""Partial groups and localities embedded in an ambient finite group.

A locality is stored as (carrier, Delta, S) inside an ambient Group.  The
word domain D is never materialized: a word w lies in D exactly when the
tracked subgroup S_w is an object (sound and complete for localities; the
checkers below re-derive membership through explicit object chains instead
of trusting this rule).  S_w is the intersection of the sets
S_h = {s in S : s^h in S} over the prefix products h of w; each S_h is an
int bitmask over the sorted members of S, owned by the locality, so S_w
costs one AND per letter.  A locality computes S_h for every ambient element
at once from the |S| rows of ``conj_images``, the array of conjugates s^g
that F_S(G), F_S(L) and O_p read too; L_Delta(G) reads its carrier off them.

Word-level axiom checks run on blocks, arrays of identity-padded letters: a
word's product is one ``Group.mul_many`` per column and its S_w an AND over
rows of ``Locality.mask_rows``.  They are exhaustive up to length 3 via a
compressed state graph, whose levels are blocks (a state is the pair
(product, S_w mask), which determines the tracked map s -> s^{Pi(w)}, and
every word of bounded length lands in a recorded state; the graph is built
once per locality and shared by both checkers), then run on words drawn
SAMPLE_BLOCK at a time from ``random.Random(seed)``: lengths 2-5 for the
partial-group axioms, 1-5 for the locality axioms.  Three rules keep the
checks from trusting what they check.  The tracked map of each state, and
the S_w of the (L2) chain witness, come from tracking each member of S
through the word by ``Group.conj_many`` (``_tracks``).  The battery reduces
each word it derives from a domain word (every subword and splice, and
w^-1 o w) from that word's own letters, with its own carrier and object
tests.  Both (L2) chain oracles take every object image from one
object-transport table (P, g) -> P^g, filled lazily, element by element
with ``Group.conj``, and never from the S_h masks; each distinct (object,
letter) step of a column is read once.
"""

from __future__ import annotations

import random
from typing import (Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from .permgroups import Group, Subgroup, _row_keys, all_subgroups, conj_images, member_mask, p_part

Word = Tuple[int, ...]
MemberSet = FrozenSet[int]

# word lengths of the checkers: every word up to MAX_EXHAUSTIVE_LEN through
# the state graph, sampled words up to SAMPLE_LEN, and the full word-level
# battery on at most FULL_BATTERY_CAP sampled domain words
MAX_EXHAUSTIVE_LEN = 3
SAMPLE_LEN = 5
FULL_BATTERY_CAP = 1500
# sampled words and state-graph candidates are made this many at a time, so
# the arrays of a check do not grow with the samples or states (at 16384 the
# draw lists and arrays raised the peak RSS of a pipeline run by about 1 MiB)
SAMPLE_BLOCK = 8192
# indices drawn per ``randbytes`` call of a seeded draw
DRAW_CHUNK = 1024
# domain words whose derived words the battery reduces together, and the
# (word, member of S) pairs that ``_tracks`` follows together: both keep
# the arrays of a check about as small as those of a block
BATTERY_CHUNK = 512
TRACK_CELLS = 1 << 14


class LocalityError(ValueError):
    """Raised when locality construction preconditions fail."""


class CheckReport:
    """Accumulated verdicts of an axiom suite."""

    def __init__(self, name: str):
        self.name = name
        self.passed = True
        self.failures: List[str] = []
        self.stats: Dict[str, int] = {}

    def fail(self, message: str) -> None:
        self.passed = False
        self.failures.append(message)

    def note(self, key: str, value: int) -> None:
        self.stats[key] = self.stats.get(key, 0) + value

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "passed": self.passed,
            "failures": list(self.failures),
            "stats": dict(sorted(self.stats.items())),
        }

    def __repr__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"CheckReport({self.name}: {status}, {self.stats})"


class Locality:
    """A locality (carrier, Delta, S) inside an ambient group."""

    def __init__(self, ambient: Group, sylow: Subgroup, prime: int,
                 objects: Iterable[MemberSet], carrier: Optional[Iterable[int]],
                 name: str = "L"):
        """A carrier of None means L_Delta(G): every g with S_g in Delta."""
        self.ambient = ambient
        self.sylow = sylow
        self.prime = prime
        self.objects: FrozenSet[MemberSet] = frozenset(frozenset(o) for o in objects)
        self.name = name
        if not self.objects:
            raise LocalityError("object set is empty")
        for obj in self.objects:
            if not obj <= sylow.members:
                raise LocalityError("object not contained in S")
        self.sorted_objects: Tuple[MemberSet, ...] = tuple(
            sorted(self.objects, key=lambda m: (len(m), sorted(m))))
        # inclusion-minimal objects: chain witnesses factor through these
        self.min_objects: Tuple[MemberSet, ...] = tuple(
            o for o in self.sorted_objects if not any(q < o for q in self.sorted_objects))
        # S-bit of each member of S, in sorted order, and S_h as an int mask
        # for every ambient element h
        self._s_bits: Tuple[Tuple[int, int], ...] = tuple(
            (s, 1 << i) for i, s in enumerate(sylow.sorted_members))
        self._full_mask = (1 << len(self._s_bits)) - 1
        self._masks: List[int] = _all_s_masks(ambient, sylow)
        self._mask_rows: Optional[np.ndarray] = None
        self._mask_sets: Dict[int, MemberSet] = {}
        self._object_masks = frozenset(self._mask_of(o) for o in self.objects)
        self._min_masks = tuple(self._mask_of(o) for o in self.min_objects)
        if carrier is None:
            carrier = (g for g, m in enumerate(self._masks) if m in self._object_masks)
        self.carrier: Tuple[int, ...] = tuple(sorted(set(carrier)))
        self.carrier_set: MemberSet = frozenset(self.carrier)
        self._conj_memo: Dict[int, Optional[int]] = {}
        self._transport: Dict[Tuple[MemberSet, int], Optional[MemberSet]] = {}
        self._local: Dict[Tuple[MemberSet, str], Subgroup] = {}
        self._graph: Optional[List[_Block]] = None

    # -- plumbing -------------------------------------------------------

    def state_graph(self) -> List[_Block]:
        """The levels 0..MAX_EXHAUSTIVE_LEN of the state graph, built once."""
        if self._graph is None:
            self._graph = _state_levels(self, MAX_EXHAUSTIVE_LEN)
        return self._graph

    # -- S_w as bitmasks ------------------------------------------------

    def _mask_of(self, members: MemberSet) -> int:
        return sum(bit for s, bit in self._s_bits if s in members)

    def _members(self, mask: int) -> MemberSet:
        """The subset of S a mask stands for (one shared frozenset per mask)."""
        members = self._mask_sets.get(mask)
        if members is None:
            members = frozenset(s for s, bit in self._s_bits if mask & bit)
            self._mask_sets[mask] = members
        return members

    def mask_rows(self) -> np.ndarray:
        """S_h for every ambient element h as one row of little-endian uint64
        words, bit i of the row being bit i of the int mask; built on the
        first call (only the block checks need it)."""
        if self._mask_rows is None:
            width = 8 * max(1, -(-len(self._s_bits) // 64))
            data = b"".join(m.to_bytes(width, "little") for m in self._masks)
            self._mask_rows = np.frombuffer(data, dtype="<u8").reshape(len(self._masks), -1)
        return self._mask_rows

    def _word_mask(self, word: Sequence[int]) -> int:
        """S_w as the AND of S_h over the prefix products h of w."""
        mul = self.ambient.mul
        masks = self._masks
        h = self.ambient.identity
        mask = self._full_mask
        for g in word:
            h = mul(h, g)
            mask &= masks[h]
        return mask

    # -- words ----------------------------------------------------------

    def s_word(self, word: Sequence[int]) -> MemberSet:
        """S_w: the members of S tracked into S at every prefix of w."""
        return self._members(self._word_mask(word))

    def in_domain(self, word: Sequence[int]) -> bool:
        """w in D, decided by S_w being an object."""
        if any(g not in self.carrier_set for g in word):
            return False
        return self._word_mask(word) in self._object_masks

    def product(self, word: Sequence[int]) -> int:
        return self.ambient.word(word)

    def transport(self, P: MemberSet, g: int) -> Optional[MemberSet]:
        """P^g when it is an object, else None, for an object P.

        Memoized per (P, g) in the object-transport table, the only source
        of object images for the (L2) chain oracles, which read it once per
        distinct (object, letter) step of a column of a block.  Each entry
        is computed element by element with ``Group.conj``, independently of
        the S_h masks.
        """
        key = (P, g)
        try:
            return self._transport[key]
        except KeyError:
            pass
        conj = self.ambient.conj
        image = frozenset(conj(x, g) for x in P)
        image = image if image in self.objects else None
        self._transport[key] = image
        return image

    def conj_element(self, x: int, g: int) -> Optional[int]:
        """x^g when the word (g^-1, x, g) lies in D, else None (memoized)."""
        key = x * self.ambient.order + g
        try:
            return self._conj_memo[key]
        except KeyError:
            pass
        G = self.ambient
        y = G.conj(x, g) if self.in_domain((G.inv(g), x, g)) else None
        self._conj_memo[key] = y
        return y

    def conj_set(self, members: Iterable[int], g: int) -> Optional[MemberSet]:
        """{x^g : x in members} when every word (g^-1, x, g) lies in D, else
        None."""
        out = []
        for x in members:
            y = self.conj_element(x, g)
            if y is None:
                return None
            out.append(y)
        return frozenset(out)

    # -- local subgroups -------------------------------------------------

    def local_subgroup(self, P: MemberSet, mode: str = "normalizer") -> Subgroup:
        """N_L(P) or C_L(P), checked to be a subgroup when P is an object and
        kept per (P, mode).

        Membership requires every conjugation x^g (x in P) to be defined in
        the partial group, not merely in the ambient group; C_L(P) is the
        part of N_L(P) that fixes P pointwise.
        """
        P = frozenset(P)
        sub = self._local.get((P, mode))
        if sub is not None:
            return sub
        if mode == "normalizer":
            found = [g for g in self.carrier if self.conj_set(P, g) == P]
        elif mode == "centralizer":
            conj = self.ambient.conj
            found = [g for g in self.local_subgroup(P).members
                     if all(conj(x, g) == x for x in P)]
        else:
            raise ValueError(f"unknown mode {mode!r}")
        sub = self.ambient.subgroup(found, name=f"{mode[0].upper()}_L(P)")
        if P in self.objects and not sub.verify():
            raise LocalityError(f"{mode} of an object is not closed (bug)")
        self._local[(P, mode)] = sub
        return sub

    # -- restriction ------------------------------------------------------

    def restrict(self, objects: Iterable[MemberSet], name: str = "") -> "Locality":
        objs = frozenset(frozenset(o) for o in objects)
        if not objs:
            raise LocalityError("restriction to empty object set")
        if not objs <= self.objects:
            raise LocalityError("restriction objects must lie in Delta")
        carrier = [g for g in self.carrier if self.s_word((g,)) in objs]
        return _closed(Locality(self.ambient, self.sylow, self.prime, objs, carrier,
                                name=name or f"{self.name}|restricted"))


# -- object-set helpers --------------------------------------------------

def delta_all_nontrivial(S: Subgroup) -> List[MemberSet]:
    return [m for m in all_subgroups(S) if len(m) > 1]


def delta_min_order(S: Subgroup, min_order: int) -> List[MemberSet]:
    return [m for m in all_subgroups(S) if len(m) >= min_order]


def _object_closure_failures(L: Locality) -> Iterator[str]:
    """The ways Delta breaks (L3): overgroup closure in S, then conjugation.

    Conjugation closure is checked over the carrier only.  Once Delta is
    overgroup-closed that is enough: if P is an object and P^g <= S, then
    P <= S_g = {s in S : s^g in S}, so S_g is an object and g lies in the
    carrier.
    """
    objs = L.objects
    for Q in all_subgroups(L.sylow):
        if Q not in objs and any(P <= Q for P in objs):
            yield f"not overgroup-closed: misses an order {len(Q)} overgroup of an object"
    conj = L.ambient.conj
    for P in L.sorted_objects:
        pmask = L._mask_of(P)
        for g in L.carrier:
            if (L._masks[g] & pmask == pmask
                    and frozenset(conj(x, g) for x in P) not in objs):
                yield (f"not conjugation-closed: image of an order {len(P)} "
                       f"object under g={g} missing")
                break


def _closed(L: Locality) -> Locality:
    """L itself, or LocalityError naming the first way Delta breaks (L3)."""
    failure = next(_object_closure_failures(L), None)
    if failure is not None:
        raise LocalityError(f"object set {failure}")
    return L


def build_locality(G: Group, S: Subgroup, objects: Iterable[MemberSet],
                   prime: int) -> Locality:
    """L_Delta(G) = {g : S cap S^g in Delta} with the word-tracked domain."""
    if p_part(G.order, prime) != S.order:
        raise LocalityError("S is not a Sylow p-subgroup")
    return _closed(Locality(G, S, prime, objects, None, name=f"L_Delta({G.name})"))


def _all_s_masks(G: Group, S: Subgroup) -> List[int]:
    """S_g = {s in S : s^g in S} as a mask for every g of G, bit i standing
    for the i-th member of S.

    Column i, the g with s_i^g in S, is read off row i of conj_images.
    """
    in_s = member_mask(G, S.members)
    packed = np.packbits(in_s[conj_images(G, S)].T, axis=1, bitorder="little")
    width, data = packed.shape[1], packed.tobytes()
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, len(data), width)]


# -- sampled words in blocks ------------------------------------------------

class _Block(NamedTuple):
    """One block of sampled words with their products and S_w masks."""
    letters: np.ndarray   # (k, SAMPLE_LEN) carrier elements, identity-padded
    lengths: np.ndarray   # the length of each word
    products: np.ndarray  # Pi(w) of each word
    masks: List[int]      # the distinct S_w masks of the block
    which: np.ndarray     # which[i]: index in masks of the S_w of word i
    in_domain: np.ndarray  # whether the S_w of word i is an object

    def word(self, i: int) -> Word:
        return tuple(self.letters[i, :self.lengths[i]].tolist())


def _choices(rng: random.Random, n: int, k: int) -> np.ndarray:
    """``rng.choices(range(n), k=k)`` as an intp array, drawn in numpy.

    CPython's ``random()`` takes two 32-bit outputs x1, x2 of the Mersenne
    Twister and returns ((x1 >> 5) * 2**26 + (x2 >> 6)) / 2**53, and
    ``choices`` picks floor(random() * n).  ``randbytes(8 * m)`` consumes the
    next 2m outputs, in order and little-endian, so this replays the k calls
    exactly and leaves ``rng`` in the state ``choices`` leaves it.  The draw
    goes DRAW_CHUNK indices at a time, which keeps its temporaries smaller
    than the list ``choices`` builds.
    """
    out = np.empty(k, dtype=np.intp)
    for start in range(0, k, DRAW_CHUNK):
        words = np.frombuffer(rng.randbytes(8 * min(DRAW_CHUNK, k - start)), dtype="<u4")
        u = (words[0::2] >> 5) * 67108864.0
        u += words[1::2] >> 6
        u *= 1.0 / 9007199254740992.0
        u *= n
        out[start:start + len(u)] = u  # truncation: the floor of u >= 0
    return out


def _sampled_blocks(L: Locality, samples: int, seed: int,
                    min_len: int) -> Iterator[_Block]:
    """``samples`` seeded words over the carrier, SAMPLE_BLOCK at a time.

    Lengths are uniform on min_len..SAMPLE_LEN and letters uniform on the
    carrier, drawn as small-int indices by ``_choices``: one draw for the
    lengths of a block, then one per letter column for the words that reach
    it.  The words, and the generator state after each block, are those of
    the same ``random.Random(seed).choices`` calls.  Padding with the
    identity, whose S-mask is full, leaves each product and S_w unchanged,
    so every column is one ``mul_many`` and one AND of mask rows.
    """
    G = L.ambient
    rng = random.Random(seed)
    carrier = np.asarray(L.carrier, dtype=np.intp)
    for start in range(0, samples, SAMPLE_BLOCK):
        k = min(SAMPLE_BLOCK, samples - start)
        lengths = min_len + _choices(rng, SAMPLE_LEN + 1 - min_len, k)
        letters = np.full((k, SAMPLE_LEN), G.identity, dtype=np.intp)
        for j in range(SAMPLE_LEN):
            live = np.flatnonzero(lengths > j)
            letters[live, j] = carrier[_choices(rng, len(carrier), len(live))]
        yield _block(L, letters, lengths)


def _block(L: Locality, letters: np.ndarray, lengths: np.ndarray) -> _Block:
    """The block of the identity-padded words ``letters`` of the given
    lengths, reduced by ``_reduce``, with one object test per distinct S_w."""
    products, masks = _reduce(L.ambient, L.mask_rows(), letters)
    ints, which = _distinct_masks(masks)
    is_object = np.array([m in L._object_masks for m in ints], dtype=bool)
    return _Block(letters, lengths, products, ints, which, is_object[which])


def _reduce(G: Group, rows: np.ndarray, letters: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Pi(w) and the S_w mask row of each identity-padded word of
    ``letters``: one ``mul_many`` per column and an AND of the mask rows of
    the prefix products."""
    products = letters[:, 0]
    masks = rows[products]
    for j in range(1, letters.shape[1]):
        products = G.mul_many(products, letters[:, j])
        masks &= rows[products]
    return products, masks


def _distinct_masks(masks: np.ndarray) -> Tuple[List[int], np.ndarray]:
    """The distinct rows of ``masks`` as int masks, and which[i], the index
    among them of row i."""
    distinct, which = np.unique(_row_keys(masks), return_inverse=True)
    data, width = distinct.tobytes(), distinct.itemsize  # keys zero-pad short rows
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, len(data), width)], which


# -- state graph ----------------------------------------------------------

def _state_levels(L: Locality, depth: int) -> List[_Block]:
    """Level k, for k <= depth, is the block of the first word of each
    distinct (product, S_w mask) state of the words of length k, in the
    order of the candidates: each state of level k - 1 extended by each
    carrier element.  Candidates go SAMPLE_BLOCK at a time, their products
    one ``mul_many`` and their masks an AND with ``mask_rows``; one is kept
    when its product and the number of its mask (in order of appearance)
    are new."""
    G = L.ambient
    rows = L.mask_rows()
    carrier = np.asarray(L.carrier, dtype=np.intp)
    levels = [_block(L, np.full((1, 1), G.identity, dtype=np.intp), np.zeros(1, dtype=np.intp))]
    for k in range(depth):
        products, masks = _reduce(G, rows, levels[-1].letters)
        total = len(products) * len(carrier)
        numbers: Dict[int, int] = {}
        seen, kept = np.empty(0, dtype=np.int64), []  # the distinct keys so far, sorted
        for start in range(0, total, SAMPLE_BLOCK):
            state, letter = np.divmod(np.arange(start, min(start + SAMPLE_BLOCK, total)),
                                      len(carrier))
            h = G.mul_many(products[state], carrier[letter])
            ints, which = _distinct_masks(masks[state] & rows[h])
            keys = np.array([numbers.setdefault(m, len(numbers)) for m in ints],
                            dtype=np.int64)[which] * G.order + h
            old = len(seen)  # first occurrences: unique sorts stably for return_index
            seen, first = np.unique(np.concatenate([seen, keys]), return_index=True)
            kept.append(start - old + np.sort(first[first >= old]))
        state, letter = np.divmod(np.concatenate(kept), len(carrier))
        letters = np.column_stack([levels[-1].letters[state, :k], carrier[letter]])
        levels.append(_block(L, letters, np.full(len(letters), k + 1)))
    return levels


# -- axiom checkers -------------------------------------------------------

def _check_samples(samples: int) -> None:
    if samples < 0:
        raise LocalityError(f"samples = {samples} is negative")


def check_partial_group(L: Locality, samples: int = 100000,
                        seed: int = 2024) -> CheckReport:
    """Verify the partial-group axioms on the word domain of L.

    Exhaustive to MAX_EXHAUSTIVE_LEN through the state graph, then on
    ``samples`` seeded words of lengths 2..SAMPLE_LEN: the full word-level
    battery on the first FULL_BATTERY_CAP domain words in sample order, and
    the domain consistency test once per distinct S_w of each block, which
    covers every sampled word.  The battery reduces each word it derives
    from a domain word (every subword and splice, and w^-1 o w) from that
    word's own letters, BATTERY_CHUNK domain words at a time.
    """
    _check_samples(samples)
    report = CheckReport("partial-group")
    G = L.ambient

    # length-1 words: direct product map restricts to identity, inverses exist
    for g in L.carrier:
        if L.product((g,)) != g:
            report.fail(f"Pi((g,)) != g for g={g}")
        if G.inv(g) not in L.carrier_set:
            report.fail(f"carrier not inversion-closed at g={g}")
    report.note("length1", len(L.carrier))

    in_carrier = member_mask(G, L.carrier_set)
    _check_states(L, in_carrier, report)

    # seeded sampling: honest word-level axioms at longer lengths; the full
    # battery (all subwords, splices, inversion) runs on a capped number of
    # domain words, and the domain consistency test on every S_w sampled
    battery = 0
    for block in _sampled_blocks(L, samples, seed, 2):
        battery += _check_block(L, block, FULL_BATTERY_CAP - battery, in_carrier, report)
        if _enough_failures(report):
            break
    report.note("sampled_words", samples)
    report.note("sampled_full_battery", battery)
    return report


def _check_states(L: Locality, in_carrier: np.ndarray, report: CheckReport) -> None:
    """On every state of the graph: S_w is a subgroup (one ``Subgroup.verify``
    per distinct mask; a state that is none fails only as such), the tracked
    map is conjugation by Pi(w) (so the splice and inversion axioms reduce to
    object closure) and, for a domain word, Pi(w) lies in the carrier
    (``in_carrier``) and S_w^{Pi(w)} is an object.  The tracked map comes
    from ``_tracks`` on each state's first word, not from the graph's masks;
    its fibre must be the state's mask."""
    G = L.ambient
    members = np.asarray(L.sylow.sorted_members, dtype=np.intp)
    is_subgroup: Dict[int, bool] = {}
    for length, level in enumerate(L.state_graph()[1:], 1):
        for mask in set(level.masks) - set(is_subgroup):
            sw = L._members(mask)
            is_subgroup[mask] = G.identity in sw and G.subgroup(sw).verify()
        masks = np.array(level.masks, dtype=object)[level.which]
        map_ok, image_ok = np.zeros((2, len(level.lengths)), dtype=bool)
        for part, tracked, alive in _tracks(L, level.letters, np.arange(len(level.lengths))):
            fibres, which = _distinct_masks(np.packbits(alive, axis=1, bitorder="little"))
            map_ok[part] = ((np.array(fibres, dtype=object)[which] == masks[part])
                            & ((tracked == G.conj_many(members, level.products[part, None]))
                               | ~alive).all(axis=1))
            images = np.sort(np.where(alive, tracked.astype(np.intp), -1), axis=1)
            _, first, which = np.unique(_row_keys(images), return_index=True, return_inverse=True)
            image_ok[part] = np.array([frozenset(images[i].tolist()) - {-1} in L.objects
                                       for i in first])[which]
        subgroup = np.array([is_subgroup[m] for m in level.masks])[level.which]
        domain = subgroup & np.array([m in L._object_masks for m in level.masks])[level.which]
        sites = {"S_w not a subgroup at word": ~subgroup,
                 "tracked map differs from c_Pi(w) at": subgroup & ~map_ok,
                 "Pi(w) escapes carrier at": domain & ~in_carrier[level.products],
                 "S_w image not an object at": domain & ~image_ok}
        for i, site in zip(*np.nonzero(np.column_stack(list(sites.values())))):
            report.fail(f"{list(sites)[site]} {level.word(i)}")
        report.note(f"states_len{length}", len(level.lengths))


def _enough_failures(report: CheckReport) -> bool:
    return len(report.failures) > 5


def _check_block(L: Locality, block: _Block, cap: int, in_carrier: np.ndarray,
                 report: CheckReport) -> int:
    """The full battery on the first ``cap`` domain words of a block, then
    the domain consistency test once per distinct S_w of the block; stops
    after more than five failures.  Returns the number of battery words
    checked up to the stop."""
    if _enough_failures(report):
        return 0
    words = np.flatnonzero(block.in_domain)[:cap]
    for start in range(0, len(words), BATTERY_CHUNK):
        chunk = words[start:start + BATTERY_CHUNK]
        for i, message in _battery_failures(L, block.letters[chunk], block.lengths[chunk],
                                            in_carrier):
            report.fail(message)
            if _enough_failures(report):
                return start + i + 1
    for j in np.flatnonzero(_inconsistent_masks(L, block)):
        if _enough_failures(report):
            break
        word = block.word(np.flatnonzero(block.which == j)[0])
        report.fail(f"domain test inconsistent on sampled word {word}")
    return len(words)


def _inconsistent_masks(L: Locality, block: _Block) -> np.ndarray:
    """For each distinct S_w of a block, whether the domain test (S_w is an
    object) disagrees with the chain criterion: every chain factors through
    a minimal object inside S_w."""
    return np.array([(m in L._object_masks) != any(q & m == q for q in L._min_masks)
                     for m in block.masks], dtype=bool)


def _battery_failures(L: Locality, letters: np.ndarray, lengths: np.ndarray,
                      in_carrier: np.ndarray) -> List[Tuple[int, str]]:
    """(i, message) for each word i of ``letters`` (identity-padded, of the
    given lengths) that lies in D and fails the battery, in word order, with
    the first failure in the battery's order: every subword w[i:j] lies in
    D; every splice w[:i] + (Pi(w[i:j]),) + w[j:] lies in D and has product
    Pi(w); w^-1 o w lies in D and has product 1.  ``in_carrier`` marks the
    carrier among the ambient elements."""
    inverse = np.asarray(L.ambient.inverse, dtype=np.intp)
    failures = []
    for n in range(1, letters.shape[1] + 1):
        rows = np.flatnonzero(lengths == n)
        if len(rows):
            failures += [(int(rows[r]), message) for r, message in
                         _battery_of_length(L, letters[rows, :n], inverse, in_carrier)]
    return sorted(failures)


def _battery_of_length(L: Locality, words: np.ndarray, inverse: np.ndarray,
                       in_carrier: np.ndarray) -> Iterator[Tuple[int, str]]:
    """``_battery_failures`` on words of one length n, the rows of ``words``.

    Each family of derived words is one gather of the words' letters, a
    product column of their subwords and the identity through a template of
    column indices, then one reduction."""
    k, n = words.shape
    spans = [(i, j) for i in range(n) for j in range(i + 1, n + 1)]
    one = np.full((k, 1), L.ambient.identity, dtype=np.intp)
    # subwords: columns of [w | 1], w[i:j] padded by column n
    template = np.array([list(range(i, j)) + [n] * (n - j + i) for i, j in spans])
    sub_in, sub_prod = _derived(L, np.hstack([words, one])[:, template], template == n,
                                in_carrier)
    whole = spans.index((0, n))
    in_d, total = sub_in[:, whole], sub_prod[:, whole]
    # splices: columns of [w | Pi of each subword | 1], padded by the last
    pad = n + len(spans)
    template = np.array([list(range(i)) + [n + s] + list(range(j, n)) + [pad] * (j - i - 1)
                         for s, (i, j) in enumerate(spans)])
    spl_in, spl_prod = _derived(L, np.hstack([words, sub_prod, one])[:, template],
                                template == pad, in_carrier)
    # w^-1 o w
    inv_in, inv_prod = _derived(L, np.hstack([inverse[words[:, ::-1]], words])[:, None],
                                np.zeros((1, 2 * n), dtype=bool), in_carrier)
    sub_bad = ~sub_in
    spl_bad = ~spl_in | (spl_prod != total[:, None])
    inv_bad = ~inv_in[:, 0] | (inv_prod[:, 0] != L.ambient.identity)
    for r in np.flatnonzero(in_d & (sub_bad.any(axis=1) | spl_bad.any(axis=1) | inv_bad)):
        word = tuple(words[r].tolist())
        if sub_bad[r].any():
            i, j = spans[sub_bad[r].argmax()]
            yield r, f"subword {word[i:j]} of domain word {word} not in D"
        elif spl_bad[r].any():
            s = spl_bad[r].argmax()
            i, j = spans[s]
            spliced = word[:i] + (int(sub_prod[r, s]),) + word[j:]
            yield r, (f"spliced word {spliced} of {word} not in D" if not spl_in[r, s]
                      else f"splice changes product on {word}")
        elif not inv_in[r, 0]:
            yield r, f"w^-1 o w not in D for {word}"
        else:
            yield r, f"Pi(w^-1 o w) != 1 for {word}"


def _derived(L: Locality, letters: np.ndarray, pad: np.ndarray,
             in_carrier: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(w in D, Pi(w)) for the (k, d) words of a (k, d, width) letter array
    whose (d, width) ``pad`` marks the identity padding: a carrier test on
    the other letters and an object test on the S_w reduced from them."""
    k, d, width = letters.shape
    block = _block(L, letters.reshape(k * d, width), np.tile((~pad).sum(axis=1), k))
    in_d = block.in_domain.reshape(k, d) & (in_carrier[letters] | pad).all(axis=2)
    return in_d, block.products.reshape(k, d)


def check_locality_axioms(L: Locality, samples: int = 20000,
                          seed: int = 2024) -> CheckReport:
    """Verify (L1), (L2) in both directions, and (L3).

    (L2) is checked exhaustively on the states of the state graph, then on
    ``samples`` seeded words of lengths 1..SAMPLE_LEN by explicit object
    chains: every word in D by the chain from its tracked S_w, every word
    outside D by the search from each minimal object.  Both walk the
    object-transport table of ``Locality.transport`` a column of a block at
    a time, and neither reads S_w or an object image from the S_h masks.
    """
    _check_samples(samples)
    report = CheckReport("locality-axioms")
    G = L.ambient
    sm = L.sylow.members

    # (L1): S is maximal among p-subgroups of the carrier
    if not L.sylow.is_p_group(L.prime):
        report.fail("S is not a p-group")
    bound = L.prime * L.sylow.order
    for g in L.carrier:
        if g in sm or p_part(o := G.element_order(g), L.prime) != o:
            continue
        closure = G.closure(sorted(sm) + [g], limit=bound)
        if (len(closure) <= bound and p_part(len(closure), L.prime) == len(closure)
                and closure <= L.carrier_set
                and _is_partial_subgroup_set(L, closure)):
            report.fail(f"(L1) violated: p-subgroup above S through g={g}")
            break
    report.note("L1_scanned", len(L.carrier))

    # (L3): overgroup closure and conjugation closure of Delta
    for failure in _object_closure_failures(L):
        report.fail(f"(L3) Delta {failure}")
    report.note("L3_objects", len(L.objects))

    # (L2), exhaustive part: on every state of the graph, S_w membership in
    # Delta must coincide with the existence of an object chain
    for length, level in enumerate(L.state_graph()[1:], 1):
        for i in np.flatnonzero(_inconsistent_masks(L, level)[level.which]):
            report.fail(f"(L2) mismatch on state of word {level.word(i)}")
        report.note(f"L2_states_len{length}", len(level.lengths))

    # (L2), sampled honest chains, a block at a time
    for block in _sampled_blocks(L, samples, seed + 1, 1):
        if _l2_chain_failure(L, block, report):
            break
    report.note("L2_sampled", samples)
    return report


def _l2_chain_failure(L: Locality, block: _Block, report: CheckReport) -> bool:
    """Report the first word of the block whose S_w membership in Delta
    disagrees with its explicit chains; True if there was one.  A word in D
    needs a witness chain, a word outside D must have no chain from a
    minimal object."""
    inside = block.in_domain
    bad = inside & (_witness_ends(L, block.letters, block.lengths, inside) < 0)
    bad |= _search_hits(L, block.letters, block.lengths, ~inside)
    if not bad.any():
        return False
    i = int(bad.argmax())
    word = block.word(i)
    report.fail(f"(L2) chain construction failed for {word}" if inside[i]
                else f"(L2) found chain for word outside D: {word}")
    return True


def _witness_ends(L: Locality, letters: np.ndarray, lengths: np.ndarray,
                  among: np.ndarray) -> np.ndarray:
    """P_n of the explicit object chain P_0..P_n certifying each word marked
    in ``among``, as an index in ``L.sorted_objects``, or -1 when the chain
    breaks (and for every word not marked).

    Any chain's P_0 consists of elements tracked into S at every prefix, so
    P_0 <= S_w; maximality makes S_w itself the canonical choice, found as
    the fibre of ``_tracks``.
    """
    ids = {L._mask_of(P): i for i, P in enumerate(L.sorted_objects)}
    start = np.full(len(letters), -1, dtype=np.intp)
    for part, _, alive in _tracks(L, letters, np.flatnonzero(among)):
        ints, which = _distinct_masks(np.packbits(alive, axis=1, bitorder="little"))
        start[part] = np.array([ids.get(m, -1) for m in ints], dtype=np.intp)[which]
    return _walk(L, start, letters, lengths)


def _search_hits(L: Locality, letters: np.ndarray, lengths: np.ndarray,
                 among: np.ndarray) -> np.ndarray:
    """Whether some minimal object tracks through the whole word, for each
    word marked in ``among`` (False for the others): the independent chain
    search, one walk of the words per minimal object."""
    hits = np.zeros(len(letters), dtype=bool)
    for i, P in enumerate(L.sorted_objects):
        if P in L.min_objects:
            hits |= _walk(L, np.where(among, i, -1), letters, lengths) >= 0
    return hits


def _walk(L: Locality, start: np.ndarray, letters: np.ndarray,
          lengths: np.ndarray) -> np.ndarray:
    """Walks through the object-transport table: the walk of word r starts
    at object ``start[r]`` (an index in ``L.sorted_objects``, -1 for none)
    and steps through its letters, a column of the words at a time.
    Returns where each walk ends, -1 once a step leaves Delta.  Each
    distinct (object, letter) step of a column is read from
    ``Locality.transport`` once and scattered back."""
    objects = L.sorted_objects
    ids = {P: i for i, P in enumerate(objects)}
    order = L.ambient.order
    current = start.copy()
    for j in range(letters.shape[1]):
        live = np.flatnonzero((current >= 0) & (lengths > j))
        if not len(live):
            break
        steps, at = np.unique(current[live] * order + letters[live, j], return_inverse=True)
        images = [L.transport(objects[q // order], q % order) for q in steps.tolist()]
        current[live] = np.array([-1 if P is None else ids[P] for P in images],
                                 dtype=np.intp)[at]
    return current


def _tracks(L: Locality, letters: np.ndarray,
            rows: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each member s of S tracked through the identity-padded words of the
    given ``rows`` of ``letters`` by ``Group.conj_many``, TRACK_CELLS (word,
    member) pairs at a time: (rows, s^{Pi(w)}, whether s stayed in S at every
    prefix).  The fibre, the members that stayed, is S_w; no mask is read."""
    G = L.ambient
    members = np.asarray(L.sylow.sorted_members, dtype=np.intp)
    in_s = member_mask(G, L.sylow.members)
    step = max(1, TRACK_CELLS // len(members))
    for start in range(0, len(rows), step):
        part = rows[start:start + step]
        tracked = np.broadcast_to(members, (len(part), len(members)))
        alive = np.ones(tracked.shape, dtype=bool)
        for j in range(letters.shape[1]):
            tracked = G.conj_many(tracked, letters[part, j, None])
            alive &= in_s[tracked]
        yield part, tracked, alive


def _is_partial_subgroup_set(L: Locality, members: MemberSet) -> bool:
    """All pairwise products defined and inside the set (subgroup of L)."""
    ms = sorted(members)
    G = L.ambient
    for a in ms:
        if G.inv(a) not in members:
            return False
        for b in ms:
            if not L.in_domain((a, b)):
                return False
            if G.mul(a, b) not in members:
                return False
    return True


# -- partial normal subgroups and quotients --------------------------------

class PartialNormalSubgroup:
    def __init__(self, host: Locality, members: MemberSet):
        self.host = host
        self.members = frozenset(members)

    @property
    def order(self) -> int:
        return len(self.members)


def _forced(L: Locality, members: MemberSet) -> Iterator[Tuple[int, str]]:
    """(y, reason) for each element y that the partial-normal rules force
    into ``members`` but that is missing: inverses, then products of pairs in
    D, then defined conjugates by the carrier.  Pairwise products suffice:
    prefixes of domain words are domain words, and splicing reduces longer
    words to pairs."""
    G = L.ambient
    for x in members:
        if (y := G.inv(x)) not in members:
            yield y, f"not inversion-closed at {x}"
    for a in members:
        for b in members:
            if L.in_domain((a, b)) and (y := G.mul(a, b)) not in members:
                yield y, f"product escapes at ({a},{b})"
    for n in members:
        for g in L.carrier:
            if (y := L.conj_element(n, g)) is not None and y not in members:
                yield y, f"conjugate {n}^{g} escapes"


def is_partial_normal(L: Locality, members: Iterable[int]) -> Tuple[bool, str]:
    """Partial subgroup closed under every defined conjugation."""
    mem = frozenset(members)
    if not mem <= L.carrier_set:
        return False, "members escape the carrier"
    if L.ambient.identity not in mem:
        return False, "missing identity"
    _, why = next(_forced(L, mem), (None, ""))
    return not why, why


def cosets(L: Locality, N: PartialNormalSubgroup) -> Dict[int, MemberSet]:
    """All cosets Nf = {Pi(n, f) : (n, f) in D} by direct enumeration."""
    G = L.ambient
    out: Dict[int, MemberSet] = {}
    for f in L.carrier:
        members = set()
        for n in N.members:
            if L.in_domain((n, f)):
                members.add(G.mul(n, f))
        out[f] = frozenset(members)
    return out


class QuotientLocality:
    """Result of dividing a locality by a partial normal subgroup."""

    def __init__(self, locality: Locality, projection: Dict[int, int],
                 maximal_cosets: List[MemberSet], report: CheckReport):
        self.locality = locality
        self.projection = projection
        self.maximal_cosets = maximal_cosets
        self.report = report


def quotient_locality(L: Locality, N: PartialNormalSubgroup,
                      name: str = "") -> QuotientLocality:
    """Quotient by maximal cosets, realized inside the ambient quotient group.

    The maximal-coset partition is computed from scratch and then verified
    to agree with the cosets of the normal closure of N in the ambient
    group, so the quotient locality can be represented in M/K.
    """
    from .permgroups import quotient_group

    report = CheckReport("quotient-locality")
    ok, why = is_partial_normal(L, N.members)
    if not ok:
        raise LocalityError(f"not partial normal: {why}")
    G = L.ambient

    all_cosets = cosets(L, N)
    distinct = set(all_cosets.values())
    maximal = [c for c in distinct if not any(c < d for d in distinct)]
    covered: Dict[int, MemberSet] = {}
    for c in maximal:
        for x in c:
            if x in covered and covered[x] != c:
                report.fail(f"maximal cosets fail to partition at element {x}")
            covered[x] = c
    if set(covered) != set(L.carrier):
        report.fail("maximal cosets do not cover the carrier")
    if not report.passed:
        raise LocalityError("; ".join(report.failures))
    report.note("maximal_cosets", len(maximal))

    conjugates = {y for x in N.members for y in G.conj_all(x).tolist()}
    K = G.generated_subgroup(conjugates, name="K")
    Q, proj = quotient_group(G, K)
    Q.build_tables()  # as load_bundled does for every ambient group
    # each maximal coset must sit inside one K-coset, distinct ones apart
    rep_of: Dict[MemberSet, int] = {}
    for c in maximal:
        images = {proj[x] for x in c}
        if len(images) != 1:
            raise LocalityError("maximal coset spread over several K-cosets")
        rep_of[c] = images.pop()
    if len(set(rep_of.values())) != len(maximal):
        raise LocalityError("distinct maximal cosets collide in M/K")

    sbar = Q.subgroup({proj[x] for x in L.sylow.members})
    if sbar.order != L.sylow.order:
        raise LocalityError("S does not embed in the quotient")
    objs = frozenset(frozenset(proj[x] for x in P) for P in L.objects)
    carrier = sorted({proj[x] for x in L.carrier})
    Lbar = Locality(Q, sbar, L.prime, objs, carrier,
                    name=name or f"{L.name}/N")
    projection = {x: proj[x] for x in L.carrier}

    # the preimage of S-bar must be exactly the product set NS
    ns = set()
    for n in N.members:
        for s in L.sylow.members:
            if L.in_domain((n, s)):
                ns.add(G.mul(n, s))
    preimage = {x for x in L.carrier if proj[x] in {proj[s] for s in L.sylow.members}}
    if ns != preimage:
        report.fail("preimage of S-bar differs from NS")
    report.note("preimage_NS", len(ns))
    return QuotientLocality(Lbar, projection, maximal, report)


# -- O_p'(L) ----------------------------------------------------------------

def o_pprime_locality(L: Locality) -> Tuple[PartialNormalSubgroup, str]:
    """Largest partial normal p'-subgroup, with the certification route used.

    Route 1: all local O_{p'}(N_L(P)) trivial forces O_{p'}(L) = 1.
    Route 2: signalizer functor on objects (local quotients of
    characteristic p), where the union of the local subgroups is O_{p'}(L).
    Route 3: generate from local seeds and certify by re-running on the
    quotient, which must be p'-reduced.  S3 x A5 at p = 2 takes it: for P
    of order 2 inside S3, N_L(P) = C2 x A5 is not of characteristic p.
    """
    from .signalizer import object_signalizer_from_locals, theta_hat

    p = L.prime
    local_opprime = {P: subgroup_o_pprime(L.ambient, L.local_subgroup(P), p)
                     for P in L.sorted_objects}
    if all(len(m) == 1 for m in local_opprime.values()):
        return PartialNormalSubgroup(L, frozenset([L.ambient.identity])), "locally-trivial"

    if all(_quotient_has_char_p(L.ambient, L.local_subgroup(P), opp, p)
           for P, opp in local_opprime.items()):
        theta = object_signalizer_from_locals(L, local_opprime)
        hat = theta_hat(theta)
        ok, why = is_partial_normal(L, hat)
        if not ok:
            raise LocalityError(f"signalizer union not partial normal: {why}")
        return PartialNormalSubgroup(L, hat), "signalizer"

    # fallback: seeds O_{p'}(C_L(P)) generate the candidate
    candidate = _partial_closure(L, frozenset().union(*(
        subgroup_o_pprime(L.ambient, L.local_subgroup(P, "centralizer"), p)
        for P in L.sorted_objects)))
    ok, why = is_partial_normal(L, candidate)
    if not ok:
        raise LocalityError(f"fallback candidate not partial normal: {why}")
    if candidate & L.sylow.members != {L.ambient.identity}:
        raise LocalityError("fallback candidate meets S")
    N = PartialNormalSubgroup(L, candidate)
    quotient = quotient_locality(L, N)
    rec, _ = o_pprime_locality(quotient.locality)
    if rec.order != 1:
        raise LocalityError("fallback candidate is not all of O_p'(L)")
    return N, "seeds+quotient-reduced"


def _partial_closure(L: Locality, seed: MemberSet) -> MemberSet:
    """The least set containing ``seed`` and the identity that the
    partial-normal rules force nothing more into."""
    members = frozenset(seed) | {L.ambient.identity}
    while forced := {y for y, _ in _forced(L, members)}:
        members |= forced
    return members


def as_group(G: Group, H: Subgroup) -> Group:
    """Promote a subgroup to a standalone Group on the same points."""
    return Group(G.degree, [G.perm(x) for x in (H.gens() or [G.identity])],
                 name=H.name or "H")


def subgroup_o_pprime(G: Group, H: Subgroup, p: int) -> FrozenSet[int]:
    """O_{p'}(H) as a set of ambient element ids."""
    from .permgroups import o_pprime as group_o_pprime

    Hg = as_group(G, H)
    opp = group_o_pprime(Hg, p)
    return frozenset(G.index(Hg.perm(i)) for i in opp.members)


def _quotient_has_char_p(G: Group, NP: Subgroup, opp_members: MemberSet, p: int) -> bool:
    from .permgroups import char_p_tests, quotient_group

    NPg = as_group(G, NP)
    if len(opp_members) == 1:
        return bool(char_p_tests(NPg, p)["is_characteristic_p"])
    opp_local = {NPg.index(G.perm(x)) for x in opp_members}
    Q, _ = quotient_group(NPg, NPg.subgroup(opp_local))
    return bool(char_p_tests(Q, p)["is_characteristic_p"])
