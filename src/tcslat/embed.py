"""Primitive embeddings of even lattices into the K3 lattice: sufficiency and
necessity criteria, modular obstructions, and constructive search.

Fixed basis order for the K3 lattice: the summands U1, U2, U3, E8a, E8b, whose
coordinates the table SUMMANDS gives; each E8(-1) has the E8 Gram of lattice.E8
(chain 1-2-3-4-5-6-7, node 8 attached to node 5), negated.  Embedding matrices
in reports are reproducible bit-for-bit against this basis.
"""

from operator import mul

from . import exactalg as xa
from . import lattice as lat

EXISTS_BY_CRITERION = "ExistsPrimitiveByCriterion"
EXISTS_CONSTRUCTED = "ExistsConstructed"
UNKNOWN = "Unknown"

# The summands of the fixed K3 basis, by name, with their coordinates.
SUMMANDS = {"U1": range(0, 2), "U2": range(2, 4), "U3": range(4, 6),
            "E8a": range(6, 14), "E8b": range(14, 22)}


class EmbeddingVerdict:
    def __init__(self, status, basis=None, primitive=None, criterion=None):
        self.status = status
        self.basis = basis
        self.primitive = primitive
        self.criterion = criterion

    def __repr__(self):
        extra = f"({self.criterion})" if self.criterion else ""
        return f"EmbeddingVerdict({self.status}{extra})"


_K3 = None


def k3_lattice():
    """2E8(-1) + 3U, basis order U, U, U, E8(-1), E8(-1); even unimodular (3, 19)."""
    global _K3
    if _K3 is None:
        _K3 = lat.direct_sum(lat.U(), lat.U(), lat.U(), lat.E8(-1), lat.E8(-1))
    return _K3


K3_RANK = 22


def _fits(W, pos, neg, size):
    """sig W <= (pos, neg) componentwise and rk W + l(W) <= size: W, and a
    complement with a discriminant group isomorphic to W's, fit in summands of
    signature (pos, neg) and rank size (Nikulin 1979, Prop. 1.6.1)."""
    p, n = lat.signature(W)
    return p <= pos and n <= neg and W.rank + lat.ell(W) <= size


def nikulin_sufficient(W):
    """The tag of the sufficient condition that gives a primitive embedding
    into K3, with sig W <= (3, 19): "i" for 2 rk W <= 22, "ii" for
    rk W + l(W) < 22.  None means the criterion is silent, not that embedding
    is impossible."""
    if 2 * W.rank <= 22 and _fits(W, 3, 19, 22):  # l(W) <= rk W
        return "i"
    if _fits(W, 3, 19, 21):
        return "ii"
    return None


def necessary_condition(W):
    """W even, sig W <= (3, 19) componentwise and rk W + l(W) <= 22 (Nikulin
    1979, Thm 1.12.2); False rules out any primitive embedding into K3."""
    return W.is_even() and _fits(W, 3, 19, 22)


def uniqueness(W):
    """True: a primitive embedding of W into K3, given one exists, is unique up
    to automorphisms of K3, since its complement is indefinite and
    rk W + l(W) + 2 <= 22 (Nikulin 1979, Thm 1.14.4); False: undetermined."""
    return _fits(W, 2, 18, 20)


def verify_embedding(W, ambient, basis):
    """Exact Gram check plus primitivity of the image: whether the image is
    primitive, or None when the rows are not isometric to W (their induced
    Gram is not W's)."""
    sub = lat.Sublattice(ambient, basis)
    if sub.induced_gram() != W.gram:
        return None
    return lat.is_primitive(sub)


def mod_obstruction(T, m, k):
    """True iff m mod k misses the norm residues of T, certifying that T
    represents no vector of norm m (hence no perpendicular rank-1 partner)."""
    return (m % k) not in lat.norm_residues(T, k)


def _e8_vector_of_norm(norm):
    """First vector of the given positive norm in E8 (definite search), in one
    pass over coordinates in [-3, 3]; shells come in increasing order."""
    E8 = lat.E8()
    return next((list(x) for x in lat.candidate_vectors(8, 3) if E8.norm(x) == norm), None)


class _SlotAllocator:
    """Tracks which U / E8 summands of the K3 basis are still free."""

    def __init__(self):
        self.u_slots = [name for name in SUMMANDS if name.startswith("U")]
        self.e8_slots = [name for name in SUMMANDS if name.startswith("E8")]

    def take_u(self):
        return self.u_slots.pop(0) if self.u_slots else None

    def take_e8(self):
        return self.e8_slots.pop(0) if self.e8_slots else None


# Verbatim constructions for blocks the hand patterns cover awkwardly.
# Keyed by the exact Gram (as nested lists); values are rows in the K3 basis.
def _builtin_embeddings():
    rows_2n0_3u = [
        [4, 1, 0, 0, 0, 0],
        [0, 0, -8, 1, 0, 0],
        [0, 0, 0, 0, 4, 1],
        [-4, 1, 0, 0, -4, 1],
    ]
    gram_2n0 = [
        [8, 0, 0, 0],
        [0, -16, 0, 0],
        [0, 0, 8, 0],
        [0, 0, 0, -16],
    ]
    rows_w44_2u = [
        [2, 1, 2, 0],
        [0, 1, 0, 1],
        [-2, 0, 2, 1],
        [0, -1, 0, 1],
    ]
    gram_w44 = [
        [4, 4, 0, 0],
        [4, 0, 0, 0],
        [0, 0, 4, 4],
        [0, 0, 4, 0],
    ]
    rows_w11_3u = [
        [0, 0, 1, 2, 2, 2],
        [0, 0, 1, 0, 1, 0],
        [1, 0, 2, 2, -1, -2],
        [0, -1, 0, 2, 0, -1],
    ]
    gram_w11 = [
        [12, 4, 0, 0],
        [4, 0, 0, 1],
        [0, 0, 12, 4],
        [0, 1, 4, 0],
    ]
    return [
        (gram_2n0, rows_2n0_3u, ("U1", "U2", "U3")),
        (gram_w44, rows_w44_2u, ("U1", "U2")),
        (gram_w11, rows_w11_3u, ("U1", "U2", "U3")),
    ]


def _library_block(g, slots):
    """Rows in K3 coordinates realizing one connected Gram block g, or None."""
    k = len(g)
    if k == 1:
        if g[0][0] % 2 != 0:
            return None
        u = slots.take_u()
        return None if u is None else scatter([[1, g[0][0] // 2]], (u,))
    if k == 2:
        if g == [[0, 1], [1, 0]]:
            u = slots.take_u()
            return None if u is None else scatter(xa.eye(2), (u,))
        if g[0][0] == 0 and g[1][1] == 0 and g[0][1] == g[1][0] and g[0][1] > 1:
            kk = g[0][1]
            # U(k) via two U slots when available: (1,0 | 0,0), (-1,k | k,1)
            if len(slots.u_slots) >= 2:
                return scatter([[1, 0, 0, 0], [-1, kk, kk, 1]], (slots.take_u(), slots.take_u()))
            # else one U slot plus a norm -2k vector in an E8(-1) slot
            u, e = slots.take_u(), slots.take_e8()
            if u is None or e is None:
                return None
            y = _e8_vector_of_norm(2 * kk)
            if y is None:
                return None
            return scatter([[1, 0] + [0] * 8, [1, kk] + y], (u, e))
        if g == [[-2, 1], [1, -2]]:
            e = slots.take_e8()
            return None if e is None else scatter(xa.eye(8)[:2], (e,))
    if k == 8 and xa.frozen(g) == lat.E8(-1).gram:
        e = slots.take_e8()
        return None if e is None else scatter(xa.eye(8), (e,))
    return None


def _library_strategy(W):
    target = k3_lattice()
    for gram, rows, summands in _builtin_embeddings():
        if W.gram == xa.frozen(gram):
            rows = scatter(rows, summands)
            prim = verify_embedding(W, target, rows)
            if prim is not None:
                return rows, prim
    comps = lat.gram_blocks(W.gram)
    slots = _SlotAllocator()
    rows_by_index = {}
    for comp in comps:
        block = [[W.gram[i][j] for j in comp] for i in comp]
        got = _library_block(block, slots)
        if got is None:
            return None
        for i, row in zip(comp, got):
            rows_by_index[i] = row
    rows = [rows_by_index[i] for i in range(W.rank)]
    prim = verify_embedding(W, target, rows)
    if prim is None:
        return None
    return rows, prim


_POOL_SIZE_CAP = 30000
_POOLS = {}


def _block_pool(block_gram, bound):
    """(pool, min norm, max norm, capped bound b) for one ambient block: the
    pool holds all vectors with coordinates in [-b, b] as (coords, norm) in
    deterministic order, the zero vector first.

    High-rank blocks cap the coordinate bound so the pool stays enumerable.
    Each (block Gram, capped bound) is enumerated once per process, on first
    use, and kept as a tuple of tuples: E8(-1) at bounds 2, 3 and 4 shares
    one pool."""
    n = len(block_gram)
    b = bound
    while b > 1 and (2 * b + 1) ** n > _POOL_SIZE_CAP:
        b -= 1
    key = (tuple(map(tuple, block_gram)), b)
    if key not in _POOLS:
        L = lat.Lattice(block_gram)
        pool = (((0,) * n, 0),) + tuple((x, L.norm(x)) for x in lat.candidate_vectors(n, b))
        norms = [nm for _, nm in pool]
        _POOLS[key] = (pool, min(norms), max(norms), b)
    return _POOLS[key]


def _pool_key(piece):
    """A piece's place in its pool: its shell max |x_k|, then each coordinate's
    place in lattice._coordinate_order (1, 0, -1, 2, -2, ... for the first
    coordinate, 0, 1, -1, 2, -2, ... for the others)."""
    places = [2 * c - 1 if c > 0 else -2 * c for c in piece]
    places[0] = 1 - places[0] if places[0] < 2 else places[0]
    return (max(map(abs, piece)), *places)


def _first_in_orbit(pieces, is_u):
    """True iff the row made of these block pieces comes first in DFS order in
    its orbit under +-1 and the swap (e, f) -> (f, e) on each U, the
    permutations of the U summands and +-1 on each other block: each U piece
    is the least of its four images, the U pieces never decrease, and each
    other piece is no later than its negation."""
    u_keys = []
    for piece, u in zip(pieces, is_u):
        key, neg = _pool_key(piece), [-c for c in piece]
        if any(key > _pool_key(im) for im in ([neg, piece[::-1], neg[::-1]] if u else [neg])):
            return False
        if u:
            u_keys.append(key)
    return u_keys == sorted(u_keys)


def _backtracking_strategy(W, ambient, bound, prefix):
    """Blockwise DFS with interval pruning for a primitive image of W;
    deterministic; honest None on failure.

    The `prefix` rows are fixed as the first basis vectors and only the
    remaining rows of W's Gram are searched.  A placed row p pairs with a
    vector x of a block with Gram G by the dot product of x and the linear
    form G p, and a pool is the whole box [-b, b]^n, so the later blocks
    add at most the sum of b |G p|_1 over those blocks to that pairing.

    With no prefix and rk W >= 2, a first row x is searched only when it
    comes first in its orbit (McKay's isomorph rejection).  An earlier image
    g x passed the norm window and the caps, which only drop what cannot
    reach the target, and its subtree failed; g keeps the Gram, the box, rank
    and primitivity, so the subtree under x, its image under g^-1, fails too:
    the first hit and every None are those of the unpruned search."""
    blocks = []  # (coordinates, Gram, pool, min norm, max norm, capped bound)
    for comp in lat.gram_blocks(ambient.gram):
        bg = [[ambient.gram[i][j] for j in comp] for i in comp]
        blocks.append((comp, bg) + _block_pool(bg, bound))
    # the norm window of the blocks after each block
    lo_rest = [sum(blk[3] for blk in blocks[bi + 1:]) for bi in range(len(blocks))]
    hi_rest = [sum(blk[4] for blk in blocks[bi + 1:]) for bi in range(len(blocks))]
    is_u = [xa.frozen(bg) == lat.U().gram for _, bg, *_ in blocks]
    target = W.gram
    n = ambient.rank
    placed = [list(map(int, row)) for row in prefix]

    def fill(i):
        if i == W.rank:
            return lat.is_primitive(lat.Sublattice(ambient, placed))
        # each placed row's linear form per block, and caps[bi][t]: the most
        # the blocks after bi can add to the pairing with row t
        forms = [[[sum(row[k] * v[c] for k, c in enumerate(comp)) for row in bg]
                  for comp, bg, *_ in blocks] for v in placed]
        reach = [[blk[5] * sum(map(abs, f)) for blk, f in zip(blocks, form)] for form in forms]
        caps = [[sum(r[bi + 1:]) for r in reach] for bi in range(len(blocks))]
        goal = list(target[i][:i])
        root = i == 0 and W.rank > 1

        def extend(bi, chosen, norm_acc, pair_acc):
            if bi == len(blocks):
                if (norm_acc != target[i][i] or pair_acc != goal
                        or root and not _first_in_orbit(chosen, is_u)):
                    return False
                full = [0] * n
                for (comp, *_), piece in zip(blocks, chosen):
                    for idx, v in zip(comp, piece):
                        full[idx] = v
                if any(full):
                    rows = placed + [full]
                    if xa.rank(rows) == len(rows):
                        placed.append(full)
                        if fill(i + 1):
                            return True
                        placed.pop()
                return False
            pool, cap = blocks[bi][2], caps[bi]
            lo, hi = target[i][i] - hi_rest[bi], target[i][i] - lo_rest[bi]
            for piece, nm in pool:
                na = norm_acc + nm
                if not lo <= na <= hi:
                    continue
                pa = list(pair_acc)
                for t in range(i):
                    pa[t] += sum(map(mul, piece, forms[t][bi]))
                    if abs(pa[t] - goal[t]) > cap[t]:
                        break
                else:
                    if extend(bi + 1, chosen + [piece], na, pa):
                        return True
            return False

        return extend(0, [], 0, [0] * i)

    if fill(len(placed)):
        return placed
    return None


def scatter(rows, summands):
    """Rows given in the coordinates of the named summands, in order, as rows
    of the K3 basis."""
    coords = [i for name in summands for i in SUMMANDS[name]]
    out = []
    for row in rows:
        full = [0] * K3_RANK
        for i, x in zip(coords, row, strict=True):
            full[i] = x
        out.append(full)
    return out


def place(W, summands, bound, prefix=()):
    """A primitive embedding of W into the named summands of the K3 basis,
    found by the bounded search, as rows of the K3 basis; None when the search
    finds none.

    The `prefix` rows, in K3 coordinates and inside those summands, come first
    and only the rest of W's basis is searched.  The summands form a
    unimodular direct summand of K3, so the image is primitive in K3 as well,
    and a nondegenerate W has no primitive image there when its signature
    exceeds theirs, or when rk W + l(W) exceeds their rank, since W and its
    complement have isomorphic discriminant groups (Nikulin 1979, Prop.
    1.6.1): None before any search."""
    coords = [i for name in summands for i in SUMMANDS[name]]
    if any(x for row in prefix for i, x in enumerate(row) if i not in coords):
        raise ValueError("prefix rows must lie in the named summands")
    u = sum(name.startswith("U") for name in summands)
    # U has signature (1, 1) and E8(-1) has (0, 8)
    if W.is_nondegenerate() and not _fits(W, u, len(coords) - u, len(coords)):
        return None
    gram = k3_lattice().gram
    ambient = lat.Lattice([[gram[i][j] for j in coords] for i in coords])
    rows = _backtracking_strategy(W, ambient, bound, [[row[i] for i in coords] for row in prefix])
    if rows is None or not verify_embedding(W, ambient, rows):
        return None
    return scatter(rows, summands)


def construct_embedding(W):
    """An explicit basis of W in the K3 lattice from the library of hand
    patterns, verified isometric, or Unknown."""
    if W.rank > K3_RANK:
        raise ValueError("dimension mismatch: W larger than the ambient lattice")
    got = _library_strategy(W)
    if got is None:
        return EmbeddingVerdict(UNKNOWN)
    rows, prim = got
    return EmbeddingVerdict(EXISTS_CONSTRUCTED, basis=rows, primitive=prim)
