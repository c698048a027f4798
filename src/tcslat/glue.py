"""Gluing lattices: perpendicular sums, orthogonal pushouts along a shared
negative definite sublattice, and finite-index even overlattices from
anti-isometric discriminant subgroups."""

from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import gcd, isqrt, lcm, prod

from . import exactalg as xa
from . import lattice as lat


class NonPrimitiveEmbedding(ValueError):
    pass


class PushoutSpec:
    """N+, N- glued along a common primitive negative definite sublattice R.

    emb_plus / emb_minus give R's basis inside N+ / N- (rows, coordinates of
    the respective lattice)."""

    def __init__(self, n_plus, n_minus, r, emb_plus, emb_minus):
        self.n_plus = n_plus
        self.n_minus = n_minus
        self.r = r
        self.emb_plus = lat.Sublattice(n_plus, emb_plus)
        self.emb_minus = lat.Sublattice(n_minus, emb_minus)
        for emb, name in ((self.emb_plus, "emb_plus"), (self.emb_minus, "emb_minus")):
            if emb.rank != r.rank:
                raise ValueError(f"{name} must have the same rank as R")
            if emb.induced_gram() != r.gram:
                raise ValueError(f"{name} is not isometric to R")
            if not lat.is_primitive(emb):
                raise NonPrimitiveEmbedding(f"{name} is not primitive")
        if r.rank and lat.signature(r)[0] != 0:
            raise ValueError("R must be negative definite")


class IntegralityFailure:
    """Witness: a pair of glue vectors with non-integral pairing."""

    def __init__(self, plus_index, minus_index, value):
        self.plus_index = plus_index
        self.minus_index = minus_index
        self.value = value

    def __repr__(self):
        return f"IntegralityFailure(e{self.plus_index} . f{self.minus_index} = {self.value})"


class PushoutResult:
    """W with the two canonical sublattices; basis order: N+ rows first, then
    a deterministic completion of R to N-."""

    def __init__(self, w, n_plus_in_w, n_minus_in_w, r_in_w):
        self.w = w
        self.n_plus_in_w = n_plus_in_w
        self.n_minus_in_w = n_minus_in_w
        self.r_in_w = r_in_w


def _complete_to_basis(primitive_rows, n):
    """Rows completing a primitive k x n matrix to a basis of Z^n (the added rows)."""
    if not primitive_rows:
        return xa.eye(n)
    return xa.snf(primitive_rows, left=False).Vinv[len(primitive_rows):]


def _projection_coeffs(emb, r_gram_inv):
    """Row i: coefficients (rationals) of the orthogonal projection of the i-th
    basis vector of emb's ambient onto R tensor Q."""
    return xa.matmul(xa.transpose(xa.matmul(emb.basis, emb.ambient.gram)), r_gram_inv)


def orthogonal_pushout(spec):
    """W = (N+ (+) N-)/antidiagonal(R), verified integral, even, nondegenerate,
    with N+- primitive and N+perp < N-, N-perp < N+; or an IntegralityFailure
    witness."""
    np_, nm, r = spec.n_plus, spec.n_minus, spec.r
    rho = r.rank
    if rho == 0:
        w = lat.direct_sum(np_, nm)
        bp = [row + [0] * nm.rank for row in xa.eye(np_.rank)]
        bm = [[0] * np_.rank + row for row in xa.eye(nm.rank)]
        return PushoutResult(w, lat.Sublattice(w, bp), lat.Sublattice(w, bm), lat.Sublattice(w, []))
    r_gram_inv = xa.rational_inverse(r.gram)
    alpha = _projection_coeffs(spec.emb_plus, r_gram_inv)
    beta = _projection_coeffs(spec.emb_minus, r_gram_inv)
    # full pairwise pairing table between the N+ basis and the N- basis
    cross = xa.pairings(alpha, r.gram, beta)
    for i, row in enumerate(cross):
        for j, v in enumerate(row):
            if v.denominator != 1:
                return IntegralityFailure(i, j, v)
    cross = [[int(v) for v in row] for row in cross]
    # basis: N+ rows, then completion of R inside N-
    comp = _complete_to_basis(spec.emb_minus.basis, nm.rank)
    k = len(comp)
    glue = xa.matmul(cross, xa.transpose(comp))  # N+ rows against the completion rows
    G = [list(row) + g for row, g in zip(np_.gram, glue)]
    G += [g + c for g, c in zip(xa.transpose(glue), xa.pairings(comp, nm.gram))]
    w = lat.Lattice(G)
    if not w.is_nondegenerate():
        raise ValueError("pushout degenerate")
    if not w.is_even():
        raise ValueError("pushout not even")
    # N- inside W: R rows map into N+ via the identification, completion rows are new
    r_rows = [list(row) + [0] * k for row in spec.emb_plus.basis]
    minus_rows = r_rows + [[0] * np_.rank + row for row in xa.eye(k)]
    # express N- in its own basis order: rows of identity pulled through (R-basis, comp)
    change_inv = xa.unimodular_inverse([*spec.emb_minus.basis, *comp])  # basis of Z^{r_-}
    n_minus_in_w = lat.Sublattice(w, xa.matmul(change_inv, minus_rows))
    n_plus_in_w = lat.Sublattice(w, [row + [0] * k for row in xa.eye(np_.rank)])
    r_in_w = lat.Sublattice(w, r_rows)
    _verify_pushout(w, n_plus_in_w, n_minus_in_w, r_in_w, np_, nm)
    return PushoutResult(w, n_plus_in_w, n_minus_in_w, r_in_w)


def _verify_pushout(w, n_plus_in_w, n_minus_in_w, r_in_w, np_, nm):
    # Def 6.5 conditions, each checked independently
    if n_plus_in_w.induced_gram() != np_.gram:
        raise ValueError("pushout: N+ image not isometric")
    if n_minus_in_w.induced_gram() != nm.gram:
        raise ValueError("pushout: N- image not isometric")
    if not (lat.is_primitive(n_plus_in_w) and lat.is_primitive(n_minus_in_w)):
        raise NonPrimitiveEmbedding("pushout: N+- not primitive in W")
    inter = lat.intersect(n_plus_in_w, n_minus_in_w)
    if not inter.same_module(lat.saturation(r_in_w)) or not lat.is_primitive(r_in_w):
        raise ValueError("pushout: N+ intersect N- is not R")
    if not lat.sum_sublattices(n_plus_in_w, n_minus_in_w).same_module(
        lat.Sublattice(w, xa.eye(w.rank))
    ):
        raise ValueError("pushout: N+ + N- is not W")
    for comp_of, inside in ((n_plus_in_w, n_minus_in_w), (n_minus_in_w, n_plus_in_w)):
        perp = lat.orthogonal_complement(comp_of)
        for row in perp.basis:
            if xa.solve_integer(inside.basis, row) is None:
                raise ValueError("pushout: perp containment fails")


class OverlatticeSpec:
    """An even overlattice of N+ (+) N-, as an explicit glue subgroup plus the
    resulting lattice data."""

    def __init__(self, base, glue_gens, basis_rational, w_gram, index):
        self.base = base
        self.glue_gens = glue_gens  # list of rational coset vectors in base coordinates
        self.basis_rational = basis_rational  # rows: basis of W' in base coordinates (Fractions)
        self.w_gram = w_gram  # Lattice: induced Gram on that basis
        self.index = index


def _group_elements(orders):
    elems = [()]
    for d in orders:
        elems = [e + (i,) for e in elems for i in range(d)]
    return elems


def _add(e, f, orders):
    return tuple((a + b) % d for a, b, d in zip(e, f, orders))


def _closure(gens, orders):
    """The subgroup of prod Z/orders generated by gens, as a frozenset of element tuples."""
    zero = tuple(0 for _ in orders)
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = _add(x, g, orders)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def _subgroups(orders, max_order):
    """All subgroups (as frozensets of element tuples) of prod Z/orders."""
    elems = _group_elements(orders)
    trivial = _closure([], orders)
    subgroups = {trivial}
    frontier = [trivial]
    while frontier:
        H = frontier.pop()
        for e in elems:
            if e in H:
                continue
            H2 = _closure(set(H) | {e}, orders)
            if len(H2) <= max_order and H2 not in subgroups:
                subgroups.add(H2)
                frontier.append(H2)
    return subgroups


def _min_generators(H, orders):
    """A small generating list for subgroup H (greedy by element order)."""
    gens = []
    have = _closure([], orders)
    for e in sorted(H, key=lambda t: (-_elem_order(t, orders), t)):
        if e not in have:
            gens.append(e)
            have = _closure(gens, orders)
            if len(have) == len(H):
                break
    return gens


def _elem_order(e, orders):
    o = 1
    for a, d in zip(e, orders):
        if a:
            o = lcm(o, d // gcd(a, d))
    return o


def enumerate_overlattices(n_plus, n_minus, max_index, budget=10**6):
    """All even overlattices of N+ (+) N- of index <= max_index with both
    factors still primitive, via isotropic anti-isometric graph subgroups.

    A glue group G in A+ x A- keeps both factors primitive exactly when it
    meets neither A+ nor A- (Nikulin 1980, 1.5), that is when both of its
    projections are injective.  The graph of a generator-wise map of a
    subgroup H is such a G exactly when it and its image have |H| elements."""
    for L in (n_plus, n_minus):
        if not (L.is_even() and L.is_nondegenerate()):
            raise ValueError("overlattices need even nondegenerate factors")
    snf_p, snf_m = xa.snf(n_plus.gram, right=False), xa.snf(n_minus.gram, right=False)
    orders_p, orders_m = snf_p.invariant_factors(), snf_m.invariant_factors()
    size_p, size_m = prod(orders_p), prod(orders_m)
    if size_p * size_m > budget:
        raise lat.EnumerationBudgetExceeded(f"{size_p * size_m} exceeds budget {budget}")
    out = []
    seen = set()
    if min(size_p, size_m) == 1:
        return out
    base = lat.direct_sum(n_plus, n_minus)
    # coset vectors of the Smith generators in lattice coordinates (rational
    # rows): an element's coset vector combines them; its norm is taken once
    cosets_p, cosets_m = snf_p.torsion_cosets(), snf_m.torsion_cosets()
    q_p = cache(lambda e: n_plus.norm(xa.matmul([e], cosets_p)[0]))
    q_m = cache(lambda e: n_minus.norm(xa.matmul([e], cosets_m)[0]))
    smaller_on_plus = size_p <= size_m
    orders_small, other_orders = (orders_p, orders_m) if smaller_on_plus else (orders_m, orders_p)
    other_by_order = {}
    for e in _group_elements(other_orders):
        other_by_order.setdefault(_elem_order(e, other_orders), []).append(e)
    for H in _subgroups(orders_small, max_index):
        if len(H) < 2:
            continue
        gens = _min_generators(H, orders_small)
        # maps of H into the other discriminant group, generator-wise and order-preserving
        for img in product(*(other_by_order.get(_elem_order(g, orders_small), []) for g in gens)):
            pairs = list(zip(gens, img) if smaller_on_plus else zip(img, gens))
            # the graph is isotropic: q+ + q- in 2Z on each generator (so b+ + b- in Z on
            # each generator with itself) and b+ + b- in Z on each pair of generators
            if any((q_p(ep) + q_m(em)) % 2 for ep, em in pairs):
                continue
            glue_gens = [(xa.matmul([ep], cosets_p)[0], xa.matmul([em], cosets_m)[0]) for ep, em in pairs]
            if any((n_plus.pair(vp, wp) + n_minus.pair(vm, wm)) % 1
                   for (vp, vm), (wp, wm) in combinations(glue_gens, 2)):
                continue
            graph = _closure([g + e for g, e in zip(gens, img)], orders_small + other_orders)
            if len(graph) != len(H) or len(_closure(img, other_orders)) != len(H):
                continue
            spec = _overlattice_from_glue(base, glue_gens)
            if spec is None:
                continue
            key = tuple(tuple(str(x) for x in row) for row in spec.basis_rational)
            if key not in seen:
                seen.add(key)
                out.append(spec)
    return out


def _overlattice_from_glue(base, glue_gens):
    D, scaled = xa.clear_denominators(xa.eye(base.rank) + [vp + vm for vp, vm in glue_gens])
    basis = [[Fraction(x, D) for x in row] for row in xa.hnf(scaled)]
    gram = xa.pairings(basis, base.gram)
    if any(x.denominator != 1 for row in gram for x in row):
        return None
    w = lat.Lattice([[int(x) for x in row] for row in gram])
    if not w.is_even():
        return None
    # index bookkeeping
    index_sq = abs(xa.det(base.gram)) // abs(w.det())
    index = isqrt(index_sq)
    if index * index != index_sq:
        return None
    return OverlatticeSpec(base, glue_gens, basis, w, index)
