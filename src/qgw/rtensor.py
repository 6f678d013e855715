"""Relative tensor products, realized as quotients of plain tensor products.

Both flavors produce the same kind of object: a Gram matrix on the plain
tensor product of the factors, together with the quotient it induces.  The
state flavor contracts the two actions through a cyclic representation; the
operator flavor contracts two factorizations through the base cyclic vector.
Keeping every space realized over the same plain tensor product, each on the
balanced support of the base's center (see below), is what makes maps between
differently bracketed iterates directly comparable.  Every space keeps
only a core on its support, in a frame of per-leg unitaries (a square's
legs are the eigenvectors its matched pairs join), so no iterate forms a
matrix on the threefold plain product or its class map.

Leg-wise operators reach a quotient through one lift: per-leg stacks are
zipped, and each element is contracted with the core in the frames of both
spaces, two groups of legs at a time, and descended, one element at a time.
Insertion maps are the class map contracted with one vector on one leg.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import (
    DimensionError,
    NotWellDefinedError,
    PreconditionError,
)
from .cfact import Factorization
from .gns import GnsTriple
from .linalg import (
    DEFAULT_TOL,
    OperatorSubspace,
    QuotientRealization,
    Tolerance,
    dagger,
    eigen_match,
    mat_norm,
    span,
    star_closed_pair,
    unitary_residual,
)
from .report import Certificate
from .staralg import rep_report, rep_value


def gram_from_r_stacks(rh: np.ndarray, rk: np.ndarray) -> np.ndarray:
    """Shared Gram kernel.

    rh[c] is the reconstruction operator of the c-th left basis vector,
    rk[b] that of the b-th right basis vector; both map a common middle
    space into their factor.  The entry at ((a, b), (a', b')) is
    sum_t rh[a'][a, t] conj(rk[b][b', t]).
    """
    g4 = np.einsum("cat,bdt->abcd", rh, np.conj(rk))
    n = rh.shape[0] * rk.shape[0]
    return g4.reshape(n, n)


def balanced_support(rh: np.ndarray, rk: np.ndarray, left: np.ndarray,
                     right: np.ndarray, star: np.ndarray,
                     tol: Tolerance = DEFAULT_TOL):
    """(u, v, a, b, G_m): G = gram_from_r_stacks(rh, rk) = W G_m W* on the
    columns u_a x v_b of W, eigenvectors of left(z) and right(z) paired
    where their eigenvalues agree (eigen_match).  left and right act on the
    legs by the base center's basis, *-closed under star, and a central
    Hermitian z balances G: G (left(z) x 1) = G (1 x right(z))."""
    u, v, a, b, _ = eigen_match(star_closed_pair(left, right, star), tol)
    # G = sum_t A_t x B_t, so G_m[p, r] = sum_t X_t[a_p, a_r] Y_t[b_p, b_r]
    x = dagger(u) @ rh.transpose(2, 1, 0) @ u  # X_t = u* A_t u
    y = dagger(v) @ rk.conj().transpose(2, 0, 1) @ v
    ai, aj, bi, bj = a[:, None], a[None], b[:, None], b[None]
    gram = sum(xt[ai, aj] * yt[bi, bj] for xt, yt in zip(x, y))
    return u, v, a, b, gram


def _halves(dims: tuple, first: int) -> list:
    """The spans of legs (lo, hi) of two groups, the first of size first."""
    split = 1 + int(first != dims[0])
    return [(0, split), (split, len(dims))]


class RelativeTensorSpace(QuotientRealization):
    """Quotient of a plain tensor product of the given leg dimensions under
    a relative Gram, in a frame of per-leg unitaries (QuotientRealization)."""

    def __init__(self, flavor: str, plain_dims: tuple,
                 gram: np.ndarray | None = None,
                 tol: Tolerance = DEFAULT_TOL, meta: dict | None = None, *,
                 factor=None, legs: list, cols: np.ndarray):
        super().__init__(gram, tol, factor=factor, plain_dims=plain_dims,
                         legs=legs, cols=cols)
        self.flavor = flavor
        self.meta = meta or {}

    @property
    def gram(self) -> np.ndarray:
        """A square's plain Gram, rebuilt from its reconstruction stacks."""
        return gram_from_r_stacks(*self.meta["r_stacks"])

    def lift(self, ops, require: bool = True,
             into: "RelativeTensorSpace | None" = None):
        """Descend leg-wise operator stacks from this quotient to into
        (default: this quotient itself): one stack (k, g, d) per plain
        factor of dimension d here, or None for the identity leg; g = d
        unless into is given, when the g's group into's plain dimensions in
        order, so one leg may fan out into several.  Element i, the tensor
        product of the i-th maps, is contracted with into's core in this
        frame (pulled) and descended, one at a time.  Returns (stack of
        matrices, worst failure to preserve the null space), normalized per
        element by the scale of the lifted map as in induced_between.
        """
        dst = self if into is None else into
        ops = [None if op is None else np.asarray(op, dtype=complex)
               for op in ops]
        if len(ops) != len(self.plain_dims) or any(
            op is not None and (op.ndim != 3 or op.shape[2] != d)
            for op, d in zip(ops, self.plain_dims)
        ):
            raise DimensionError("one operator stack (k, g, d) per tensor leg "
                                 f"of dimension d in {self.plain_dims} required")
        sizes = {op.shape[0] for op in ops if op is not None} or {1}
        if len(sizes) != 1:
            raise DimensionError(f"leg stacks of different lengths {sizes}")
        groups = tuple(d if op is None else op.shape[1]
                       for op, d in zip(ops, self.plain_dims))
        if int(np.prod(groups)) != dst.plain_dim \
                or (into is None and groups != self.plain_dims):
            raise DimensionError(f"leg maps into {groups} do not reach the "
                                 f"plain dimensions {dst.plain_dims}")
        pull = dst.puller(self, groups[0], self.plain_dims[0])
        mats = np.empty((sizes.pop(), dst.dim, self.dim), dtype=complex)
        res = 0.0
        for i in range(len(mats)):
            mats[i], gap = self.descend(pull(
                [None if op is None else op[i] for op in ops]))
            res = max(res, float(gap))
        if require and res > self.tol.check:
            raise NotWellDefinedError(
                f"operator does not descend to the quotient: residual {res:.3e}"
            )
        return mats, res

    def pulled(self, maps, src: QuotientRealization):
        """The class map contracted with one plain map (g, d) per group of
        consecutive legs whose dimensions multiply to g, read in src's
        frame, where the d's group src's legs alike: (dim, prod d), yielded
        in blocks of rows no larger than the core (puller): an edge between
        spaces over the plain cube never holds a top of dim x N entries."""
        return self.puller(src, *maps[0].shape)(
            maps, max(1, self.core.size // src.plain_dim))

    def puller(self, src: QuotientRealization, g0: int, d0: int):
        """pull(maps, rows=None) yields pulled(maps, src), for maps[0] (g0,
        d0), in blocks of rows of the core (default: one block).  Maps past
        the second fold into it (kron); None is the identity on its leg.
        The core is contracted with (kron of each group's legs)* map (kron
        of src's legs), summed per value j of the group index with fewer
        values into parts[:, j] (the first) or parts[j] (the second), so the
        rows (len(cols), prod d) are never formed.  That grouping, and the
        factor of a group whose maps are all None, are made once."""
        g1 = self.plain_dim // g0
        spans, src_spans = _halves(self.plain_dims, g0), \
            _halves(src.plain_dims, d0)
        if g0 * g1 != self.plain_dim \
                or g0 != np.prod(self.plain_dims[:spans[1][0]]):
            raise DimensionError(f"maps into {(g0, g1)} do not split "
                                 f"{self.plain_dims} in two")
        index = [self.cols // g1 % g0, self.cols % g1]
        # bincount, not np.unique: that imports numpy.ma, 1.3 MB resident
        counts = [np.bincount(i) for i in index]
        key = int(np.count_nonzero(counts[1]) < np.count_nonzero(counts[0]))
        vals = np.flatnonzero(counts[key])
        # each value's p as one run, in order (a numpy sort: +0.2 MB resident)
        order = np.nonzero(index[key] == vals[:, None])[1]
        core, at = self.core[:, order], index[1 - key][order]
        ends = np.cumsum(counts[key][vals])
        runs = list(zip(ends - counts[key][vals], ends))
        eyes = {}

        def factor(m, i):
            if m is None:
                if i not in eyes:
                    eyes[i] = factor(np.eye((g0, g1)[i], dtype=complex), i)
                return eyes[i]
            return dagger(src.frame_rows(dagger(self.frame_rows(
                m, *spans[i])), *src_spans[i]))

        def pull(maps, rows=None):
            rest = maps[1:]
            second = None if all(m is None for m in rest) else \
                functools.reduce(np.kron, [
                    np.eye(d) if m is None else m
                    for m, d in zip(rest, src.plain_dims[src_spans[1][0]:])])
            factors = [factor(maps[0], 0), factor(second, 1)]
            other, outer = factors[1 - key][at], factors[key][vals]
            rows = rows or max(1, len(core))
            for lo in range(0, max(1, len(core)), rows):
                block = core[lo:lo + rows]
                parts = np.empty(
                    (len(vals), len(block), other.shape[1]) if key
                    else (len(block), len(vals), other.shape[1]),
                    dtype=complex)
                for part, (i, j) in zip(np.moveaxis(parts, 1 - key, 0), runs):
                    part[...] = block[:, i:j] @ other[i:j]
                top = parts.reshape(len(vals), -1).T @ outer if key \
                    else outer.T @ parts
                yield top.reshape(len(block), -1)

        return pull


def central_actions(flavor: str, meta: dict):
    """(left, right, star) of the base's center for balanced_support,
    acting through the stacks of a state-flavor space or the factorizations
    of an operator-flavor one (the center lies in the partner too)."""
    alg = (meta["triple"] if flavor == "state" else meta["base"]).algebra
    center = alg.center()
    zs = center.subspace.stack
    if flavor == "state":
        legs = [rep_value(alg, meta[k], zs)
                for k in ("rho_stack", "sigma_stack")]
    else:
        legs = [meta[k].rho(zs) for k in ("left_fact", "right_fact")]
    return (*legs, center.star_matrix())


def _realize(flavor: str, rh: np.ndarray, rk: np.ndarray, tol: Tolerance,
             meta: dict) -> RelativeTensorSpace:
    meta["r_stacks"] = (rh, rk)
    u, v, a, b, gram = balanced_support(rh, rk, *central_actions(flavor, meta),
                                        tol)
    # the matched pairs u_a x v_b are columns a nk + b of kron(u, v)
    return RelativeTensorSpace(flavor, (len(rh), len(rk)), gram, tol, meta,
                               legs=[u, v], cols=a * len(rk) + b)


def rtp_state(triple: GnsTriple, rho_stack, sigma_stack, *,
              over_opposite: bool = False,
              tol: Tolerance | None = None) -> RelativeTensorSpace:
    """State-flavor relative tensor product of two represented spaces.

    rho_stack gives the right action on the left factor (a representation of
    the opposite algebra, values on underlying basis elements); sigma_stack
    the left action on the right factor.  over_opposite builds instead over
    the opposite algebra with the same cyclic data, so the roles of the two
    canonical actions swap.
    """
    tol = tol or triple.tol
    rho_stack = np.asarray(rho_stack, dtype=complex)
    sigma_stack = np.asarray(sigma_stack, dtype=complex)
    alg = triple.algebra
    rep_left = rep_report(alg, rho_stack, anti=not over_opposite)
    rep_right = rep_report(alg, sigma_stack, anti=over_opposite)
    for name, rep in (("left", rep_left), ("right", rep_right)):
        bad = {k: v for k, v in rep.items() if v > tol.check}
        if bad:
            raise PreconditionError(f"{name} action is not a *-representation: {bad}")
    zeta = triple.cyclic_vector
    cols_rep = (triple.rep_stack @ zeta).T
    cols_op = (triple.rep_op_stack @ zeta).T
    z_left = cols_rep if over_opposite else cols_op
    z_right = cols_op if over_opposite else cols_rep
    z_left_inv = np.linalg.inv(z_left)
    z_right_inv = np.linalg.inv(z_right)
    # reconstruction operators of the basis vectors of each factor
    # rh[c] maps the cyclic representation into the left factor
    rh = np.einsum("ihc,it->cht", rho_stack, z_left_inv)
    rk = np.einsum("ikb,it->bkt", sigma_stack, z_right_inv)
    meta = {"triple": triple, "rho_stack": rho_stack,
            "sigma_stack": sigma_stack}
    return _realize("state", rh, rk, tol, meta)


def rtp_cstar(left_fact: Factorization, right_fact: Factorization,
              tol: Tolerance | None = None) -> RelativeTensorSpace:
    """Operator-flavor relative tensor product of two factorized spaces.

    The left factorization's products must land in the base algebra and the
    right one's in the partner; their reconstruction operators contract
    through the base cyclic vector.
    """
    tol = tol or left_fact.tol
    if left_fact.base is not right_fact.base:
        if (
            left_fact.base.space_dim != right_fact.base.space_dim
            or not left_fact.base.algebra.equal(right_fact.base.algebra)
            or not left_fact.base.partner.equal(right_fact.base.partner)
        ):
            raise PreconditionError("factorizations live over different bases")
    if left_fact.flipped or not right_fact.flipped:
        raise PreconditionError(
            "left factorization must pair with the algebra, right with the partner"
        )
    nh, nk = left_fact.target_dim, right_fact.target_dim
    rh = np.stack([left_fact.r_operator(np.eye(nh)[a]) for a in range(nh)])
    rk = np.stack([right_fact.r_operator(np.eye(nk)[b]) for b in range(nk)])
    meta = {"left_fact": left_fact, "right_fact": right_fact,
            "base": left_fact.base}
    return _realize("cstar", rh, rk, tol, meta)


def insertions(space: RelativeTensorSpace, elements, leg: int) -> np.ndarray:
    """Insertion maps of base-space elements (one (d, n_base) matrix or a
    stack of them) into the given plain leg: the other factor -> quotient.
    Leg 0 takes left-factorization elements, leg 1 right ones.

    The column element . zeta fills the leg, so the insertion is class_map
    contracted with it over that leg, with no plain tensor product formed.
    """
    if space.flavor != "cstar":
        raise PreconditionError("kets need the operator flavor")
    col = np.asarray(elements, dtype=complex) @ space.meta["base"].cyclic_vector
    cm = space.class_map.reshape((space.dim,) + space.plain_dims)
    return np.tensordot(col, cm, axes=(-1, 1 + leg))


def insertion_span(space: RelativeTensorSpace, ket_fact: Factorization,
                   tail_fact: Factorization, leg: int) -> OperatorSubspace:
    """Span of the insertions of one factorization composed with elements of
    another: maps from the base space into the operator-flavor quotient.

    leg selects which plain factor the insertions fill; the tail supplies the
    maps from the base space into the remaining factor.
    """
    kets = insertions(space, ket_fact.subspace.stack, leg)
    family = kets[:, None] @ tail_fact.subspace.stack[None]
    n = space.meta["base"].space_dim
    return span(family.reshape(-1, space.dim, n), space.dim, n, space.tol)


def ket_factorization(space: RelativeTensorSpace, ket_fact: Factorization,
                      tail_fact: Factorization, leg: int,
                      flipped: bool) -> Factorization:
    """Factorization of the operator-flavor quotient spanned by insertions
    of one factorization composed with elements of another (see
    insertion_span), certified like any factorization.
    """
    sub = insertion_span(space, ket_fact, tail_fact, leg)
    return Factorization(space.meta["base"], space.dim, sub, flipped=flipped,
                         tol=space.tol)


def _nest(inner: RelativeTensorSpace, pair: RelativeTensorSpace,
          bracket: str, plain_dims: tuple) -> RelativeTensorSpace:
    """The nested space, read through the r x r Gram of its factor C =
    pair.class_map (inner.class_map on the leg over inner) on its support:
    in the frame of inner's plain legs and pair's eigenvectors new_p on the
    new leg, column (l, c) of C sums core_p[:, p] (w_p* inner.class_map)[l]
    over the matched pairs (w_p, new_p = c) of pair.  Columns under the
    round-off floor (N eps)^2 |core_p|^2 |inner.class_map|^2 of that
    product are left out: dim of the plain columns on a groupoid base."""
    left = bracket == "left"
    u, v = pair.legs
    a, b = np.divmod(pair.cols, len(v))
    w, new, slot, key = (u, v, a, b) if left else (v, u, b, a)
    n = int(np.prod(plain_dims))
    floor = (n * np.finfo(float).eps) ** 2 * np.max(pair.lam, initial=0.0) \
        * np.max(inner.lam, initial=0.0)
    blocks, cols = [], []
    for c in np.flatnonzero(np.bincount(key)):
        block = pair.core[:, key == c] @ (dagger(w[:, slot[key == c]])
                                          @ inner.class_map)
        kept = np.flatnonzero(np.sum(np.abs(block) ** 2, axis=0) > floor)
        blocks.append(block[:, kept])
        cols.append(kept * len(new) + c if left else c * inner.plain_dim + kept)
    core = np.concatenate(blocks, axis=1)
    legs = [np.eye(d, dtype=complex) for d in inner.plain_dims]
    legs.insert(len(legs) if left else 0, new)
    return RelativeTensorSpace(
        pair.flavor, plain_dims, tol=inner.tol, legs=legs,
        factor=(core @ dagger(core), core.__rmatmul__),
        cols=np.concatenate(cols))


def nest_left(inner: RelativeTensorSpace,
              pair: RelativeTensorSpace) -> RelativeTensorSpace:
    """Three-factor space bracketed as (inner) tensored with a new right leg.

    pair must be built over (inner's quotient, new leg); the result is
    realized over the full plain tensor product of all three factors.  Its
    Gram is m* G_pair m with m = inner.class_map on the first leg, read
    through the factor pair.class_map . m on its support (see _nest).
    """
    if len(pair.plain_dims) != 2 or pair.plain_dims[0] != inner.dim:
        raise DimensionError("pair space must have the inner quotient as left leg")
    return _nest(inner, pair, "left", inner.plain_dims + pair.plain_dims[1:])


def nest_right(inner: RelativeTensorSpace,
               pair: RelativeTensorSpace) -> RelativeTensorSpace:
    """Three-factor space bracketed as a new left leg tensored with (inner);
    the mirror of nest_left, with inner.class_map on the last leg."""
    if len(pair.plain_dims) != 2 or pair.plain_dims[1] != inner.dim:
        raise DimensionError("pair space must have the inner quotient as right leg")
    return _nest(inner, pair, "right", pair.plain_dims[:1] + inner.plain_dims)


def phi_unitary(state_space: RelativeTensorSpace,
                cstar_space: RelativeTensorSpace):
    """Canonical map from the state-flavor space to the operator-flavor
    space over the same plain tensor product; returns (matrix, Certificate).

    Sends the class of a plain tensor to the class of the same plain tensor.
    When the actions are linked through the base, the two Gram matrices
    coincide and the map is unitary.
    """
    if state_space.flavor != "state" or cstar_space.flavor != "cstar":
        raise PreconditionError("arguments must be the two flavors in order")
    if state_space.plain_dims != cstar_space.plain_dims:
        raise PreconditionError("flavors realized over different plain spaces")
    xi = cstar_space.class_map @ state_space.section
    res = {
        "unitary": unitary_residual(xi) if state_space.dim == cstar_space.dim
        else float("inf"),
        "dimension_defect": float(abs(state_space.dim - cstar_space.dim)),
        "transports_classes": mat_norm(
            xi @ state_space.class_map - cstar_space.class_map
        ),
        "gram_match": mat_norm(state_space.gram - cstar_space.gram),
    }
    return xi, Certificate(res, state_space.tol)
