"""Distributed solution of a family of tridiagonal systems that share one
row partition, each with its own right-hand sides.

A *family* is L matrices of order n held as one
:class:`~axisolver.tridiag.TridiagonalMatrix` with (n, L) bands; a single
matrix, with 1-D bands, is the L = 1 family.  The method pays a
communication-free preparation once per family, after which every batch of
right-hand sides is solved with ceil(log2(p)) "splitting levels" of
collective sums plus one local elimination per rank.  Every member travels
in the same messages, so the message count of a solve does not depend on L:
each reduce carries 2*L*M scalars for L members with M right-hand sides.
A single matrix's batch of M right-hand sides runs through the family's
own arithmetic: the plan's size-1 member axis broadcasts over the batch.

Blocked elimination.  Every elimination a solve runs -- the whole family at
p = 1, every rank's interior at p >= 2 unless the interiors are short
(below) -- is one :class:`BlockElimination`, the splitting recipe on one
process: about sqrt(n) blocks of about sqrt(n) rows with one separator row
between neighbours.  As a rank does below, each block gives its separators
their boundary values as dot products of its rhs with rows of its inverse;
the separators' tridiagonal Schur complement then fixes the coupling, and
every block of every member is eliminated once, with its separators known.
A solve takes about 2 sqrt(n) batched row steps where one Thomas sweep
takes 2 n; the Thomas kernels of :mod:`.kernels` remain the one elimination
body beneath it.

Preparation.  At p = 1 it is the family's blocked elimination, which is the
solve.  At p >= 2 the family's two-way elimination -- top-down (pivots
``dn``, ratios ``cp = upper/dn``) and bottom-up (pivots ``en``, ratios
``cq = lower[i]/en[i+1]``), :func:`_two_way` -- gives in closed form
everything a rank reads:

* ``G_L`` / ``G_R`` -- rows ``m_L`` / ``m_R`` of the inverse, restricted to
  the rank's own rows ``m_L..m_R``.  Row k of the inverse has diagonal entry
  ``1/(dn_k - upper_k cq_k)`` and decays away from it by the factors
  ``-upper_j/en_{j+1}`` (rightwards) and ``-lower_j/dn_j`` (leftwards);
* ``Z_L`` / ``Z_R`` -- the head vector on rows ``1..m_L`` with trailing entry
  1 whose leading part solves the head block against
  ``(0,...,0,-upper[m_L-2])``, and the mirrored tail vector on rows
  ``m_R..n``.  Entry j of ``Z_L`` is the product of ``-cp`` over rows
  ``j..m_L-1``; entry j of ``Z_R`` the product of ``-cq`` over rows
  ``m_R..j-1``.  A rank keeps only the <= 2 entries per level that the
  splitting tree reads (:attr:`RankPlan.weights`), products of each
  block's products over its head (all rows but the last) and its last row;
* the fold ratios ``(G_L)_{m_R}/(G_R)_{m_R}`` and ``(G_R)_{m_L}/(G_L)_{m_L}``;
* the solver of its interior rows ``m_L+1..m_R-1`` and their two couplings
  to the block's first and last rows.  When the longest interior k is
  short, k**2 * max(L, 4) <= :data:`DENSE_INTERIOR_CAP` scalars, the
  solver is the interior's dense inverse, and a rank's interior solve is
  one contraction; otherwise it is the interior's blocked elimination.

Each of these but a dense inverse is a length-L vector (or an (·, L)
array), so a rank's plan is O(n/p + log p) per member, plus at most
DENSE_INTERIOR_CAP scalars.  The build is two eliminations, plus the Z
products, all vectorized over the members: the family's two-way
elimination of n rows, one kernel call on the family and its reversal side
by side, and one of every rank's interior at once.  That last one lays
the interiors side by side as a single (longest interior, R * L) family, R
the number of blocks with an interior, padding each at its end with
decoupled identity rows.  Short interiors are inverted in closed form from
that family's own two-way elimination, the same code as the whole
family's, and each rank keeps the leading block of its members' inverses;
longer ones are one blocked elimination, and each rank keeps its own
columns over the blocks that hold its rows.

Splitting: the rank interval is halved recursively at ``mid =
ceil((lo+hi)/2)``.  The solution components at the middle rank's first/last
rows (``k1``/``k2``) equal weighted sums of the per-rank scalars ``beta``
(dot products of the owned rhs with ``G_L``/``G_R``) with Z-entry weights;
the two components are accumulated in one tree reduce per side.  The middle
rank then emits correction scalars to its immediate neighbors, which fold
them into both their beta components -- after which the two sub-intervals
are completely decoupled and recurse.  Singleton intervals need no
communication at all: their first/last values are directly their
(corrected) betas.  One singleton can fall one level deeper than
ceil(log2(p)) when p is a power of two; it is processed within the last level
(it depends only on the fold that same level), keeping the level count exact.

A solve allocates one (n, K) solution array, and every rank writes its own
rows of it and no others: its first and last rows, then the solve of its
interior, which runs in place in the rows between them.  The ranks of a
launch never touch the same row, so they share the array under either
executor.

The decisive identity is that ratios of inverse-row entries
``(G_L)_k / (G_R)_k`` do not depend on k beyond the owned block, which is what
lets one reduce carry both target components and lets neighbors fold the
corrections locally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .comm import CommWorld, Group, check_executor
from .errors import (DimensionMismatch, DomainError, IndexOutOfRange,
                     InvalidPartition, SingularPlan, as_integer)
# perfbench/spans.py traces the kernel layer through these two names
from .kernels import (MultiFactorization, multi_apply as thomas_apply,
                      multi_factor as thomas_factor)
from .tridiag import TridiagonalMatrix, frozen_copy

FOLD_RATIO_FLOOR = 1e-280

# A plan holds every rank's interior as its dense inverse when the longest
# interior k has k**2 * max(L, 4) <= DENSE_INTERIOR_CAP (512 KB per rank for
# a family): a solve is then one contraction, where the blocked elimination
# pays about 25 numpy calls whatever k is.  Dense against blocked per
# interior solve (one pinned CPU, one BLAS thread, best of 300): at L = 64,
# k = 14 / 32 / 48 took 10 / 31 / 62 against 42 / 57 / 66 us; at L = 256,
# k = 14 / 16 / 24 took 25 / 30 / 82 against 50 / 61 / 73 us.  A one-matrix
# plan's contraction grows with its batch of M right-hand sides, so it is
# taken as a batch of at least 4, which keeps k <= 128 (best of 400): at
# k = 128, M = 1 / 8 / 16 took 9 / 104 / 137 against 99 / 133 / 144 us; at
# k = 180, M = 1 / 4 / 8 took 21 / 171 / 200 against 114 / 153 / 156 us.
DENSE_INTERIOR_CAP = 2 ** 16


def _checked_out(F: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """``out``, once it is a C-contiguous array of ``F``'s shape, or a fresh
    array of that shape when it is None; otherwise DimensionMismatch."""
    if out is None:
        return np.empty(F.shape)
    if out.shape != F.shape or not out.flags.c_contiguous:
        raise DimensionMismatch(f"out must be a C-contiguous array of "
                                f"shape {F.shape}, got {out.shape}")
    return out


# ---------------------------------------------------------------------------
# the blocked elimination of a run of rows
# ---------------------------------------------------------------------------


def block_shape(n: int) -> Tuple[int, int]:
    """(m, P) of the blocked elimination of ``n`` rows: P = isqrt(n + 1)
    blocks of m = n // P rows, block k on rows k (m + 1) .. k (m + 1) + m - 1
    and separator k on row k (m + 1) + m.  The last block holds between 1
    and m of the rows, since P**2 <= n + 1."""
    P = math.isqrt(n + 1)
    return n // P, P


def _to_blocks(a, width: int, m: int, P: int, fill: float) -> np.ndarray:
    """Rows ``k (m + 1) + i``, ``i < width``, of ``a`` laid out as
    ``out[i, k]`` (shape ``(width, P) + a.shape[1:]``); rows past the end of
    ``a`` read ``fill``."""
    head = (P - 1) * (m + 1)
    out = np.empty((width, P) + a.shape[1:])
    out[:, :-1] = a[:head].reshape((P - 1, m + 1) + a.shape[1:])[:, :width] \
        .swapaxes(0, 1)
    tail = a.shape[0] - head
    out[:tail, -1] = a[head:]
    out[tail:, -1] = fill
    return out


class BlockElimination(NamedTuple):
    """The elimination of L tridiagonal systems of one order in row blocks,
    separators first: the splitting method's order on one process.

    The n rows split into P blocks of m rows with one separator row between
    neighbours (:func:`block_shape`), the last block padded with decoupled
    identity rows.  Every block of every member is factored as one
    (m, P * L) family.  A separator's equation reads its two blocks' rhs
    only through their dot products with the rows of the block inverses
    that meet it, the last row of the block above and the first of the
    block below (Terekhov, Parallel Computing 36, 2010), so each block
    keeps those rows, scaled by the separator's coupling to them.  A solve
    takes the separators from the (P - 1, L) tridiagonal Schur complement
    they form, moves their couplings into the blocks' first and last rhs
    rows and eliminates every block once, its solution final: about
    2 sqrt(n) batched row steps, where one sweep of the family takes 2 n.
    Every kernel call goes through :func:`thomas_factor` and
    :func:`thomas_apply`, and every array is read-only, with the member
    axis last.
    """

    blocks: MultiFactorization    # (m, P * L): block k of member l in column k * L + l
    above: np.ndarray             # (P - 1, L): coupling of the row above separator k to it
    below: np.ndarray             # (P - 1, L): and of the row below
    left: np.ndarray              # (m, P - 1, L): first row of block k + 1's inverse
                                  # times separator k's coupling to that block
    right: np.ndarray             # (m, P - 1, L): last row of block k's inverse
                                  # times separator k's coupling to that block
    schur: Optional[MultiFactorization]   # (P - 1, L); None when P = 1

    @property
    def nsys(self) -> int:
        return self.left.shape[2]

    def solve(self, F: np.ndarray, out: Optional[np.ndarray] = None
              ) -> np.ndarray:
        """Solve every member: ``F`` is (n, L), column l the rhs of member l,
        or for one member (n,) or (n, M), a batch of M, over which the
        size-1 member axis broadcasts.  ``out``, a C-contiguous array of
        ``F``'s shape, receives the solutions and may be ``F`` itself: all
        of ``F`` is read before ``out`` is written."""
        X = _checked_out(F, out)
        n, L = F.shape[0], self.nsys
        m, P = self.blocks.n, self.left.shape[1] + 1
        # W columns: one per member, or the M of a one-member batch
        F = F.reshape(n, -1)
        W = F.shape[1]
        Y = _to_blocks(F, m, m, P, 0.0)                 # (m, P, W)
        X2 = X.reshape(n, W)
        head = (P - 1) * (m + 1)
        if P > 1:
            sep = slice(m, head, m + 1)
            # the kernel takes one band column per rhs column
            schur = self.schur if W == L else MultiFactorization(
                *(np.repeat(band, W, axis=1) for band in self.schur))
            s = thomas_apply(schur, F[sep]
                             - np.einsum("ikl,ikl->kl", self.right, Y[:, :-1])
                             - np.einsum("ikl,ikl->kl", self.left, Y[:, 1:]))
            Y[-1, :-1] -= self.above * s
            Y[0, 1:] -= self.below * s
            X2[sep] = s
        rows = Y.reshape(m, P * L) if W == L else Y     # else (m, P, M)
        thomas_apply(self.blocks, rows, out=rows)
        X2[:head].reshape(P - 1, m + 1, W)[:, :m] = Y[:, :-1].swapaxes(0, 1)
        X2[head:] = Y[: n - head, -1]
        return X


def block_factor(lower, diag, upper) -> BlockElimination:
    """The blocked elimination of the family with (n, L) ``diag`` and
    (n - 1, L) ``lower``/``upper`` (the band convention of
    :mod:`.kernels`); it makes its own read-only copies, one of the two
    coupling bands when they are the same array."""
    n, L = diag.shape
    m, P = block_shape(n)
    # padded rows: diagonal 1, no coupling, right-hand side 0
    lower_b = _to_blocks(lower, m - 1, m, P, 0.0).reshape(m - 1, P * L)
    upper_b = lower_b if upper is lower else \
        _to_blocks(upper, m - 1, m, P, 0.0).reshape(m - 1, P * L)
    blocks = thomas_factor(lower_b, _to_blocks(diag, m, m, P, 1.0)
                           .reshape(m, P * L), upper_b)
    # separator k sits on row s = k (m + 1) + m, between rows s - 1 and s + 1
    sep = slice(m, (P - 1) * (m + 1), m + 1)
    above = slice(m - 1, sep.stop - 1, m + 1)
    to_above, to_below = np.array(upper[above]), np.array(lower[sep])
    left = right = np.empty((m, 0, L))
    schur = None
    if P > 1:
        # with the top-down factors of a block, B = L U (L: diagonal dn,
        # subdiagonal lower; U: unit, superdiagonal cp), the last row of
        # B^-1 is that of L^-1: entry m - 1 is 1/dn[m - 1], and entry j is
        # entry j + 1 times -lower[j]/dn[j]; here scaled by lower[s - 1]
        # (blocks 0..P-2)
        head, tail = slice(0, (P - 1) * L), slice(L, P * L)
        right = np.empty((m, (P - 1) * L))
        np.divide(lower_b[:, head], blocks.dn[:-1, head], out=right[:-1])
        np.negative(right[:-1], out=right[:-1])
        np.divide(lower[above].reshape(-1), blocks.dn[-1, head],
                  out=right[-1])
        for j in range(m - 2, -1, -1):
            right[j] *= right[j + 1]
        # the first row is u L^-1 for u the first row of U^-1, the running
        # product of -cp: one back substitution of L^T against u, here
        # started from upper[s] for the scaling (blocks 1..P-1)
        left = np.empty((m, (P - 1) * L))
        left[0] = upper[sep].reshape(-1)
        np.negative(blocks.cp[:, tail], out=left[1:])
        for j in range(1, m):
            left[j] *= left[j - 1]
        left[-1] /= blocks.dn[-1, tail]
        for j in range(m - 2, -1, -1):
            left[j] -= lower_b[j, tail] * left[j + 1]
            left[j] /= blocks.dn[j, tail]
        left, right = (a.reshape(m, P - 1, L) for a in (left, right))
        schur = thomas_factor(-right[0, 1:] * to_below[:-1],
                              diag[sep] - right[-1] * to_above
                              - left[0] * to_below,
                              -left[-1, :-1] * to_above[1:])
    elim = BlockElimination(blocks, to_above, to_below, left, right, schur)
    for arr in (*blocks, to_above, to_below, left, right, *(schur or ())):
        arr.setflags(write=False)
    return elim


def _share(family: BlockElimination, cols: slice, k: int) -> BlockElimination:
    """The members ``cols`` of ``family`` over their first ``k`` rows, where
    every later row is a padded identity row: the blocks and separators
    that hold those rows, so a solve of the k rows alone is bitwise the
    family's solve of them.  The blocks are copied, since a solve takes
    them as one (m, blocks * members) family; the inverse rows and the
    separators are read-only views of the family's."""
    m, P = family.blocks.n, family.left.shape[1] + 1
    keep = k // (m + 1) + 1        # blocks reaching row k - 1; fewer separators
    cut = P - keep

    def block_part(a):
        rows, width = a.shape
        return frozen_copy(a.reshape(rows, P, width // P)[:, :keep, cols]) \
            .reshape(rows, keep * (cols.stop - cols.start))

    def sep_part(a):
        return a[:a.shape[0] - cut, cols]

    return BlockElimination(
        MultiFactorization(*map(block_part, family.blocks)),
        sep_part(family.above), sep_part(family.below),
        family.left[:, :keep - 1, cols], family.right[:, :keep - 1, cols],
        MultiFactorization(*map(sep_part, family.schur)) if keep > 1
        else None)


class _DenseInverse(NamedTuple):
    """L tridiagonal systems of k rows held as their inverses, for runs
    short enough that one contraction beats a blocked elimination
    (:data:`DENSE_INTERIOR_CAP`); read-only and C-contiguous."""

    inverse: np.ndarray      # (k, k, L): entry [i, j, l] is (A_l^-1)_ij

    @property
    def nsys(self) -> int:
        return self.inverse.shape[2]

    def solve(self, F: np.ndarray, out: Optional[np.ndarray] = None
              ) -> np.ndarray:
        """As :meth:`BlockElimination.solve`, by one ``np.einsum`` (no
        BLAS, so no dependence on the host's BLAS threads), whose size-1
        member axis broadcasts over a one-member batch."""
        X = _checked_out(F, out)
        F2 = F.reshape(F.shape[0], -1)
        if np.may_share_memory(X, F):
            F2 = F2.copy()            # einsum's out must not alias its operand
        np.einsum("ijl,jl->il", self.inverse, F2, out=X.reshape(F2.shape))
        return X


def _two_way(lower, diag, upper):
    """``(dn, cp, en, cq, inverse_diag)`` of the family with (k, W) ``diag``
    and (k - 1, W) ``lower``/``upper``: the top-down elimination (pivots
    ``dn``, ratios ``cp = upper/dn``), the bottom-up one (pivots ``en``,
    ratios ``cq[i] = lower[i]/en[i+1]``), from one kernel call on the family
    and its reversal side by side, and the (k, W) diagonal of every member's
    inverse, 1/(dn_i - upper_i cq_i) (1/dn on the last row)."""
    W = diag.shape[1]
    both = thomas_factor(np.concatenate([lower, upper[::-1]], axis=1),
                         np.concatenate([diag, diag[::-1]], axis=1),
                         np.concatenate([upper, lower[::-1]], axis=1))
    dn, cp = both.dn[:, :W], both.cp[:, :W]
    en, cq = both.dn[::-1, W:], both.cp[::-1, W:]
    inverse_diag = np.empty(diag.shape)
    np.multiply(upper, cq, out=inverse_diag[:-1])
    np.subtract(dn[:-1], inverse_diag[:-1], out=inverse_diag[:-1])
    inverse_diag[-1] = dn[-1]
    np.divide(1.0, inverse_diag, out=inverse_diag)
    return dn, cp, en, cq, inverse_diag


def _dense_inverses(lower, diag, upper) -> np.ndarray:
    """The inverses of the family with (k, W) ``diag`` and (k - 1, W)
    ``lower``/``upper``, as a (k, k, W) array whose [i, j, w] is entry
    (i, j) of member w's inverse.

    Closed form, from the family's two-way elimination (:func:`_two_way`),
    which gives the diagonal.  Where a row of the inverse grows away from
    the diagonal by the factors of ``G_L``/``G_R``, a column grows upwards
    by -cp_i and downwards by -cq_{i-1}, so the build is one sweep per row
    over whole contiguous rows.
    """
    k, W = diag.shape
    _, cp, _, cq, inverse_diag = _two_way(lower, diag, upper)
    up, down = np.negative(cp), np.negative(cq)
    inverse = np.empty((k, k, W))
    inverse.reshape(k * k, W)[::k + 1] = inverse_diag
    for i in range(k - 2, -1, -1):
        np.multiply(inverse[i + 1, i + 1:], up[i], out=inverse[i, i + 1:])
    for i in range(1, k):
        np.multiply(inverse[i - 1, :i], down[i - 1], out=inverse[i, :i])
    return inverse


_Interior = Union[BlockElimination, _DenseInverse]


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Contiguous block ownership of rows 1..n by ranks 1..p."""

    sizes: Tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(as_integer(s, InvalidPartition, "block size")
                      for s in self.sizes)
        if not sizes:
            raise InvalidPartition("need at least one block")
        if any(s < 2 for s in sizes):
            raise InvalidPartition(f"every block needs >= 2 rows, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    @classmethod
    def balanced(cls, n: int, p: int) -> "Partition":
        """Split n rows into p blocks of near-equal size (each >= 2)."""
        n = as_integer(n, InvalidPartition, "row count n")
        p = as_integer(p, InvalidPartition, "block count p")
        if p < 1 or n < 2 * p:
            raise InvalidPartition(f"cannot split {n} rows into {p} blocks of >= 2")
        base, extra = divmod(n, p)
        return cls(tuple(base + (1 if i < extra else 0) for i in range(p)))

    @property
    def p(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def m_L(self, rank: int) -> int:
        """1-based first owned row of ``rank``."""
        return 1 + sum(self.sizes[: rank - 1])

    def m_R(self, rank: int) -> int:
        """1-based last owned row of ``rank``."""
        return self.m_L(rank) + self.sizes[rank - 1] - 1


# ---------------------------------------------------------------------------
# splitting tree
# ---------------------------------------------------------------------------


def build_tree(p: int) -> Tuple[Tuple[tuple, ...], ...]:
    """Per-level split/leaf entries; depth is exactly ceil(log2 p) (0 for p=1).

    Entries are ``("split", lo, hi, mid)`` for intervals of two or more ranks
    and ``("leaf", rank)`` for singletons, which cost no communication.  The
    one singleton that would land a level too deep (leftmost chain when p is a
    power of two) is clamped into the last level, after the split it depends
    on.
    """
    if p == 1:
        return ()
    depth = math.ceil(math.log2(p))
    levels: List[List[tuple]] = [[] for _ in range(depth)]
    queue = [(1, p, 1)]
    while queue:
        lo, hi, d = queue.pop(0)
        if lo > hi:
            continue
        if lo == hi:
            levels[min(d, depth) - 1].append(("leaf", lo))
            continue
        mid = (lo + hi + 1) // 2
        levels[d - 1].append(("split", lo, hi, mid))
        queue.append((lo, mid - 1, d + 1))
        queue.append((mid + 1, hi, d + 1))
    return tuple(tuple(level) for level in levels)


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankPlan:
    """Immutable per-rank preparation data: exactly what the protocol reads.

    Every array has a trailing member axis of length L.
    """

    m_L: int
    m_R: int
    G_L: np.ndarray          # (size, L): row m_L of the inverse on rows m_L..m_R
    G_R: np.ndarray          # (size, L): row m_R of the inverse on rows m_L..m_R
    fold_left: np.ndarray    # (L,): (G_L)_{m_R} / (G_R)_{m_R}, used when left neighbor of a middle
    fold_right: np.ndarray   # (L,): (G_R)_{m_L} / (G_L)_{m_L}, used when right neighbor of a middle
    weights: np.ndarray      # (depth, 2, L): the Z entries read at each level
    # the interior rows' dense inverse when every interior is short
    # (DENSE_INTERIOR_CAP), else their blocked elimination; None for two rows
    interior_fact: Optional[_Interior]
    interior_c: np.ndarray   # (L,): coupling of first interior row to the row above
    interior_a: np.ndarray   # (L,): coupling of last interior row to the row below
    steps: Tuple[tuple, ...]  # the rank's roles in the splitting tree, in order:
                              # ("leaf",), ("left"|"right", level, group, is_neighbor)
                              # or ("middle", level, left_group, right_group|None)


@dataclass(frozen=True)
class DichotomyPlan:
    """Everything rhs-independent: partition, tree, per-rank data.

    ``len(plan)`` is L, the number of member systems.  A p = 1 plan holds
    only ``full_fact``, the family's blocked elimination, which is its
    solve.
    """

    partition: Partition
    world: CommWorld
    levels: Tuple[Tuple[tuple, ...], ...]
    ranks: Tuple[RankPlan, ...]
    full_fact: Optional[BlockElimination] = None

    def __len__(self) -> int:
        if self.full_fact is not None:
            return self.full_fact.nsys
        return self.ranks[0].G_L.shape[1]

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def p(self) -> int:
        return self.partition.p

    def rank_data(self, rank: int) -> RankPlan:
        """The data of ``rank`` (1..p); a p = 1 plan holds none."""
        if not 0 < rank <= len(self.ranks):
            raise IndexOutOfRange(
                f"rank {rank} outside 1..{self.p}" if self.ranks else
                f"rank {rank}: a p = 1 plan holds no rank data")
        return self.ranks[rank - 1]


def _interior_factors(part: Partition, lower, diag, upper
                      ) -> List[Optional[_Interior]]:
    """Per rank, the solver of its interior rows ``m_L+1..m_R-1`` (None for
    a two-row block), all from one build.

    The interiors sit side by side as one (longest interior, R * L) family,
    R the number of blocks with an interior, each padded at its end with
    decoupled identity rows (diagonal 1, couplings 0), so the leading k
    rows of a padded member are the k-row interior alone.  When the longest
    interior is under :data:`DENSE_INTERIOR_CAP`, each rank keeps the
    leading k-by-k block of its members' inverses (:func:`_dense_inverses`).
    Otherwise the family is one :func:`block_factor` call, and each rank
    keeps its own columns over the blocks that hold its rows
    (:func:`_share`), so its solve is bitwise the family's solve of them.
    """
    L = diag.shape[1]
    # (0-based rank, 0-based first interior row, interior size)
    blocks = [(m, start + 1, size - 2) for m, (start, size) in enumerate(
        zip(accumulate((0,) + part.sizes), part.sizes)) if size > 2]
    facts: List[Optional[_Interior]] = [None] * part.p
    if not blocks:
        return facts
    longest = max(k for _, _, k in blocks)

    def padded(band, short, fill):
        out = np.full((longest - short, len(blocks), L), fill)
        for j, (_, first, k) in enumerate(blocks):
            out[:k - short, j] = band[first: first + k - short]
        return out.reshape(longest - short, len(blocks) * L)

    bands = padded(lower, 1, 0.0), padded(diag, 0, 1.0), padded(upper, 1, 0.0)
    if longest ** 2 * max(L, 4) <= DENSE_INTERIOR_CAP:
        inverses = _dense_inverses(*bands)
        for j, (m, _, k) in enumerate(blocks):
            facts[m] = _DenseInverse(
                frozen_copy(inverses[:k, :k, j * L:(j + 1) * L]))
        return facts
    family = block_factor(*bands)
    for j, (m, _, k) in enumerate(blocks):
        facts[m] = _share(family, slice(j * L, (j + 1) * L), k)
    return facts


def build_plan(A: TridiagonalMatrix, part: Partition,
               world: CommWorld) -> DichotomyPlan:
    """One-time preparation of one matrix or a family, with no
    communication; see the module docstring for what it computes.  Every
    member must be diagonally dominant.  At p = 1 it is one blocked
    elimination; at p >= 2 Z entries are products of per-block products of
    -cp and -cq.
    """
    n, L = A.n, A.nsys
    if part.n != n:
        raise InvalidPartition(f"partition covers {part.n} rows, matrix has {n}")
    if part.p != world.p:
        raise InvalidPartition(f"partition has {part.p} blocks, world has {world.p} ranks")
    if not A.is_diagonally_dominant():
        raise InvalidPartition("matrix is not diagonally dominant")
    p = part.p
    levels = build_tree(p)
    diag, upper, lower = (b.reshape(-1, L) for b in (A.diag, A.upper, A.lower))
    if p == 1:
        return DichotomyPlan(part, world, levels, ranks=(),
                             full_fact=block_factor(lower, diag, upper))

    # first, so the padded interior family is gone before the full
    # eliminations are made
    interiors = _interior_factors(part, lower, diag, upper)

    dn, cp, en, cq, inverse_diag = _two_way(lower, diag, upper)

    # 0-based first and last row of every block but row n - 1: reduceat
    # gives each block's product over its head (all rows but the last),
    # then over its last row
    last = np.cumsum(part.sizes) - 1
    edges = np.column_stack([last + 1 - part.sizes, last]).ravel()[:-1]
    cp_blocks = np.multiply.reduceat(-cp, edges)
    cq_blocks = np.multiply.reduceat(-cq, edges)
    head_cp, last_cp = cp_blocks[0::2], cp_blocks[1::2]
    head_cq, last_cq = cq_blocks[0::2], cq_blocks[1::2]

    steps: List[List[tuple]] = [[] for _ in range(p)]
    weights = np.zeros((p, len(levels), 2, L))
    for s, level in enumerate(levels):
        for entry in level:
            if entry[0] == "leaf":
                steps[entry[1] - 1].append(("leaf",))
                continue
            _, lo, hi, mid = entry
            j = mid - 1                    # 0-based block of the middle
            left = Group(tuple(range(lo, mid + 1)), root=mid)
            right = (Group(tuple(range(mid, hi + 1)), root=mid)
                     if hi > mid else None)
            # the middle reads Z_L at its first row - 1, Z_R at its last + 1
            steps[j].append(("middle", s, left, right))
            weights[j, s, 0] = last_cp[j - 1]
            # a left rank's Z_R at the middle's first row spans its own last
            # row and the blocks between; at the middle's last, its head too
            acc = 1.0
            for r in range(j - 1, lo - 2, -1):
                z = last_cq[r] * acc
                weights[r, s] = z, z * head_cq[j]
                steps[r].append(("left", s, left, r == j - 1))
                acc = head_cq[r] * z
            if right is None:
                continue
            weights[j, s, 1] = last_cq[j]
            # and mirrored: a right rank's Z_L at the middle's last row
            acc = 1.0
            for r in range(j + 1, hi):
                z = acc * last_cp[r - 1]
                weights[r, s] = head_cp[j] * z, z
                steps[r].append(("right", s, right, r == j + 1))
                acc = z * head_cp[r]

    weights.setflags(write=False)   # each rank reads its own row
    # the factors by which a row of the inverse grows rightwards and
    # leftwards, at every row
    rightward, leftward = -upper / en[1:], -lower / dn[:-1]
    ranks = []
    for m in range(1, p + 1):
        m_L, m_R = part.m_L(m), part.m_R(m)
        a, b = m_L - 1, m_R - 1            # 0-based first/last owned row
        G_L, G_R = np.empty((b - a + 1, L)), np.empty((b - a + 1, L))
        G_L[0] = G_R[-1] = 1.0
        np.cumprod(rightward[a:b], axis=0, out=G_L[1:])
        np.cumprod(leftward[a:b][::-1], axis=0, out=G_R[-2::-1])
        G_L *= inverse_diag[a]
        G_R *= inverse_diag[b]

        den_left, den_right = G_R[-1], G_L[0]
        if (np.any(np.abs(den_left) < FOLD_RATIO_FLOOR)
                or np.any(np.abs(den_right) < FOLD_RATIO_FLOOR)):
            raise SingularPlan(
                f"rank {m}: inverse-row boundary weight below {FOLD_RATIO_FLOOR}")

        # couplings of the interior rows m_L+1..m_R-1 to rows m_L and m_R
        interior_c, interior_a = ((lower[a], upper[b - 1]) if b - a > 1
                                  else (np.zeros(L),) * 2)
        fold_left, fold_right = G_L[-1] / den_left, G_R[0] / den_right
        for arr in (G_L, G_R, fold_left, fold_right):   # fresh: frozen
            arr.setflags(write=False)                   # in place
        ranks.append(RankPlan(
            m_L=m_L, m_R=m_R,
            G_L=G_L, G_R=G_R,
            fold_left=fold_left, fold_right=fold_right,
            weights=weights[m - 1], interior_fact=interiors[m - 1],
            interior_c=frozen_copy(interior_c),
            interior_a=frozen_copy(interior_a),
            steps=tuple(steps[m - 1]),
        ))

    return DichotomyPlan(part, world, levels, tuple(ranks))


# ---------------------------------------------------------------------------
# per-rhs quantities and the solve
# ---------------------------------------------------------------------------


def local_betas(plan: DichotomyPlan, m: int, F_local) -> Tuple[np.ndarray, np.ndarray]:
    """Dot products of the owned rhs slice with the owned slices of G_L, G_R.

    ``F_local`` may be (size,) for one rhs or (size, K) for K columns, where
    column j belongs to member j of a family (K = L) or every column to the
    one matrix (L = 1); returns a pair of scalars or of length-K arrays
    accordingly.
    """
    rp = plan.rank_data(m)
    F_local = np.asarray(F_local, dtype=np.float64)
    size = rp.m_R - rp.m_L + 1
    if F_local.shape[0] != size:
        raise DimensionMismatch(
            f"rank {m} owns {size} rows, got rhs slice of {F_local.shape[0]}")
    Q = F_local.reshape(size, -1)
    if len(plan) > 1 and Q.shape[1] != len(plan):
        raise DimensionMismatch(
            f"a family of {len(plan)} needs one rhs column per member, "
            f"got {Q.shape[1]}")
    bL = np.einsum("ij,ij->j", rp.G_L, Q)
    bR = np.einsum("ij,ij->j", rp.G_R, Q)
    return (bL, bR) if F_local.ndim == 2 else (bL[0], bR[0])


def _protocol(comm, plan: DichotomyPlan, B: np.ndarray, X: np.ndarray):
    """Rank program (a generator, see :mod:`.comm`): run the splitting
    protocol for the whole family on the calling rank.

    ``B`` is the (n, K) right-hand side, read only at the rank's own rows
    ``m_L..m_R``; the rank writes those rows of the (n, K) solution ``X``
    (first row, last row, then the interior solve) and no others.
    """
    m = comm.rank
    rp = plan.rank_data(m)
    a, b = rp.m_L - 1, rp.m_R - 1           # 0-based first/last owned row
    Q = B[a: b + 1]
    K = Q.shape[1]
    bL, bR = local_betas(plan, m, Q)

    for step in rp.steps:
        role = step[0]
        if role == "leaf":
            X[a], X[b] = bL, bR
            continue
        w = rp.weights[step[1]]             # (2, L): the Z entries of k1, k2
        if role == "left":
            group, neighbor = step[2], step[3]
            yield from comm.reduce_sum_to_root(group, (w * bR).ravel())
            if neighbor:
                dL = yield from comm.recv(group.root)
                bR = bR + dL
                bL = bL + dL * rp.fold_left
        elif role == "right":
            group, neighbor = step[2], step[3]
            yield from comm.reduce_sum_to_root(group, (w * bL).ravel())
            if neighbor:
                dR = yield from comm.recv(group.root)
                bL = bL + dR
                bR = bR + dR * rp.fold_right
        else:
            left_group, right_group = step[2], step[3]
            contribution = np.empty((2, K))
            contribution[0], contribution[1] = bL, bR
            left = yield from comm.reduce_sum_to_root(
                left_group, contribution.ravel())
            if right_group is not None:
                right = yield from comm.reduce_sum_to_root(
                    right_group, np.zeros(2 * K))
            else:
                right = np.zeros(2 * K)
            np.add(left[:K], right[:K], out=X[a])
            np.add(left[K:], right[K:], out=X[b])
            # mid = ceil((lo+hi)/2) > lo: the left neighbor always exists
            yield from comm.send(m - 1, (right[:K] + bL) * w[0])
            if right_group is not None:
                yield from comm.send(m + 1, left[K:] * w[1])

    # final local solve of the interior rows, in place in X
    if rp.interior_fact is not None:
        interior = X[a + 1: b]
        interior[...] = Q[1:-1]
        interior[0] -= rp.interior_c * X[a]
        interior[-1] -= rp.interior_a * X[b]
        rp.interior_fact.solve(interior, out=interior)


def _solve(plan: DichotomyPlan, B: np.ndarray, executor: str) -> np.ndarray:
    """Solve for the (n, K) columns of ``B`` in one launch and one protocol,
    every rank writing its own rows of the one solution array."""
    check_executor(executor)
    if plan.p == 1:
        return plan.full_fact.solve(B)
    # betas of strided rows would sum in another order: the bits of X must
    # not depend on the caller's layout of B
    B = np.ascontiguousarray(B)
    X = np.empty(B.shape)
    plan.world.run(lambda comm: _protocol(comm, plan, B, X),
                   executor=executor)
    return X


def solve_many(plan: DichotomyPlan, B, executor: str = "sim") -> np.ndarray:
    """Solve A X = B for one matrix (L = 1) and a batch B of shape (n, M);
    returns X of that shape (a 1-D B gives a 1-D X).

    The splitting levels run once for the whole batch: every reduce carries
    2*M scalars (both boundary components for all M right-hand sides) and the
    correction messages carry M scalars.
    """
    if len(plan) != 1:
        raise DimensionMismatch(f"solve_many takes a one-matrix plan; this "
                                f"plan holds {len(plan)} (use solve_series)")
    B = np.asarray(B, dtype=np.float64)
    B2 = B[:, None] if B.ndim == 1 else B
    if B2.ndim != 2 or B2.shape[0] != plan.n:
        raise DimensionMismatch(f"rhs batch must be ({plan.n}, M), got {B.shape}")
    X = _solve(plan, B2, executor)
    return X[:, 0] if B.ndim == 1 else X


def solve_series(plan: DichotomyPlan, B, executor: str = "sim") -> np.ndarray:
    """Solve member l of a family against column l of B, shape (n, L).

    All L members share one launch and one splitting protocol: every reduce
    carries 2*L scalars and every correction message L scalars, so the
    message count is that of a single-matrix solve.
    """
    B = np.asarray(B, dtype=np.float64)
    if B.shape != (plan.n, len(plan)):
        raise DimensionMismatch(
            f"rhs must be ({plan.n}, {len(plan)}), one column per member, "
            f"got {B.shape}")
    return _solve(plan, B, executor)


# ---------------------------------------------------------------------------
# communication-time models
# ---------------------------------------------------------------------------


def _check_model_args(p: int, l: float, alpha: float, beta: float, gamma: float) -> None:
    if p < 2:
        raise DomainError(f"model defined for p >= 2, got {p}")
    if p & (p - 1):
        raise DomainError(f"model defined for power-of-two p, got {p}")
    if not all(0 <= v < math.inf for v in (l, alpha, beta, gamma)):
        raise DomainError("model parameters must be finite and non-negative")


def _predicted(time: float) -> float:
    """``time``, once it is in the float range; otherwise DomainError."""
    if not time < math.inf:
        raise DomainError(f"the predicted time {time!r} leaves the float "
                          f"range")
    return time


def predict_time_dichotomy(p: int, l: float, alpha: float, beta: float,
                           gamma: float) -> float:
    """Closed-form time of the splitting process on p ranks.

    ``l`` is the series length: the scalars each boundary component carries,
    l = L * M for a family of L members with M right-hand sides each (the
    protocol moves exactly the traffic of one matrix with L * M right-hand
    sides).  ``alpha`` is the message latency, ``beta`` the per-scalar
    transfer time, ``gamma`` the per-scalar add time.  A time beyond the
    float range raises :class:`DomainError`.
    """
    _check_model_args(p, l, alpha, beta, gamma)
    lg = math.log2(p)
    return _predicted(alpha * (lg + 1) * lg
                      + 2 * l * (lg - (p - 1) / p) * (gamma + beta / 2))


def predict_time_cyclic(p: int, l: float, alpha: float, beta: float,
                        gamma: float) -> float:
    """Closed-form time of cyclic reduction under the same cost parameters;
    ``l`` = L * M for a family of L members with M right-hand sides each;
    a time beyond the float range raises :class:`DomainError`."""
    _check_model_args(p, l, alpha, beta, gamma)
    lg = math.log2(p)
    return _predicted(2 * lg * (alpha + l * beta + l * gamma))
