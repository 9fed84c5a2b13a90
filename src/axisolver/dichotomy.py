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

Preparation.  At p = 1 it is the family's one elimination, which is the
solve.  At p >= 2 two eliminations of the whole family -- top-down (pivots
``dn``, ratios ``cp = upper/dn``) and bottom-up (pivots ``en``, ratios
``cq = lower[i]/en[i+1]``) -- give in closed form everything a rank reads:

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
* the elimination of its interior rows ``m_L+1..m_R-1`` and their two
  couplings to the block's first and last rows.

Each of these is a length-L vector (or an (·, L) array), so a rank's plan is
O(n/p + log p) per member.  The build is three eliminations in total, plus
the Z products, all vectorized over the members: the two above, of n rows
each, and one of every rank's interior at once.  That last one lays the
interiors side by side as a single (longest interior, R * L) family, R the
number of blocks with an interior, padding each at its end with decoupled
identity rows; each rank keeps a copy of its own rows and columns.

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
rows of it and no others: its first and last rows, then the elimination of
its interior, which runs in place in the rows between them.  The ranks of a
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
from typing import List, Optional, Tuple

import numpy as np

from .comm import CommWorld, Group, check_executor
from .errors import (DimensionMismatch, DomainError, IndexOutOfRange,
                     InvalidPartition, SingularPlan, as_integer)
# perfbench/spans.py traces the kernel layer through these two names
from .kernels import (MultiFactorization, multi_apply as thomas_apply,
                      multi_factor as thomas_factor)
from .tridiag import TridiagonalMatrix, frozen_copy

FOLD_RATIO_FLOOR = 1e-280


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

    rank: int
    m_L: int
    m_R: int
    G_L: np.ndarray          # (size, L): row m_L of the inverse on rows m_L..m_R
    G_R: np.ndarray          # (size, L): row m_R of the inverse on rows m_L..m_R
    fold_left: np.ndarray    # (L,): (G_L)_{m_R} / (G_R)_{m_R}, used when left neighbor of a middle
    fold_right: np.ndarray   # (L,): (G_R)_{m_L} / (G_L)_{m_L}, used when right neighbor of a middle
    weights: np.ndarray      # (depth, 2, L): the Z entries read at each level
    interior_fact: Optional[MultiFactorization]
    interior_c: np.ndarray   # (L,): coupling of first interior row to the row above
    interior_a: np.ndarray   # (L,): coupling of last interior row to the row below
    steps: Tuple[tuple, ...]  # the rank's roles in the splitting tree, in order:
                              # ("leaf",), ("left"|"right", level, group, is_neighbor)
                              # or ("middle", level, left_group, right_group|None)


@dataclass(frozen=True)
class DichotomyPlan:
    """Everything rhs-independent: partition, tree, per-rank data.

    ``len(plan)`` is L, the number of member systems.  A p = 1 plan holds
    only ``full_fact``, the family's elimination, which is its solve.
    """

    partition: Partition
    world: CommWorld
    levels: Tuple[Tuple[tuple, ...], ...]
    ranks: Tuple[RankPlan, ...]
    full_fact: Optional[MultiFactorization] = None

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
                      ) -> List[Optional[MultiFactorization]]:
    """Per rank, the elimination of its interior rows ``m_L+1..m_R-1``
    (None for a two-row block), all from one :func:`thomas_factor` call.

    The interiors sit side by side as one (longest interior, R * L) family,
    R the number of blocks with an interior, each padded at its end with
    decoupled identity rows (diagonal 1, couplings 0).  The elimination runs
    column by column, so every rank's read-only copy of its own rows and
    columns is bitwise the elimination of its interior alone.
    """
    L = diag.shape[1]
    # (0-based rank, 0-based first interior row, interior size)
    blocks = [(m, start + 1, size - 2) for m, (start, size) in enumerate(
        zip(accumulate((0,) + part.sizes), part.sizes)) if size > 2]
    facts: List[Optional[MultiFactorization]] = [None] * part.p
    if not blocks:
        return facts
    longest = max(k for _, _, k in blocks)

    def padded(band, short, fill):
        out = np.full((longest - short, len(blocks), L), fill)
        for j, (_, first, k) in enumerate(blocks):
            out[:k - short, j] = band[first: first + k - short]
        return out.reshape(longest - short, len(blocks) * L)

    family = thomas_factor(padded(lower, 1, 0.0), padded(diag, 0, 1.0),
                          padded(upper, 1, 0.0))
    for j, (m, _, k) in enumerate(blocks):
        cols = slice(j * L, (j + 1) * L)
        facts[m] = MultiFactorization(frozen_copy(family.lower[:k - 1, cols]),
                                      frozen_copy(family.cp[:k - 1, cols]),
                                      frozen_copy(family.dn[:k, cols]))
    return facts


def build_plan(A: TridiagonalMatrix, part: Partition,
               world: CommWorld) -> DichotomyPlan:
    """One-time preparation of one matrix or a family, with no
    communication; see the module docstring for what it computes.  Every
    member must be diagonally dominant.  At p = 1 it is one elimination;
    at p >= 2 Z entries are products of per-block products of -cp and -cq.
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
        fact = MultiFactorization(*map(frozen_copy, thomas_factor(
            lower, diag, upper)))
        return DichotomyPlan(part, world, levels, ranks=(), full_fact=fact)

    # first, so the padded interior family is gone before the two full
    # eliminations are made
    interiors = _interior_factors(part, lower, diag, upper)

    # top-down elimination (dn, cp) and bottom-up elimination (en, cq), the
    # latter as the top-down elimination of the reversed family
    down = thomas_factor(lower, diag, upper)
    up = thomas_factor(upper[::-1], diag[::-1], lower[::-1])
    dn, en, cq = down.dn, up.dn[::-1], up.cp[::-1]

    # 0-based first and last row of every block but row n - 1: reduceat
    # gives each block's product over its head (all rows but the last),
    # then over its last row
    last = np.cumsum(part.sizes) - 1
    edges = np.column_stack([last + 1 - part.sizes, last]).ravel()[:-1]
    cp_blocks = np.multiply.reduceat(-down.cp, edges)
    cq_blocks = np.multiply.reduceat(-cq, edges)
    head_cp, last_cp = cp_blocks[0::2], cp_blocks[1::2]
    head_cq, last_cq = cq_blocks[0::2], cq_blocks[1::2]
    # (A^-1)_kk = 1/(dn_k - upper_k cq_k) at the same rows, 1/dn on row n-1
    inverse_diag = np.vstack([
        1.0 / (dn[edges] - upper[edges] * cq[edges]), 1.0 / dn[-1:]])

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

    ranks = []
    for m in range(1, p + 1):
        m_L, m_R = part.m_L(m), part.m_R(m)
        a, b = m_L - 1, m_R - 1            # 0-based first/last owned row
        G_L = inverse_diag[2 * m - 2] * np.cumprod(np.vstack(
            [np.ones((1, L)), -upper[a:b] / en[a + 1: b + 1]]), axis=0)
        G_R = inverse_diag[2 * m - 1] * np.cumprod(np.vstack(
            [np.ones((1, L)), (-lower[a:b] / dn[a:b])[::-1]]),
            axis=0)[::-1]

        den_left, den_right = G_R[-1], G_L[0]
        if (np.any(np.abs(den_left) < FOLD_RATIO_FLOOR)
                or np.any(np.abs(den_right) < FOLD_RATIO_FLOOR)):
            raise SingularPlan(
                f"rank {m}: inverse-row boundary weight below {FOLD_RATIO_FLOOR}")

        # couplings of the interior rows m_L+1..m_R-1 to rows m_L and m_R
        interior_c, interior_a = ((lower[a], upper[b - 1]) if b - a > 1
                                  else (np.zeros(L),) * 2)
        ranks.append(RankPlan(
            rank=m, m_L=m_L, m_R=m_R,
            G_L=frozen_copy(G_L), G_R=frozen_copy(G_R),
            fold_left=frozen_copy(G_L[-1] / den_left),
            fold_right=frozen_copy(G_R[0] / den_right),
            weights=frozen_copy(weights[m - 1]), interior_fact=interiors[m - 1],
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
    bL = (rp.G_L * Q).sum(axis=0)
    bR = (rp.G_R * Q).sum(axis=0)
    return (bL, bR) if F_local.ndim == 2 else (bL[0], bR[0])


def _protocol(comm, plan: DichotomyPlan, B: np.ndarray, X: np.ndarray):
    """Rank program (a generator, see :mod:`.comm`): run the splitting
    protocol for the whole family on the calling rank.

    ``B`` is the (n, K) right-hand side, read only at the rank's own rows
    ``m_L..m_R``; the rank writes those rows of the (n, K) solution ``X``
    (first row, last row, then the interior elimination) and no others.
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

    # final local elimination of the interior rows, in place in X
    if rp.interior_fact is not None:
        interior = X[a + 1: b]
        interior[...] = Q[1:-1]
        interior[0] -= rp.interior_c * X[a]
        interior[-1] -= rp.interior_a * X[b]
        thomas_apply(rp.interior_fact, interior, out=interior)


def _solve(plan: DichotomyPlan, B: np.ndarray, executor: str) -> np.ndarray:
    """Solve for the (n, K) columns of ``B`` in one launch and one protocol,
    every rank writing its own rows of the one solution array."""
    check_executor(executor)
    if plan.p == 1:
        return thomas_apply(plan.full_fact, B)
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


def predict_time_dichotomy(p: int, l: float, alpha: float, beta: float,
                           gamma: float) -> float:
    """Closed-form time of the splitting process on p ranks.

    ``l`` is the series length: the scalars each boundary component carries,
    l = L * M for a family of L members with M right-hand sides each (the
    protocol moves exactly the traffic of one matrix with L * M right-hand
    sides).  ``alpha`` is the message latency, ``beta`` the per-scalar
    transfer time, ``gamma`` the per-scalar add time.
    """
    _check_model_args(p, l, alpha, beta, gamma)
    lg = math.log2(p)
    return alpha * (lg + 1) * lg + 2 * l * (lg - (p - 1) / p) * (gamma + beta / 2)


def predict_time_cyclic(p: int, l: float, alpha: float, beta: float,
                        gamma: float) -> float:
    """Closed-form time of cyclic reduction under the same cost parameters;
    ``l`` = L * M for a family of L members with M right-hand sides each."""
    _check_model_args(p, l, alpha, beta, gamma)
    lg = math.log2(p)
    return 2 * lg * (alpha + l * beta + l * gamma)
