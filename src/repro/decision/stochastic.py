"""Stochastic dominance and dominance-based pruning [51, 52, 53].

The paper covers "a novel pruning approach grounded in stochastic
dominance, enabling rapid identification of optimal choices across
utility functions that encode different risk profiles".  The mechanism:

* candidate A **first-order dominates** B (as a *cost*) when
  ``CDF_A(x) >= CDF_B(x)`` everywhere with strict inequality somewhere —
  every decreasing utility then prefers A;
* A **second-order dominates** B when the *integrated* CDF of A is
  everywhere at least B's — every decreasing *concave-disutility*
  (risk-averse) decision maker prefers A.

:func:`dominance_prune` removes every dominated candidate; the optimum
under *any* compatible utility provably survives, so expensive
expected-utility evaluation only runs on the (typically small) surviving
set.  That is exactly the speedup experiment E18 measures.

Both entry points additionally accept ``reduce_to=k`` / ``reduction=``:
the candidate ensemble is first compressed to k ≪ N representatives via
:func:`repro.decision.reduction.reduce_scenarios` (exact-W1 forward
selection), dominance runs over the representatives only, and
:func:`select_best` re-evaluates the winning representative's assigned
cluster so the returned index is drawn from the *full* candidate set
(zero regret whenever the true optimum is W1-closest to the winning
representative — gated end-to-end by BENCH_e29).
"""

from __future__ import annotations

import numpy as np

from ..governance.uncertainty import Histogram
from .utility import UtilityFunction

__all__ = [
    "first_order_dominates",
    "second_order_dominates",
    "dominance_prune",
    "select_best",
]


def _support_union(candidates):
    """Sorted union of the candidates' support points."""
    return np.unique(np.concatenate([c.support for c in candidates]))


def _upper_partial_moments(candidate, grid):
    """``E[(X - y)+]`` at every grid point ``y`` — exact, no quadrature.

    The survival function of a histogram is a step function, so its
    right-tail integral is piecewise linear with breakpoints exactly at
    the support points; evaluating the sum directly is both exact and
    vectorized.
    """
    excess = np.maximum(candidate.support[:, None] - grid[None, :], 0.0)
    return candidate.probabilities @ excess


def first_order_dominates(first, second, *, tol=1e-9):
    """True when ``first`` is FSD-better than ``second`` as a cost.

    ``CDF_first >= CDF_second`` everywhere, strictly somewhere:
    ``first`` is stochastically *smaller* — every decision maker with a
    decreasing utility prefers it.  Both CDFs are step functions with
    jumps only at the histograms' support points, so comparing at the
    union of supports is *exact* (a uniform grid can miss crossings
    between its points and prune a candidate some utility prefers).
    """
    if not isinstance(first, Histogram) or not isinstance(second,
                                                          Histogram):
        raise TypeError("arguments must be Histograms")
    grid = np.union1d(first.support, second.support)
    cdf_first = first.cdf(grid)
    cdf_second = second.cdf(grid)
    if np.any(cdf_first < cdf_second - tol):
        return False
    return bool(np.any(cdf_first > cdf_second + tol))


def second_order_dominates(first, second, *, tol=1e-9):
    """True when ``first`` SSD-dominates ``second`` as a cost.

    For *costs* the second-order criterion compares upper partial
    expectations: ``first`` dominates when its expected excess above
    every threshold ``y`` — the right-tail integral of the survival
    function — never exceeds ``second``'s and is strictly smaller
    somewhere.  Every risk-averse (convex-disutility) decision maker
    then prefers ``first``.  FSD implies SSD.

    Both tails are piecewise linear with breakpoints at the union of
    the two supports, so evaluating the exact upper partial moments on
    that union decides the criterion *exactly* (the pre-1.3 Riemann
    approximation carried a one-grid-step slack that made SSD overly
    conservative).
    """
    if not isinstance(first, Histogram) or not isinstance(second,
                                                          Histogram):
        raise TypeError("arguments must be Histograms")
    grid = _support_union([first, second])
    tail_first = _upper_partial_moments(first, grid)
    tail_second = _upper_partial_moments(second, grid)
    slack = tol * max(tail_second[0], 1.0)
    if np.any(tail_first > tail_second + slack):
        return False
    return bool(np.any(tail_first < tail_second - slack))


#: Coarse-prefilter resolution: the necessary-condition screen samples
#: this many columns of the full union-support matrix per pair.
_COARSE_COLUMNS = 24

#: Max candidate pairs per broadcast block in the exact pass; bounds
#: the temporary ``(pairs, G)`` arrays to a few tens of megabytes.
_PAIR_BLOCK = 4096


def _coarse_columns(n_grid):
    """Evenly spaced column indices for the prefilter (ends included)."""
    return np.unique(
        np.linspace(0, n_grid - 1, min(n_grid, _COARSE_COLUMNS)).astype(int)
    )


def _dominated_mask_fsd(candidates, tol):
    """Boolean mask of FSD-dominated candidates (matrix kernel).

    CDFs are step functions jumping only at support points, so a single
    shared union-support grid decides every pair exactly — the same
    verdicts as k² :func:`first_order_dominates` calls.  Two passes:

    1. a coarse *necessary-condition* screen — ``CDF_i >= CDF_j``
       everywhere on the full grid implies it on any column subset, so
       any pair violating the subset is ruled out for the price of a
       tiny ``(k, k, C)`` broadcast;
    2. an exact check of the surviving pairs on the full grid.

    In the realistic regime (heavily overlapping candidate costs, few
    dominations) pass 1 eliminates almost every pair, so the exact pass
    touches a handful of rows instead of all k².
    """
    grid = _support_union(candidates)
    cdf = np.vstack([c.cdf(grid) for c in candidates])
    coarse = cdf[:, _coarse_columns(cdf.shape[1])]
    maybe = (coarse[:, None, :] >= coarse[None, :, :] - tol).all(axis=2)
    np.fill_diagonal(maybe, False)
    dominated = np.zeros(len(candidates), dtype=bool)
    # Champion pass: one exact row-vs-all check by the stochastically
    # smallest candidate settles most dominated columns up front, so
    # the pair sweep only works the contested remainder.
    champion = int(np.argmax(cdf.sum(axis=1)))
    diff = cdf[champion] - cdf
    dominated |= (diff.min(axis=1) >= -tol) & (diff.max(axis=1) > tol)
    maybe[:, dominated] = False
    rows, cols = np.nonzero(maybe)
    for begin in range(0, len(rows), _PAIR_BLOCK):
        i = rows[begin:begin + _PAIR_BLOCK]
        j = cols[begin:begin + _PAIR_BLOCK]
        diff = cdf[i] - cdf[j]
        # i dominates j: CDF_i >= CDF_j everywhere, strictly somewhere.
        hit = (diff.min(axis=1) >= -tol) & (diff.max(axis=1) > tol)
        dominated[j[hit]] = True
    return dominated


def _dominated_mask_ssd(candidates, tol):
    """Boolean mask of SSD-dominated candidates (matrix kernel).

    Exact upper partial moments on the shared union-support grid; the
    tails are piecewise linear with breakpoints inside the grid, so the
    pair comparison is exact.  Same two-pass structure as
    :func:`_dominated_mask_fsd` — dominance requires ``tail_i <=
    tail_j`` everywhere on the full grid, hence on any column subset,
    so the coarse screen is a sound prefilter.
    """
    grid = _support_union(candidates)
    tails = np.vstack([
        _upper_partial_moments(c, grid) for c in candidates
    ])
    # Slack keyed on the dominated column, matching
    # second_order_dominates.
    slack = tol * np.maximum(tails[:, 0], 1.0)
    coarse = tails[:, _coarse_columns(tails.shape[1])]
    maybe = (
        coarse[:, None, :] <= coarse[None, :, :] + slack[None, :, None]
    ).all(axis=2)
    np.fill_diagonal(maybe, False)
    dominated = np.zeros(len(candidates), dtype=bool)
    # Champion pass, as in the FSD kernel: the candidate with the
    # lowest aggregate tail knocks out most dominated columns exactly.
    champion = int(np.argmin(tails.sum(axis=1)))
    diff = tails[champion] - tails
    dominated |= (diff.max(axis=1) <= slack) & (diff.min(axis=1) < -slack)
    maybe[:, dominated] = False
    rows, cols = np.nonzero(maybe)
    for begin in range(0, len(rows), _PAIR_BLOCK):
        i = rows[begin:begin + _PAIR_BLOCK]
        j = cols[begin:begin + _PAIR_BLOCK]
        diff = tails[i] - tails[j]
        # i dominates j: tail_i <= tail_j everywhere, strictly below
        # somewhere.
        hit = (diff.max(axis=1) <= slack[j]) & \
            (diff.min(axis=1) < -slack[j])
        dominated[j[hit]] = True
    return dominated


def _resolve_reduction(candidates, reduce_to, reduction):
    """The :class:`~repro.decision.reduction.Reduction` to prune
    through, or ``None`` when the full ensemble should be used.

    ``reduction=`` takes a precomputed (possibly memoized) reduction of
    exactly these candidates; ``reduce_to=k`` computes a fresh exact-W1
    forward selection here.  A reduction that would not shrink the
    ensemble is skipped entirely.
    """
    if reduction is not None:
        if reduction.n_input != len(candidates):
            raise ValueError(
                f"reduction was built for {reduction.n_input} "
                f"scenarios, got {len(candidates)} candidates")
        return reduction if reduction.n_reduced < len(candidates) else None
    if reduce_to is None or reduce_to >= len(candidates):
        return None
    from .reduction import reduce_scenarios

    return reduce_scenarios(candidates, reduce_to)


def dominance_prune(candidates, *, order=1, tol=1e-9, reduce_to=None,
                    reduction=None):
    """Indices of candidates not dominated by any other candidate.

    All k² dominance relations are decided by one matrix kernel on a
    shared union-support grid (see :func:`_dominated_mask_fsd` /
    :func:`_dominated_mask_ssd`) instead of k² independent pairwise
    calls — same verdicts, one to two orders of magnitude faster at
    fleet-scale candidate counts.

    Parameters
    ----------
    candidates:
        Sequence of cost :class:`Histogram` objects.
    order:
        1 (FSD: safe for all decreasing utilities) or 2 (SSD: safe for
        all risk-averse utilities; prunes more).
    tol:
        Comparison tolerance forwarded to the dominance criteria.
    reduce_to:
        Compress the ensemble to this many W1-representative members
        first (see :func:`repro.decision.reduction.reduce_scenarios`);
        dominance then runs over k instead of N candidates and the
        returned indices are drawn from the representatives.
    reduction:
        A precomputed :class:`~repro.decision.reduction.Reduction` of
        exactly these candidates, for callers that amortize the
        reduction across queries (overrides ``reduce_to``).

    Returns
    -------
    list of int
        Surviving candidate indices, in the original order.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    candidates = list(candidates)
    for candidate in candidates:
        if not isinstance(candidate, Histogram):
            raise TypeError("candidates must be Histograms")
    if not candidates:
        return []
    chosen = _resolve_reduction(candidates, reduce_to, reduction)
    if chosen is not None:
        pool = [candidates[int(i)] for i in chosen.indices]
        dominated = (_dominated_mask_fsd(pool, tol) if order == 1
                     else _dominated_mask_ssd(pool, tol))
        survivors = [int(chosen.indices[p])
                     for p in np.flatnonzero(~dominated)]
        if not survivors:
            survivors = [int(i) for i in chosen.indices]
        return survivors
    dominated = (_dominated_mask_fsd(candidates, tol) if order == 1
                 else _dominated_mask_ssd(candidates, tol))
    survivors = [int(i) for i in np.flatnonzero(~dominated)]
    if not survivors:  # all mutually dominated within tolerance
        survivors = list(range(len(candidates)))
    return survivors


def select_best(candidates, utility, *, prune=True, order=1,
                reduce_to=None, reduction=None, refine=True):
    """The expected-utility-optimal candidate, optionally after pruning.

    Returns ``(best_index, best_utility, n_evaluated)`` —
    ``n_evaluated`` exposes the work saved by pruning for the E18
    benchmark (with reduction: utility evaluations actually performed,
    including the refinement pass).

    With ``reduce_to=k`` / ``reduction=``, pruning and the utility
    sweep run over the k W1-representatives only; the winning
    representative's assigned cluster (``Reduction.members``) is then
    re-evaluated under the utility (``refine=True``, the default), so
    the returned index ranges over the *full* candidate set at a cost
    of roughly ``k + N/k`` evaluations instead of N.
    """
    if not isinstance(utility, UtilityFunction):
        raise TypeError("utility must be a UtilityFunction")
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidates must not be empty")
    chosen = _resolve_reduction(candidates, reduce_to, reduction)
    if chosen is None:
        indices = (dominance_prune(candidates, order=order) if prune
                   else list(range(len(candidates))))
    elif prune:
        indices = dominance_prune(candidates, order=order,
                                  reduction=chosen)
    else:
        indices = [int(i) for i in chosen.indices]
    best_index, best_value = None, -np.inf
    for index in indices:
        value = utility.expected(candidates[index])
        if value > best_value:
            best_index, best_value = index, value
    n_evaluated = len(indices)
    if chosen is not None and refine:
        position = int(np.flatnonzero(
            chosen.indices == best_index)[0])
        for index in chosen.members(position):
            if index == best_index:
                continue
            value = utility.expected(candidates[index])
            n_evaluated += 1
            if value > best_value:
                best_index, best_value = index, value
    return best_index, best_value, n_evaluated
