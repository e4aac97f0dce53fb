"""Null distributions of SRD scores and the permutation-test verdicts.

A solution's score is judged against the distribution of scores of random
rankings.  Six generators cover the common modeling choices for ties
(options 'n', 'r', 't', 'p', 'd', 'f'); the tie-free null is exact up to
n = 18.  The 5% and 95% points of the distribution (XX1 and XX19) split
the unit interval into significant similarity, indistinguishability from
random, and significant dissimilarity (reverse ranking).
"""

from __future__ import annotations

import copy
import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (DataTable, SrdError, TieGroups, _reference_split, checked_count,
                   checked_seed, fractional_ranks, max_srd)

OPTIONS = ("n", "r", "t", "p", "d", "f")

EXACT_MAX_N = 18  # 18! < 2**53: exact counts and totals stay exact in float64 and int64

_CHUNK = 1 << 16  # samples per RNG sub-stream; fixed so worker count cannot matter
_BLOCK = 1 << 16  # elements drawn at once within a sub-stream; bounds working memory


class CrrnVerdict(enum.Enum):
    """Outcome of comparing a normalized SRD score with XX1/XX19."""

    SIGNIFICANT_SIMILAR = "SignificantSimilar"
    NOT_DISTINGUISHABLE = "NotDistinguishable"
    SIGNIFICANT_DISSIMILAR = "SignificantDissimilar"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Thresholds:
    """Quantile summary of an SRD distribution.

    xx1 is the largest support value with at most 5% of the mass at or
    below it; xx19 the smallest with at most 5% at or above it.  q1,
    median, and q3 are the smallest support values whose cumulative mass
    reaches 25%, 50%, and 75%.
    """

    xx1: float
    q1: float
    median: float
    q3: float
    xx19: float
    mean: float
    std_dev: float


@dataclass(frozen=True)
class SrdDistribution:
    """Attainable normalized SRD values with their relative frequencies.

    ``support`` is strictly increasing and every entry is a multiple of
    0.5/max_srd(n_objects).  ``sample_count`` holds the Monte-Carlo sample
    size, or the number of enumerated permutations when ``exact``.
    """

    support: np.ndarray
    frequency: np.ndarray
    thresholds: Thresholds
    option: str
    n_objects: int
    sample_count: int
    seed: int | None = None
    tie_prob: float | None = None
    exact: bool = False

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=float)
        frequency = np.asarray(self.frequency, dtype=float)
        if support.size == 0:
            raise SrdError("distribution support must not be empty")
        if support.shape != frequency.shape:
            raise SrdError("support and frequency lengths differ")
        if self.sample_count < 1:
            raise SrdError("sample count must be positive")
        if np.any(np.diff(support) <= 0):
            raise SrdError("distribution support must be strictly increasing")
        if np.any(frequency < 0) or abs(frequency.sum() - 1.0) > 1e-9:
            raise SrdError("frequencies must be nonnegative and sum to 1")
        f = max_srd(self.n_objects)
        if f:
            grid = support * (2 * f)
            if not np.allclose(grid, np.rint(grid), atol=1e-6):
                raise SrdError(
                    f"support values must be multiples of 0.5/{f} for n={self.n_objects}"
                )
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "frequency", frequency)
        support.flags.writeable = False
        frequency.flags.writeable = False


def random_tied_ranking(n: int, tie_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Draw a random ranking of n objects with the given tie frequency.

    Each of the n-1 boundaries between consecutive sorted positions is
    independently merged with probability ``tie_prob``; merged groups share
    their mean rank, and the resulting multiset of ranks is assigned to the
    positions by a uniform random permutation.  tie_prob 0 gives a uniform
    permutation, tie_prob 1 a constant vector.
    """
    if n < 1:
        raise SrdError("n must be at least 1")
    if not 0.0 <= tie_prob <= 1.0:
        raise SrdError("tie probability must lie in [0, 1]")
    if n == 1:
        return np.ones(1)
    # Both phases come straight from ``rng``, which any bit generator allows.
    buffers = _BlockBuffers(1, n, 1)
    return buffers.ranking(iter((rng, rng)), 1, np.full(1, float(tie_prob)), 0)[0] / 2.0


class _BlockBuffers:
    """Scratch arrays for the row blocks of one sub-stream, reused via ``out=``.

    With fresh ~0.5 MB temporaries in every block, glibc's malloc returned
    their pages and faulted them in again each block, about a seventh of a
    tied call's time.  Only the argsort and the group starts are still
    allocated per block.
    """

    def __init__(self, rows: int, n: int, tied_rankings: int):
        size = rows * n
        self.n = n
        self.uniforms = np.empty(size)
        if tied_rankings:  # held at once by a block: 2 for option 't'
            self.starts = np.empty(size, dtype=bool)
            self.groups = np.empty(size, dtype=np.int64)
            self.pair_sums = np.empty(size + 1, dtype=np.int32)
            self.sorted2 = np.empty(size, dtype=np.int32)
            self.ranks = np.empty((tied_rankings, size), dtype=np.int32)

    def ranking(self, draws, rows: int, probs: np.ndarray | None, slot: int) -> np.ndarray:
        """Doubled ranks of ``rows`` random rankings, one per row.

        Takes the next generator of ``draws`` for a (rows, n - 1) draw of merge
        uniforms when ``probs`` holds the rows' tie probabilities (a boundary
        merges when its uniform is below), then the next for a (rows, n) draw
        whose row argsorts permute the sorted positions.
        """
        n = self.n
        size = rows * n
        if probs is not None:
            starts = self.starts[:size].reshape(rows, n)
            starts[:, 0] = True
            merge_u = next(draws).random(out=self.uniforms[:size - rows].reshape(rows, n - 1))
            np.greater_equal(merge_u, probs[:, None], out=starts[:, 1:])
            sorted2 = self._flat_doubled_ranks(starts.ravel())
        perm = np.argsort(next(draws).random(out=self.uniforms[:size].reshape(rows, n)),
                          axis=1)
        if probs is None:
            perm *= 2
            perm += 2
            return perm
        perm += n * np.arange(rows)[:, None]
        out = self.ranks[slot, :size].reshape(rows, n)
        np.take(sorted2, perm, out=out, mode="clip")
        out -= (2 * n * np.arange(rows, dtype=np.int32) - 1)[:, None]
        return out

    def _flat_doubled_ranks(self, starts: np.ndarray) -> np.ndarray:
        """Doubled rank of every sorted position plus 2 * n * row - 1.

        A tie group over sorted positions first..last (0-based) has doubled
        rank first + last + 2.  Every row opens a group, so in the flattened
        block a group's last position is the next group's first minus one,
        and the sum of the two flat firsts is first + last + 1 + 2 * n * row.
        int32 sums stay exact: a block holds fewer than 2**30 positions.
        """
        firsts = np.flatnonzero(starts)
        pair_sums = self.pair_sums[:firsts.size + 1]  # [j] serves group j - 1
        np.add(firsts[:-1], firsts[1:], out=pair_sums[1:-1])
        pair_sums[-1] = firsts[-1] + starts.size
        groups = self.groups[:starts.size]
        groups[:] = starts
        np.cumsum(groups, out=groups)  # 1-based group of every position
        return np.take(pair_sums, groups, out=self.sorted2[:starts.size], mode="clip")


def _chunk_counts(option: str, n: int, chunks, ref2: np.ndarray, tie_probs: np.ndarray,
                  n_bins: int) -> np.ndarray:
    """Histogram of doubled raw SRD over the RNG sub-streams in ``chunks``.

    ``chunks`` holds a (size, seed sequence) pair per sub-stream, and one set
    of block buffers serves them all.  ``ref2`` is the fixed reference's
    doubled ranks.  After the donor draw ('d'), a sub-stream is consumed in
    phases, as by one ``rng.random`` call each: per ranking, (size, n - 1)
    merge uniforms (tied options) and then (size, n) permutation uniforms;
    for 'r' and 't' the solutions' phases, then the references'.
    ``Generator.random`` takes one PCG64 output per double, so each phase
    reads a copy of the generator advanced to the phase's start, and the
    phases advance together in row blocks of ``_BLOCK`` elements.
    """
    tied = option not in ("n", "r")
    rankings = 2 if option in ("r", "t") else 1  # per sample
    widths = (([n - 1] if tied else []) + [n]) * rankings
    step = max(1, _BLOCK // n)
    buffers = _BlockBuffers(min(max(size for size, _ in chunks), step), n,
                            rankings if tied else 0)
    counts = np.zeros(n_bins, dtype=np.int64)
    for size, seed_seq in chunks:
        rng = np.random.default_rng(seed_seq)
        if option == "d":
            probs = tie_probs[rng.integers(0, tie_probs.shape[0], size=size)]
        else:
            probs = np.broadcast_to(tie_probs, (size,))
        streams = [rng]
        for width in widths[:-1]:
            streams.append(copy.deepcopy(streams[-1]))
            streams[-1].bit_generator.advance(size * width)
        for start in range(0, size, step):
            rows = min(step, size - start)
            block_probs = probs[start:start + rows] if tied else None
            draws = iter(streams)
            a = buffers.ranking(draws, rows, block_probs, 0)
            b = buffers.ranking(draws, rows, block_probs, 1) if rankings == 2 else ref2
            np.subtract(a, b, out=a)
            counts += np.bincount(np.abs(a, out=a).sum(axis=1), minlength=n_bins)
    return counts


def generate_distribution(table: DataTable, option: str = "f",
                          tie_prob: float | None = None,
                          samples: int = 1_000_000,
                          seed: int | None = None,
                          workers: int = 1) -> SrdDistribution:
    """Simulate the null distribution of normalized SRD scores.

    Option semantics:
      'n'  tie-free random solutions against the table's fixed reference;
      'r'  two independent tie-free random rankings per sample;
      't'  solution and reference both drawn with tie frequency ``tie_prob``;
      'p'  tied solution (``tie_prob``) against the fixed reference;
      'd'  per sample, a solution column is picked uniformly at random and
           lends its tie frequency; reference fixed;
      'f'  solutions mimic the reference column's tie frequency (default);
           reference fixed.

    The run is split into sub-streams of 65,536 samples seeded from
    ``seed``, so results are bit-identical for any ``workers`` count.  Each
    sub-stream is drawn in row blocks of about 65,536 values and holds one
    block at a time, so working memory stays at a few MB per worker and
    does not grow with n up to 65,536; the blocks do not change the draws.
    Seeded results are identical to those of earlier versions.  ``samples``
    and ``workers`` must be positive integers, ``seed`` None or a
    nonnegative integer.
    """
    if option not in OPTIONS:
        raise SrdError(f"unknown distribution option {option!r}")
    if option in ("t", "p"):
        if tie_prob is None:
            raise SrdError(f"option {option!r} requires a tie probability")
        if not 0.0 <= tie_prob <= 1.0:
            raise SrdError("tie probability must lie in [0, 1]")
    elif tie_prob is not None:
        raise SrdError("tie_prob only applies to options 't' and 'p'")
    n = table.n_rows
    if n < 2:
        raise SrdError("distribution generation needs at least two rows")
    samples = checked_count(samples, "sample count")
    workers = checked_count(workers, "worker count")
    seed = checked_seed(seed)

    ref = table.col_labels.index(table.reference_label)
    groups = TieGroups(table.values)
    ref2 = groups.doubled_ranks()[ref].astype(np.int64)
    if option in ("t", "p"):
        tie_probs = np.full(1, float(tie_prob))
    elif option == "f":
        tie_probs = groups.tie_probabilities()[[ref]]
    elif option == "d":  # the donors are the solution columns
        tie_probs = groups.tie_probabilities()[_reference_split(table)[1]]
    else:
        tie_probs = np.zeros(1)

    f = max_srd(n)
    n_bins = 2 * f + 1
    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    chunks = [(min(_CHUNK, samples - i * _CHUNK), children[i]) for i in range(n_chunks)]
    workers = min(workers, n_chunks)

    def run(w: int) -> np.ndarray:  # integer counts add exactly in any order
        return _chunk_counts(option, n, chunks[w::workers], ref2, tie_probs, n_bins)

    # The calling thread is worker 0; the others share one thread per usable CPU.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(max_workers=min(workers, cpus or 1)) as pool:
        others = pool.map(run, range(1, workers))
        counts = run(0) + sum(others)

    return _build_distribution(counts, samples, f, option=option, n_objects=n,
                               seed=seed, tie_prob=tie_prob, exact=False)


def exact_distribution(n: int, reference=None) -> SrdDistribution:
    """Exact null of tie-free random solutions against a fixed reference.

    The reference is a rank column (the identity ranking when omitted).  The
    n! permutations are counted in one sweep over the doubled ranks 2..2n:
    an item left open at t adds -t to the doubled distance, and the later
    item of each pair adds +t as it picks its partner among the other side's
    open items.  Distinct partial matchings extend to distinct permutations,
    so no count exceeds n!.
    """
    if not 2 <= n <= EXACT_MAX_N:
        raise SrdError(f"exact distribution supports 2 <= n <= {EXACT_MAX_N}")
    if reference is None:
        ref2 = 2 * np.arange(1, n + 1, dtype=np.int64)
    else:
        ref = np.asarray(reference, dtype=float)
        if ref.shape != (n,):
            raise SrdError(f"reference rank column must have length {n}")
        if not np.array_equal(ref, fractional_ranks(ref)):
            raise SrdError(f"reference is not a rank column; its ranks are "
                           f"{fractional_ranks(ref).tolist()}")
        ref2 = np.rint(ref * 2.0).astype(np.int64)
    f = max_srd(n)
    low = 2 * n * (n + 1)  # sum of all doubled ranks: the most open items subtract
    counts = np.zeros((n + 1, low + 2 * f + 1), dtype=np.int64)  # (open solutions, d)
    counts[0, low] = 1
    rows = np.arange(n + 1)[:, None]
    # np.roll wraps only zeros: every state keeps -low <= d <= 2f; rows 0 and n wrap empty.
    for t in range(2, 2 * n + 1):
        for _ in range(np.count_nonzero(ref2 == t)):  # each reference position at t
            counts = np.roll(counts, -t, 1) + np.roll(rows * counts, (-1, t), (0, 1))
        if t % 2 == 0:  # then the solution value t, facing open_refs open positions
            open_refs = rows - (t // 2 - 1) + np.count_nonzero(ref2 <= t)
            counts = np.roll(counts, (1, -t), (0, 1)) + np.roll(open_refs * counts, t, 1)
    return _build_distribution(counts[0, low:], math.factorial(n), f, option="exact",
                               n_objects=n, seed=None, tie_prob=None, exact=True)


def _build_distribution(counts: np.ndarray, total: int, f: int, **meta) -> SrdDistribution:
    observed = np.nonzero(counts)[0]
    support = observed / (2.0 * f) if f else np.zeros(observed.size)
    frequency = counts[observed] / total
    thresholds = _thresholds_from_counts(support, counts[observed], total, f)
    return SrdDistribution(support=support, frequency=frequency,
                           thresholds=thresholds, sample_count=total, **meta)


def _thresholds_from_counts(support: np.ndarray, counts: np.ndarray, total: int,
                            f: int) -> Thresholds:
    """Quantiles by exact integer comparison, immune to float cumsum noise."""
    cum = np.cumsum(counts)
    upper = np.cumsum(counts[::-1])[::-1]  # mass at or above each support point
    step = 0.5 / f if f else 1.0

    low = np.nonzero(20 * cum <= total)[0]
    xx1 = support[low[-1]] if low.size else support[0] - step
    high = np.nonzero(20 * upper <= total)[0]
    xx19 = support[high[0]] if high.size else support[-1] + step

    def quantile(num: int, den: int) -> float:
        return support[np.nonzero(den * cum >= num * total)[0][0]]

    freq = counts / total
    mean = float(np.sum(support * freq))
    var = float(np.sum((support - mean) ** 2 * freq))
    return Thresholds(
        xx1=float(xx1),
        q1=float(quantile(1, 4)),
        median=float(quantile(1, 2)),
        q3=float(quantile(3, 4)),
        xx19=float(xx19),
        mean=mean,
        std_dev=math.sqrt(max(var, 0.0)),
    )


def extract_thresholds(dist: SrdDistribution) -> Thresholds:
    """Recompute the threshold record from a distribution's sample counts."""
    total = dist.sample_count
    counts = np.rint(dist.frequency * total).astype(np.int64)
    if not np.array_equal(counts / total, dist.frequency):
        raise SrdError(f"frequencies are not fractions of the sample count {total}")
    return _thresholds_from_counts(dist.support, counts, total, max_srd(dist.n_objects))


def classify(normalized_srd: float, thresholds: Thresholds) -> CrrnVerdict:
    """Place a normalized SRD score relative to the XX1/XX19 thresholds.

    Comparisons are inclusive: a value exactly on XX1 counts as
    significantly similar, and exactly on XX19 as significantly dissimilar.
    """
    if normalized_srd <= thresholds.xx1:
        return CrrnVerdict.SIGNIFICANT_SIMILAR
    if normalized_srd >= thresholds.xx19:
        return CrrnVerdict.SIGNIFICANT_DISSIMILAR
    return CrrnVerdict.NOT_DISTINGUISHABLE
