"""Null distributions of SRD scores and the permutation-test verdicts.

A solution's score is judged against the distribution of scores of random
rankings.  Six generators cover the common modeling choices for ties
(options 'n', 'r', 't', 'p', 'd', 'f'); the tie-free null is exact up to
n = 18.  The 5% and 95% points of the distribution (XX1 and XX19) split
the unit interval into significant similarity, indistinguishability from
random, and significant dissimilarity (reverse ranking).
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (DataTable, SrdError, TieGroups, _reference_split, checked_count,
                   checked_probability, checked_seed, fractional_ranks, max_srd)

OPTIONS = ("n", "r", "t", "p", "d", "f")

EXACT_MAX_N = 18  # 18! < 2**53: exact counts and totals stay exact in float64 and int64

_CHUNK = 1 << 16  # samples per RNG sub-stream; fixed so worker count cannot matter
_BLOCK = 1 << 16  # elements drawn at once by all workers together; bounds working memory
_KEY_COLS = 1 << 11  # a sort key holds a 53-bit uniform above an 11-bit column index


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
        count = self.sample_count
        if isinstance(count, bool) or not isinstance(count, numbers.Integral):
            raise SrdError(f"sample count must be an integer, got {count!r}")
        if count < 1:
            raise SrdError("sample count must be positive")
        if not np.all(np.isfinite(support)) or np.any(np.diff(support) <= 0):
            raise SrdError("distribution support must be finite and strictly increasing")
        if not np.all(frequency >= 0) or abs(frequency.sum() - 1.0) > 1e-9:
            raise SrdError("frequencies must be finite, nonnegative and sum to 1")
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
    n = checked_count(n, "n")
    tie_prob = checked_probability(tie_prob, "tie probability")
    if n == 1:
        return np.ones(1)
    # Both phases come straight from ``rng``, which any bit generator allows.
    block = _Block(_Tiles(1, n, tied=True))
    block.ranking(iter((rng, rng)), tie_prob, block.perm)
    return (block.perm + 3) / 2.0


class _Tiles:
    """Read-only flat tiles of a block of ``rows`` rankings of n, shared by all workers.

    A ufunc whose (rows, n) operand is broadcast from (n,) or (rows, 1)
    allocates iterator buffers on every call, so every per-element operand
    is a full contiguous tile instead.
    """

    def __init__(self, rows: int, n: int, tied: bool, ref2: np.ndarray | None = None,
                 donor_probs: np.ndarray | None = None):
        size = rows * n
        self.rows, self.n = rows, n
        self.cols = np.tile(np.arange(n, dtype=np.uint64), rows)
        self.row_starts = np.repeat(np.arange(0, size, n), n)  # n * row
        self.positions = np.arange(size) if tied else None
        # The fixed reference in the offset form of ``_Block.ranking``.
        self.ref = None if ref2 is None else np.tile(ref2, rows) + 2 * self.row_starts - 3
        self.donor_probs = donor_probs  # option 'd': each donor column's tie frequency


class _Block:
    """One worker's scratch arrays for blocks of ``tiles.rows`` rankings, and
    every view of them and of the tiles, made before any worker starts.

    Workers allocate nothing per block (argsort's fallback aside), so the
    traced allocation peak of a call does not depend on how their blocks
    overlap in time.  Fresh ~0.5 MB temporaries per block also made glibc's
    malloc return their pages and fault them in again every block.  Buffers
    serve several steps in turn: ``uniforms`` holds the merge uniforms, the
    groups' last positions, the permutation uniforms, the sorted keys' gaps
    and then ``perm``; ``keys`` option 'd''s merge probabilities, the
    group-opening flags, the sort keys and the gathered groups;
    ``pair_sums`` the merge flags and group ends.
    """

    def __init__(self, tiles: _Tiles, two_rankings: bool = False):
        rows, n = tiles.rows, tiles.n
        size, m = rows * n, rows * (n - 1)
        self.n = n
        uniforms = np.empty(size + 1)
        self.u = uniforms[:size]
        self.u_rows = self.u.reshape(rows, n)
        self.keys = np.empty(size, dtype=np.uint64)
        self.key_rows = self.keys.reshape(rows, n)
        self.keys_head, self.keys_tail = self.keys[:-1], self.keys[1:]
        self.key_ints = self.keys.view(np.int64)
        self.cols = tiles.cols
        self.perm = self.u.view(np.int64)
        self.perm_rows = self.perm.reshape(rows, n)
        self.gaps = self.perm[:-1].view(np.uint64)
        self.row_starts = tiles.row_starts
        self.ref = tiles.ref
        self.ranks = np.empty(size, dtype=np.int64) if two_rankings else None
        self.ranks_rows = None if self.ranks is None else self.ranks.reshape(rows, n)
        if tiles.positions is None:
            return
        pair_sums = np.empty(size + 1, dtype=np.int64)
        self.merge_u = uniforms[:m]
        self.merges = pair_sums.view(bool)[:m]
        self.merge_probs = self.keys[:m].view(float)
        self.merge_probs_rows = self.merge_probs.reshape(rows, n - 1)
        if tiles.donor_probs is not None:
            row_probs = np.zeros(rows)
            self.donors = (tiles.donor_probs, row_probs, row_probs[:, None])
        self.merges_rows = self.merges.reshape(rows, n - 1)
        opens = self.key_ints.reshape(rows, n)
        self.opens_first, self.opens_later = opens[:, 0], opens[:, 1:]
        self.opens_tail = self.key_ints[1:]
        self.groups = np.empty(size, dtype=np.int64)
        self.groups_head, self.groups_last = self.groups[:-1], self.groups[-1:]
        self.ends = pair_sums[:size]
        self.ends_head, self.ends_last = self.ends[:-1], self.ends[-1:]
        self.positions = tiles.positions
        self.lasts = uniforms.view(np.int64)
        self.lasts_head, self.lasts_tail = self.lasts[:size], self.lasts[1:]
        self.pair_sums = pair_sums
        self.pair_sums_tail = pair_sums[1:]

    def doubled_srd(self, draws, probs, out: np.ndarray) -> None:
        """Each sample's doubled raw SRD, against the fixed reference or a drawn one."""
        if self.ranks is None:
            diff, diff_rows = self.ranking(draws, probs, self.perm), self.perm_rows
            other = self.ref
        else:
            diff, diff_rows = self.ranking(draws, probs, self.ranks), self.ranks_rows
            other = self.ranking(draws, probs, self.perm)
        np.subtract(diff, other, out=diff)
        np.abs(diff, out=diff)
        np.add.reduce(diff_rows, axis=1, out=out)

    def ranking(self, draws, probs, out: np.ndarray) -> np.ndarray:
        """Doubled ranks of the block's random rankings, flat, plus 2 * n * row - 3.

        Takes the next generator of ``draws`` for a (rows, n - 1) draw of merge
        uniforms when ``probs`` holds the tie probability (a float) or each
        row's donor column (option 'd'); a boundary merges when its uniform is
        below.  Then the next for a (rows, n) draw whose row argsorts permute
        the sorted positions.  The offset is what a group's flat first plus
        last position minus one gives; two drawn rankings' offsets cancel,
        and ``_Tiles.ref`` carries it too.  ``out`` is ``perm`` or ``ranks``.
        """
        if probs is not None:
            self._tie_groups(next(draws), probs)
        self._permutation(next(draws))
        if probs is None:  # each sorted position is a group of its own
            np.multiply(self.perm, 2, out=out)
            return np.subtract(out, 1, out=out)
        self.groups.take(self.perm, out=self.key_ints, mode="clip")
        return self.pair_sums.take(self.key_ints, out=out, mode="clip")

    def _tie_groups(self, rng, probs) -> None:
        """Each sorted position's 1-based tie group, and per group its flat
        first plus last position minus one.

        Every row opens a group, so a group's first position is one past the
        previous group's last, also across rows.
        """
        merge_u = rng.random(out=self.merge_u)
        if np.ndim(probs):  # each row's donor column, so one probability per row
            donor_probs, row_probs, row_column = self.donors
            # A short last block's padding rows keep earlier, valid probabilities.
            donor_probs.take(probs, out=row_probs[:probs.size], mode="clip")
            np.copyto(self.merge_probs_rows, row_column)
            probs = self.merge_probs
        np.greater_equal(merge_u, probs, out=self.merges)
        self.opens_first[...] = 1
        self.opens_later[...] = self.merges_rows
        np.add.accumulate(self.key_ints, out=self.groups)
        # A group ends where the next position opens one.  Every other position
        # writes to the unused slot 0, so no group's slot is written twice.
        np.multiply(self.groups_head, self.opens_tail, out=self.ends_head)
        np.copyto(self.ends_last, self.groups_last)
        self.lasts[self.ends] = self.positions
        self.lasts[0] = -1
        # Slots past the block's group count are summed too, but never read.
        np.add(self.lasts_head, self.lasts_tail, out=self.pair_sums_tail)

    def _permutation(self, rng) -> None:
        """``perm``: each row's argsort of n uniforms, plus n * row.

        A uniform u is k / 2**53 for an integer k, so k shifted 11 bits left
        has room for a column index below 2**11.  Sorting these keys in place
        orders each row as argsort does wherever its uniforms are distinct.
        Sorted keys of distinct uniforms in a row differ by at least 2**11
        unless the uniforms are one step apart; equal ones differ by less.
        A block with a gap below 2**11 (within a row or, harmlessly, across
        rows), and any n above 2**11, is argsorted instead, so the order
        among equal uniforms stays argsort's.
        """
        u = rng.random(out=self.u)
        if self.n <= _KEY_COLS:
            np.multiply(u, 2.0 ** 53, out=u)  # exact, and argsort's order is unchanged
            self.key_ints[...] = u  # floats of 2**63 and above convert slowly
            np.left_shift(self.keys, 11, out=self.keys)
            np.bitwise_or(self.keys, self.cols, out=self.keys)
            self.key_rows.sort()
            np.subtract(self.keys_tail, self.keys_head, out=self.gaps)  # wraps across rows
            if np.minimum.reduce(self.gaps) >= _KEY_COLS:
                np.bitwise_and(self.key_ints, _KEY_COLS - 1, out=self.perm)
                np.add(self.perm, self.row_starts, out=self.perm)
                return
            # The gaps overwrote the uniforms; each sorted key still holds one.
            flat = self.row_starts + (self.key_ints & (_KEY_COLS - 1))
            u[flat] = (self.keys >> np.uint64(11)).astype(float)
        self.perm_rows[...] = np.argsort(self.u_rows, axis=1)
        np.add(self.perm, self.row_starts, out=self.perm)


def _stripe(block: _Block, gens, first: int, stride: int, state: dict, phases, probs,
            sums: np.ndarray) -> None:
    """Doubled raw SRD of blocks first, first + stride, ... of a sub-stream.

    Row b of ``sums`` takes block b.  ``phases`` holds, per phase, where it
    starts in the stream of the sub-stream's ``state`` and the draws of one
    block; before each block, each of ``gens`` is set to its phase's draws
    for that block.  ``probs`` is the tie probability, or each sample's
    donor column ('d').
    """
    rows = sums.shape[1]
    for b in range(first, sums.shape[0], stride):
        for gen, (start, draws) in zip(gens, phases):
            gen.bit_generator.state = state
            gen.bit_generator.advance(start + b * draws)
        block_probs = probs[b * rows:(b + 1) * rows] if np.ndim(probs) else probs
        block.doubled_srd(iter(gens), block_probs, sums[b])


def _chunk_counts(option: str, n: int, chunks, ref2: np.ndarray, tie_probs: np.ndarray,
                  n_bins: int, workers: int) -> np.ndarray:
    """Histogram of doubled raw SRD over the RNG sub-streams in ``chunks``.

    ``chunks`` holds a (size, seed sequence) pair per sub-stream.  ``ref2``
    is the fixed reference's doubled ranks.  After the donor draw ('d'), a
    sub-stream is consumed in phases, as by one ``rng.random`` call each:
    per ranking, (size, n - 1) merge uniforms (tied options) and then (size,
    n) permutation uniforms; for 'r' and 't' the solutions' phases, then the
    references'.  ``Generator.random`` takes one PCG64 output per double, so
    each block of a phase is found in the stream from its index alone.  One
    block size, within one ``_BLOCK`` budget for all workers, splits the
    largest sub-stream about evenly over them.  A sub-stream's last block is
    drawn whole and only its leading rows are counted: a row's draws sit at
    the same place whatever the block size.  Worker w (the calling thread is
    worker 0) draws blocks w, w + workers, ... of every sub-stream, and the
    calling thread counts its values once all workers are done with it.
    """
    tied = option not in ("n", "r")
    two = option in ("r", "t")  # two drawn rankings per sample
    widths = (([n - 1] if tied else []) + [n]) * (2 if two else 1)
    largest = max(size for size, _ in chunks)
    budget = max(1, _BLOCK // (n * workers))  # rows per block within the shared budget
    per_worker = -(-largest // (budget * workers))
    step = -(-largest // (per_worker * workers))
    tiles = _Tiles(step, n, tied, None if two else ref2, tie_probs if option == "d" else None)
    blocks = [_Block(tiles, two) for _ in range(workers)]
    sums = np.empty((-(-largest // step), step), dtype=np.int64)
    # Per worker and phase, one generator; each block sets its state.
    gens = [[np.random.Generator(np.random.PCG64(0)) for _ in widths] for _ in range(workers)]
    counts = np.zeros(n_bins, dtype=np.int64)
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        for size, seed_seq in chunks:
            rng = np.random.default_rng(seed_seq)
            if option == "d":  # the donor column of each sample
                probs = rng.integers(0, tie_probs.shape[0], size=size)
            else:
                probs = float(tie_probs[0]) if tied else None
            phases = [(size * start, step * width)
                      for start, width in zip(itertools.accumulate([0] + widths), widths)]
            own = sums[:-(-size // step)]  # the sub-stream's blocks
            args = (workers, rng.bit_generator.state, phases, probs, own)
            others = [pool.submit(_stripe, blocks[w], gens[w], w, *args)
                      for w in range(1, min(workers, len(own)))]
            _stripe(blocks[0], gens[0], 0, *args)
            for job in others:
                job.result()
            counts += np.bincount(sums.reshape(-1)[:size], minlength=n_bins)
    return counts


def generate_distribution(table: DataTable, option: str = "f",
                          tie_prob: float | None = None,
                          samples: int = 1_000_000,
                          seed: int | None = None,
                          workers: int | None = None) -> SrdDistribution:
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
    ``seed``, and each sub-stream into row blocks of one size per call, at
    most 65,536 values over all workers together, so working memory stays
    at a few MB and does not grow with n up to 65,536.  A sub-stream's last
    block is drawn whole and only its leading rows are counted, and each
    block's draws are found from its index.  ``workers`` threads (by default
    one per usable CPU, and never more than the usable CPUs or the blocks
    of a sub-stream) draw the blocks of each sub-stream in turn, so a call
    whose sub-streams fit in one block starts no thread.  Neither blocks nor
    workers change the draws, so seeded results are bit-identical for any
    ``workers`` count and to those of earlier versions.  ``samples`` must be
    a positive integer, ``tie_prob`` a real number in [0, 1], ``workers``
    None or a positive integer, ``seed`` None or a nonnegative integer.
    """
    if option not in OPTIONS:
        raise SrdError(f"unknown distribution option {option!r}")
    if option in ("t", "p"):
        if tie_prob is None:
            raise SrdError(f"option {option!r} requires a tie probability")
        tie_prob = checked_probability(tie_prob, "tie probability")
    elif tie_prob is not None:
        raise SrdError("tie_prob only applies to options 't' and 'p'")
    n = table.n_rows
    if n < 2:
        raise SrdError("distribution generation needs at least two rows")
    samples = checked_count(samples, "sample count")
    if workers is not None:
        workers = checked_count(workers, "worker count")
    seed = checked_seed(seed)

    ref = table.col_labels.index(table.reference_label)
    columns = [ref]
    if option == "d":  # the donors are the solution columns; only 'd' sorts them
        columns += _reference_split(table)[1]
    groups = TieGroups(table.values[:, columns])
    ref2 = groups.doubled_ranks()[0]
    if option in ("t", "p"):
        tie_probs = np.full(1, tie_prob)
    elif option == "f":
        tie_probs = groups.tie_probabilities()
    elif option == "d":
        tie_probs = groups.tie_probabilities()[1:]
    else:
        tie_probs = np.zeros(1)

    f = max_srd(n)
    n_bins = 2 * f + 1
    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    chunks = [(min(_CHUNK, samples - i * _CHUNK), children[i]) for i in range(n_chunks)]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    blocks = -(-min(samples, _CHUNK) * n // _BLOCK)  # in the largest sub-stream
    counts = _chunk_counts(option, n, chunks, ref2, tie_probs, n_bins,
                           min(workers or cpus, cpus, blocks))

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
    if isinstance(n, numbers.Integral) and not 2 <= n <= EXACT_MAX_N:
        raise SrdError(f"exact distribution supports 2 <= n <= {EXACT_MAX_N}")
    n = checked_count(n, "n", 2)
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
