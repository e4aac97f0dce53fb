import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import srdkit as sk
from srdkit import SrdError, core, distribution
from srdkit.core import max_srd


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def _pair_table(n):
    return sk.from_columns(
        {"a": list(range(n)), "ref": list(range(n))}, reference="ref"
    )


def _tied_table(n):
    rng = np.random.default_rng(n)
    z = rng.normal(size=n)
    return sk.from_columns({"a": np.round(z + rng.normal(size=n)),
                            "b": np.round((z + rng.normal(size=n)) * 4) / 4,
                            "ref": np.round(z * 2) / 2}, reference="ref")


# Samples per n: two sub-streams at n = 2 and 18, several blocks at 120 and 2000.
_DIGEST_SAMPLES = {2: 70_000, 18: 70_000, 120: 10_000, 2000: 2_000}
# sha256 prefixes of support, frequency and thresholds at seeds 0, 1 and 2,
# recorded when every call counted into a histogram of all n^2 + 1 values.
_CRRN_DIGESTS = {
    "n": {2: "af8a2d3a494338e8", 18: "10dde1d80220bb58", 120: "7fa64e8f790b774e",
          2000: "513a165939bc68e9"},
    "r": {2: "d3228f68b9786beb", 18: "ae0cf1d638f35970", 120: "f4cba85d5e6cf9a6",
          2000: "703e2dba337c0f0f"},
    "t": {2: "9c5b98386794024a", 18: "8afff619888d426d", 120: "89a6b171a63e5d52",
          2000: "6b713a51866ea4c7"},
    "p": {2: "6cc01255852f6cdb", 18: "b31bd328c6568495", 120: "b1819ea84eaa31b0",
          2000: "3746fffab4c97904"},
    "d": {2: "32b867baaa1fd5de", 18: "504be10ee51578f6", 120: "78ec66b0746638ab",
          2000: "47831acbac214f60"},
    "f": {2: "f9ec8fa980910212", 18: "05354dbc029fde41", 120: "ca0405ee833803fb",
          2000: "08df750e4206c4f7"},
}


class TestRandomTiedRanking:
    def test_zero_tie_prob_is_a_permutation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ranks = sk.random_tied_ranking(9, 0.0, rng)
            assert sorted(ranks.tolist()) == list(range(1, 10))

    def test_full_tie_prob_is_constant(self):
        rng = np.random.default_rng(0)
        ranks = sk.random_tied_ranking(8, 1.0, rng)
        assert ranks.tolist() == [4.5] * 8

    def test_rank_sum_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            ranks = sk.random_tied_ranking(n, float(rng.random()), rng)
            assert ranks.sum() == pytest.approx(n * (n + 1) / 2)
            assert np.all(ranks * 2 == np.rint(ranks * 2))

    def test_generated_tie_frequency_matches_request(self):
        # Monte-Carlo check straight against the generator's definition.
        rng = np.random.default_rng(2)
        total = 0.0
        runs = 100_000
        for _ in range(runs):
            ranks = sk.random_tied_ranking(8, 0.5, rng)
            total += sk.tie_probability(ranks)
        assert total / runs == pytest.approx(0.5, abs=0.01)

    def test_tie_prob_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(SrdError):
            sk.random_tied_ranking(5, 1.5, rng)
        with pytest.raises(SrdError):
            sk.random_tied_ranking(5, -0.1, rng)

    def test_n_must_be_positive(self):
        with pytest.raises(SrdError):
            sk.random_tied_ranking(0, 0.5, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [2.5, True, "5"])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(SrdError, match="n must be an integer of at least 1"):
            sk.random_tied_ranking(n, 0.5, np.random.default_rng(0))

    @pytest.mark.parametrize("tie_prob", ["0.2", True, np.True_, None])
    def test_tie_prob_must_be_a_real_number(self, tie_prob):
        with pytest.raises(SrdError, match=r"tie probability must be a real number in \[0, 1\]"):
            sk.random_tied_ranking(5, tie_prob, np.random.default_rng(0))


class TestGenerateDistribution:
    def test_footrule_option_matches_enumeration_for_n3(self):
        # Oracle: enumerate all 36 ordered permutation pairs of size 3.
        counts = {}
        for p in itertools.permutations((1, 2, 3)):
            for r in itertools.permutations((1, 2, 3)):
                d = sum(abs(a - b) for a, b in zip(p, r)) / 4
                counts[d] = counts.get(d, 0) + 1
        expected = {v: c / 36 for v, c in counts.items()}
        assert expected == {0.0: 1 / 6, 0.5: 1 / 3, 1.0: 1 / 2}

        dist = sk.generate_distribution(_pair_table(3), option="r",
                                        samples=400_000, seed=5)
        assert dist.support.tolist() == [0.0, 0.5, 1.0]
        for value, freq in zip(dist.support, dist.frequency):
            assert freq == pytest.approx(expected[value], abs=0.005)

    def test_two_object_fixed_reference(self):
        dist = sk.generate_distribution(_pair_table(2), option="n",
                                        samples=100_000, seed=6)
        assert dist.support.tolist() == [0.0, 1.0]
        assert dist.frequency[0] == pytest.approx(0.5, abs=0.01)

    def test_support_is_on_the_half_step_grid(self, bundesliga):
        dist = sk.generate_distribution(bundesliga, option="f",
                                        samples=50_000, seed=7)
        grid = dist.support * 2 * max_srd(bundesliga.n_rows)
        assert np.allclose(grid, np.rint(grid), atol=1e-9)
        assert np.all(np.diff(dist.support) > 0)
        assert abs(dist.frequency.sum() - 1.0) < 1e-9

    def test_tied_options_stay_in_unit_interval(self, bundesliga):
        for option, tie_prob in (("t", 0.3), ("p", 0.3), ("d", None), ("f", None)):
            dist = sk.generate_distribution(bundesliga, option=option,
                                            tie_prob=tie_prob, samples=20_000, seed=8)
            assert dist.support.min() >= 0.0 and dist.support.max() <= 1.0

    def test_seed_determinism(self, bundesliga):
        kwargs = dict(option="f", samples=60_000, seed=9)
        a = sk.generate_distribution(bundesliga, **kwargs)
        b = sk.generate_distribution(bundesliga, **kwargs)
        assert np.array_equal(a.support, b.support)
        assert np.array_equal(a.frequency, b.frequency)
        assert a.thresholds == b.thresholds

    @pytest.mark.parametrize("option", distribution.OPTIONS)
    def test_seeded_distributions_keep_their_digests(self, option, monkeypatch):
        for n, samples in _DIGEST_SAMPLES.items():
            table = _tied_table(n)
            for cpus in (1, 2):
                _usable_cpus(monkeypatch, cpus)
                digest = hashlib.sha256()
                for seed in (0, 1, 2):
                    dist = sk.generate_distribution(
                        table, option, tie_prob=0.3 if option in "tp" else None,
                        samples=samples, seed=seed)
                    digest.update(dist.support.tobytes())
                    digest.update(dist.frequency.tobytes())
                    digest.update(repr(dist.thresholds).encode())
                assert digest.hexdigest()[:16] == _CRRN_DIGESTS[option][n], (n, cpus)

    def test_worker_count_does_not_change_the_result(self, bundesliga, monkeypatch):
        _usable_cpus(monkeypatch, 1)
        base = sk.generate_distribution(bundesliga, option="f", samples=150_000, seed=10)
        for cpus in (2, 3, 8):
            _usable_cpus(monkeypatch, cpus)
            other = sk.generate_distribution(bundesliga, option="f", samples=150_000, seed=10)
            assert np.array_equal(base.support, other.support)
            assert np.array_equal(base.frequency, other.frequency)

    def test_each_worker_builds_its_block_buffers_once(self, bundesliga, monkeypatch):
        # One set per worker for the whole call, shared by all three sub-streams;
        # a call of one block (3,000 samples x 18 values) has one worker.
        built = []
        real = distribution._Block
        monkeypatch.setattr(distribution, "_Block",
                            lambda *args: built.append(args) or real(*args))
        for samples, cpus, expected in ((150_000, 1, 1), (150_000, 2, 2),
                                        (150_000, 8, 8), (3_000, 8, 1)):
            built.clear()
            _usable_cpus(monkeypatch, cpus)
            sk.generate_distribution(bundesliga, option="f", samples=samples, seed=10)
            assert len(built) == expected
            assert len({id(args[0]) for args in built}) == 1  # one set of shared tiles

    @pytest.mark.parametrize("cpus, expected", [(None, 1), (3, 3)])
    def test_default_workers_fall_back_to_cpu_count(self, bundesliga, monkeypatch,
                                                    cpus, expected):
        # Where os.sched_getaffinity is missing, os.cpu_count() gives the usable
        # CPUs, and one CPU is assumed when it returns None.
        built = []
        real = distribution._Block
        monkeypatch.setattr(distribution, "_Block",
                            lambda *args: built.append(args) or real(*args))
        monkeypatch.delattr(core.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(core.os, "cpu_count", lambda: cpus)
        dist = sk.generate_distribution(bundesliga, option="f", samples=150_000, seed=10)
        assert len(built) == expected
        monkeypatch.setattr(core.os, "cpu_count", lambda: 1)
        base = sk.generate_distribution(bundesliga, option="f", samples=150_000, seed=10)
        assert np.array_equal(dist.frequency, base.frequency)

    def test_thread_pool_is_bounded_by_the_usable_cpus(self, bundesliga, monkeypatch):
        # Many small blocks run as two workers on two usable CPUs: the calling
        # thread and one pool thread, which takes one step per sub-stream.  One
        # usable CPU makes no pool.
        pools, jobs, stripes = [], [], []

        class Recorder(core.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

            def submit(self, step, w):
                jobs.append(w)
                return super().submit(step, w)

        real = distribution._stripe

        def record(block, gens, first, stride, *args):
            stripes.append((len(args[-1]), first, stride))  # blocks, first block, stride
            real(block, gens, first, stride, *args)

        monkeypatch.setattr(distribution, "_BLOCK", 64)
        monkeypatch.setattr(distribution, "_stripe", record)
        monkeypatch.setattr(core, "ThreadPoolExecutor", Recorder)
        kwargs = dict(option="f", samples=70_000, seed=10)
        _usable_cpus(monkeypatch, 1)
        base = sk.generate_distribution(bundesliga, **kwargs)
        assert pools == [] and jobs == []
        assert [first for _, first, _ in stripes] == [0, 0]
        stripes.clear()
        _usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(core.os, "cpu_count", lambda: 2)
        wide = sk.generate_distribution(bundesliga, **kwargs)
        assert pools == [1] and jobs == [1, 1]
        # 64 // (18 * 2) rows a block
        assert sorted(stripes) == [(4_464, 0, 2), (4_464, 1, 2), (65_536, 0, 2), (65_536, 1, 2)]
        assert np.array_equal(base.frequency, wide.frequency)

    @pytest.mark.parametrize("n", [18, 120])
    def test_workers_draw_equal_shares_of_a_full_sub_stream(self, n, monkeypatch):
        # One block size per call: each worker draws as many blocks of a full
        # sub-stream as the others, and their blocks together fit the budget.
        stripes = []
        real = distribution._stripe

        def record(block, gens, first, stride, *args):
            stripes.append((first, stride, args[-1].shape))
            real(block, gens, first, stride, *args)

        monkeypatch.setattr(distribution, "_stripe", record)
        for workers in (1, 2, 3):
            stripes.clear()
            _usable_cpus(monkeypatch, workers)
            sk.generate_distribution(_pair_table(n), "n", samples=65_536, seed=1)
            assert sorted(first for first, _, _ in stripes) == list(range(workers))
            (blocks, step), = {shape for _, _, shape in stripes}
            assert (blocks - 1) * step < 65_536 <= blocks * step
            assert step * n * workers <= distribution._BLOCK
            shares = {len(range(first, blocks, stride)) for first, stride, _ in stripes}
            assert shares == {blocks // workers}

    def test_only_option_d_sorts_the_solution_columns(self, mep, monkeypatch):
        # The reference is ranked alone, and only options 'f' and 'd' count ties.
        sorts = []
        for name in ("TieGroups", "_tie_shares"):
            real = getattr(distribution, name)
            monkeypatch.setattr(distribution, name, lambda values, name=name, real=real:
                                sorts.append((name, values.shape)) or real(values))
        column = (mep.n_rows, 1)
        for option in distribution.OPTIONS:
            sorts.clear()
            sk.generate_distribution(mep, option, tie_prob=0.2 if option in "tp" else None,
                                     samples=10, seed=1)
            ties = {"f": [("_tie_shares", column)],
                    "d": [("_tie_shares", (mep.n_rows, mep.n_cols - 1))]}.get(option, [])
            assert sorts == [("TieGroups", column)] + ties

    def test_equal_uniforms_keep_the_argsort_order(self):
        # Sorted keys cannot order equal uniforms as argsort does, so a block
        # holding some is argsorted; n above 2**11 always is.
        class Stub:
            def __init__(self, values):
                self.values = values

            def random(self, out):
                out[...] = self.values.ravel()
                return out

        rng = np.random.default_rng(3)
        for n, rows in ((40, 4), (2100, 2)):
            perm_u = rng.random((rows, n))
            perm_u[1, ::3] = perm_u[1, 0]  # 14 equal uniforms in row 1
            merge_u = rng.random((rows, n - 1))
            expected_perm = np.argsort(perm_u, axis=1)
            # argsort's order among them is not the column order of a stable sort
            assert not np.array_equal(expected_perm[1], np.argsort(perm_u[1], kind="stable"))
            block = distribution._Block(distribution._Tiles(rows, n, tied=True))
            untied = block.ranking(iter([Stub(perm_u)]), None, block.perm).copy()
            offset = 2 * n * np.arange(rows)[:, None] - 3
            assert np.array_equal(untied.reshape(rows, n) - offset, 2 * expected_perm + 2)
            tied = block.ranking(iter([Stub(merge_u), Stub(perm_u)]), 0.4, block.perm)
            for row in range(rows):  # sorted positions first..last share first + last + 2
                starts = np.flatnonzero(np.r_[True, merge_u[row] >= 0.4])
                ends = np.r_[starts[1:], n] - 1
                sizes = ends - starts + 1
                sorted2 = np.repeat(starts + ends + 2, sizes)
                assert np.array_equal(tied[row * n:(row + 1) * n] - offset[row],
                                      sorted2[expected_perm[row]])

    def test_missing_tie_prob_rejected(self, bundesliga):
        for option in ("t", "p"):
            with pytest.raises(SrdError, match="tie probability"):
                sk.generate_distribution(bundesliga, option=option, samples=10)

    @pytest.mark.parametrize("option, tie_prob", [("p", True), ("t", "0.2"), ("p", np.False_)])
    def test_tie_prob_must_be_a_real_number(self, bundesliga, option, tie_prob):
        with pytest.raises(SrdError, match=r"tie probability must be a real number in \[0, 1\]"):
            sk.generate_distribution(bundesliga, option=option, tie_prob=tie_prob, samples=10)

    def test_tie_prob_rejected_for_other_options(self, bundesliga):
        with pytest.raises(SrdError, match="tie_prob"):
            sk.generate_distribution(bundesliga, option="f", tie_prob=0.2, samples=10)

    def test_bad_parameters(self, bundesliga):
        with pytest.raises(SrdError):
            sk.generate_distribution(bundesliga, option="x", samples=10)
        with pytest.raises(SrdError):
            sk.generate_distribution(_pair_table(1), option="n", samples=10)
        with pytest.raises(SrdError):
            sk.generate_distribution(bundesliga, option="f", samples=0)
        with pytest.raises(TypeError, match="workers"):  # the usable CPUs set the count
            sk.generate_distribution(bundesliga, option="f", samples=10, workers=1)
        with pytest.raises(SrdError, match="two columns"):  # option 'd' has no donor column
            sk.generate_distribution(sk.from_columns({"ref": [1, 2, 3]}), option="d",
                                     samples=10)


    @pytest.mark.parametrize("kwargs, message", [
        (dict(seed=-1), "seed must be an integer of at least 0, got -1"),
        (dict(seed=1.0), "seed must be an integer"),
        (dict(samples=2.5), "sample count must be an integer of at least 1, got 2.5"),
        (dict(samples=True), "sample count must be an integer"),
    ])
    def test_bad_seed_samples_or_workers_rejected(self, bundesliga, kwargs, message):
        with pytest.raises(SrdError, match=message):
            sk.generate_distribution(bundesliga, option="f", **{"samples": 10, **kwargs})

    def test_traced_peak_repeats_with_two_workers(self, bundesliga, mep, monkeypatch):
        # Worker threads allocate nothing per block, so the way two workers'
        # blocks overlap in time cannot move a call's allocation peak.
        _usable_cpus(monkeypatch, 2)
        for table, option, tie_prob in ((bundesliga, "f", None), (mep, "d", None),
                                        (_pair_table(120), "t", 0.2)):
            kwargs = dict(tie_prob=tie_prob, samples=20_000, seed=1)
            sk.generate_distribution(table, option, **kwargs)  # warm-up
            peaks = []
            for _ in range(10):
                tracemalloc.start()
                try:
                    sk.generate_distribution(table, option, **kwargs)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert max(peaks) - min(peaks) <= 0.005 * 2**20, (option, peaks)

    def test_tied_sampler_memory_does_not_grow_with_n(self):
        # A row block at a time needs a few MB whatever n is; holding a
        # sub-stream's solution ranks until the references are drawn would
        # take 105 MB here (65,536 x 400 int32).
        n = 400
        table = _pair_table(n)
        for option, tie_prob in (("t", 0.2), ("r", None)):
            tracemalloc.start()
            try:
                sk.generate_distribution(table, option, tie_prob=tie_prob,
                                         samples=65_536, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16e6, (option, peak)

    def test_histogram_memory_does_not_grow_with_n_squared(self, monkeypatch):
        # The samples hit about 260,000 of the 4,000,001 doubled SRD values;
        # a histogram of all of them took a traced peak of 65 MiB.
        _usable_cpus(monkeypatch, 1)
        rng = np.random.default_rng(5)
        table = sk.from_columns({"a": rng.random(2000), "ref": rng.random(2000)},
                                reference="ref")
        tracemalloc.start()
        try:
            sk.generate_distribution(table, "f", samples=2000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak


class TestExactDistribution:
    def test_three_objects_identity_reference(self):
        dist = sk.exact_distribution(3)
        assert dist.support.tolist() == [0.0, 0.5, 1.0]
        assert dist.frequency.tolist() == [1 / 6, 2 / 6, 3 / 6]
        assert dist.exact and dist.sample_count == 6

    def test_two_objects(self):
        dist = sk.exact_distribution(2)
        assert dist.support.tolist() == [0.0, 1.0]
        assert dist.frequency.tolist() == [0.5, 0.5]

    def test_tied_reference_column(self):
        # Hand enumeration of the 6 permutations against ranks (1.5, 1.5, 3):
        # distances 1, 1, 3, 3, 4, 4 over max_srd(3) = 4.
        dist = sk.exact_distribution(3, reference=[1.5, 1.5, 3])
        assert dist.support.tolist() == [0.25, 0.75, 1.0]
        assert dist.frequency.tolist() == [1 / 3, 1 / 3, 1 / 3]

    def test_supported_range(self):
        for n in (1, 19):
            with pytest.raises(SrdError):
                sk.exact_distribution(n)

    @pytest.mark.parametrize("n", [18.0, 5.0, "5"])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(SrdError, match="n must be an integer"):
            sk.exact_distribution(n)

    def test_invalid_reference_rejected(self):
        with pytest.raises(SrdError):
            sk.exact_distribution(3, reference=[1, 2])  # wrong length
        with pytest.raises(SrdError):
            sk.exact_distribution(3, reference=[1, 1, 1])  # wrong rank sum
        # Half-integers with the right rank sum that are still not ranks.
        for reference, ranks in (([1, 1, 4], r"\[1.5, 1.5, 3.0\]"),
                                 ([0.5, 2.5, 3], r"\[1.0, 2.0, 3.0\]")):
            with pytest.raises(SrdError, match=f"not a rank column; its ranks are {ranks}"):
                sk.exact_distribution(3, reference=reference)
        with pytest.raises(SrdError, match="finite"):
            sk.exact_distribution(3, reference=[1, 2, np.nan])

    def test_largest_n_thresholds_equal_integer_recomputation(self):
        n, total = 18, math.factorial(18)
        dist = sk.exact_distribution(n)
        counts = [int(c) for c in np.rint(dist.frequency * total)]
        assert sum(counts) == total and dist.sample_count == total
        cum = list(itertools.accumulate(counts))
        upper = list(itertools.accumulate(counts[::-1]))[::-1]
        support = dist.support.tolist()
        t = dist.thresholds
        assert t.xx1 == max(s for s, c in zip(support, cum) if 20 * c <= total)
        assert t.xx19 == min(s for s, c in zip(support, upper) if 20 * c <= total)
        for value, (num, den) in ((t.q1, (1, 4)), (t.median, (1, 2)), (t.q3, (3, 4))):
            assert value == next(s for s, c in zip(support, cum) if den * c >= num * total)
        assert t.mean == pytest.approx((n * n - 1) / 3 / max_srd(n), rel=1e-13)

    def test_monte_carlo_converges_to_exact(self):
        exact = sk.exact_distribution(5)
        mc = sk.generate_distribution(_pair_table(5), option="n",
                                      samples=300_000, seed=11)
        full = np.zeros(2 * max_srd(5) + 1)
        full[np.rint(exact.support * 2 * max_srd(5)).astype(int)] = exact.frequency
        full_mc = np.zeros_like(full)
        full_mc[np.rint(mc.support * 2 * max_srd(5)).astype(int)] = mc.frequency
        assert 0.5 * np.abs(full - full_mc).sum() < 0.01


class TestThresholds:
    def test_two_point_distribution(self):
        t = sk.exact_distribution(2).thresholds
        assert t.median == 0.0
        assert t.mean == 0.5
        assert t.std_dev == 0.5
        # No support point has 5% or less mass on either side, so the
        # significance cutoffs sit one grid step outside the support.
        assert t.xx1 < 0.0 and t.xx19 > 1.0

    def test_exact_three_object_mean(self):
        assert sk.exact_distribution(3).thresholds.mean == pytest.approx(2 / 3)

    def test_extract_matches_stored_record(self, bundesliga):
        dist = sk.generate_distribution(bundesliga, option="f",
                                        samples=80_000, seed=12)
        assert sk.extract_thresholds(dist) == dist.thresholds

    @pytest.mark.parametrize("n", range(2, 19))
    def test_extract_round_trips_exact_distributions(self, n):
        tied = sk.fractional_ranks(np.arange(n) // 2)
        for reference in (None, tied):
            dist = sk.exact_distribution(n, reference)
            assert sk.extract_thresholds(dist) == dist.thresholds

    def test_extract_rejects_frequencies_that_are_not_sample_fractions(self):
        dist = sk.exact_distribution(3)
        other = sk.SrdDistribution(support=dist.support, frequency=[0.2, 0.3, 0.5],
                                   thresholds=dist.thresholds, option="exact",
                                   n_objects=3, sample_count=6, exact=True)
        with pytest.raises(SrdError, match="not fractions of the sample count 6"):
            sk.extract_thresholds(other)

    def test_ordering_invariant(self, bundesliga):
        t = sk.generate_distribution(bundesliga, option="f",
                                     samples=80_000, seed=13).thresholds
        assert t.xx1 <= t.q1 <= t.median <= t.q3 <= t.xx19

    def test_nonpositive_sample_count_rejected(self):
        dist = sk.exact_distribution(3)
        for count in (0, -6):
            with pytest.raises(SrdError, match="sample count must be positive"):
                sk.SrdDistribution(support=dist.support, frequency=dist.frequency,
                                   thresholds=dist.thresholds, option="exact",
                                   n_objects=3, sample_count=count, exact=True)

    @pytest.mark.parametrize("count", [6.5, 6.0, True, "6", None])
    def test_non_integer_sample_count_rejected(self, count):
        dist = sk.exact_distribution(3)
        with pytest.raises(SrdError, match="sample count must be an integer, got"):
            dataclasses.replace(dist, sample_count=count)

    @pytest.mark.parametrize("field, value, message", [
        ("frequency", [math.nan, 0.5, 0.5], "frequencies must be finite, nonnegative"),
        ("frequency", [math.inf, 0.5, 0.5], "frequencies must be finite, nonnegative"),
        ("frequency", [-0.5, 0.5, 1.0], "frequencies must be finite, nonnegative"),
        ("frequency", [0.2, 0.2, 0.2], "frequencies must be .* sum to 1"),
        ("frequency", [0.5, 0.5], "support and frequency lengths differ"),
        ("support", [0.5, 0.25, 0.0], "support must be finite and strictly increasing"),
        ("support", [0.0, math.nan, 1.0], "support must be finite and strictly increasing"),
        ("support", [0.0, 0.5, 1.01], r"support values must be multiples of 0\.5/4 for n=3"),
    ])
    def test_malformed_fields_rejected(self, field, value, message):
        dist = sk.exact_distribution(3)
        assert dist.support.tolist() == [0.0, 0.5, 1.0]
        with pytest.raises(SrdError, match=message):
            dataclasses.replace(dist, **{field: value})

    def test_empty_support_rejected(self):
        with pytest.raises(SrdError, match="empty"):
            sk.SrdDistribution(
                support=np.array([]), frequency=np.array([]),
                thresholds=sk.Thresholds(0, 0, 0, 0, 0, 0, 0),
                option="n", n_objects=3, sample_count=1,
            )


class TestClassify:
    def test_boundary_values_are_inclusive(self):
        t = sk.Thresholds(xx1=0.3, q1=0.4, median=0.5, q3=0.6, xx19=0.8,
                          mean=0.5, std_dev=0.1)
        assert sk.classify(0.3, t) is sk.CrrnVerdict.SIGNIFICANT_SIMILAR
        assert sk.classify(0.8, t) is sk.CrrnVerdict.SIGNIFICANT_DISSIMILAR
        assert sk.classify(0.31, t) is sk.CrrnVerdict.NOT_DISTINGUISHABLE
        assert sk.classify(0.79, t) is sk.CrrnVerdict.NOT_DISTINGUISHABLE
        assert sk.classify(0.0, t) is sk.CrrnVerdict.SIGNIFICANT_SIMILAR
        assert sk.classify(1.0, t) is sk.CrrnVerdict.SIGNIFICANT_DISSIMILAR

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), "0.5", None])
    def test_score_must_be_a_finite_real_number(self, score):
        t = sk.Thresholds(xx1=0.3, q1=0.4, median=0.5, q3=0.6, xx19=0.8,
                          mean=0.5, std_dev=0.1)
        with pytest.raises(SrdError, match="normalized SRD must be a finite real "
                                           "number, got"):
            sk.classify(score, t)

    def test_verdict_strings(self):
        assert str(sk.CrrnVerdict.SIGNIFICANT_SIMILAR) == "SignificantSimilar"
        assert str(sk.CrrnVerdict.NOT_DISTINGUISHABLE) == "NotDistinguishable"
        assert str(sk.CrrnVerdict.SIGNIFICANT_DISSIMILAR) == "SignificantDissimilar"
