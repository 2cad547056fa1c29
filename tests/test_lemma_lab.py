import hashlib
import json
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uncond import lemma_lab, unconditionality
from uncond.lemma_lab import (
    KG_UPPER,
    SHARP_COMPLEX_BOUND,
    complex_subset_ratio,
    grothendieck_ratio,
    grothendieck_search,
    real_subset_ratio,
    sandwich_sweep,
)
from uncond.seqspace import Exponent
from uncond.unconditionality import DRAW_MAX_ENTRIES, Family, ReachError, _exhaustive_best

from _oracles import (
    complex_subset_max_naive,
    dual_l1_max,
    naive_sign_max,
    public_sign_search,
    sandwich_sweep_loop,
    scalar_subset_max_abs,
)

SQRT2 = math.sqrt(2.0)


def roots_of_unity(n):
    return np.exp(2j * math.pi * np.arange(n) / n)


class TestRealSubsetRatio:
    def test_examples(self):
        assert real_subset_ratio([1, -1]).ratio == 2.0
        assert real_subset_ratio([1, 1]).ratio == 1.0
        assert real_subset_ratio([3, -4, 5]).ratio == 1.5

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            real_subset_ratio([0.0, 0.0])

    def test_the_summability_rule_applies_to_the_entries(self):
        # sum |x_k| overflowed to inf, and the ratio came out nan with certified=True
        big = float(np.finfo(np.float64).max) / 3.0
        for x in ([1e308, 1e308], [1e308, -1e308], [big, big]):
            with pytest.raises(ValueError, match="^family entries too large"):
                real_subset_ratio(x)
        assert real_subset_ratio([0.6 * big, -0.6 * big]).ratio == 2.0

    def test_report_fields(self):
        rep = real_subset_ratio([1, -1])
        assert rep.bound == 2.0
        assert rep.slack == 0.0
        assert rep.certified
        assert rep.to_json()["witness"] == [1.0, -1.0]

    def test_never_exceeds_two(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            v = rng.standard_normal(int(rng.integers(1, 16)))
            assert real_subset_ratio(v).ratio <= 2.0 + 1e-9

    def test_split_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            v = rng.standard_normal(n)
            split_max = float(np.abs(v).sum()) / real_subset_ratio(v).ratio
            assert split_max == pytest.approx(scalar_subset_max_abs(v), rel=1e-12)


class TestComplexSubsetRatio:
    def test_fourth_roots(self):
        rep = complex_subset_ratio(roots_of_unity(4))
        assert rep.ratio == pytest.approx(2 * SQRT2, rel=1e-12)
        assert rep.certified
        assert rep.sharp_bound == SHARP_COMPLEX_BOUND

    def test_single_entry(self):
        assert complex_subset_ratio([1.0 + 0j]).ratio == 1.0

    def test_degenerate_and_cap(self, monkeypatch):
        with pytest.raises(ValueError, match="degenerate"):
            complex_subset_ratio([0j, 0j])
        # above the walk's reach the arc scan stands in for enumeration, uncertified
        z = roots_of_unity(8)
        monkeypatch.setattr(unconditionality, "WALK_MAX_LOG", 4)
        rep = complex_subset_ratio(z)
        assert rep.ratio == float(np.abs(z).sum()) / lemma_lab._halfplane_max(z)
        assert not rep.certified

    def test_scan_above_the_cap_enumeration_within_it(self, monkeypatch):
        # 8-10 entries take a walk (fewer are summed from scratch at any reach), so a lowered reach refuses them
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(8, 11))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            total = float(np.abs(z).sum())
            for reach in (n - 1, n, n + 1):
                monkeypatch.setattr(unconditionality, "WALK_MAX_LOG", reach)
                rep = complex_subset_ratio(z)
                if n > reach:
                    assert rep.ratio == total / lemma_lab._halfplane_max(z)
                    assert not rep.certified
                else:
                    assert rep.ratio == total / _exhaustive_best(lemma_lab._planar(z)[1], Exponent(2.0), False)[0]
                    assert rep.certified

    def test_the_entries_are_checked_once(self, monkeypatch):
        # one conversion and summability check per ratio, on both routes
        calls = []

        def counted(z):
            calls.append(len(z))
            return planar(z)

        planar = lemma_lab._planar
        monkeypatch.setattr(lemma_lab, "_planar", counted)
        z = roots_of_unity(8)
        for reach in (7, 8):
            monkeypatch.setattr(unconditionality, "WALK_MAX_LOG", reach)
            complex_subset_ratio(z)
        assert calls == [8, 8]

    def test_certified_up_to_the_walks_reach(self):
        # the branch and bound settles normal entries up to its 62 rows; the kernel refuses 63 up front
        rng = np.random.default_rng(7)
        z = rng.standard_normal(63) + 1j * rng.standard_normal(63)
        for n in (25, 30, 31, 62, 63):
            rep = complex_subset_ratio(z[:n])
            assert rep.certified == (n <= 62)
            # the optimal subset is a half-plane's, so the scan finds the same maximum
            assert rep.ratio == pytest.approx(float(np.abs(z[:n]).sum()) / lemma_lab._halfplane_max(z[:n]), rel=1e-12)

    def test_enumeration_matches_naive(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(1, 10))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            got, _ = _exhaustive_best(lemma_lab._planar(z)[1], Exponent(2.0), False)
            assert got == pytest.approx(complex_subset_max_naive(z), rel=1e-12)

    def test_never_exceeds_four(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert complex_subset_ratio(z).ratio <= 4.0

    def test_never_exceeds_pi_empirically(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert complex_subset_ratio(z).ratio <= SHARP_COMPLEX_BOUND + 1e-9


class TestKernelDecidesCertification:
    """complex_subset_ratio is certified exactly where the kernel settles the max over the nonzero entries."""

    @staticmethod
    def kernel_value(planar):
        try:
            return _exhaustive_best(planar, Exponent(2.0), False)[0]
        except ReachError:
            return None

    @staticmethod
    def families(rng, count):
        # normal, {-1, 0, 1}-lattice, and normal with 1-4 or half its entries zero, 31-62 entries each
        for i in range(count):
            n = int(rng.integers(31, 63))
            kind = i % 4
            if kind == 1:
                z = rng.integers(-1, 2, n) + 1j * rng.integers(-1, 2, n)
            else:
                z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if kind >= 2:
                zeros = int(rng.integers(1, 5)) if kind == 2 else n // 2
                z[rng.choice(n, size=zeros, replace=False)] = 0.0
            yield kind, z

    def test_certified_exactly_where_the_kernel_settles(self):
        rng = np.random.default_rng(30)
        settled = compared = 0
        for kind, z in self.families(rng, 40):
            arr, planar = lemma_lab._planar(z)
            want = self.kernel_value(planar[arr != 0])
            rep = complex_subset_ratio(z)
            assert rep.certified == (want is not None)
            if want is None:
                continue
            settled += 1
            assert rep.ratio == float(np.abs(arr).sum()) / want
            # zero rows add exact zeros to every subset sum: the kernel's value is the same float
            full = self.kernel_value(planar) if kind in (1, 2) else None
            if full is not None:
                compared += 1
                assert full.hex() == want.hex()
        assert settled >= 36 and compared >= 10

    def test_refused_inputs_take_the_scan(self):
        rng = np.random.default_rng(31)
        inputs = [roots_of_unity(62), roots_of_unity(64)]
        inputs += [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in (63, 64, 80)]
        for z in inputs:
            rep = complex_subset_ratio(z)
            assert not rep.certified
            assert rep.ratio == float(np.abs(z).sum()) / lemma_lab._halfplane_max(z)


class TestHalfplaneScan:
    def test_matches_enumeration_on_roots(self):
        for n in (1, 2, 3, 4, 6, 8, 12, 16):
            z = roots_of_unity(n)
            scan = lemma_lab._halfplane_max(z)
            exact, _ = _exhaustive_best(lemma_lab._planar(z)[1], Exponent(2.0), False)
            assert scan == pytest.approx(exact, rel=1e-12)

    def test_matches_enumeration_on_random(self):
        rng = np.random.default_rng(5)
        for _ in range(80):
            n = int(rng.integers(1, 14))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            exact, _ = _exhaustive_best(lemma_lab._planar(z)[1], Exponent(2.0), False)
            assert lemma_lab._halfplane_max(z) == pytest.approx(exact, rel=1e-12)

    def test_axis_pair_needs_arc_interior(self):
        # the best subset {1, i} is attained only strictly between the
        # membership-change angles, not at any entry's own angle
        z = np.array([1.0 + 0j, 1j])
        assert lemma_lab._halfplane_max(z) == pytest.approx(SQRT2, rel=1e-15)

    def test_sixtyfourth_roots_band(self):
        rep = complex_subset_ratio(roots_of_unity(64))
        assert 3.0 <= rep.ratio <= SHARP_COMPLEX_BOUND + 1e-9
        assert not rep.certified  # the kernel refuses 64 entries

    def test_certified_when_small(self):
        rep = complex_subset_ratio(roots_of_unity(8))
        assert rep.certified

    def test_ratio_approaches_sharp_constant(self):
        ratios = [complex_subset_ratio(roots_of_unity(n)).ratio for n in (8, 16, 64, 256)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < SHARP_COMPLEX_BOUND
        assert ratios[-1] > 3.141


class TestGrothendieckRatio:
    def test_hadamard_pair(self):
        rep = grothendieck_ratio(Family.of([[1, 1], [1, -1]]))
        assert rep.ratio == pytest.approx(SQRT2, rel=1e-12)
        assert rep.bound == KG_UPPER
        assert rep.certified

    def test_single_unit_vector(self):
        assert grothendieck_ratio(Family.of([[1.0, 0.0]])).ratio == 1.0

    def test_four_by_four_sylvester_via_oracle(self):
        from uncond.witness import sylvester

        fam = sylvester(2)
        want_den, _ = naive_sign_max(fam.matrix, 1)
        assert want_den == pytest.approx(8.0)
        rep = grothendieck_ratio(fam)
        assert rep.ratio == pytest.approx(4 * 2.0 / want_den, rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            grothendieck_ratio(Family(np.zeros((2, 2))))

    def test_critical_log_on_violation(self, caplog, monkeypatch):
        # force a tiny envelope so the logging path is exercised
        monkeypatch.setattr(lemma_lab, "KG_UPPER", 1.0)
        with caplog.at_level(logging.CRITICAL, logger="uncond.lemma_lab"):
            rep = grothendieck_ratio(Family.of([[1, 1], [1, -1]]))
        assert rep.bound == 1.0 and rep.slack < 0
        assert any("exceeds" in r.message for r in caplog.records)

    def test_no_critical_log_at_default_envelope(self, caplog):
        rng = np.random.default_rng(6)
        with caplog.at_level(logging.CRITICAL, logger="uncond.lemma_lab"):
            for _ in range(200):
                n, d = int(rng.integers(1, 7)), int(rng.integers(1, 7))
                X = rng.standard_normal((n, d))
                rep = grothendieck_ratio(Family(X))
                assert rep.ratio <= KG_UPPER + 1e-9
        assert not caplog.records


class TestGrothendieckSearch:
    def test_reaches_hadamard_pair(self):
        rep = grothendieck_search(2, 2, budget=50, seed=7)
        assert rep.ratio >= SQRT2 - 1e-9

    def test_empty_budget(self):
        with pytest.raises(ValueError, match="empty budget"):
            grothendieck_search(2, 2, budget=0, seed=0)

    @pytest.mark.parametrize("n, dim, budget, name, value", [
        (10.0, 3, 2, "n", 10.0),
        (3, 2.5, 1, "dim", 2.5),
        (3, 2, 1.0, "budget", 1.0),
        (3, 2, "1", "budget", "1"),
    ])
    def test_non_integers_are_named(self, n, dim, budget, name, value):
        # 10.0 gave "unsupported operand type(s) for <<", and 2.5 a numpy TypeError
        with pytest.raises(ValueError) as err:
            grothendieck_search(n, dim, budget, 0)
        assert str(err.value) == f"{name} must be an integer, got {value!r}"

    def test_numpy_integers_accepted(self):
        want = grothendieck_search(5, 2, 3, 0)
        got = grothendieck_search(np.int64(5), np.int16(2), np.uint32(3), 0)
        assert got.ratio.hex() == want.ratio.hex() and got.witness == want.witness

    @pytest.mark.parametrize("seed", [-1, 1.5, np.int64(-2), "3"])
    def test_bad_seed_is_named(self, seed):
        with pytest.raises(ValueError) as err:
            grothendieck_search(2, 2, budget=1, seed=seed)
        assert str(err.value) == f"seed must be a non-negative integer, got {seed!r}"

    def test_running_best_nondecreasing_in_budget(self):
        vals = [grothendieck_search(2, 3, budget=b, seed=11).ratio for b in (5, 20, 60)]
        assert vals == sorted(vals)

    def test_deterministic(self):
        a = grothendieck_search(3, 3, budget=15, seed=4)
        b = grothendieck_search(3, 3, budget=15, seed=4)
        assert a.ratio == b.ratio

    def test_stays_under_envelope(self):
        for seed in (0, 1):
            rep = grothendieck_search(3, 4, budget=25, seed=seed)
            assert rep.ratio <= KG_UPPER + 1e-9

    @pytest.mark.parametrize("shape", [(10, 3), (12, 2), (11, 3)])
    def test_matches_public_oracle(self, shape):
        # budget 2 draws one +-1 family (trial 0) and one normal family (trial 1)
        for seed in (0, 1, 5):
            got = grothendieck_search(*shape, budget=2, seed=seed)
            want = public_sign_search(*shape, budget=2, seed=seed)
            assert (got.ratio, got.bound, got.slack, got.certified) == (
                want.ratio,
                want.bound,
                want.slack,
                want.certified,
            )
            assert got.witness == want.witness
            assert got.to_json() == want.to_json()

    def test_tiny_envelope_logs_critical_like_the_oracle(self, caplog, monkeypatch):
        monkeypatch.setattr(lemma_lab, "KG_UPPER", 0.5)
        with caplog.at_level(logging.CRITICAL, logger="uncond.lemma_lab"):
            got = grothendieck_search(3, 2, budget=2, seed=8)
            logged = len(caplog.records)
            want = public_sign_search(3, 2, budget=2, seed=8)
        assert logged > 0
        assert all(r.levelno == logging.CRITICAL and "exceeds" in r.message for r in caplog.records)
        assert len(caplog.records) == 2 * logged
        assert got.ratio == want.ratio and got.slack < 0

    def test_infinite_envelope_still_runs(self, monkeypatch):
        monkeypatch.setattr(lemma_lab, "KG_UPPER", math.inf)
        rep = grothendieck_search(3, 2, budget=2, seed=1)
        assert rep.bound == math.inf and rep.ratio > 0


class TestFlipScreen:
    """The dual-table screen of the sign-flip climb skips only flips the oracle would revert unlogged."""

    def test_floors_bound_the_sign_max_after_each_flip(self):
        rng = np.random.default_rng(83)
        l1 = Exponent(1.0)
        for trial in range(24):
            n = int(rng.integers(4, 13))
            d = int(rng.integers(1, min(n, 5)))
            X = rng.standard_normal((n, d)) if trial % 3 else rng.integers(-3, 4, size=(n, d)) * 0.1
            floors = lemma_lab._flip_floors(X)
            slack = unconditionality._slack(l1, n, d)
            for i in range(n):
                for j in range(d):
                    Y = X.copy()
                    Y[i, j] = -Y[i, j]
                    smax = _exhaustive_best(Y, l1, signs=True)[0]
                    # a proven lower bound, and within twice the relative slack of the value
                    assert floors[i, j] <= smax
                    assert smax - floors[i, j] <= 2.0 * slack * smax

    def test_floors_stay_at_the_binary64_slack(self, monkeypatch):
        # the screen is binary64: its floors are the scores times 1 - slack
        # with eps = 2^-52 written out, whatever precision the walk ranks in
        rng = np.random.default_rng(131)
        shapes = [(6, 3), (9, 5), (11, 10), (12, 2)]
        floors = [lemma_lab._flip_floors(rng.standard_normal(shape)) for shape in shapes]
        monkeypatch.setattr(lemma_lab, "_slack", lambda q, n, d: 0.0)
        rng = np.random.default_rng(131)
        for (n, d), got in zip(shapes, floors):
            scores = lemma_lab._flip_floors(rng.standard_normal((n, d)))
            slack = 4.0 * (2.0 * (2 * n + d + 2) * 2.0**-52 * d)
            assert np.array_equal(got, scores * (1.0 - slack))

    def test_floors_at_the_largest_screened_table(self):
        # d = 10 is the widest table whose bounds fit one block
        X = np.random.default_rng(89).standard_normal((11, 10))
        floors = lemma_lab._flip_floors(X)
        slack = unconditionality._slack(Exponent(1.0), 11, 10)
        for i, j in [(0, 0), (5, 7), (10, 9)]:
            Y = X.copy()
            Y[i, j] = -Y[i, j]
            smax = _exhaustive_best(Y, Exponent(1.0), signs=True)[0]
            assert 0.0 <= smax - floors[i, j] <= 2.0 * slack * smax

    @pytest.mark.parametrize("envelope", [1.2, 1.3, 1.4])
    @pytest.mark.parametrize("shape", [(10, 3), (12, 2), (11, 3), (8, 4)])
    def test_mid_envelopes_match_the_public_oracle(self, shape, envelope, caplog, monkeypatch):
        # ratios near these envelopes make some flips log and others not
        monkeypatch.setattr(lemma_lab, "KG_UPPER", envelope)
        for seed in (2, 3, 7):
            caplog.clear()
            with caplog.at_level(logging.CRITICAL, logger="uncond.lemma_lab"):
                got = grothendieck_search(*shape, budget=2, seed=seed)
                logged = len(caplog.records)
                want = public_sign_search(*shape, budget=2, seed=seed)
            assert len(caplog.records) == 2 * logged
            assert (got.ratio, got.slack) == (want.ratio, want.slack)
            assert got.witness == want.witness
            assert got.to_json() == want.to_json()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n=st.integers(2, 12), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_integer_floors_are_the_exact_sign_max_after_each_flip(self, n, d, seed):
        # an integer table is exact: its floor is the kernel's float, which is the Fraction oracle's value
        assume(d < n)
        X = np.random.default_rng(seed).integers(-3, 4, size=(n, d)).astype(np.float64)
        floors = lemma_lab._flip_floors(X)
        for i in range(n):
            for j in range(d):
                Y = X.copy()
                Y[i, j] = -Y[i, j]
                want = dual_l1_max(Y, signs=True)
                assert floors[i, j] == float(want) == want
                assert floors[i, j] == _exhaustive_best(Y, Exponent(1.0), signs=True)[0]

    @staticmethod
    def _scores(X, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(lemma_lab, "_slack", lambda q, n, d: 0.0)
            return lemma_lab._flip_floors(X)

    @pytest.mark.parametrize("exact, X", [
        (True, [[2.0**49, 2.0**49], [2.0**49, -(2.0**49)], [0.0, 0.0]]),
        (False, [[2.0**49, 2.0**49], [2.0**49, -(2.0**49) - 1.0], [0.0, 0.0]]),
        (False, [[-(2.0**53), 1.0], [0.0, 0.0], [1.0, 1.0]]),
        (False, [[1.0, -2.0], [3.0, 0.5], [-1.0, 1.0], [2.0, 2.0]]),
        (False, [[1.0, -2.0], [3.0, 1.0], [-1.0, 1.0], [2.0, 2.0 + 2.0**-40]]),
    ], ids=["sum-at-2^51", "sum-past-2^51", "entry-2^53", "one-half", "one-near-integer"])
    def test_only_exact_tables_keep_their_scores(self, exact, X, monkeypatch):
        X = np.array(X)
        scores = self._scores(X, monkeypatch)
        shrink = 1.0 if exact else 1.0 - unconditionality._slack(Exponent(1.0), *X.shape)
        assert np.array_equal(lemma_lab._flip_floors(X), scores * shrink)
        assert unconditionality._slack(Exponent(1.0), *X.shape) > 0.0

    def test_exact_floor_at_the_bound_is_the_kernels_value(self):
        X = np.array([[2.0**49, 2.0**49], [2.0**49, -(2.0**49)], [0.0, 0.0]])
        floors = lemma_lab._flip_floors(X)
        for i, j in np.ndindex(X.shape):
            Y = X.copy()
            Y[i, j] = -Y[i, j]
            assert floors[i, j] == _exhaustive_best(Y, Exponent(1.0), signs=True)[0] == dual_l1_max(Y, signs=True)

    @staticmethod
    def _count_evaluations(monkeypatch):
        calls = []
        evaluate = lemma_lab._exhaustive_best

        def counting(*args, **kwargs):
            calls.append(1)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(lemma_lab, "_exhaustive_best", counting)
        monkeypatch.setattr(unconditionality, "_exhaustive_best", counting)
        return calls

    def test_screen_skips_most_flips(self, monkeypatch):
        calls = self._count_evaluations(monkeypatch)
        grothendieck_search(11, 3, budget=2, seed=5)
        screened = len(calls)
        calls.clear()
        public_sign_search(11, 3, budget=2, seed=5)
        assert 0 < screened < len(calls) / 2

    @pytest.mark.parametrize("shape", [(10, 3), (12, 2), (11, 3), (8, 4), (14, 4)])
    def test_integer_climbs_score_only_kept_flips(self, shape, monkeypatch, caplog):
        # budget 1 is trial 0, a +-1 family: past the first sign max, only kept flips reach the kernel
        calls = self._count_evaluations(monkeypatch)
        for seed in (0, 3, 11):
            calls.clear()
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="uncond.unconditionality"):
                grothendieck_search(*shape, budget=1, seed=seed)
            climbs = [TestFloorBuilds.CLIMB_LINE.match(r.getMessage()) for r in caplog.records]
            (kept,) = [int(m[2]) for m in climbs if m]
            assert len(calls) == 1 + kept

    @pytest.mark.parametrize("budget", [1, 2])
    @pytest.mark.parametrize("shape", [(10, 3), (12, 2), (11, 3), (8, 4), (14, 4)])
    def test_lattice_and_normal_draws_match_the_public_oracle(self, shape, budget):
        # budget 1 holds the +-1 draw alone; budget 2 adds a normal draw (trial 1)
        for seed in (1, 6):
            got = grothendieck_search(*shape, budget=budget, seed=seed)
            want = public_sign_search(*shape, budget=budget, seed=seed)
            assert got.ratio == want.ratio
            assert got.witness.matrix.tobytes() == want.witness.matrix.tobytes()
            assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("shape", [(4, 5), (6, 6), (12, 11)])
    def test_unscreened_shapes_score_every_flip(self, shape, monkeypatch):
        # dim >= n, or bounds wider than one block: the climb scores what the oracle scores
        calls = self._count_evaluations(monkeypatch)
        got = grothendieck_search(*shape, budget=1, seed=4)
        unscreened = len(calls)
        calls.clear()
        want = public_sign_search(*shape, budget=1, seed=4)
        assert unscreened == len(calls)
        assert got.to_json() == want.to_json()


class TestFloorBuilds:
    """The screen is built once per climb and then only when the ascent reports a kept flip."""

    CLIMB_LINE = re.compile(r"^sign-flip climb: (\d+) sweeps, \d+ batches, \d+ moves scored, (\d+) kept$")

    @pytest.mark.parametrize("args", [(11, 3, 2, 5), (10, 3, 4, 0), (12, 2, 2, 3), (8, 4, 3, 7)])
    def test_one_build_per_climb_and_per_kept_flip(self, args, monkeypatch, caplog):
        builds = []
        floors = lemma_lab._flip_floors

        def counting(X):
            builds.append(X.copy())
            return floors(X)

        monkeypatch.setattr(lemma_lab, "_flip_floors", counting)
        with caplog.at_level(logging.DEBUG, logger="uncond.unconditionality"):
            grothendieck_search(*args)
        climbs = [self.CLIMB_LINE.match(r.getMessage()) for r in caplog.records]
        climbs = [(int(m[1]), int(m[2])) for m in climbs if m]
        assert climbs
        # some climb ran a second sweep, where a rebuild at each sweep start would show
        assert any(sweeps > 1 for sweeps, _ in climbs)
        assert sum(kept for _, kept in climbs) > 0
        assert len(builds) == len(climbs) + sum(kept for _, kept in climbs)
        # every build after a climb's first sees entries a kept flip changed
        assert all(not np.array_equal(a, b) for a, b in zip(builds, builds[1:]))

    def test_unscreened_shapes_build_no_floors(self, monkeypatch):
        monkeypatch.setattr(lemma_lab, "_flip_floors", lambda X: pytest.fail("screened"))
        grothendieck_search(4, 5, 2, 4)


class TestSandwichSweep:
    def test_zero_violations(self):
        rep = sandwich_sweep((2, 5, 16), ((1, 2), (1.5, 3), (2, 4)), trials=300, seed=0)
        assert rep.violations == 0
        assert len(rep.records) == 9

    def test_slacks_nonnegative(self):
        rep = sandwich_sweep((3,), ((1, 2),), trials=200, seed=1)
        rec = rep.records[0]
        assert rec.min_lower_slack >= -1e-9
        assert rec.min_upper_slack >= -1e-9

    def test_bad_pairs_rejected(self, monkeypatch):
        # a bad pair after a good one is rejected before the good one's cells are drawn
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
        for pairs in (((3, 2),), ((1, "inf"),), ((1, 2), (3, 2))):
            with pytest.raises(ValueError, match=r"^pairs must satisfy 1 <= p <= q < inf$"):
                sandwich_sweep((2,), pairs, trials=10, seed=0)

    @pytest.mark.parametrize("dim", [2.5, -1, 0, np.int64(0), "3", None])
    def test_dims_checked_before_drawing(self, dim, monkeypatch):
        # 2.5 and -1 used to reach numpy's own errors, and 0 was drawn and recorded
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
        with pytest.raises(ValueError) as err:
            sandwich_sweep((2, dim), ((1, 2),), trials=10, seed=0)
        assert str(err.value) == f"dims must be integers >= 1, got {dim!r}"

    @pytest.mark.parametrize("trials", [0, 2.5, "3", None])
    def test_trials_checked_before_drawing(self, trials, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
        with pytest.raises(ValueError) as err:
            sandwich_sweep((2,), ((1, 2),), trials=trials, seed=0)
        assert str(err.value) == f"trials must be an integer >= 1, got {trials!r}"

    def test_draw_cap(self):
        # the cap is on trials * max(dims), the largest array one cell draws
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
            for trials, dims in ((DRAW_MAX_ENTRIES // 16 + 1, (16,)), (1000, (2, 10**6)), (10**9, (1,)),
                                 (10, (2, 1 << 40)), (np.int64(1 << 40), (np.int64(1 << 40),))):
                with pytest.raises(ValueError) as err:
                    sandwich_sweep(dims, ((1, 2),), trials=trials, seed=0)
                entries = int(trials) * max(map(int, dims))
                assert str(err.value) == (
                    f"trials * max(dims) = {entries} exceeds the cap of {DRAW_MAX_ENTRIES} entries per draw"
                )
        # the largest lemmas sweep, 21 845 trials of at most 16 entries, stays under it
        assert 21_845 * 16 <= DRAW_MAX_ENTRIES
        rep = sandwich_sweep((1, 1 << 10), ((1, 2),), trials=DRAW_MAX_ENTRIES >> 10, seed=0)
        assert rep.violations == 0 and [r.dim for r in rep.records] == [1, 1024]

    def test_seed_checked(self):
        for seed in (-1, 1.5, np.int64(-2), "3"):
            with pytest.raises(ValueError) as err:
                sandwich_sweep((2,), ((1, 2),), trials=10, seed=seed)
            assert str(err.value) == f"seed must be a non-negative integer, got {seed!r}"
        for seed in (None, 0, np.int64(5)):
            assert sandwich_sweep((2,), ((1, 2),), trials=10, seed=seed).violations == 0

    @pytest.mark.parametrize("trials", [1, 3, 10, 333])
    def test_matches_the_per_vector_loop(self, trials):
        # one row_norms call per cell gives the floats of one norm call per vector
        dims = (1, 2, 5, 16, 40)
        pairs = ((1, 1), (1, 2), (1.5, 3), (2, 4), (3, 3))
        for seed in range(6):
            got = sandwich_sweep(dims, pairs, trials, seed).to_json()
            assert json.dumps(got) == json.dumps(sandwich_sweep_loop(dims, pairs, trials, seed))

    def test_json_pinned(self):
        out = sandwich_sweep((2, 5, 16), ((1, 2), (1.5, 3), (2, 4)), 7, 5).to_json()
        assert list(out["records"][0]) == [
            "p", "q", "dim", "trials", "violations", "min_lower_slack", "min_upper_slack"
        ]
        text = json.dumps(out, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "cee89b9c212f94f8665438f26d81834e5ae164d35cb0581ccd60e421a5bcf9c7"
        )

    def test_json_shape(self):
        rep = sandwich_sweep((2,), ((1, 2),), trials=10, seed=0)
        out = rep.to_json()
        assert out["violations"] == 0
        assert out["records"][0]["p"] == 1.0
