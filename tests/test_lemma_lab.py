import hashlib
import json
import logging
import math
import re

import numpy as np
import pytest

from uncond import lemma_lab, unconditionality
from uncond.lemma_lab import (
    SHARP_COMPLEX_BOUND,
    complex_subset_max,
    complex_subset_ratio,
    grothendieck_ratio,
    grothendieck_search,
    halfplane_subset_max,
    real_subset_ratio,
    sandwich_sweep,
)
from uncond.seqspace import Exponent
from uncond.unconditionality import KG_UPPER, Family, _exhaustive_best

from _oracles import (
    complex_subset_max_naive,
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

    def test_degenerate_and_cap(self):
        with pytest.raises(ValueError, match="degenerate"):
            complex_subset_ratio([0j, 0j])
        # above the cap the arc scan stands in for enumeration, uncertified
        z = roots_of_unity(8)
        rep = complex_subset_ratio(z, n_exh=4)
        assert rep.ratio == float(np.abs(z).sum()) / halfplane_subset_max(z)
        assert not rep.certified

    def test_scan_above_the_cap_enumeration_within_it(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            total = float(np.abs(z).sum())
            for n_exh in (n - 1, n, n + 1):
                rep = complex_subset_ratio(z, n_exh=n_exh)
                if n > n_exh:
                    assert rep.ratio == total / halfplane_subset_max(z)
                    assert not rep.certified
                else:
                    assert rep.ratio == total / complex_subset_max(z, n_exh=n_exh)[0]
                    assert rep.certified

    def test_enumeration_matches_naive(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(1, 10))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            got, _ = complex_subset_max(z)
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


class TestHalfplaneScan:
    def test_matches_enumeration_on_roots(self):
        for n in (1, 2, 3, 4, 6, 8, 12, 16):
            z = roots_of_unity(n)
            scan = halfplane_subset_max(z)
            exact, _ = complex_subset_max(z)
            assert scan == pytest.approx(exact, rel=1e-12)

    def test_matches_enumeration_on_random(self):
        rng = np.random.default_rng(5)
        for _ in range(80):
            n = int(rng.integers(1, 14))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            exact, _ = complex_subset_max(z)
            assert halfplane_subset_max(z) == pytest.approx(exact, rel=1e-12)

    def test_axis_pair_needs_arc_interior(self):
        # the best subset {1, i} is attained only strictly between the
        # membership-change angles, not at any entry's own angle
        z = np.array([1.0 + 0j, 1j])
        assert halfplane_subset_max(z) == pytest.approx(SQRT2, rel=1e-15)

    def test_sixtyfourth_roots_band(self):
        rep = complex_subset_ratio(roots_of_unity(64))
        assert 3.0 <= rep.ratio <= SHARP_COMPLEX_BOUND + 1e-9
        assert not rep.certified  # 64 entries exceed the enumeration cap

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

        fam = sylvester(2).rows_family()
        want_den, _ = naive_sign_max(fam.matrix, 1)
        assert want_den == pytest.approx(8.0)
        rep = grothendieck_ratio(fam)
        assert rep.ratio == pytest.approx(4 * 2.0 / want_den, rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            grothendieck_ratio(Family(np.zeros((2, 2))))

    def test_critical_log_on_violation(self, caplog):
        # force a tiny envelope so the logging path is exercised
        with caplog.at_level(logging.CRITICAL, logger="uncond.lemma_lab"):
            rep = grothendieck_ratio(Family.of([[1, 1], [1, -1]]), kg_upper=1.0)
        assert rep.slack < 0
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

    def test_tiny_envelope_logs_critical_like_the_oracle(self, caplog):
        with caplog.at_level(logging.CRITICAL, logger="uncond.lemma_lab"):
            got = grothendieck_search(3, 2, budget=2, seed=8, kg_upper=0.5)
            logged = len(caplog.records)
            want = public_sign_search(3, 2, budget=2, seed=8, kg_upper=0.5)
        assert logged > 0
        assert all(r.levelno == logging.CRITICAL and "exceeds" in r.message for r in caplog.records)
        assert len(caplog.records) == 2 * logged
        assert got.ratio == want.ratio and got.slack < 0


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

    @pytest.mark.parametrize("kg_upper", [1.2, 1.3, 1.4])
    @pytest.mark.parametrize("shape", [(10, 3), (12, 2), (11, 3), (8, 4)])
    def test_mid_envelopes_match_the_public_oracle(self, shape, kg_upper, caplog):
        # ratios near these envelopes make some flips log and others not
        for seed in (2, 3, 7):
            caplog.clear()
            with caplog.at_level(logging.CRITICAL, logger="uncond.lemma_lab"):
                got = grothendieck_search(*shape, budget=2, seed=seed, kg_upper=kg_upper)
                logged = len(caplog.records)
                want = public_sign_search(*shape, budget=2, seed=seed, kg_upper=kg_upper)
            assert len(caplog.records) == 2 * logged
            assert (got.ratio, got.slack) == (want.ratio, want.slack)
            assert got.witness == want.witness
            assert got.to_json() == want.to_json()

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

    CLIMB_LINE = re.compile(r"^sign-flip climb: (\d+) sweeps, .*, (\d+) kept, ")

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


class TestNanEnvelope:
    """A NaN envelope is rejected before any work: it would silence the screen and the log."""

    def test_ratio(self, monkeypatch):
        monkeypatch.setattr(lemma_lab, "sign_max_norm", lambda *a, **k: pytest.fail("evaluated"))
        with pytest.raises(ValueError, match="^kg_upper cannot be NaN$"):
            grothendieck_ratio([[1.0, 0.0]], kg_upper=float("nan"))
        # rejected before the family is read
        with pytest.raises(ValueError, match="^kg_upper cannot be NaN$"):
            grothendieck_ratio([[math.inf]], kg_upper=np.nan)

    @pytest.mark.parametrize("shape", [(11, 3), (4, 5)])
    def test_search(self, shape, monkeypatch):
        monkeypatch.setattr(lemma_lab, "_exhaustive_best", lambda *a, **k: pytest.fail("evaluated"))
        with pytest.raises(ValueError, match="^kg_upper cannot be NaN$"):
            grothendieck_search(*shape, budget=2, seed=0, kg_upper=float("nan"))
        # rejected before the budget is checked
        with pytest.raises(ValueError, match="^kg_upper cannot be NaN$"):
            grothendieck_search(*shape, budget=0, seed=0, kg_upper=np.float64("nan"))

    def test_infinite_envelope_still_runs(self):
        rep = grothendieck_search(3, 2, budget=2, seed=1, kg_upper=math.inf)
        assert rep.bound == math.inf and rep.ratio > 0


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

    def test_bad_pairs_rejected(self):
        with pytest.raises(ValueError):
            sandwich_sweep((2,), ((3, 2),), trials=10, seed=0)
        with pytest.raises(ValueError):
            sandwich_sweep((2,), ((1, "inf"),), trials=10, seed=0)

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
