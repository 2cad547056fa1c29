import hashlib
import json
import math

import numpy as np
import pytest

from uncond import classifier
from uncond.classifier import (
    Classification,
    Clause,
    GRID_CSV_HEADER,
    GRID_MAX_POINTS,
    Verdict,
    WitnessCheck,
    classify,
    cross_validate,
    grid_to_csv,
    region_grid,
)
from uncond.seqspace import INF, Exponent, ExponentTriple

from _oracles import minimal_witness_n


def T(p, q, r):
    return ExponentTriple.of(p, q, r)


def sha256_json(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


#: sha256 of the compact JSON of [cross_validate(t, 4, seed, n=4).to_json() for
#: seed in (0, 1)] (the error text for a NotApplicable triple), pinned so that
#: no field, value or key order drifts.
CROSS_VALIDATE_JSON = {
    (3.0, 2.0, "inf"): "8b69f20b9b1d3eb5d882d52d50d829757eeeb010175b935fa837feeca2d44abf",
    (2.0, 2.0, 4.0): "778b52b2e968c2a4cdeb90458cc440581fbdcbdac7f099743af217eb2835eee3",
    (2.0, 4.0, 3.0): "8034e3005c28ce55c2f94b5f5806105d82b560bf4c6888ae50bd219b5bb5ce2a",
    ("inf", 4.0, 2.0): "20f5d808510d81cb869cd1a4398126f2cafa82e6fc92629e98e8c70b78544b9a",
    ("inf", 2.0, 2.0): "22fa252422ddb770e0999341b94693c92ba3a55f6c9ce7daaf81826a677371a7",
    (3.0, 3.0, 3.0): "188241b0e31de02258f5862011697a27f8ec8a1c487c51ef8b5e4cabfb20e3b6",
    (4.0, 4.0, 1.0): "2f97d1615ce8892625ff2cccff44d679cd9c7f9cf3b0ea4a27480fa876908fbb",
    (4.0, 2.0, 3.0): "46da086622c7d00314498db7e7ac0b4acc566024d4e3b132c574178db95d88b6",
}


class TestDecisionTable:
    @pytest.mark.parametrize(
        "triple, verdict, clause",
        [
            ((2, 2, 2), Verdict.PRESERVES, Clause.SMALL_P_NESTED_Q),
            ((1, 1, "inf"), Verdict.PRESERVES, Clause.R_INFINITE),
            (("inf", 2, 1), Verdict.NOT_PRESERVES, Clause.R_BELOW_Q),
            ((3, 2, 2), Verdict.NOT_PRESERVES, Clause.STRICT_GAP),
            ((3, 3, 3), Verdict.UNKNOWN, Clause.OPEN),
            ((3, 3, 1), Verdict.NOT_APPLICABLE, Clause.HOLDER_INVALID),
        ],
    )
    def test_table(self, triple, verdict, clause):
        c = classify(T(*triple))
        assert c.verdict is verdict
        assert c.clause is clause

    def test_strict_clause_arithmetic(self):
        # (3,2,2): valid since 1/2 <= 1/3 + 1/2, and 1/2 + 1/2 > 1/3 + 1/2
        t = T(3, 2, 2)
        assert t.holder_valid
        assert 0.5 + 0.5 > 1 / 3 + 0.5

    def test_r_below_q_with_valid_triple(self):
        c = classify(T(2, 3, 2))
        assert c.verdict is Verdict.NOT_PRESERVES
        assert c.clause is Clause.R_BELOW_Q

    def test_sup_output_always_preserves(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = Exponent(float(rng.uniform(1, 8))) if rng.integers(2) else INF
            q = Exponent(float(rng.uniform(1, 8))) if rng.integers(2) else INF
            c = classify(ExponentTriple(p, q, INF))
            assert c.verdict is Verdict.PRESERVES
            assert c.clause is Clause.R_INFINITE

    def test_margin_examples(self):
        # (2,2,2) sits on the p = 2 and q = r planes
        assert classify(T(2, 2, 2)).margin == 0.0
        # (3,3,3) distances: holder 1/3, p-plane 1/6, q=r 0 -> 0
        assert classify(T(3, 3, 3)).margin == 0.0
        c = classify(T(3, 2, 4))
        assert c.margin > 0.0

    def test_no_inconsistency_on_lattice(self):
        values = [Exponent(v) for v in (1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0, 64.0)]
        values.append(INF)
        count = 0
        for p in values:
            for q in values:
                for r in values:
                    c = classify(ExponentTriple(p, q, r))  # must never raise
                    assert isinstance(c, Classification)
                    count += 1
        assert count == 1000

    def test_r_ladder_monotone_for_small_p(self):
        order = {
            Verdict.NOT_APPLICABLE: 0,
            Verdict.NOT_PRESERVES: 1,
            Verdict.UNKNOWN: 2,
            Verdict.PRESERVES: 3,
        }
        ladder = [Exponent(v) for v in (1.0, 1.2, 1.5, 2.0, 3.0, 5.0, 16.0)] + [INF]
        for p in (1.0, 1.5, 2.0):
            for q in (1.0, 2.0, 3.0, 6.0):
                ranks = [
                    order[classify(ExponentTriple(Exponent(p), Exponent(q), r)).verdict]
                    for r in ladder
                ]
                assert ranks == sorted(ranks)


class TestRegionGrid:
    def test_four_by_four_at_r2(self):
        rows = region_grid(2, (1, 4), (1, 4), 1.0)
        assert len(rows) == 25  # 16 lattice points plus the inf samples
        by_pq = {
            (c.triple.p.token(), c.triple.q.token()): c for c in rows
        }
        assert by_pq[("1.0", "1.0")].verdict is Verdict.PRESERVES
        assert by_pq[("2.0", "2.0")].verdict is Verdict.PRESERVES
        assert by_pq[("3.0", "2.0")].verdict is Verdict.NOT_PRESERVES
        # r < q fires at (3, 3): 2 < 3 while the triple is still valid
        assert by_pq[("3.0", "3.0")].verdict is Verdict.NOT_PRESERVES
        assert by_pq[("3.0", "3.0")].clause is Clause.R_BELOW_Q
        assert by_pq[("inf", "inf")].verdict is Verdict.NOT_PRESERVES

    def test_sup_r_grid_all_preserve(self):
        rows = region_grid("inf", (1, 4), (1, 4), 0.5)
        assert rows
        for c in rows:
            assert c.verdict is Verdict.PRESERVES

    def test_empty_range(self):
        assert region_grid(2, (3, 2), (1, 4), 1.0) == []

    def test_range_validation(self):
        with pytest.raises(ValueError):
            region_grid(2, (0.5, 4), (1, 4), 1.0)
        with pytest.raises(ValueError):
            region_grid(2, (1, 65), (1, 4), 1.0)
        with pytest.raises(ValueError):
            region_grid(2, (1, 4), (1, 4), 0.0)

    def test_threads_match_serial(self):
        serial = region_grid(2, (1, 8), (1, 8), 0.5)
        threaded = region_grid(2, (1, 8), (1, 8), 0.5, threads=4)
        assert serial == threaded

    def test_threads_below_one_rejected(self):
        with pytest.raises(ValueError, match="threads"):
            region_grid(2, (1, 2), (1, 2), 1.0, threads=0)

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_step_must_be_finite_and_positive(self, step):
        with pytest.raises(ValueError, match=f"^step must be finite and positive, got {step!r}$"):
            region_grid(2, (1, 2), (1, 2), step)

    @pytest.mark.parametrize("p_range, q_range, step", [
        ((1, 64), (1, 64), 0.001),  # about 4e9 points
        ((2, 2), (2, 2), 1e-300),  # lo + k * step never passes hi + EPS_CMP
        ((2, 2), (1, 4), 1e-17),
        ((1, 64), (1, 64), 5e-324),
    ])
    def test_oversized_grid_rejected_before_it_is_built(self, p_range, q_range, step):
        with pytest.raises(ValueError, match="^grid exceeds the cap of 262144 points"):
            region_grid(2, p_range, q_range, step)

    def test_largest_grid_fits_the_cap(self, monkeypatch):
        # [1, 64]^2 at step 0.125 is 505 lattice points a side, plus inf
        monkeypatch.setattr(classifier, "classify", lambda t: t)
        rows = region_grid(2, (1, 64), (1, 64), 0.125)
        assert len(rows) == 506 ** 2 <= GRID_MAX_POINTS
        assert rows[504 * 506 + 504] == T(64, 64, 2)

    def test_cap_counts_the_inf_samples(self, monkeypatch):
        monkeypatch.setattr(classifier, "GRID_MAX_POINTS", 25)
        assert len(region_grid(2, (1, 4), (1, 4), 1.0)) == 25
        monkeypatch.setattr(classifier, "GRID_MAX_POINTS", 24)
        with pytest.raises(ValueError, match="cap of 24 points"):
            region_grid(2, (1, 4), (1, 4), 1.0)
        assert len(region_grid(2, (1, 4), (1, 4), 1.0, include_infinite=False)) == 16

    def test_csv_format(self):
        rows = region_grid(2, (1, 2), (1, 2), 1.0)
        text = grid_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == GRID_CSV_HEADER == "p,q,r,verdict,clause,margin"
        assert len(lines) == len(rows) + 1
        assert any(",inf," in line or line.startswith("inf,") for line in lines[1:])
        # every line parses into six fields
        assert all(len(line.split(",")) == 6 for line in lines)


class TestCrossValidate:
    def test_strict_branch(self):
        cv = cross_validate(T("inf", 2, 2), budget=10, seed=0, n=2, dim=2)
        assert cv.classification.clause is Clause.STRICT_GAP
        kinds = [(c.kind, c.parameter) for c in cv.checks]
        assert kinds == [("hadamard", 1.0), ("hadamard", 10.0), ("hadamard", 100.0)]
        assert [c.detail["n"] for c in cv.checks] == [1, 7, 14]
        assert all(c.ok for c in cv.checks)
        assert cv.best_quotient is None

    def test_small_gap_strict_branch(self):
        # gap 1/12: the C = 100 witness needs n = 80, in log2 space only
        t = T(4, 2, 3)
        gap = 0.5 + 1 / 3 - 1 / 4 - 0.5
        cv = cross_validate(t)
        assert cv.classification.clause is Clause.STRICT_GAP
        assert [(c.kind, c.parameter) for c in cv.checks] == [
            ("hadamard", 1.0), ("hadamard", 10.0), ("hadamard", 100.0)
        ]
        ns = [c.detail["n"] for c in cv.checks]
        assert ns == [1, 40, 80]
        assert ns == [math.floor(math.log2(C) / gap) + 1 for C in (1.0, 10.0, 100.0)]
        assert ns == [minimal_witness_n(1 / 4, 1 / 2, 1 / 3, C) for C in (1.0, 10.0, 100.0)]

    def test_beyond_desk_scale_is_a_domain_error(self):
        # gap 1/2 - 1/2.002 ~ 5e-4: C = 10 would need n ~ 6600
        t = T(2.002, 2, 2)
        assert classify(t).clause is Clause.STRICT_GAP
        with pytest.raises(ValueError, match="desk scale"):
            cross_validate(t)

    def test_tail_branch(self):
        cv = cross_validate(T("inf", 2, 1), budget=10, seed=0)
        assert cv.classification.clause is Clause.R_BELOW_Q
        assert [(c.kind, c.parameter) for c in cv.checks] == [("tail", 2.0), ("tail", 5.0)]
        assert cv.checks[1].detail["N"] == 83

    def test_tail_branch_with_sup_q(self):
        cv = cross_validate(T(1, "inf", 2), budget=10, seed=0)
        assert cv.classification.clause is Clause.R_BELOW_Q
        assert all(c.ok for c in cv.checks)

    def test_preserves_branch_bounded(self):
        cv = cross_validate(T(2, 2, 2), budget=30, seed=1, n=3, dim=3)
        assert cv.classification.verdict is Verdict.PRESERVES
        assert cv.best_quotient is not None
        assert cv.best_quotient <= 2 * 1.8 + 1e-9

    def test_unknown_branch_reports_evidence_only(self):
        cv = cross_validate(T(3, 3, 3), budget=20, seed=2, n=2, dim=2)
        assert cv.classification.verdict is Verdict.UNKNOWN
        assert cv.best_quotient is not None
        assert cv.checks[0].kind == "search"

    def test_rejects_invalid_triple(self):
        with pytest.raises(ValueError, match="not valid"):
            cross_validate(T(3, 3, 1), budget=5, seed=0)

    def test_every_not_preserves_verdict_backed_by_witness(self):
        values = [1.0, 1.5, 2.0, 3.0, 6.0]
        exps = [Exponent(v) for v in values] + [INF]
        for p in exps:
            for q in exps:
                for r in exps:
                    t = ExponentTriple(p, q, r)
                    c = classify(t)
                    if c.verdict is Verdict.NOT_PRESERVES:
                        cv = cross_validate(t, budget=4, seed=0, n=2, dim=2)
                        assert all(chk.ok for chk in cv.checks)

    def test_json_shape(self):
        cv = cross_validate(T("inf", 2, 2), budget=5, seed=0, n=2, dim=2)
        out = cv.to_json()
        assert out["classification"]["verdict"] == "NotPreserves"
        assert len(out["checks"]) == 3

    @pytest.mark.parametrize("triple", sorted(CROSS_VALIDATE_JSON, key=str))
    def test_json_pinned(self, triple):
        t = T(*triple)

        def run(seed):
            try:
                return cross_validate(t, 4, seed, n=4).to_json()
            except ValueError as exc:
                return str(exc)

        assert sha256_json([run(0), run(1)]) == CROSS_VALIDATE_JSON[triple]

    def test_witness_check_json_pinned(self):
        check = WitnessCheck("tail", 2.0, True, {"N": 4, "partial_r_norm": 2.083, "tail_q_bound": 0.5})
        assert list(check.to_json()) == ["kind", "parameter", "ok", "detail"]
        assert sha256_json(check.to_json()) == (
            "85973dba4986397b06fb9199dbed7a9f5c5c593774f27d848cc4275a054b0a6d"
        )
