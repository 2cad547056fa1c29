import hashlib
import json
import logging
import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from uncond.errors import InternalInconsistencyError
from uncond.seqspace import EPS_CMP, INF, Exponent, ExponentTriple

import _oracles
from _oracles import minimal_witness_n


def T(p, q, r):
    return ExponentTriple.of(p, q, r)


def sha256_json(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


#: sha256 of the compact JSON of [cross_validate(t, 4, seed, n=4).to_json() for
#: seed in (0, 1)] (the error text for a NotApplicable triple), pinned so that
#: no field, value or key order drifts.
CROSS_VALIDATE_JSON = {
    (3.0, 2.0, "inf"): "d08f207fb4abb15e6bf7fc54535b48857b866e515ee08812aa89353f1d320242",
    (2.0, 2.0, 4.0): "5eb72e91d6892762f33611a10157dec97275aaebbf25ee72554252cb3eeea633",
    (2.0, 4.0, 3.0): "d54a8a4e1370fb372c8f02cb2d3f58360b859b908acfc74ca8900cf7f08228d0",
    ("inf", 4.0, 2.0): "5aaf37d69435b0ac5b3afac7a6150c83e53207201810477eecd36c6bb6a4d857",
    ("inf", 2.0, 2.0): "22fa252422ddb770e0999341b94693c92ba3a55f6c9ce7daaf81826a677371a7",
    (3.0, 3.0, 3.0): "7762382f3fc841e6e2a34dcf854d7d92660e92bcbf460d144f3ef0fba3286e1c",
    (4.0, 4.0, 1.0): "2f97d1615ce8892625ff2cccff44d679cd9c7f9cf3b0ea4a27480fa876908fbb",
    (4.0, 2.0, 3.0): "46da086622c7d00314498db7e7ac0b4acc566024d4e3b132c574178db95d88b6",
}


#: sha256 of the compact JSON of [c.to_json() for c in region_grid(r, (1, 8),
#: (1, 8), 0.125)] for each r of the 0.125 lattice on [1, 8] and inf, pinned
#: before region_grid became one lattice kernel.
GRID_JSON = {
    1.0: "8390b67dd43e99c9c553c3a32d1869b49b0f70ee7d29568fa16d31ffffd8728b",
    1.125: "0cec0c0b00ca101d57bc7ac067070be30e0b0778ed673d78694a90fe57d4cacc",
    1.25: "d386cab58661d42bb42244483ce6eeafc94576c1a116c5ed48301887de7d4e1e",
    1.375: "3e12339538552cf8ef9176f80b1dfb8f6ad0d9c8150c4c652c0b65aec5ce66f0",
    1.5: "bb44522639277e7c14fc63aa4303fb8193c295c4086bc0ae10a4a304bc721f41",
    1.625: "1d0655a05612bb87e646f8c46554934e744ac1f143dae2e6f91f0e9620d0b5a8",
    1.75: "2826c4590ab10c67d8d3f8c2fe651641a27c2871072cf4a7dfe831208fc83185",
    1.875: "a76b4333a1c5bdc02498e8632a7c797765ab15850440aebd12213d38ae74bac8",
    2.0: "d0db88fae3b16923bdb6c4abebe0e0cad5fbf439d43fa83db65dc6335fd45ebc",
    2.125: "b287e7d9b399611ce8d0e2ae0c2aaf1ed70f8945a54f7e6aa061ab5713e21424",
    2.25: "001efbb5bba41923663a758d153982dd64a06d360bbf8a82135fac9491e8a727",
    2.375: "940da1be86abb9bc045ce2ad22d84185ec376f22aa0506af6d353bdd0d03673a",
    2.5: "a37463483bda5e5a31dc8c4eb793247c6ef2698fb55bbd1a4c83e88e7b35adbf",
    2.625: "a3249a89653027e71b28fb0d2c9ce090deb73dc58fde1ebe029ed6d0a43cd39b",
    2.75: "a376289359862d192c75dc52b7c9681c074bfccd34724962ab31f19cbb138ac0",
    2.875: "8481540ecf7c8be62c5a6b22c637452d4a839a6ae4424f57371a6c37fc0cc22d",
    3.0: "85c6bc1e658c5695a2312ccbfc8e39a6780ed28ab3b33262f40b616b47267e74",
    3.125: "33fcea3a3ec2e80a7a4a998b2dfb232be257a18c4f2c44943a720c5cce3bf6f7",
    3.25: "9ecf310c5f56b3ea952483d9e37f6d3262abbe57b96976ba2c59ba77dabc6bc4",
    3.375: "2820e99c2333d205d0884f0f907e1ed12e520c1d58ca726aa5eba011da72d676",
    3.5: "42da7c46b0086c33beb5fd81dd94e96cebb5f8918c0e26f7acdadae330e95f69",
    3.625: "d5b2b174930e5f326c2e203c88be194338d4ee70d45fa89e6b8407c91a30666a",
    3.75: "94d5e205bfa23a6c35f2a2deb825186af6904ae3c4ac8a241a695fcb2e7a9bae",
    3.875: "7381ac7112100c3dc21227fe660b8d47149491481ca762ecf92cca94aa18d9a4",
    4.0: "b281d1e5487b44fca79b8b681844f0d53964443feb6c85447b147989b2313741",
    4.125: "fa06357954019d930aba9cd337930f1ca48e3e83efdabb7223c4f262dc1fef03",
    4.25: "5f2962ba0c8f4526bdb4e6ac767bc7bde4ca112e2f039a025627579346786cb6",
    4.375: "85567c37430240b306c00d3d7768278ca3e795ae2ddd9ff9a6e8f435b679d304",
    4.5: "557c7e5830aea74497ce5c530d36333c6db036337a735796534ef6836645f343",
    4.625: "2355fa4580108054e7b7910d9b2e80561f0e2d7af9f32e005dd7d9e101037d37",
    4.75: "b3c0f39802417d2feee210c25e7309acfc3e0832a24ac2692d97486b69bbda1f",
    4.875: "a72eadd4cbe4324bd1cbdfd599566df416300b7c18f8971a28357dc9ca655dc8",
    5.0: "710b971c218a1aff9136b889cdc0730a7ede9904b3a725ae6206ed3f58c58c75",
    5.125: "71f8e423a3748c2a8f5171bee8ed1215a3e98c8ab8e803742f35c5fc3779a1a4",
    5.25: "38e30ea59c19e0f8ab6c3efaf3149a00a401a2a504bac695fdb8abe5d80e433f",
    5.375: "1450738c4deed7d3a91f29f319fbe2abb9f2be1119774b2e73e8d9bcc03dd884",
    5.5: "c4287d5c650838fda3c5e7a4110ed6f217ea890227be6da5170b12eb5d6e156c",
    5.625: "ad08d4fd4b52a974c7af229d725249c7be14184ecfeae7e80080d7d2dd837037",
    5.75: "e679be411b3df0c6feae38c791fd35188469abc6320c7bcdfa387d323c5528f3",
    5.875: "b006988a0fc13d9678d36b41217fae9925f44d6a9fabfe52d74c355dfa33d60c",
    6.0: "eeb383659b39d19835b3a5167be463941012bdc1cc626ff29ceb9f40dc03e413",
    6.125: "804855eaf947c7ffde8bae5b61cc602747648896663036666246a2325b4e0763",
    6.25: "04e353b08fc2bdee4082741a95b89a2b8948cc62f84c54604c9d3c2f28cc1ee7",
    6.375: "6762fea54c4ae5e67b219ee1af7208055b1e9523dba0ee1606fe7f65fbe501e3",
    6.5: "53c6f07eac78c4312bd07920f9bafe8fb0ac20d7583ab444c73f19a12a8c1578",
    6.625: "40391768b02bf85370ad95d6227cd6fb5acb318ee7db0bc047fdb342a765deab",
    6.75: "cbe47715308794f7d8e0cdfce4e5bbb91c2a76e87dca84f08f4c5cd02b58552c",
    6.875: "2320714ca347d532cc206c296572a227ef6f07e6ab9ba809dc750ab7e041b52a",
    7.0: "405bac60a1eb77d85fffc3e2e00dcbe43324e3248c0e3bc06700fdce25e8efb6",
    7.125: "91a0edcd5220a36d1c0a2e946111a1824d6fe6b70c0c0df2a22c5cc970098a51",
    7.25: "adb05e84a69f7fdbb2f2f6834fa8e18172f6893811849cb9f24212e04a7ec72e",
    7.375: "fe477a6cf062509c98ad4627057475e875aca1e55e9d43e5ea91d57e629965ff",
    7.5: "0e10d5d1ee685e558290b9e6d7fddceada62ddd6e57111e5a81a2e557919a64b",
    7.625: "32ec04998cc487615b80fed2e3575f609a853ddc1286c7549603fb9b0d9dfb87",
    7.75: "c9a33798c85e4d8e137afe0775ebc2f6389044069670ebef98e24c2e63a6c110",
    7.875: "bb07be558371890d56e6b7e4854779d31660249f8ed421bddd7e54fbfe985b97",
    8.0: "15338d0d5a137a949a3426ff13258b98d37ee7467bb81ec732000a70f0f4947b",
    "inf": "261886c115a561a91eebdd65f372bcd170bd4cce4c07822bb9ccf3574334cf41",
}

#: The same hash for region_grid(2.5, (1, 8), (1, 8), 0.125, include_infinite=False).
GRID_JSON_FINITE = "73d3dc7f0c02e1f45eab85ea9cf15a9643bfc7d99492aea43e8162f00919e066"

#: sha256 of grid_to_csv(region_grid(3, (1, 64), (1, 64), 0.5)).
GRID_CSV = "b797efbd5b1894c71f35229aa0c062b2a4a31dbb5ec233be7b9683003b56571a"

#: sha256 of grid_to_csv(region_grid(r, (1, 8), (1, 8), 0.125)), pinned while
#: the records were frozen dataclasses.
GRID_CSV_FINE = {
    1.5: "35938ce6cea2194c2a11129011cb663e0fc96ca056402802b79f1462cc219423",
    3: "ac89a09f33d5bf3a2dcc8a53863051fb6a98974bb50d55c76bc1963257bc7801",
    "inf": "54f4ec244baa215efd90343eb6c77010aa8c519eb5b56216d3fd7503082cf299",
}
#: sha256 of repr(region_grid(2.5, (1, 8), (1, 8), 0.125)), pinned likewise.
GRID_REPR = "b67c7bd94eed6ee3da5fbadbd22260ef093690536d3013494ff8410e71fd459c"


def _exponent(reciprocal):
    """The exponent with the given reciprocal; 0 is inf."""
    return INF if reciprocal == 0.0 else Exponent(1.0 / reciprocal)


#: Exponents at, within ulps of and within a few EPS_CMP of p = 2 (1/p = 1/2),
#: on the 1/8 lattice, anywhere in [1, 64], and inf.
NEAR_TWO = st.one_of(
    st.integers(-4, 4).map(lambda k: Exponent(2.0 + k * 2.0**-51)),
    st.floats(-4.0, 4.0).map(lambda a: _exponent(0.5 + a * EPS_CMP)),
)
EXPONENTS = st.one_of(
    st.just(INF),
    NEAR_TWO,
    st.integers(8, 512).map(lambda k: Exponent(k / 8)),
    st.floats(1.0, 64.0).map(Exponent),
)


@st.composite
def _r_near(draw, qs):
    """r equal to a q of ``qs``, one ulp either side of it, or any exponent."""
    q = draw(st.sampled_from(qs))
    how = draw(st.sampled_from(["equal", "below", "above", "any"]))
    if how == "any":
        return draw(EXPONENTS)
    if how == "equal" or q.is_infinite:
        return q
    return Exponent(max(1.0, math.nextafter(q.value, 0.0 if how == "below" else math.inf)))


@st.composite
def _lattices(draw):
    ps = draw(st.lists(EXPONENTS, min_size=1, max_size=6))
    qs = draw(st.lists(EXPONENTS, min_size=1, max_size=6))
    return ps, qs, draw(_r_near(qs))


def _bits(c):
    """Everything a record holds, floats by their hex form."""
    t = c.triple
    assert type(c.margin) is float
    return (t.p.token(), t.q.token(), t.r.token(), c.verdict, c.clause, c.margin.hex())

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

    def test_overlap_of_nested_and_strict_clauses_is_nested(self):
        # gap 1.25e-12 lies in (EPS_CMP, 2 EPS_CMP]: p <= 2 and q <= r hold within EPS_CMP
        t = T(2.000000000003, 2, 1.999999999998)
        assert t.holder_valid
        c = classify(t)
        assert (c.verdict, c.clause) == (Verdict.PRESERVES, Clause.SMALL_P_NESTED_Q)
        assert _bits(c) == _bits(_oracles.classify(t))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        a=st.floats(-4.0, 4.0),
        b=st.floats(-4.0, 4.0),
        rq=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(-4.0, 4.0).map(lambda c: 0.5 + c * EPS_CMP)),
    )
    def test_no_inconsistency_near_the_p_and_q_planes(self, a, b, rq):
        # within a few EPS_CMP of 1/p = 1/2 and of 1/q = 1/r, where the clauses' bands meet
        rr = rq + b * EPS_CMP
        assume(0.0 <= rr <= 1.0)
        t = ExponentTriple(_exponent(0.5 + a * EPS_CMP), _exponent(rq), _exponent(rr))
        assume(t.holder_valid)
        assert _bits(classify(t)) == _bits(_oracles.classify(t))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_lattices())
    def test_kernel_matches_the_per_point_oracle(self, lattice):
        ps, qs, r = lattice
        triples = [ExponentTriple(p, q, r) for p in ps for q in qs]
        want = [_bits(_oracles.classify(t)) for t in triples]
        rows, codes = classifier._classify_lattice(ps, qs, r)
        assert [_bits(c) for c in rows] == want
        assert [_bits(classify(t)) for t in triples] == want
        assert [classifier._DECISIONS[k][1] for k in codes.ravel().tolist()] == [c.clause for c in rows]

    def test_codes_follow_the_clause_order(self):
        assert [clause for _, clause in classifier._DECISIONS] == list(Clause)

    def test_a_clash_raises_at_the_first_point_in_row_major_order(self, monkeypatch):
        # no honest input reaches this path: a negative tolerance makes r = inf
        # and r < q fire together wherever q = inf and p < inf
        monkeypatch.setattr(classifier, "EPS_CMP", -0.1)
        monkeypatch.setattr(_oracles, "EPS_CMP", -0.1)
        axis = [Exponent(2.0), Exponent(1.0), INF]
        with pytest.raises(InternalInconsistencyError) as oracle:
            for p in axis:
                for q in axis:
                    _oracles.classify(ExponentTriple(p, q, INF))
        text = str(oracle.value)
        assert text == "both clause families fire for (2.0, inf, inf); the implemented clauses must be disjoint"
        with pytest.raises(InternalInconsistencyError) as kernel:
            region_grid("inf", (1, 2), (1, 2), 1.0)
        assert str(kernel.value) == text.replace("(2.0,", "(1.0,")
        with pytest.raises(InternalInconsistencyError) as lattice:
            classifier._classify_lattice(axis, axis, INF)
        assert str(lattice.value) == text

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

    def test_largest_grid_fits_the_cap(self):
        # [1, 64]^2 at step 0.125 is 505 lattice points a side, plus inf
        rows = region_grid(2, (1, 64), (1, 64), 0.125)
        assert len(rows) == 506 ** 2 <= GRID_MAX_POINTS
        assert rows[504 * 506 + 504].triple == T(64, 64, 2)

    def test_cap_counts_the_inf_samples(self, monkeypatch):
        monkeypatch.setattr(classifier, "GRID_MAX_POINTS", 25)
        assert len(region_grid(2, (1, 4), (1, 4), 1.0)) == 25
        monkeypatch.setattr(classifier, "GRID_MAX_POINTS", 24)
        with pytest.raises(ValueError, match="cap of 24 points"):
            region_grid(2, (1, 4), (1, 4), 1.0)
        assert len(region_grid(2, (1, 4), (1, 4), 1.0, include_infinite=False)) == 16

    @pytest.mark.parametrize("r", list(GRID_JSON))
    def test_grid_json_pinned(self, r):
        assert sha256_json([c.to_json() for c in region_grid(r, (1, 8), (1, 8), 0.125)]) == GRID_JSON[r]

    def test_finite_grid_json_pinned(self):
        rows = region_grid(2.5, (1, 8), (1, 8), 0.125, include_infinite=False)
        assert sha256_json([c.to_json() for c in rows]) == GRID_JSON_FINITE

    def test_grid_csv_pinned(self):
        text = grid_to_csv(region_grid(3, (1, 64), (1, 64), 0.5))
        assert hashlib.sha256(text.encode()).hexdigest() == GRID_CSV

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        p_lo=NEAR_TWO.map(lambda e: e.value),
        q_lo=st.one_of(NEAR_TWO.map(lambda e: e.value), st.floats(1.0, 8.0)),
        widths=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        step=st.sampled_from([0.125, 0.5, 1.0, 3 * EPS_CMP, 1e-13]),
        include_infinite=st.booleans(),
        data=st.data(),
    )
    def test_grid_matches_the_per_point_oracle(self, p_lo, q_lo, widths, step, include_infinite, data):
        p_range, q_range = ((lo, lo + k * step) for lo, k in zip((p_lo, q_lo), widths))
        extra = [INF] if include_infinite else []
        ps = _oracles.lattice_loop(p_range, step) + extra
        qs = _oracles.lattice_loop(q_range, step) + extra
        r = data.draw(_r_near(qs))
        rows = region_grid(r, p_range, q_range, step, include_infinite=include_infinite)
        assert [c.triple for c in rows] == [ExponentTriple(p, q, r) for p in ps for q in qs]
        assert [_bits(c) for c in rows] == [_bits(_oracles.classify(c.triple)) for c in rows]

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        lo=st.one_of(
            st.floats(1.0, 64.0),
            st.sampled_from([1.0, 2.0, 32.0, 63.5, 64.0]),
            NEAR_TWO.map(lambda e: e.value),
        ),
        step=st.one_of(
            # 4e-15 and 1.5e-15 lie below an ulp of 32 and of 64, so rounding skips and repeats points
            st.sampled_from([0.125, 0.5, 1.0, 1 / 3, 0.1, 3 * EPS_CMP, 1e-13, 4e-15, 1.5e-15]),
            st.floats(1e-13, 64.0),
        ),
        width=st.one_of(
            st.integers(0, 300).map(lambda k: ("steps", k)),
            st.floats(0.0, 63.0).map(lambda w: ("span", w)),
        ),
        nudge=st.sampled_from([0.0, EPS_CMP, -EPS_CMP, 0.5 * EPS_CMP, 1e-15, -1e-15]),
    )
    def test_lattice_matches_the_loop_oracle(self, lo, step, width, nudge):
        kind, w = width
        hi = min(64.0, lo + (w * step if kind == "steps" else w) + nudge)
        count = classifier._lattice_len((lo, hi), step)
        assume(lo <= hi and count <= 4096)
        assert classifier._lattice((lo, hi), step, count) == _oracles.lattice_loop((lo, hi), step)

    def test_debug_line_counts_each_clause(self, caplog):
        with caplog.at_level(logging.DEBUG, logger=classifier.logger.name):
            rows = region_grid(2, (1, 4), (1, 4), 1.0)
            region_grid(2, (3, 2), (1, 4), 1.0)
        first, empty = (record.getMessage() for record in caplog.records)
        counts = Counter(c.clause for c in rows)
        assert first == "region grid at r=2.0: 25 points; " + ", ".join(f"{c.value} {counts[c]}" for c in Clause)
        assert first == (
            "region grid at r=2.0: 25 points; T1.4-1-rInf 0, T1.4-1-pLe2qLeR 4, "
            "T1.4-2-rLtQ 13, T1.4-2-strict 3, HolderInvalid 2, Open 3"
        )
        assert empty == "region grid at r=2.0: 0 points; " + ", ".join(f"{c.value} 0" for c in Clause)

    def test_no_log_record_by_default(self, caplog):
        with caplog.at_level(logging.INFO):
            region_grid(2, (1, 4), (1, 4), 1.0)
        assert not caplog.records

    def test_csv_format(self):
        rows = region_grid(2, (1, 2), (1, 2), 1.0)
        text = grid_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == GRID_CSV_HEADER == "p,q,r,verdict,clause,margin"
        assert len(lines) == len(rows) + 1
        assert any(",inf," in line or line.startswith("inf,") for line in lines[1:])
        # every line parses into six fields
        assert all(len(line.split(",")) == 6 for line in lines)

    @pytest.mark.parametrize("r", list(GRID_CSV_FINE))
    def test_fine_grid_csv_pinned(self, r):
        text = grid_to_csv(region_grid(r, (1, 8), (1, 8), 0.125))
        assert hashlib.sha256(text.encode()).hexdigest() == GRID_CSV_FINE[r]

    def test_grid_repr_pinned(self):
        text = repr(region_grid(2.5, (1, 8), (1, 8), 0.125))
        assert hashlib.sha256(text.encode()).hexdigest() == GRID_REPR


class TestClassificationRecord:
    #: repr and to_json of classify at three triples, one with each exponent infinite or finite.
    CASES = {
        (3.0, 2.0, "inf"): (
            "Classification(triple=ExponentTriple(p=Exponent(value=3.0), q=Exponent(value=2.0), "
            "r=Exponent(value=None)), verdict=<Verdict.PRESERVES: 'Preserves'>, "
            "clause=<Clause.R_INFINITE: 'T1.4-1-rInf'>, margin=0.16666666666666669)",
            {"p": 3.0, "q": 2.0, "r": "inf", "verdict": "Preserves", "clause": "T1.4-1-rInf",
             "margin": 0.16666666666666669},
        ),
        ("inf", 4.0, 2.0): (
            "Classification(triple=ExponentTriple(p=Exponent(value=None), q=Exponent(value=4.0), "
            "r=Exponent(value=2.0)), verdict=<Verdict.NOT_PRESERVES: 'NotPreserves'>, "
            "clause=<Clause.R_BELOW_Q: 'T1.4-2-rLtQ'>, margin=0.25)",
            {"p": "inf", "q": 4.0, "r": 2.0, "verdict": "NotPreserves", "clause": "T1.4-2-rLtQ", "margin": 0.25},
        ),
        (2.5, 3.0, 3.0): (
            "Classification(triple=ExponentTriple(p=Exponent(value=2.5), q=Exponent(value=3.0), "
            "r=Exponent(value=3.0)), verdict=<Verdict.UNKNOWN: 'Unknown'>, "
            "clause=<Clause.OPEN: 'Open'>, margin=0.0)",
            {"p": 2.5, "q": 3.0, "r": 3.0, "verdict": "Unknown", "clause": "Open", "margin": 0.0},
        ),
    }

    @pytest.mark.parametrize("triple", list(CASES), ids=str)
    def test_repr_str_and_json(self, triple):
        c = classify(T(*triple))
        text, payload = self.CASES[triple]
        assert repr(c) == str(c) == text
        assert c.to_json() == payload
        assert json.dumps(c.to_json()) == json.dumps(payload)

    @pytest.mark.parametrize("triple", list(CASES), ids=str)
    def test_equality_hash_and_pickle(self, triple):
        c = classify(T(*triple))
        same = classify(T(*triple))
        assert c == same and hash(c) == hash(same)
        assert hash(c) == hash((c.triple, c.verdict, c.clause, c.margin))
        assert c != Classification(c.triple, c.verdict, c.clause, c.margin + 1.0)
        again = pickle.loads(pickle.dumps(c))
        assert again == c and repr(again) == repr(c) and type(again) is Classification
        assert again.verdict is c.verdict and again.clause is c.clause

    def test_fields_cannot_be_assigned(self):
        c = classify(T(2, 2, 2))
        for name, value in (("margin", 1.0), ("verdict", Verdict.UNKNOWN), ("triple", T(3, 3, 3))):
            with pytest.raises(AttributeError):
                setattr(c, name, value)
        assert c == classify(T(2, 2, 2))


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
