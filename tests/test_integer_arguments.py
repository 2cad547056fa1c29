"""Every integer argument of the package, at its boundaries and off its type.

Counts, sizes, budgets, seeds and thread counts take an int or a numpy
integer in range, never a bool or a float; anything else raises a
ValueError that names the argument, before anything is drawn.  A numpy
integer gives the same result bytes as the Python int of the same value.
"""

import json

import numpy as np
import pytest

from uncond import unconditionality as U
from uncond.classifier import cross_validate, region_grid
from uncond.cli import LEMMAS_MAX_BUDGET, main
from uncond.lemma_lab import grothendieck_search, sandwich_sweep
from uncond.seqspace import ExponentTriple
from uncond.unconditionality import (
    DRAW_MAX_ENTRIES,
    SEARCH_MAX_N,
    Family,
    quotient_lower_bound_search,
    sign_max_norm,
    subset_max_norm,
)
from uncond.witness import MATERIALIZE_MAX_LOG, TAIL_MAX_TERMS, divergent_tail_norm, sylvester, tail_q_bound

T = ExponentTriple.of(2, 2, 2)  # Preserves: cross_validate runs the quotient search
FAM = Family([[1.0, 2.0], [3.0, -1.0]])


def _search_rows(label, search):
    """The rows of a search taking (n, dim, budget, seed) as keywords."""
    return [
        (f"{label}-n", lambda v: search(n=v, dim=1, budget=1, seed=0), "n", 1, None, False,
         (SEARCH_MAX_N + 1, rf"^family size {SEARCH_MAX_N + 1} exceeds the exhaustive cap {SEARCH_MAX_N} ")),
        (f"{label}-dim", lambda v: search(n=1, dim=v, budget=1, seed=0), "dim", 1, None, False,
         (DRAW_MAX_ENTRIES + 1, rf"^n \* dim = {DRAW_MAX_ENTRIES + 1} exceeds the cap of {DRAW_MAX_ENTRIES} ")),
        (f"{label}-budget", lambda v: search(n=2, dim=2, budget=v, seed=0), "budget", 1, None, False, None),
        (f"{label}-seed", lambda v: search(n=2, dim=2, budget=1, seed=v), "seed", 0, None, True, None),
    ]


#: (id, call of the value, name, lo, hi, whether None is valid, (value past the top, message) or None)
ROWS = [
    ("subset_max_norm-threads", lambda v: subset_max_norm(FAM, 2, threads=v), "threads", 1, None, False, None),
    ("sign_max_norm-threads", lambda v: sign_max_norm(FAM, 2, threads=v), "threads", 1, None, False, None),
    ("region_grid-threads", lambda v: region_grid(2, threads=v), "threads", 1, None, False, None),
    *_search_rows("quotient_search", lambda n, dim, budget, seed: quotient_lower_bound_search(T, n, dim, budget, seed)),
    *_search_rows("grothendieck_search", grothendieck_search),
    *_search_rows("cross_validate", lambda n, dim, budget, seed: cross_validate(T, budget, seed, n=n, dim=dim)),
    ("sandwich_sweep-trials", lambda v: sandwich_sweep((1,), ((1, 2),), v, 0), "trials", 1, None, False,
     (DRAW_MAX_ENTRIES + 1, rf"^trials \* max\(dims\) = {DRAW_MAX_ENTRIES + 1} exceeds the cap")),
    ("sandwich_sweep-dims", lambda v: sandwich_sweep((v,), ((1, 2),), 1, 0), r"dims\[0\]", 1, None, False,
     (DRAW_MAX_ENTRIES + 1, rf"^trials \* max\(dims\) = {DRAW_MAX_ENTRIES + 1} exceeds the cap")),
    ("sandwich_sweep-seed", lambda v: sandwich_sweep((2,), ((1, 2),), 3, v), "seed", 0, None, True, None),
    ("sylvester", sylvester, "n", 0, MATERIALIZE_MAX_LOG, False, None),
    ("tail_q_bound", lambda v: tail_q_bound(2, 1, v), "N", 0, None, False,
     (10**400, r"^N too large: N \+ 1, of 1329 bits")),
    ("divergent_tail_norm", lambda v: divergent_tail_norm(2, v), "N", 0, None, False,
     (TAIL_MAX_TERMS + 1, rf"^H_N is computed for N <= TAIL_MAX_TERMS = {TAIL_MAX_TERMS}, got N = {TAIL_MAX_TERMS + 1}$")),
]


def _bad_values(lo, hi, none_ok):
    values = [True, False, np.bool_(True), 2.5, 2.0, "2", lo - 1, np.int64(lo - 1)]
    if not none_ok:
        values.append(None)
    if hi is not None:
        values.append(hi + 1)
    return values


@pytest.fixture
def no_draws(monkeypatch):
    """Fail any seeded draw: every check must come before the first."""
    monkeypatch.setattr(U, "_trial_rngs", lambda *a: pytest.fail("drew"))
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))


class TestBoundaryTable:
    @pytest.mark.parametrize("call, name, lo, hi, none_ok, over", [r[1:] for r in ROWS], ids=[r[0] for r in ROWS])
    def test_bad_values_are_named_before_any_draw(self, call, name, lo, hi, none_ok, over, no_draws):
        span = f">= {lo}" if hi is None else rf"in \[{lo}, {hi}\]"
        for value in _bad_values(lo, hi, none_ok):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer {span}, got "):
                call(value)
        if over is not None:
            value, message = over
            with pytest.raises(ValueError, match=message):
                call(value)


class TestCliBoundaries:
    SEARCH = ["search", "--p", "3", "--q", "3", "--r", "3", "--n", "2", "--dim", "2", "--budget", "1"]
    GSEARCH = ["grothendieck", "--n", "2", "--dim", "2", "--budget", "1"]

    @pytest.mark.parametrize("argv, detail", [
        (["classify", "--p", "2", "--q", "2", "--r", "2", "--threads", "0"],
         "--threads must be an integer >= 1, got 0"),
        ([*SEARCH, "--seed", "0", "--threads", "-1"], "--threads must be an integer >= 1, got -1"),
        (["lemmas", "--budget", "0", "--seed", "0"], f"--budget must be an integer in [1, {LEMMAS_MAX_BUDGET}], got 0"),
        (["lemmas", "--budget", str(LEMMAS_MAX_BUDGET + 1), "--seed", "0"],
         f"--budget must be an integer in [1, {LEMMAS_MAX_BUDGET}], got {LEMMAS_MAX_BUDGET + 1}"),
        (["lemmas", "--dim", "0", "--seed", "0"], f"--dim must be an integer in [1, {DRAW_MAX_ENTRIES}], got 0"),
        (["lemmas", "--dim", str(DRAW_MAX_ENTRIES + 1), "--seed", "0"],
         f"--dim must be an integer in [1, {DRAW_MAX_ENTRIES}], got {DRAW_MAX_ENTRIES + 1}"),
        ([*SEARCH, "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        ([*GSEARCH, "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["lemmas", "--budget", "3", "--dim", "2", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
    ], ids=["threads-0", "threads-negative", "lemmas-budget-0", "lemmas-budget-over", "lemmas-dim-0",
            "lemmas-dim-over", "search-seed", "grothendieck-seed", "lemmas-seed"])
    def test_domain_error_before_any_draw(self, argv, detail, capsys, no_draws):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "domain-error", "detail": detail}

    @pytest.mark.parametrize("value", ["2.5", "True", "x"])
    def test_a_non_integer_option_stays_a_usage_error(self, value, capsys, no_draws):
        # argparse parses --threads, --budget, --dim and --seed as int: anything else is exit 2, as it was
        for option in ("--threads", "--budget", "--dim", "--seed"):
            assert main(["lemmas", "--seed", "0", option, value]) == 2
            assert json.loads(capsys.readouterr().err)["error"] == "usage"


class TestNumpyIntegers:
    """A numpy integer gives the bytes the Python int of its value gives."""

    @pytest.mark.parametrize("np_int", [np.int64, np.uint8])
    def test_searches(self, np_int):
        for search in (
            lambda *a: quotient_lower_bound_search(T, *a),
            grothendieck_search,
            lambda n, dim, budget, seed: cross_validate(T, budget, seed, n=n, dim=dim),
        ):
            want = json.dumps(search(3, 4, 2, 5).to_json())
            assert json.dumps(search(np_int(3), np_int(4), np_int(2), np_int(5)).to_json()) == want

    @pytest.mark.parametrize("np_int", [np.int64, np.uint8])
    def test_sandwich_sweep_report_serializes(self, np_int):
        # the record kept the caller's trials, and json.dumps failed on an np.int64
        want = json.dumps(sandwich_sweep([2], [(1, 2)], 3, 0).to_json())
        assert json.dumps(sandwich_sweep([np_int(2)], [(1, 2)], np_int(3), np_int(0)).to_json()) == want

    @pytest.mark.parametrize("np_int", [np.int64, np.uint8])
    def test_witness_counts(self, np_int):
        for N in (0, 1, 200, 255):
            assert tail_q_bound(2, 1, np_int(N)).hex() == tail_q_bound(2, 1, N).hex()
            assert divergent_tail_norm(2, np_int(N)).hex() == divergent_tail_norm(2, N).hex()
        for n in range(MATERIALIZE_MAX_LOG + 1):
            assert sylvester(np_int(n)) is sylvester(n)
