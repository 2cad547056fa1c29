import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncond import unconditionality, witness
from uncond.seqspace import ExponentTriple
from uncond.cli import LEMMAS_MAX_BUDGET, LEMMAS_MAX_DIM, main

CLI = [sys.executable, "-m", "uncond.cli"]

#: stdout of `uncond lemmas --budget 30 --dim 6 --seed 9`, pinned byte for byte.
LEMMAS_STDOUT = (
    '{"real_pair_witness":{"ratio":2.0,"bound":2.0,"slack":0.0,"witness":[1.0,-1.0],'
    '"certified":true},"real_random_max_ratio":1.9367059962062103,"real_trials":30,'
    '"complex_random_max_ratio":1.5282245354681943,"complex_trials":3,'
    '"roots64_ratio":3.140331156954752,"sandwich":{"violations":0,"records":[{"p":1.0,'
    '"q":2.0,"dim":2,"trials":10,"violations":0,"min_lower_slack":0.04718252797300382,'
    '"min_upper_slack":0.02325910284079369},{'
    '"p":1.0,"q":2.0,"dim":5,"trials":10,"violations":0,"min_lower_slack":0.6930921648031902,'
    '"min_upper_slack":0.19362679611677525},{'
    '"p":1.0,"q":2.0,"dim":16,"trials":10,"violations":0,"min_lower_slack":7.700369691892223,'
    '"min_upper_slack":1.0645964007686732},{'
    '"p":1.5,"q":3.0,"dim":2,"trials":10,"violations":0,'
    '"min_lower_slack":0.0001033684120022027,"min_upper_slack":0.00022049078367092356},{'
    '"p":1.5,"q":3.0,"dim":5,"trials":10,"violations":0,"min_lower_slack":0.2619228904585025,'
    '"min_upper_slack":0.07043360595163994},{'
    '"p":1.5,"q":3.0,"dim":16,"trials":10,"violations":0,'
    '"min_lower_slack":2.0469902216345695,"min_upper_slack":0.7226298032884149},{'
    '"p":2.0,"q":4.0,"dim":2,"trials":10,"violations":0,'
    '"min_lower_slack":0.0028330389379233045,"min_upper_slack":3.185837556463067e-05},{'
    '"p":2.0,"q":4.0,"dim":5,"trials":10,"violations":0,'
    '"min_lower_slack":0.18245372201400967,"min_upper_slack":0.3027000821136365},{'
    '"p":2.0,"q":4.0,"dim":16,"trials":10,"violations":0,'
    '"min_lower_slack":1.0924324051047787,"min_upper_slack":0.3033004572205429}]}}'
    "\n"
)

#: stdout of `uncond witness-tail` at two levels, pinned byte for byte.
WITNESS_TAIL_STDOUT = {
    ("--q", "2", "--r", "1", "--B", "12.5"): (
        '{"q":2.0,"r":1.0,"B":12.5,'
        '"N":150661,"partial_r_norm":12.500006542426243,"tail_q_bound":0.0025763143735535766}'
        "\n"
    ),
    ("--q", "3", "--r", "2", "--B", "3.77"): (
        '{"q":3.0,"r":2.0,"B":3.77,'
        '"N":835415,"partial_r_norm":3.7700000198621746,"tail_q_bound":0.12982537242023343}'
        "\n"
    ),
}

#: Exit code and sha256 of stdout for each argv, pinned; ``quotient`` reads
#: GOLDEN_FAMILY on stdin, or its entry in GOLDEN_STDIN.
GOLDEN = {
    ("lemmas", "--budget", "1000", "--dim", "12", "--seed", "0"): (
        0, "64a75477bdd218fb207ded40cb3e7cae603e9b8eee8e9e012a69d713008f2c29"
    ),
    ("lemmas", "--budget", "100", "--dim", "16", "--seed", "3"): (
        0, "186b65f552add309af065846a1fc14c4c92f174b623e17bbaa26ea0f1d27f25d"
    ),
    ("lemmas", "--budget", "30", "--dim", "6", "--seed", "9", "--pretty"): (
        0, "d4e328c5f0568be1b72f14791deb965bdf01377e47fc7388ff8ac8ff2579da39"
    ),
    ("witness-hadamard", "--p", "inf", "--q", "2", "--r", "3", "--C", "2"): (
        0, "3ede0a20f9495123a3b8358448b5a626fd941c7f0a2a7878213b9e6d8c67f289"
    ),
    ("witness-hadamard", "--p", "inf", "--q", "1", "--r", "1", "--C", "1e6"): (
        0, "1943ba8819fe056f8722c26abb544961e538e4d416a3a1e225bd322b7431366c"
    ),
    ("witness-hadamard", "--p", "4", "--q", "2", "--r", "3", "--C", "100"): (
        0, "e2bd0fc9fdacc90491d9069d29cca11025ba2881e9019bd0a77fd3b53a2201ab"
    ),
    ("witness-hadamard", "--p", "4", "--q", "2", "--r", "3", "--C", "1e300"): (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    ),
    ("witness-tail", "--q", "2", "--r", "1", "--B", "5"): (
        0, "02e2498345382794c8bd352fa60bea8ccbb5006545cbd48602f2b65c6b40544c"
    ),
    ("grid", "--r", "2", "--step", "0.25"): (
        0, "5f8d504255fcd15990b6a7d4f05c91e143e2b8cda9b23f497675789503100128"
    ),
    ("grid", "--r", "inf", "--step", "0.125"): (
        0, "d4bc7e0209179ff07dea9b480c444b5c6cd8b96a2e4d420b30562ccfe56b3f1b"
    ),
    ("classify", "--p", "4", "--q", "2", "--r", "3"): (
        0, "1f64b6ab3e19540deedfa471d80e15c2793ade4b963d57fde0c9c20364384edd"
    ),
    ("classify", "--p", "inf", "--q", "1.5", "--r", "2"): (
        0, "a450e6235609f868abcee764f4305f5ff82eba579d3e7dc303a3e166c696db2c"
    ),
    ("quotient", "--p", "3", "--q", "2", "--r", "1.5", "--avec", "-"): (
        0, "b8ead8d66c95449dc51a680ff24f1d2f0ca28874dd52587fbe5a3cff2972c388"
    ),
    ("search", "--p", "3", "--q", "3", "--r", "3", "--n", "3", "--dim", "4", "--budget", "20", "--seed", "0"): (
        0, "21f415cb5f11c5ba898bb966fb3b4b3ecfce88705e2cb8a2b83962600c6083d7"
    ),
    # a q = 2 search whose refinement scores every x-family move from scratch
    ("search", "--p", "1.5", "--q", "2", "--r", "inf", "--n", "4", "--dim", "4", "--budget", "12", "--seed", "7"): (
        0, "b235a58515a2c0ae83d4064b866ff3fcd177918f168212177bb8e955a6378172"
    ),
    # 2^7 * 7 * 4 terms is past the from-scratch route, so x-family moves walk one family at a time
    ("search", "--p", "3", "--q", "3", "--r", "3", "--n", "7", "--dim", "4", "--budget", "4", "--seed", "5"): (
        0, "e593cbf12e5275786db6a39429ae10adadadb22bf9962e195cd9045145a38483"
    ),
    # reads NARROW_FAMILY, whose exact subset max runs the branch and bound
    ("quotient", "--p", "3", "--q", "3", "--r", "1.5", "--avec", "-"): (
        0, "cbefc814bcb43f9ecc288d15191e3ecefacc14ed712ae01ae014194eb00f5b43"
    ),
    # sign-flip climbs screened on the dual table (dim < n)
    ("grothendieck", "--n", "11", "--dim", "3", "--budget", "2", "--seed", "5"): (
        0, "0750d60e4495ba81a89ce377cbc18ff3ba1c462db619c043a07ca378d738e0dd"
    ),
    ("grothendieck", "--n", "10", "--dim", "3", "--budget", "4", "--seed", "0"): (
        0, "3de067fc5a3a1a18cf55af5c5a7d646d6dabff4e2a87e436e2c383f5010db785"
    ),
    ("grothendieck", "--n", "12", "--dim", "2", "--budget", "2", "--seed", "3"): (
        0, "e7f6f97143979384a8e92febe7e6fa50e83c3c1bd94ec390e48d3f44b1a24b60"
    ),
    # dim >= n: every flip is scored
    ("grothendieck", "--n", "4", "--dim", "5", "--budget", "2", "--seed", "4"): (
        0, "ab1c8bbe15ce29613f41f4e75b80825e3137b2bdd08ef7fb8a0dd7e3be37eda4"
    ),
}
GOLDEN_FAMILY = [[1.0, 2.0, -0.5], [0.25, -1.0, 3.0], [2.0, 0.5, 1.0], [-1.5, 1.0, 0.75]]
#: 18 vectors of length 4 (n >= 2d, 2^18 subsets).
NARROW_FAMILY = np.random.default_rng(18).standard_normal((18, 4)).round(6).tolist()
#: 14 sign rows of length 6 whose exact quotient at r = inf is 14 / 9.
SIGN_FAMILY = [
    [1, -1, -1, 1, -1, 1], [1, 1, -1, 1, 1, 1], [1, 1, 1, -1, 1, -1], [-1, -1, -1, 1, -1, -1],
    [-1, -1, 1, -1, 1, 1], [1, -1, -1, -1, 1, -1], [-1, 1, 1, -1, -1, -1], [1, 1, -1, 1, 1, 1],
    [1, -1, 1, -1, 1, -1], [-1, 1, 1, -1, -1, 1], [1, -1, -1, -1, -1, 1], [-1, -1, -1, -1, 1, 1],
    [1, -1, 1, 1, 1, 1], [-1, 1, 1, -1, 1, -1],
]
#: stdin of the GOLDEN argv that do not read GOLDEN_FAMILY.
GOLDEN_STDIN = {("quotient", "--p", "3", "--q", "3", "--r", "1.5", "--avec", "-"): NARROW_FAMILY}


def run_cli(*args, env_extra=None, stdin_data=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args),
        capture_output=True,
        text=True,
        env=env,
        input=stdin_data,
    )


class TestClassifyCommand:
    def test_open_region(self):
        res = run_cli("classify", "--p", "3", "--q", "3", "--r", "3")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["verdict"] == "Unknown"
        assert out["clause"] == "Open"

    def test_invalid_triple_is_domain_error(self):
        res = run_cli("classify", "--p", "3", "--q", "3", "--r", "1")
        assert res.returncode == 3
        assert res.stdout == ""
        err = json.loads(res.stderr)
        assert err["error"] == "domain-error"
        assert "1/r > 1/p + 1/q" in err["detail"]

    def test_invalid_triple_gives_the_shared_message(self, capsys):
        assert main(["classify", "--p", "3", "--q", "3", "--r", "1"]) == 3
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert detail == "triple (3.0, 3.0, 1.0) is not valid: 1/r > 1/p + 1/q"

    def test_inf_tokens(self):
        res = run_cli("classify", "--p", "inf", "--q", "2", "--r", "2")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["p"] == "inf"
        assert out["verdict"] == "NotPreserves"

    def test_nested_and_strict_overlap_is_nested(self, capsys):
        # the gap 1.25e-12 lies in (EPS_CMP, 2 EPS_CMP], where p <= 2 and q <= r hold within EPS_CMP
        assert main(["classify", "--p", "2.000000000003", "--q", "2", "--r", "1.999999999998"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            '{"p":2.000000000003,"q":2.0,"r":1.999999999998,"verdict":"Preserves",'
            '"clause":"T1.4-1-pLe2qLeR","margin":5.000444502911705e-13}\n'
        )

    def test_pretty(self):
        res = run_cli("classify", "--p", "2", "--q", "2", "--r", "2", "--pretty")
        assert res.returncode == 0
        assert "Preserves" in res.stdout
        with pytest.raises(json.JSONDecodeError):
            json.loads(res.stdout)


class TestUsageErrors:
    def test_unknown_flag(self):
        res = run_cli("classify", "--p", "2", "--q", "2", "--r", "2", "--bogus")
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["error"] == "usage"

    def test_bad_exponent_token(self):
        res = run_cli("classify", "--p", "zero", "--q", "2", "--r", "2")
        assert res.returncode == 2

    def test_seed_required_for_search(self):
        res = run_cli("search", "--p", "2", "--q", "2", "--r", "2",
                      "--n", "2", "--dim", "2", "--budget", "5")
        assert res.returncode == 2
        assert "seed" in json.loads(res.stderr)["detail"]

    def test_seed_required_for_grothendieck_and_lemmas(self):
        assert run_cli("grothendieck", "--n", "2", "--dim", "2", "--budget", "5").returncode == 2
        assert run_cli("lemmas").returncode == 2

    @pytest.mark.parametrize("argv", [
        ["search", "--p", "2", "--q", "2", "--r", "2", "--n", "2", "--dim", "2", "--budget", "5"],
        ["grothendieck", "--n", "2", "--dim", "2", "--budget", "5"],
        ["lemmas"],
    ], ids=lambda argv: argv[0])
    def test_missing_seed_is_named_by_argparse(self, argv, capsys):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "usage", "detail": "the following arguments are required: --seed"}


class TestOptionValues:
    """A token after a value-taking option is its value, whatever its first character."""

    @pytest.mark.parametrize("argv, code, detail", [
        (["classify", "--p", "1", "--q", "1", "--r", "-inf"], 2,
         {"error": "usage", "detail": "argument --r: exponent cannot be -inf"}),
        (["classify", "--p", "1", "--q", "1", "--r", "-1e-5"], 2,
         {"error": "usage", "detail": "argument --r: exponent must be >= 1, got -1e-05"}),
        (["witness-hadamard", "--p", "inf", "--q", "2", "--r", "2", "--C", "-1e-5"], 3,
         {"error": "domain-error", "detail": "C must be positive"}),
        (["witness-tail", "--q", "2", "--r", "1", "--B", "-1e-5"], 3,
         {"error": "domain-error", "detail": "B must be positive"}),
        (["grid", "--r", "2", "--step", "-1e-5"], 3,
         {"error": "domain-error", "detail": "step must be finite and positive, got -1e-05"}),
        (["grid", "--r", "2", "--ste", "-1e-5"], 3,
         {"error": "domain-error", "detail": "step must be finite and positive, got -1e-05"}),
    ], ids=["r-minus-inf", "r-minus-small", "C-minus-small", "B-minus-small", "step", "step-prefix"])
    def test_both_spellings_agree(self, argv, code, detail, capsys):
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        for spelling in (argv, joined):
            assert main(spelling) == code
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err) == detail

    def test_a_valid_value_prints_the_same_either_way(self, capsys):
        assert main(["witness-hadamard", "--p", "inf", "--q", "2", "--r", "3", "--C", "2"]) == 0
        want = capsys.readouterr().out
        assert main(["witness-hadamard", "--p", "inf", "--q", "2", "--r", "3", "--C=2"]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("argv, detail", [
        (["classify", "--p", "--q", "2", "--r", "2"], "argument --p: cannot parse exponent '--q'"),
        (["classify", "--p", "2", "--q", "2", "--r"], "argument --r: expected one argument"),
        (["classify", "--p", "2", "--q", "2", "--r", "2", "--pretty", "-1"], "unrecognized arguments: -1"),
    ], ids=["option-as-value", "last-token", "flag-takes-no-value"])
    def test_usage_errors(self, argv, detail, capsys):
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "usage", "detail": detail}


class TestSizeCaps:
    @pytest.mark.parametrize("argv, detail", [
        (["grid", "--r", "2", "--p-max", "64", "--q-max", "64", "--step", "0.001"],
         "grid exceeds the cap of 262144 points; use a larger step"),
        (["grid", "--r", "2", "--p-min", "2", "--p-max", "2", "--step", "1e-300"],
         "grid exceeds the cap of 262144 points; use a larger step"),
        (["search", "--p", "3", "--q", "3", "--r", "3", "--n", "3", "--dim", "1000000000",
          "--budget", "1", "--seed", "0"],
         "n * dim = 3000000000 exceeds the cap of 1048576 entries per draw"),
        (["grothendieck", "--n", "3", "--dim", "1000000000", "--budget", "1", "--seed", "0"],
         "n * dim = 3000000000 exceeds the cap of 1048576 entries per draw"),
        (["grid", "--r", "2", "--step", "nan"], "step must be finite and positive, got nan"),
        (["grid", "--r", "2", "--step", "inf"], "step must be finite and positive, got inf"),
        (["lemmas", "--dim", str(LEMMAS_MAX_DIM + 1), "--seed", "0"],
         "--dim 1048577 exceeds the cap of 1048576"),
        (["lemmas", "--dim", "0", "--seed", "0"], "--dim 0 must be at least 1"),
        (["lemmas", "--budget", str(LEMMAS_MAX_BUDGET + 1), "--seed", "0"],
         "--budget 65537 exceeds the cap of 65536"),
        (["lemmas", "--budget", "-2", "--seed", "0"], "--budget -2 must be at least 1"),
        (["lemmas", "--budget", "0", "--dim", "0", "--seed", "0"], "--budget 0 must be at least 1"),
        (["lemmas", "--budget", str(LEMMAS_MAX_BUDGET), "--dim", str(LEMMAS_MAX_DIM), "--seed", "0"],
         "--budget 65536 times --dim 1048576 exceeds the cap of 16777216 entries; lower one of them"),
        (["lemmas", "--budget", "17", "--dim", str(LEMMAS_MAX_DIM), "--seed", "0"],
         "--budget 17 times --dim 1048576 exceeds the cap of 16777216 entries; lower one of them"),
        (["search", "--p", "3", "--q", "3", "--r", "3", "--n", "3", "--dim", "2", "--budget", "1", "--seed", "-1"],
         "seed must be a non-negative integer, got -1"),
        (["grothendieck", "--n", "3", "--dim", "2", "--budget", "1", "--seed", "-1"],
         "seed must be a non-negative integer, got -1"),
        (["lemmas", "--budget", "3", "--dim", "2", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
    ], ids=["grid", "stalled-grid", "search", "grothendieck", "nan-step", "inf-step", "lemmas",
            "lemmas-dim-0", "lemmas-budget", "lemmas-negative-budget", "lemmas-budget-first",
            "lemmas-both-caps", "lemmas-entries", "search-seed", "grothendieck-seed", "lemmas-seed"])
    def test_domain_error_before_anything_is_built(self, argv, detail, capsys):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "domain-error", "detail": detail}


class TestWitnessCommands:
    def test_hadamard_report(self):
        res = run_cli("witness-hadamard", "--p", "inf", "--q", "2", "--r", "2", "--C", "10")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["n"] == 7
        assert out["family_size"] == 128
        assert out["certified_ratio_log2"] == 3.5

    def test_hadamard_domain_error(self):
        res = run_cli("witness-hadamard", "--p", "2", "--q", "2", "--r", "2", "--C", "1")
        assert res.returncode == 3
        assert "second-clause" in json.loads(res.stderr)["detail"]

    def test_tail_report(self):
        res = run_cli("witness-tail", "--q", "2", "--r", "1", "--B", "5")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["N"] == 83
        assert out["partial_r_norm"] >= 5.0

    def test_tail_level_whose_power_underflows(self, capsys):
        # 1e-200 ** 2 is 0.0 in floats; the witness still starts at N = 1
        assert main(["witness-tail", "--q", "3", "--r", "2", "--B", "1e-200"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["N"], out["partial_r_norm"]) == (1, 1.0)
        assert out["partial_r_norm"] >= out["B"]

    @pytest.mark.parametrize("B", ["1e200", "inf"])
    def test_tail_level_whose_power_overflows(self, B, capsys):
        # 1e200 ** 2 overflows binary64; this exited 1 with a traceback
        assert main(["witness-tail", "--q", "3", "--r", "2", "--B", B]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "domain-error", "detail": "B too large for desk scale"}

    @pytest.mark.parametrize("q", ["800", "1e300"])
    def test_tail_bound_whose_zeta_underflows(self, q, capsys):
        # zeta(q, 5) underflows; these printed 0.0 and NaN once, and the norm 1/5 raised by its margin now
        assert main(["witness-tail", "--q", q, "--r", "1", "--B", "2"]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert (out["N"], out["tail_q_bound"]) == (4, 0.20000000000000157)

    def test_import_loads_no_scipy(self):
        code = "import sys, uncond, uncond.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (res.returncode, res.stdout) == (0, "[]\n")


class TestGridCommand:
    def test_header_and_row_count(self):
        res = run_cli("grid", "--r", "2", "--p-min", "1", "--p-max", "3",
                      "--q-min", "1", "--q-max", "3", "--step", "1")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "p,q,r,verdict,clause,margin"
        assert len(lines) == 1 + 4 * 4  # 3x3 lattice plus inf samples

    def test_nested_and_strict_overlap_is_nested(self, capsys):
        argv = ["grid", "--r", "1.999999999998", "--p-min", "2.000000000003", "--p-max", "2.5",
                "--q-min", "2", "--q-max", "2.5", "--step", "1"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "p,q,r,verdict,clause,margin\n"
            "2.000000000003,2.0,1.999999999998,Preserves,T1.4-1-pLe2qLeR,5.000444502911705e-13\n"
            "2.000000000003,inf,1.999999999998,NotApplicable,HolderInvalid,7.499556531342932e-13\n"
            "inf,2.0,1.999999999998,NotPreserves,T1.4-2-strict,5.000444502911705e-13\n"
            "inf,inf,1.999999999998,NotPreserves,T1.4-2-rLtQ,0.5\n"
        )

    def test_out_file(self, tmp_path):
        target = tmp_path / "grid.csv"
        res = run_cli("grid", "--r", "inf", "--p-max", "2", "--q-max", "2",
                      "--out", str(target))
        assert res.returncode == 0
        assert res.stdout == ""
        text = target.read_text()
        assert text.startswith("p,q,r,verdict,clause,margin")
        assert "Preserves" in text

    @pytest.mark.parametrize("target, code", [("missing/x.json", errno.ENOENT), (".", errno.EISDIR)],
                             ids=["missing-directory", "directory"])
    def test_unwritable_out_is_a_domain_error(self, target, code, tmp_path):
        # the file opens inside main's try: exit 3 and one error object, as for an unreadable --avec
        path = str(tmp_path / target)
        res = run_cli("classify", "--p", "2", "--q", "2", "--r", "2", "--out", path)
        assert (res.returncode, res.stdout) == (3, "")
        assert res.stderr.splitlines() == [json.dumps({
            "error": "domain-error", "detail": f"[Errno {code}] {os.strerror(code)}: {path!r}",
        })]


class TestQuotientCommand:
    def test_from_files(self, tmp_path):
        fam = [[1, 1], [1, -1]]
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(fam))
        res = run_cli("quotient", "--p", "inf", "--q", "2", "--r", "2",
                      "--avec", str(path))
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["quotient"] == pytest.approx(2 ** 0.5, rel=1e-12)
        assert out["certified"] is True
        assert out["subset_bitmask"] == "0x3"

    def test_from_stdin(self):
        res = run_cli("quotient", "--p", "inf", "--q", "2", "--r", "2",
                      "--avec", "-", stdin_data=json.dumps([[1, 1], [1, -1]]))
        assert res.returncode == 0
        assert json.loads(res.stdout)["quotient"] == pytest.approx(2 ** 0.5, rel=1e-12)

    def test_xvec_paths(self, tmp_path, monkeypatch, capsys):
        # stdin named twice is read once; two files give two families
        A, X = [[1.0, 2.0], [0.5, -1.0]], [[1.0, 1.0], [1.0, -1.0]]
        argv = ["quotient", "--p", "2", "--q", "2", "--r", "1"]
        for avec, xvec, want in (("-", "-", (A, A)), ("a", None, (A, A)), ("a", "a", (A, A)), ("a", "x", (A, X)), ("-", "x", (A, X))):
            (tmp_path / "a").write_text(json.dumps(A))
            (tmp_path / "x").write_text(json.dumps(X))
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(A)))
            paths = ["--avec", avec if avec == "-" else str(tmp_path / avec)]
            if xvec:
                paths += ["--xvec", xvec if xvec == "-" else str(tmp_path / xvec)]
            assert main(argv + paths) == 0
            got = json.loads(capsys.readouterr().out)["quotient"]
            assert got == unconditionality.unconditionality_quotient(*want, ExponentTriple.of(2, 2, 1)).quotient

    def test_degenerate_family_domain_error(self, tmp_path):
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps([[0, 0], [0, 0]]))
        res = run_cli("quotient", "--p", "2", "--q", "2", "--r", "1",
                      "--avec", str(path))
        assert res.returncode == 3
        assert "degenerate" in json.loads(res.stderr)["detail"]

    def test_overflowing_family_domain_error(self, tmp_path):
        # column 0 sums to 2.4e308: subset sums would overflow binary64
        fam = np.random.default_rng(3).standard_normal((16, 8))
        fam[:, 0] = 1.5e307
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(fam.tolist()))
        res = run_cli("quotient", "--p", "2", "--q", "2", "--r", "2", "--avec", str(path))
        assert res.returncode == 3
        assert json.loads(res.stderr)["detail"] == (
            "family entries too large: a column's absolute sum exceeds half the "
            "largest binary64 value, so subset sums could overflow"
        )

    def test_missing_file_domain_error(self):
        res = run_cli("quotient", "--p", "2", "--q", "2", "--r", "1",
                      "--avec", "/nonexistent/fam.json")
        assert res.returncode == 3

    def test_sign_family_quotient_at_r_infinity(self, tmp_path, capsys):
        # 14 sign rows of length 6: the exact quotient is 14 / 9, below the bound 2 at r = inf
        path = tmp_path / "x.json"
        path.write_text(json.dumps(SIGN_FAMILY))
        assert main(["quotient", "--p", "inf", "--q", "inf", "--r", "inf", "--avec", str(path)]) == 0
        assert capsys.readouterr().out == (
            '{"quotient":1.5555555555555556,"subset_bitmask":"0x39b6","certified":true,"mode":"exhaustive"}\n'
        )

    def test_random_mode_needs_seed_and_budget(self, tmp_path, capsys):
        # the randomized mode and its knobs are gone: each flag is a usage error
        path = tmp_path / "fam.json"
        path.write_text(json.dumps([[1, 0], [0, 1]]))
        argv = ["quotient", "--p", "2", "--q", "2", "--r", "2", "--avec", str(path)]
        for extra in (
            ["--mode", "random", "--budget", "1", "--seed", "0"],
            ["--mode", "exhaustive"],
            ["--budget", "3"],
            ["--seed", "3"],
        ):
            assert main(argv + extra) == 2, extra
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err)["error"] == "usage"


def _json_values():
    """Bounded JSON values: every scalar kind, ints up to 10^400, nested lists and objects, and matrices."""
    scalars = (
        st.none()
        | st.booleans()
        | st.integers(-(10**400), 10**400)
        | st.integers(-3, 3)
        | st.floats()
        | st.text(max_size=4)
    )
    values = st.recursive(
        scalars,
        lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
        max_leaves=12,
    )
    numbers = st.integers(-3, 3) | st.floats(-1e3, 1e3) | st.floats()
    matrices = st.integers(0, 4).flatmap(lambda d: st.lists(st.lists(numbers, min_size=d, max_size=d), max_size=4))
    return values | matrices


def _quotient_from_stdin(text: str):
    """Exit code, stdout and stderr of in-process ``uncond quotient --avec -`` reading ``text``."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["quotient", "--p", "2", "--q", "2", "--r", "2", "--avec", "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


class TestMalformedFamilies:
    """Whatever JSON a family file holds, ``quotient`` exits 0, or 3 with one domain-error object."""

    @staticmethod
    def _assert_domain_error(code, out, err):
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "domain-error"

    # each exited 1 with a traceback: a TypeError or an OverflowError escaped
    @pytest.mark.parametrize("payload", ["5", "null", "[[{}]]", "[[" + "1" + "0" * 400 + "]]"])
    def test_malformed_stdin(self, payload):
        res = run_cli("quotient", "--p", "2", "--q", "2", "--r", "2", "--avec", "-", stdin_data=payload)
        self._assert_domain_error(res.returncode, res.stdout, res.stderr)

    # numeric strings were parsed (exit 0) and "x" failed with numpy's own message
    @pytest.mark.parametrize("payload", ['[["1.5"]]', '[["x"]]', '[[1, "2"]]'])
    def test_string_entries(self, payload):
        code, out, err = _quotient_from_stdin(payload)
        self._assert_domain_error(code, out, err)
        assert json.loads(err)["detail"] == "entries must be finite numbers"

    def test_integer_past_int64_is_a_number(self):
        code, out, err = _quotient_from_stdin(json.dumps([[2**70]]))
        assert code == 0 and err == ""
        assert json.loads(out)["quotient"] == 1.0

    def test_deeply_nested_file(self, tmp_path):
        # json.load's RecursionError escaped with exit 1
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        res = run_cli("quotient", "--p", "2", "--q", "2", "--r", "2", "--avec", str(path))
        self._assert_domain_error(res.returncode, res.stdout, res.stderr)
        assert json.loads(res.stderr)["detail"] == f"{path}: JSON nested too deeply"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_json_values())
    def test_any_json_value(self, value):
        code, out, err = _quotient_from_stdin(json.dumps(value))
        if code == 0:
            assert err == "" and "quotient" in json.loads(out)
        else:
            self._assert_domain_error(code, out, err)


class TestEnvCap:
    def test_quotient_past_24_rows_is_certified(self, tmp_path):
        # a narrow family is settled by the branch and bound, and UNCOND_NEXH is ignored
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(np.random.default_rng(26).standard_normal((26, 2)).tolist()))
        args = ("quotient", "--p", "2", "--q", "2", "--r", "2", "--avec", str(path))
        a = run_cli(*args)
        b = run_cli(*args, env_extra={"UNCOND_NEXH": "1"})
        assert a.returncode == b.returncode == 0, a.stderr
        assert '"certified":true' in a.stdout
        assert a.stdout == b.stdout

    def test_quotient_past_the_work_reach_exits_3_within_a_second(self, tmp_path, capsys):
        # 2^24 subsets of 4096 columns: more position-columns than the walk takes
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(np.random.default_rng(24).standard_normal((24, 4096)).tolist()))
        start = time.perf_counter()
        assert main(["quotient", "--p", "2", "--q", "3", "--r", "3", "--avec", str(path)]) == 3
        assert time.perf_counter() - start < 1.0
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert detail.startswith("an exact maximum over 2^24 positions needs a walk of 4096 columns")

    def test_search_beyond_the_cap_names_no_mode(self):
        res = run_cli("search", "--p", "3", "--q", "3", "--r", "3", "--n", "25",
                      "--dim", "2", "--budget", "1", "--seed", "0")
        assert res.returncode == 3
        detail = json.loads(res.stderr)["detail"]
        assert detail == "family size 25 exceeds the exhaustive cap 24 (2^25 subsets)"

    def test_lemmas_scan_complex_draws_beyond_the_cap(self, monkeypatch, capsys):
        # the complex draws have up to 6 entries, which the kernel sums from scratch at any
        # reach, and it refuses the 64th roots at every reach: a reach of 1 leaves the output pinned
        monkeypatch.setattr(unconditionality, "WALK_MAX_LOG", 1)
        assert main(["lemmas", "--budget", "30", "--dim", "6", "--seed", "9"]) == 0
        out = json.loads(capsys.readouterr().out)
        pinned = json.loads(LEMMAS_STDOUT)
        assert out["complex_random_max_ratio"] == pytest.approx(
            pinned["complex_random_max_ratio"], rel=1e-12
        )
        del out["complex_random_max_ratio"], pinned["complex_random_max_ratio"]
        assert out == pinned

    #: C = 3 at (inf, 2, 2) needs the 16 rows of n = 4, which only a walk of 2^16 positions settles.
    WITNESS_N4 = ["witness-hadamard", "--p", "inf", "--q", "2", "--r", "2", "--C", "3"]

    def test_walk_reach_gates_witness_exhaustive_check(self, monkeypatch, capsys):
        # the quotient is attached exactly where the kernel settles the Sylvester maximum
        try:
            for reach, attached in ((16, True), (15, False)):
                witness._sylvester_max.cache_clear()
                monkeypatch.setattr(unconditionality, "WALK_MAX_LOG", reach)
                assert main(self.WITNESS_N4) == 0
                out = json.loads(capsys.readouterr().out)
                assert out["n"] == 4
                assert ("exhaustive_quotient" in out) == attached
        finally:
            witness._sylvester_max.cache_clear()

    def test_walk_reach_gates_a_warm_witness_cache(self, monkeypatch, capsys):
        # the kernel's answer is kept per (n, q): a settled maximum stays attached at a lowered
        # reach, and a refusal stays until the cache is cleared
        try:
            witness._sylvester_max.cache_clear()
            assert main(self.WITNESS_N4) == 0
            warm = capsys.readouterr().out
            assert "exhaustive_quotient" in json.loads(warm)
            monkeypatch.setattr(unconditionality, "WALK_MAX_LOG", 15)
            assert main(self.WITNESS_N4) == 0
            assert capsys.readouterr().out == warm
            witness._sylvester_max.cache_clear()
            for reach in (15, 30):
                monkeypatch.setattr(unconditionality, "WALK_MAX_LOG", reach)
                assert main(self.WITNESS_N4) == 0
                out = capsys.readouterr().out
                assert "exhaustive_quotient" not in json.loads(out)
                assert out != warm
        finally:
            witness._sylvester_max.cache_clear()


class TestDeterminism:
    def test_search_byte_identical(self):
        args = ("search", "--p", "inf", "--q", "2", "--r", "2",
                "--n", "2", "--dim", "2", "--budget", "20", "--seed", "3")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_lemmas_byte_identical(self):
        a = run_cli("lemmas", "--budget", "30", "--dim", "6", "--seed", "9")
        assert a.returncode == 0
        assert a.stdout == LEMMAS_STDOUT
        out = json.loads(a.stdout)
        assert out["real_random_max_ratio"] <= 2.0
        assert 3.0 <= out["roots64_ratio"] <= 3.1415926536
        assert out["sandwich"]["violations"] == 0

    @pytest.mark.parametrize("args", sorted(WITNESS_TAIL_STDOUT))
    def test_witness_tail_byte_identical(self, args, capsys):
        assert main(["witness-tail", *args]) == 0
        assert capsys.readouterr().out == WITNESS_TAIL_STDOUT[args]

    def test_grothendieck_output(self):
        res = run_cli("grothendieck", "--n", "2", "--dim", "2", "--budget", "30", "--seed", "1")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["ratio"] >= 2 ** 0.5 - 1e-9
        assert out["bound"] == 1.8

    def test_threads_do_not_change_output(self):
        base = ("search", "--p", "2", "--q", "2", "--r", "2",
                "--n", "2", "--dim", "2", "--budget", "10", "--seed", "0")
        a = run_cli(*base, "--threads", "1")
        b = run_cli(*base, "--threads", "4")
        assert a.stdout == b.stdout


    def test_threads_below_one_is_domain_error(self, capsys):
        for command in (
            ["classify", "--p", "2", "--q", "2", "--r", "2"],
            ["grid", "--r", "2"],
            ["witness-hadamard", "--p", "inf", "--q", "2", "--r", "2", "--C", "1"],
            ["witness-tail", "--q", "2", "--r", "1", "--B", "2"],
        ):
            assert main([*command, "--threads", "0"]) == 3
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "domain-error"
            assert "threads" in err["detail"]


class TestMainEntry:
    def test_in_process_exit_codes(self, capsys):
        assert main(["classify", "--p", "2", "--q", "2", "--r", "2"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["verdict"] == "Preserves"
        assert main(["classify", "--p", "3", "--q", "3", "--r", "1"]) == 3
        assert main(["nonsense"]) == 2

    def test_internal_inconsistency_exit_code(self, capsys, monkeypatch):
        # no honest input can trigger this path, so force it
        import uncond.cli as cli
        from uncond.errors import InternalInconsistencyError

        def boom(args):
            raise InternalInconsistencyError("forced disagreement")

        monkeypatch.setitem(cli._HANDLERS, "classify", boom)
        assert main(["classify", "--p", "2", "--q", "2", "--r", "2"]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "internal-inconsistency"


class TestSharedParser:
    """``main`` reuses one parser per process, so no call may leave state behind for the next."""

    @pytest.mark.parametrize("sequence", [
        [["classify", "--p", "2", "--bogus"], ["classify", "--p", "2", "--q", "3", "--r", "2"]],
        [["classify", "--p", "3", "--q", "3", "--r", "3", "--pretty"], ["classify", "--p", "3", "--q", "3", "--r", "3"]],
        [["witness-tail", "--q", "2", "--r", "1", "--B", "2", "--out", "{out}"],
         ["witness-tail", "--q", "2", "--r", "1", "--B", "2"]],
        [["grid", "--r", "2", "--p-max", "2", "--q-max", "2", "--no-infinity"],
         ["grid", "--r", "2", "--p-max", "2", "--q-max", "2"]],
    ], ids=["usage-then-valid", "pretty-then-plain", "out-then-stdout", "no-infinity-then-infinity"])
    def test_each_call_matches_a_fresh_process(self, sequence, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("UNCOND_NEXH", raising=False)
        out_file = tmp_path / "out.json"

        def outcome(code, stdout, stderr):
            written = out_file.read_text() if out_file.exists() else None
            out_file.unlink(missing_ok=True)
            return code, stdout, stderr, written

        argvs = [[arg.format(out=out_file) for arg in argv] for argv in sequence]
        fresh = []
        for argv in argvs:
            res = run_cli(*argv)
            fresh.append(outcome(res.returncode, res.stdout, res.stderr))
        for argv, want in zip(argvs, fresh):
            code = main(argv)
            captured = capsys.readouterr()
            assert outcome(code, captured.out, captured.err) == want, argv
        assert fresh[0] != fresh[1]


class TestGolden:
    @pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
    def test_stdout_and_exit_code(self, argv, monkeypatch, capsys):
        monkeypatch.delenv("UNCOND_NEXH", raising=False)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(GOLDEN_STDIN.get(argv, GOLDEN_FAMILY))))
        code = main(list(argv))
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[argv]

    def test_too_large_witness_names_desk_scale(self, capsys):
        argv = ["witness-hadamard", "--p", "4", "--q", "2", "--r", "3", "--C", "1e300"]
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "domain-error", "detail": "C too large for desk scale"}
