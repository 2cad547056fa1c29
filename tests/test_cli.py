import hashlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

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
        '"N":150661,"partial_r_norm":12.500006542426194,"tail_q_bound":0.002576314373553548}'
        "\n"
    ),
    ("--q", "3", "--r", "2", "--B", "3.77"): (
        '{"q":3.0,"r":2.0,"B":3.77,'
        '"N":835415,"partial_r_norm":3.7700000198620898,"tail_q_bound":0.12982537242023187}'
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
        0, "32dd004ae247fa130a39c2d8b6ba59d71957b25817e2d31f02bc5aa694334e42"
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
        0, "0026fd7dd20fbfc379a5ad2adc813248f093b2ddb7a177b35dbdedc3e6b8a68e"
    ),
    # a q = 2 search whose refinement scores every x-family move from scratch
    ("search", "--p", "1.5", "--q", "2", "--r", "inf", "--n", "4", "--dim", "4", "--budget", "12", "--seed", "7"): (
        0, "04c704baf4a8c4f1f77b51bc674aead824bf06aaa338351a12d430ca0c1402af"
    ),
    # 2^7 * 7 * 4 terms is past the from-scratch route, so x-family moves walk one family at a time
    ("search", "--p", "3", "--q", "3", "--r", "3", "--n", "7", "--dim", "4", "--budget", "4", "--seed", "5"): (
        0, "c4997921815f63a3a578e45beb2262cc1cf71a2001058bc81c4066b97de2355a"
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
#: stdin of the GOLDEN argv that do not read GOLDEN_FAMILY.
GOLDEN_STDIN = {("quotient", "--p", "3", "--q", "3", "--r", "1.5", "--avec", "-"): NARROW_FAMILY}


def run_cli(*args, env_extra=None, stdin_data=None):
    import os

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
    ], ids=["grid", "stalled-grid", "search", "grothendieck", "nan-step", "inf-step", "lemmas",
            "lemmas-dim-0", "lemmas-budget", "lemmas-negative-budget", "lemmas-budget-first",
            "lemmas-both-caps", "lemmas-entries"])
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

    def test_degenerate_family_domain_error(self, tmp_path):
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps([[0, 0], [0, 0]]))
        res = run_cli("quotient", "--p", "2", "--q", "2", "--r", "1",
                      "--avec", str(path))
        assert res.returncode == 3
        assert "degenerate" in json.loads(res.stderr)["detail"]

    def test_missing_file_domain_error(self):
        res = run_cli("quotient", "--p", "2", "--q", "2", "--r", "1",
                      "--avec", "/nonexistent/fam.json")
        assert res.returncode == 3

    def test_random_mode_beyond_64_vectors(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps([[1.0, 1.0]] * 70))
        res = run_cli("quotient", "--p", "2", "--q", "2", "--r", "2", "--avec", str(path),
                      "--mode", "random", "--budget", "1", "--seed", "0")
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert out["subset_bitmask"] == hex((1 << 70) - 1)
        assert out["certified"] is False

    def test_random_mode_needs_seed_and_budget(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps([[1, 0], [0, 1]]))
        res = run_cli("quotient", "--p", "2", "--q", "2", "--r", "2",
                      "--avec", str(path), "--mode", "random")
        assert res.returncode == 2


class TestEnvCap:
    def test_nexh_env_controls_exhaustive_cap(self, tmp_path):
        fam = [[1, 0], [0, 1]]
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(fam))
        args = ("quotient", "--p", "2", "--q", "2", "--r", "2", "--avec", str(path))
        ok = run_cli(*args, env_extra={"UNCOND_NEXH": "2"})
        assert ok.returncode == 0
        blocked = run_cli(*args, env_extra={"UNCOND_NEXH": "1"})
        assert blocked.returncode == 3
        assert "exhaustive cap 1" in json.loads(blocked.stderr)["detail"]

    def test_search_beyond_the_cap_names_no_mode(self):
        res = run_cli("search", "--p", "3", "--q", "3", "--r", "3", "--n", "25",
                      "--dim", "2", "--budget", "1", "--seed", "0")
        assert res.returncode == 3
        detail = json.loads(res.stderr)["detail"]
        assert detail == "family size 25 exceeds the exhaustive cap 24 (2^25 subsets)"

    def test_lemmas_scan_complex_draws_beyond_the_cap(self, monkeypatch, capsys):
        # the complex draws have up to 6 entries; past a cap of 1 they are scanned
        monkeypatch.setenv("UNCOND_NEXH", "1")
        assert main(["lemmas", "--budget", "30", "--dim", "6", "--seed", "9"]) == 0
        out = json.loads(capsys.readouterr().out)
        pinned = json.loads(LEMMAS_STDOUT)
        assert out["complex_random_max_ratio"] == pytest.approx(
            pinned["complex_random_max_ratio"], rel=1e-12
        )
        del out["complex_random_max_ratio"], pinned["complex_random_max_ratio"]
        assert out == pinned

    def test_nexh_gates_witness_exhaustive_check(self):
        with_check = run_cli("witness-hadamard", "--p", "inf", "--q", "2", "--r", "2",
                             "--C", "1", env_extra={"UNCOND_NEXH": "2"})
        assert "exhaustive_quotient" in json.loads(with_check.stdout)
        without = run_cli("witness-hadamard", "--p", "inf", "--q", "2", "--r", "2",
                          "--C", "1", env_extra={"UNCOND_NEXH": "1"})
        assert "exhaustive_quotient" not in json.loads(without.stdout)


    @pytest.mark.parametrize("raw", ["0", "31"])
    def test_nexh_out_of_range_is_usage_error(self, raw, tmp_path, monkeypatch, capsys):
        # rejected before any enumeration runs at the bad cap
        path = tmp_path / "fam.json"
        path.write_text(json.dumps([[1, 0], [0, 1]]))
        monkeypatch.setenv("UNCOND_NEXH", raw)
        assert main(["quotient", "--p", "2", "--q", "2", "--r", "2", "--avec", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"
        assert "between 1 and 30" in err["detail"]

    def test_nexh_at_bounds_accepted(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps([[1, 0]]))
        for raw in ("1", "30"):
            monkeypatch.setenv("UNCOND_NEXH", raw)
            assert main(["quotient", "--p", "2", "--q", "2", "--r", "2", "--avec", str(path)]) == 0
        capsys.readouterr()


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
