"""The benchmark's workloads.

A workload is a closed loop with one client: ``round(k)`` returns the same
list of operations every round, on fresh inputs drawn from ``(seed, k)``, in
an order that interleaves the operation classes, so a slow stretch of the
host hits every class alike and a run always attempts whole rounds.  Each
operation is a call into ``uncond`` and a check of its output against
``references`` (computed apart from the package) or against properties the
method must have.  Checks run outside the operation's timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import references as ref
from references import INF, CheckError


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    #: Raises CheckError on a wrong output; returns the op's quotient or ratio, if it has one.
    check: Callable[[object], Optional[float]]


def _exp(e) -> float:
    """A program Exponent as a float, with inf as math.inf."""
    return INF if e.value is None else e.value


def _token(x: float) -> str:
    return "inf" if x == INF else repr(float(x))


def _expect_certified(res):
    if not (res.certified and res.mode == "exhaustive"):
        raise CheckError(f"exhaustive result reported certified={res.certified}, mode={res.mode}")


class Exact:
    """Exhaustive subset and sign maxima and quotients where no route cheaper than 2^n is known.

    q in {2, 3} with d >= 8 and q = 1 with d >= n, at n = 18-20, plus four
    quotients at n = 16, d = 64 (wide enough that the quotient of a normal
    family concentrates, so their mean is steady across seeds), one integer
    family (exact masks) and one wide family (n = 16, d = 256) whose
    enumeration blocks set the peak RSS.  Costs fall in three clusters (about
    3 ops near 60 ms, 5 near 120 ms, 3 above 200 ms), so the median op sits
    inside the middle cluster rather than on a gap between classes.
    """

    TRIPLES = [(4.0, 3.0, 2.0), (4.0, 2.0, 2.0), (2.0, 3.0, 1.5), (3.0, 2.0, 2.0)]
    #: Host-speed kernels matching the work: the Gray walk is numpy block work.
    CALIBRATION = ("numpy",)

    def __init__(self, U, seed: int):
        self.U, self.seed = U, seed

    def _max_op(self, name, fam, q: float, signs: bool) -> Op:
        U = self.U

        def call():
            # looked up at call time, so a traced run sees its wrappers
            return (U.sign_max_norm if signs else U.subset_max_norm)(fam, q)

        def check(res):
            _expect_certified(res)
            X = fam.matrix
            ref.check_subset_result(X, q, signs, res.value, res.argmax_subset, ref.max_power_sum(X, q, signs))

        return Op(name, call, check)

    def _quotient_op(self, name, X, p, q, r) -> Op:
        """The family serves as multipliers and summands (a_k = x_k), the form of the Sylvester witnesses."""
        U = self.U
        t = U.ExponentTriple.of(p, q, r)

        def check(res):
            _expect_certified(res.subset)
            sub_power = ref.max_power_sum(X.matrix, q, False)
            ref.check_close("quotient", res.quotient, ref.reference_quotient(X.matrix, X.matrix, p, q, r, sub_power))
            ref.check_subset_result(X.matrix, q, False, res.subset.value, res.subset.argmax_subset, sub_power)
            ref.check_close("quotient = numerator / denominator", res.quotient, res.numerator / res.denominator, 0.0)
            return res.quotient

        return Op(name, lambda: U.unconditionality_quotient(X, X, t), check)

    def round(self, k: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, k])
        F = self.U.Family

        def normal(n, d):
            return F(rng.standard_normal((n, d)))

        quotients = [self._quotient_op(f"quotient n16 d64 {t}", normal(16, 64), *t) for t in self.TRIPLES]
        return [
            self._max_op("subset n18 d20 q1", normal(18, 20), 1.0, False),
            quotients[0],
            self._max_op("subset n19 d8 q2", normal(19, 8), 2.0, False),
            self._max_op("subset n20 d8 q2", normal(20, 8), 2.0, False),
            quotients[1],
            self._max_op("sign n19 d8 q3", normal(19, 8), 3.0, True),
            self._max_op("subset int n18 d8 q2", F(rng.integers(-1, 2, size=(18, 8))), 2.0, False),
            quotients[2],
            self._max_op("sign n18 d18 q1", normal(18, 18), 1.0, True),
            self._max_op("subset wide n16 d256 q2", normal(16, 256), 2.0, False),
            quotients[3],
        ]

    def preflight(self):
        """Thread-count independence and the q = inf closed form, checked once, untimed."""
        U = self.U
        rng = np.random.default_rng([self.seed, 1 << 30])
        fam = U.Family(rng.standard_normal((18, 8)))
        for fn in (U.subset_max_norm, U.sign_max_norm):
            one, two = fn(fam, 2.0, threads=1), fn(fam, 2.0, threads=2)
            if one != two:
                raise CheckError(f"{fn.__name__}: threads=1 gives {one}, threads=2 gives {two}")
        res = U.subset_max_norm(fam, INF)
        want = ref.qinf_subset_max(fam.matrix)
        ref.check_close("q=inf subset max against its closed form", res.value, want)
        ref.check_close("q=inf norm of reported mask", ref.lp_norm(ref.masked_sum(fam.matrix, res.argmax_subset, False), INF), want)


class Search:
    """Many small seeded searches: quotient searches at n = 3-4, d = 4 on Unknown and
    Preserves triples, and sign-pattern searches at n = 10-12, d = 2-3."""

    QUOTIENT = [((3.0, 3.0, 3.0), 3), ((2.0, 2.0, 4.0), 4), ((4.0, 4.0, 4.0), 4), ((1.5, 2.0, INF), 3)]
    GROTHENDIECK = [(10, 3), (12, 2), (11, 3)]
    DIM, Q_BUDGET, G_BUDGET = 4, 8, 2
    #: Tiny numpy calls inside Python loops.
    CALIBRATION = ("numpy", "python")

    def __init__(self, U, seed: int):
        self.U, self.seed = U, seed

    def _quotient_op(self, triple, n, seed) -> Op:
        U = self.U
        t = U.ExponentTriple.of(*triple)

        def check(res):
            if not res.certified:
                raise CheckError("search quotient is not an exhaustive one")
            ref.check_search_quotient(res.quotient, res.numerator, res.denominator, n)
            return res.quotient

        return Op(f"qsearch {triple} n{n}", lambda: U.quotient_lower_bound_search(t, n, self.DIM, self.Q_BUDGET, seed), check)

    def _grothendieck_op(self, n, d, seed) -> Op:
        U = self.U

        def check(rep):
            if not rep.certified:
                raise CheckError("sign-pattern ratio is not certified")
            ref.check_ratio_report(rep.witness.matrix, rep.ratio)
            return rep.ratio

        return Op(f"gsearch n{n} d{d}", lambda: U.grothendieck_search(n, d, self.G_BUDGET, seed), check)

    def round(self, k: int) -> list[Op]:
        seeds = [int(s) for s in np.random.default_rng([self.seed, k]).integers(0, 2**31, size=7)]
        q, g = self.QUOTIENT, self.GROTHENDIECK
        return [
            self._quotient_op(*q[0], seeds[0]),
            self._grothendieck_op(*g[0], seeds[1]),
            self._quotient_op(*q[1], seeds[2]),
            self._grothendieck_op(*g[1], seeds[3]),
            self._quotient_op(*q[2], seeds[4]),
            self._grothendieck_op(*g[2], seeds[5]),
            self._quotient_op(*q[3], seeds[6]),
        ]

    def preflight(self):
        """A search's best value never falls as its budget grows on one seed."""
        U = self.U
        seed = int(np.random.default_rng([self.seed, 1 << 30]).integers(0, 2**31))
        t = U.ExponentTriple.of(3, 3, 3)
        ref.check_nondecreasing(
            "quotient_lower_bound_search",
            [U.quotient_lower_bound_search(t, 3, self.DIM, b, seed).quotient for b in (2, 4, 8, 16)],
        )
        ref.check_nondecreasing("grothendieck_search", [U.grothendieck_search(10, 3, b, seed).ratio for b in (1, 2, 4)])


#: The 0.125 lattice of region_grid on [1, 8]; the grid adds inf itself.
LATTICE = [1.0 + 0.125 * i for i in range(57)]
AXIS = LATTICE + [INF]


def run_cli(U, argv):
    """cli.main in-process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = U.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _json_line(payload) -> str:
    return json.dumps(payload, separators=(",", ":")) + "\n"


class Decide:
    """The classifier, witness and cli layers: region grids, cross-validation over
    every verdict and clause, Sylvester witnesses, divergent tails and a share of
    ops sent through ``cli.main``."""

    #: One triple per verdict and clause, the p = inf gate exception and a NotApplicable one.
    CROSS = [(3.0, 2.0, INF), (2.0, 2.0, 4.0), (2.0, 4.0, 3.0), (INF, 4.0, 2.0), (INF, 2.0, 2.0), (3.0, 3.0, 3.0), (4.0, 4.0, 1.0)]
    CROSS_BUDGET, CROSS_N = 4, 4
    #: Witnesses of 16 Sylvester rows (n = 4), small enough for the exhaustive quotient.
    HADAMARD_EXHAUSTIVE = [((INF, 2.0, 3.0), 2.0), ((INF, 1.0, 1.0), 3.0)]
    #: Witnesses materialised without the exhaustive quotient, with C drawn from a
    #: range that keeps n fixed, so each round costs the same.
    HADAMARD_MATERIALISED = [("n7", (INF, 1.0, 1.0), (8.5, 11.0)), ("n10", (INF, 2.0, 3.0), (8.5, 10.0))]
    #: (q, r) of the power tails, and the two level bands of H_N: about 1.0e5 and 9e5 terms.
    TAILS = [(2.0, 1.0), (INF, 1.5), (3.0, 2.0), (4.0, 1.0)]
    TAIL_LEVELS = {"1e5 terms": (12.1, 12.2), "9e5 terms": (14.2, 14.3)}
    N_EXH = 24
    #: Interpreter-bound: classify, the tail loop, argparse.
    CALIBRATION = ("python",)

    def __init__(self, U, seed: int):
        self.U, self.seed = U, seed
        self._grid_refs: dict = {}
        self._sylvester_refs: dict = {}
        self._cli_first: dict = {}
        self._cli_want: dict = {}
        rng = np.random.default_rng([seed, 1 << 31])
        p, q, r = (float(x) for x in rng.choice(AXIS, size=3))
        r_grid = _token(float(rng.choice(LATTICE)))
        self.cli_argvs = {
            "classify": ["classify", "--p", _token(p), "--q", _token(q), "--r", _token(r)],
            "grid": ["grid", "--r", r_grid, "--p-min", "1", "--p-max", "4", "--q-min", "1", "--q-max", "4", "--step", "0.5"],
            "witness-hadamard": ["witness-hadamard", "--p", "inf", "--q", "2", "--r", "3", "--C", "2"],
            # a fixed level, so this op's cost (1.5e5 terms) does not move with the seed
            "witness-tail": ["witness-tail", "--q", "2", "--r", "1", "--B", "12.5"],
            "classify invalid": ["classify", "--p", "4", "--q", "4", "--r", "1"],  # exit 3
        }

    # ---- references shared across rounds

    def _grid_ref(self, r: float):
        """(verdicts, clauses, margins) of the row-major lattice at r, kept compact across rounds."""
        if r not in self._grid_refs:
            table = [ref.decide(p, q, r) for p in AXIS for q in AXIS]
            self._grid_refs[r] = (
                [sys.intern(v) for v, _, _ in table],
                [sys.intern(c) for _, c, _ in table],
                np.array([float(m) for _, _, m in table]),
            )
        return self._grid_refs[r]

    def _sylvester_quotient(self, n, p, q, r):
        key = (n, p, q, r)
        if key not in self._sylvester_refs:
            self._sylvester_refs[key] = ref.hadamard_quotient(n, p, q, r)
        return self._sylvester_refs[key]

    # ---- checks

    def _check_classification(self, c):
        t = c.triple
        ref.check_classification(_exp(t.p), _exp(t.q), _exp(t.r), c.verdict.value, c.clause.value, c.margin)

    def _check_witness(self, triple, C, n, cert, exq, log2_num=None):
        p, q, r = triple
        ref.check_witness_size(p, q, r, C, n, cert)
        if log2_num is not None:
            ref.check_close("log2_numerator", log2_num, n * (1.0 + (0.0 if r == INF else 1.0 / r)))
        if ((1 << n) <= self.N_EXH) != (exq is not None):
            raise CheckError(f"n={n}: exhaustive quotient present={exq is not None}")
        if exq is not None:
            ref.check_exhaustive_quotient(exq, cert, self._sylvester_quotient(n, p, q, r))

    # ---- ops

    def _grid_op(self, r: float, threads: int, hi: float) -> Op:
        """region_grid over [1, hi]^2 on the 0.125 lattice, plus inf."""
        U = self.U
        m = int((hi - 1.0) / 0.125) + 1

        def check(rows):
            verdicts, clauses, margins = self._grid_ref(r)
            axis = AXIS[:m] + [INF]
            if len(rows) != len(axis) ** 2:
                raise CheckError(f"grid at r={r}: {len(rows)} points, expected {len(axis) ** 2}")
            for i, c in enumerate(rows):
                t = c.triple
                a, b = divmod(i, len(axis))
                if (_exp(t.p), _exp(t.q), _exp(t.r)) != (axis[a], axis[b], r):
                    raise CheckError(f"grid at r={r}: point {t} out of row-major lattice order")
                j = (a if a < m else len(AXIS) - 1) * len(AXIS) + (b if b < m else len(AXIS) - 1)
                if (c.verdict.value, c.clause.value) != (verdicts[j], clauses[j]) or not abs(c.margin - margins[j]) <= 1e-12:
                    raise CheckError(f"grid point {t}: got {c.verdict.value}/{c.clause.value}, table says {verdicts[j]}/{clauses[j]}")

        return Op(f"grid threads={threads}", lambda: U.region_grid(r, (1.0, hi), (1.0, hi), 0.125, threads=threads), check)

    def _cross_op(self, triple, seed) -> Op:
        U = self.U
        t = U.ExponentTriple.of(*triple)
        p, q, r = triple

        def call():
            try:
                return U.cross_validate(t, self.CROSS_BUDGET, seed, n=self.CROSS_N)
            except ValueError as exc:  # the documented rejection of a Hoelder-invalid triple
                return exc

        def check(cv):
            verdict = ref.decide(p, q, r)[0]
            if verdict == "NotApplicable" or isinstance(cv, ValueError):
                if not (verdict == "NotApplicable" and isinstance(cv, ValueError)):
                    raise CheckError(f"cross_validate {triple}: returned {cv!r} for a {verdict} triple")
                return None
            self._check_classification(cv.classification)
            kinds = [c.kind for c in cv.checks]
            if not all(c.ok for c in cv.checks):
                raise CheckError(f"cross_validate {triple}: a check reported ok=False")
            if verdict in ("Preserves", "Unknown"):
                if kinds != ["search"] or cv.best_quotient != cv.checks[0].detail["best_quotient"]:
                    raise CheckError(f"cross_validate {triple}: expected one search check, got {kinds}")
                if not cv.checks[0].detail["certified"]:
                    raise CheckError("cross_validate search quotient is not certified")
                if not 0.0 < cv.best_quotient <= self.CROSS_N * (1.0 + ref.REL_TOL):
                    raise CheckError(f"search quotient {cv.best_quotient!r} outside (0, {self.CROSS_N}]")
                return cv.best_quotient
            if cv.classification.clause.value == "T1.4-2-strict":
                if kinds != ["hadamard"] * 3 or [c.parameter for c in cv.checks] != [1.0, 10.0, 100.0]:
                    raise CheckError(f"cross_validate {triple}: unexpected witness checks {kinds}")
                for c in cv.checks:
                    d = c.detail
                    self._check_witness(triple, c.parameter, d["n"], d["certified_ratio_log2"], d.get("exhaustive_quotient"))
            else:
                if kinds != ["tail"] * 2:
                    raise CheckError(f"cross_validate {triple}: unexpected tail checks {kinds}")
                for c, level in zip(cv.checks, (2.0, 5.0)):
                    ref.check_close("tail level", c.parameter, level ** (1.0 / r))
                    d = c.detail
                    ref.check_tail(q, r, c.parameter, d["N"], d["partial_r_norm"], d["tail_q_bound"])
            return None

        return Op(f"cross_validate {triple}", call, check)

    def _hadamard_op(self, name, triple, C) -> Op:
        U = self.U
        t = U.ExponentTriple.of(*triple)

        def check(rep):
            self._check_witness(triple, C, rep.n, rep.certified_ratio_log2, rep.exhaustive_quotient, rep.log2_numerator)
            if rep.family_size != 1 << rep.n:
                raise CheckError(f"family_size {rep.family_size} for n={rep.n}")
            if rep.family is None or not np.array_equal(rep.family.matrix, ref.sylvester_entries(rep.n)):
                raise CheckError(f"witness family at n={rep.n} is not the Sylvester matrix")
            return rep.exhaustive_quotient

        return Op(f"hadamard_witness {name}", lambda: U.hadamard_witness(t, C), check)

    def _tail_op(self, name, q, r, level) -> Op:
        U = self.U
        B = level ** (1.0 / r)

        def check(tw):
            ref.check_tail(q, r, B, tw.N, tw.partial_r_norm, tw.tail_q_bound)

        return Op(f"tail_witness {name}", lambda: U.tail_witness(q, r, B), check)

    def _cli_expected(self, argv) -> tuple[int, str]:
        """Exit code and stdout of the library's rendering of the same request, checked once."""
        U = self.U
        cmd, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
        num = {k: (INF if v == "inf" else float(v)) for k, v in opts.items()}
        if cmd == "classify":
            triple = (num["--p"], num["--q"], num["--r"])
            if ref.decide(*triple)[0] == "NotApplicable":
                return 3, ""
            c = U.classify(U.ExponentTriple.of(*triple))
            self._check_classification(c)
            return 0, _json_line(c.to_json())
        if cmd == "grid":
            rows = U.region_grid(num["--r"], (1.0, 4.0), (1.0, 4.0), 0.5)
            for c in rows:
                self._check_classification(c)
            return 0, U.grid_to_csv(rows)
        if cmd == "witness-hadamard":
            triple = (num["--p"], num["--q"], num["--r"])
            rep = U.hadamard_witness(U.ExponentTriple.of(*triple), num["--C"])
            self._check_witness(triple, num["--C"], rep.n, rep.certified_ratio_log2, rep.exhaustive_quotient, rep.log2_numerator)
            return 0, _json_line(rep.to_json())
        tw = U.tail_witness(num["--q"], num["--r"], num["--B"])
        ref.check_tail(num["--q"], num["--r"], num["--B"], tw.N, tw.partial_r_norm, tw.tail_q_bound)
        q, r = U.Exponent.of(opts["--q"]), U.Exponent.of(opts["--r"])
        payload = {"q": q.to_json(), "r": r.to_json(), "B": num["--B"], "N": tw.N,
                   "partial_r_norm": tw.partial_r_norm, "tail_q_bound": tw.tail_q_bound}
        return 0, _json_line(payload)

    def _cli_op(self, name, argv) -> Op:
        key = tuple(argv)

        def check(out):
            code, stdout, stderr = out
            cmd = "uncond " + " ".join(argv)
            if out != self._cli_first.setdefault(key, out):
                raise CheckError(f"{cmd}: output differs between repeats")
            if key not in self._cli_want:
                self._cli_want[key] = self._cli_expected(argv)
            if (code, stdout) != self._cli_want[key]:
                raise CheckError(f"{cmd}: exit {code}, stdout differs from the library's rendering")
            if code and json.loads(stderr)["error"] != "domain-error":
                raise CheckError(f"{cmd}: stderr {stderr!r} is not a domain error")
            return json.loads(stdout).get("exhaustive_quotient") if argv[0] == "witness-hadamard" else None

        return Op(f"cli {name}", lambda: run_cli(self.U, argv), check)

    def round(self, k: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, k])
        # r values spread evenly over the axis from a seeded start, so every round
        # mixes cheap and dear r alike; the threads=2 grid covers [1, 4]^2
        start = int(rng.integers(len(AXIS)))
        grids = [self._grid_op(AXIS[(start + 12 * i) % len(AXIS)], 1, 8.0) for i in range(5)]
        grids.append(self._grid_op(AXIS[(start + 6) % len(AXIS)], 2, 4.0))
        seeds = [int(s) for s in rng.integers(0, 2**31, size=len(self.CROSS))]
        cross = [self._cross_op(t, s) for t, s in zip(self.CROSS, seeds)]
        mat = [self._hadamard_op(name, t, float(rng.uniform(*c))) for name, t, c in self.HADAMARD_MATERIALISED]
        tails = [self._tail_op(name, *self.TAILS[int(rng.integers(len(self.TAILS)))], float(rng.uniform(*h)))
                 for name, h in self.TAIL_LEVELS.items()]
        cli = [self._cli_op(name, argv) for name, argv in self.cli_argvs.items()]
        had = [self._hadamard_op("16 rows", *h) for h in self.HADAMARD_EXHAUSTIVE]
        return [
            grids[0], cross[0], had[0], cli[0], tails[0], grids[1],
            cross[1], cli[1], mat[0], grids[2], cross[2], cross[3],
            cli[2], grids[5], cross[4], tails[1], grids[3], had[1],
            cli[3], mat[1], cross[5], grids[4], cross[6], cli[4],
        ]

    def preflight(self):
        """region_grid gives the same records at threads=1 and threads=2, checked once, untimed."""
        U = self.U
        one = [c.to_json() for c in U.region_grid(2.0, (1.0, 8.0), (1.0, 8.0), 0.125, threads=1)]
        two = [c.to_json() for c in U.region_grid(2.0, (1.0, 8.0), (1.0, 8.0), 0.125, threads=2)]
        if one != two:
            raise CheckError("region_grid differs between threads=1 and threads=2")


WORKLOADS = {"exact": Exact, "search": Search, "decide": Decide}
