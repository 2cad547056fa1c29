#!/usr/bin/env python3
"""Paired A/B timing of two trees of ``uncond`` in one process, with output hashes.

    python3 tools/ab.py --base REV [--workload NAME ...] [--rounds N] [--seed S]

The base tree is ``git archive REV`` extracted into a temporary directory,
and the head tree is the working tree.  Both ``src/uncond`` packages are
imported side by side, as ``uncond_base`` and ``uncond_head``, and each
workload is built once per side from the working tree's
``bench/workloads.py`` (plus the ``witness`` workload below), with the same
seed.  Round k runs the two sides' k-th rounds op by op, alternating which
side goes first, so a slow stretch of the host hits both alike.  A round's
outputs are kept until its timed loop ends, and only then hashed and checked
by the workload's own checks, so that work never runs between two timed ops.

It prints, per op class and per workload, the median of the paired ratios
base time / head time (above 1: the head is faster) with a bootstrap 95%
interval, and SHA-256 hashes per side over the outputs, floats as
``float.hex``, arrays by dtype, shape and bytes: one over every output of
the workload, and one per op class (``same`` or ``DIFFER`` on its line), so
a change meant for one class can show that the others keep their outputs.
Round 0 runs with every cache of the process cold, so its outputs are hashed
apart from those of the later, warm rounds.  The last stdout line is one
JSON object with all of it, the class hashes under each workload's
``classes``.  The exit status is 1 if a hash differs or a check fails, else 0.

The ``witness`` workload covers the witness layer's outputs: Hadamard
witnesses of n = 1..12 on strict-clause triples, power tails and harmonic
partial norms on both sides of the switch from table to closed form at
N = 256 and at TAIL_MAX_TERMS, direct ``tail_q_bound`` values at five term
counts and six exponents from 1 + 2^-40 to 1e300, ``cross_validate`` at
one triple per verdict and clause, the stdout of ``uncond
witness-hadamard``, ``uncond witness-tail`` and a small ``uncond lemmas``
(vectors of 1 to 12 entries), and the lemma layer's
``complex_subset_ratio`` on seeded normal entries (8, 24, 31 and 62 of
them, and 40 of which 20 are zero) and on the 62nd and 64th roots of
unity.  It also runs seeded
``grothendieck_search`` at shapes and budgets the ``search`` workload does
not: n5 d2 b6, n8 d2 b4, n9 d4 b2 and n14 d4 b2, and seeded
``quotient_lower_bound_search`` at (3, 3, 3): n1, n2, n6 and n8 at d4, n4
at d7 and d8 (budget 8), and n3 d4 at budget 64.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

# Single-threaded BLAS on both sides, as the benchmark sets before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from references import CheckError  # noqa: E402
from workloads import WORKLOADS, Op, run_cli  # noqa: E402

#: Bootstrap resamples behind each interval.
BOOTSTRAP = 2000


def _no_check(out):
    return None


class Witness:
    """Witness-layer outputs, each computed fresh per round from fixed and seeded inputs."""

    #: Strict-clause triples; C = 2^((n - 1/2) gap) makes n the minimal witness size.
    TRIPLES = [("inf", 2, 2), ("inf", 2, 3), ("inf", 1, 1), (3, 2, 2), (4, 3, 2), (6, 1.5, 1.2), (4, 4, 3), (8, 3, 2.5)]
    TAILS = [(2, 1), ("inf", 1.5), (3, 2), (4, 1)]
    #: Term counts of the harmonic partial norms: H_N switches from table to
    #: closed form between 255 and 256, and 10^7 is TAIL_MAX_TERMS.
    COUNTS = [0, 1, 255, 256, 257, 200_003, 866_991, 10_000_000]
    #: Term counts and exponents s = q/r (at r = 1) of the direct power tail
    #: bounds: s from just above 1 to where every term past the first underflows.
    TAIL_COUNTS = [0, 1, 4, 255, 10_000_000]
    TAIL_EXPONENTS = [1.0 + 2.0**-40, 4.0 / 3.0, 2.0, 16.0, 800.0, 1e300]
    CROSS = [(3, 2, "inf"), (2, 2, 4), (2, 4, 3), ("inf", 4, 2), ("inf", 2, 2), (3, 3, 3)]
    CLI = [
        ["witness-hadamard", "--p", "inf", "--q", "2", "--r", "3", "--C", "2"],
        ["witness-hadamard", "--p", "inf", "--q", "1", "--r", "1", "--C", "9", "--pretty"],
        ["witness-tail", "--q", "2", "--r", "1", "--B", "12.5"],
        ["witness-tail", "--q", "inf", "--r", "1.5", "--B", "40", "--pretty"],
        # draws of 1 to 12 entries and sandwich dims 2, 5 and 16: row norms on both sides of 8 entries
        ["lemmas", "--budget", "64", "--dim", "12", "--seed", "5"],
    ]
    #: (name, entries, zero entries) of the seeded complex_subset_ratio inputs.
    COMPLEX = [("n8", 8, 0), ("n24", 24, 0), ("n31", 31, 0), ("n40 half zero", 40, 20), ("n62", 62, 0)]
    #: (n, dim, budget) of the seeded grothendieck_search runs.
    GSEARCH = [(5, 2, 6), (8, 2, 4), (9, 4, 2), (14, 4, 2)]
    #: (n, dim, budget) of the seeded quotient_lower_bound_search runs at (3, 3, 3):
    #: sizes and widths the ``search`` workload does not run, d = 7 and 8 on
    #: both sides of the column-first norms, and a budget of several blocks' worth of climbs.
    QSEARCH = [(1, 4, 8), (2, 4, 8), (6, 4, 8), (8, 4, 8), (4, 7, 8), (4, 8, 8), (3, 4, 64)]

    def __init__(self, U, seed: int):
        self.U, self.seed = U, seed

    def round(self, k: int) -> list[Op]:
        U = self.U
        rng = np.random.default_rng([self.seed, k])
        ops = []
        for triple in self.TRIPLES:
            t = U.ExponentTriple.of(*triple)
            gap = U.witness.second_clause_gap(t)
            for n in range(1, 13):
                C = 2.0 ** ((n - 0.5) * gap)
                ops.append(Op(f"hadamard_witness n{n}", lambda t=t, C=C: U.hadamard_witness(t, C), _no_check))
        for q, r in self.TAILS:
            for level in (1.0, 5.0, *rng.uniform(1.0, 14.5, size=3)):
                B = float(level) ** (1.0 / U.Exponent.of(r).value)
                ops.append(Op("tail_witness", lambda q=q, r=r, B=B: U.tail_witness(q, r, B), _no_check))
        for N in (*self.COUNTS, int(rng.integers(1, 1_000_000))):
            ops.append(Op("divergent_tail_norm", lambda N=N: [U.divergent_tail_norm(r, N) for r in (1, 2, 3.5)], _no_check))
        for N in self.TAIL_COUNTS:
            ops.append(Op("tail_q_bound", lambda N=N: [U.tail_q_bound(s, 1, N) for s in self.TAIL_EXPONENTS], _no_check))
        for triple in self.CROSS:
            t, s = U.ExponentTriple.of(*triple), int(rng.integers(1 << 31))
            ops.append(Op("cross_validate", lambda t=t, s=s: U.cross_validate(t, 4, s, n=4), _no_check))
        for argv in self.CLI:
            ops.append(Op(f"cli {argv[0]}", lambda argv=argv: run_cli(U, argv), _no_check))
        for name, n, zeros in self.COMPLEX:
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            z[rng.choice(n, size=zeros, replace=False)] = 0.0
            ops.append(Op(f"complex_subset_ratio {name}", lambda z=z: U.complex_subset_ratio(z), _no_check))
        for m in (62, 64):
            z = np.exp(2j * np.pi * np.arange(m) / m)
            ops.append(Op(f"complex_subset_ratio roots{m}", lambda z=z: U.complex_subset_ratio(z), _no_check))
        for n, d, b in self.GSEARCH:
            s = int(rng.integers(1 << 31))
            ops.append(Op(f"gsearch n{n} d{d} b{b}", lambda n=n, d=d, b=b, s=s: U.grothendieck_search(n, d, b, s), _no_check))
        t = U.ExponentTriple.of(3, 3, 3)
        for n, d, b in self.QSEARCH:
            s = int(rng.integers(1 << 31))
            ops.append(Op(f"qsearch n{n} d{d} b{b}", lambda n=n, d=d, b=b, s=s: U.quotient_lower_bound_search(t, n, d, b, s), _no_check))
        return ops


def canon(x):
    """A value built of str, int and lists, equal for two outputs iff they are equal bit for bit."""
    if isinstance(x, (bool, np.bool_)) or x is None:
        return repr(bool(x) if x is not None else None)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, str):
        return x
    if isinstance(x, np.ndarray):
        return ["ndarray", str(x.dtype), list(x.shape), hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()]
    if isinstance(x, BaseException):
        return [type(x).__name__, str(x)]
    if isinstance(x, enum.Enum):
        return [type(x).__name__, canon(x.value)]
    if dataclasses.is_dataclass(x):
        return [type(x).__name__, *([f.name, canon(getattr(x, f.name))] for f in dataclasses.fields(x))]
    if isinstance(x, tuple) and hasattr(x, "_fields"):
        return [type(x).__name__, *([f, canon(getattr(x, f))] for f in x._fields)]
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return sorted(([canon(k), canon(v)] for k, v in x.items()), key=repr)
    raise TypeError(f"no canonical form for {type(x).__name__}")


def extract(rev: str, dest: Path) -> Path:
    """``git archive rev`` unpacked under dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest)
    return dest


def load(name: str, tree: Path):
    """The package ``tree/src/uncond`` imported as ``name``, with its ``cli`` module."""
    pkg = tree / "src" / "uncond"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def median_interval(ratios, rng) -> tuple[float, float, float]:
    """The median of ``ratios`` and a percentile-bootstrap 95% interval of it."""
    r = np.asarray(ratios)
    boot = np.median(r[rng.integers(0, r.size, size=(BOOTSTRAP, r.size))], axis=1)
    lo, hi = np.percentile(boot, [2.5, 97.5])
    return float(np.median(r)), float(lo), float(hi)


def _new_hashes():
    return {"cold": hashlib.sha256(), "warm": hashlib.sha256()}


def _hexdigests(hashes) -> dict:
    return {when: h.hexdigest() for when, h in hashes.items()}


def run_workload(name, classes, sides, seed, rounds):
    """Time both sides' rounds in alternation; per-op and per-round ratios, hashes and check failures."""
    built = [classes[name](U, seed) for U in sides]
    times = {}  # op class -> [[base times], [head times]]
    round_s = [[], []]
    hashes = [_new_hashes() for _ in sides]
    class_hashes = [{}, {}]  # op class -> its own cold and warm hashes, per side
    failures = []
    # the workloads' own objects stay out of the timed garbage collections, as in bench/run.py
    gc.collect()
    gc.freeze()
    for k in range(rounds):
        ops = [w.round(k) for w in built]
        if [o.name for o in ops[0]] != [o.name for o in ops[1]]:
            raise SystemExit(f"ab: {name} round {k}: the two sides built different ops")
        total = [0.0, 0.0]
        outs = [[], []]
        for i, pair in enumerate(zip(*ops)):
            for side in ((0, 1) if (k + i) % 2 == 0 else (1, 0)):
                op = pair[side]
                t0 = time.perf_counter()
                try:
                    out = op.call()
                except Exception as exc:  # an exception is an output too, hashed by type and text
                    out = exc
                dt = time.perf_counter() - t0
                total[side] += dt
                times.setdefault(op.name, [[], []])[side].append(dt)
                outs[side].append(out)
        # hashing a large output between timed ops would evict the caches of the next op
        for side in (0, 1):
            round_s[side].append(total[side])
            when = "cold" if k == 0 else "warm"
            for op, out in zip(ops[side], outs[side]):
                line = json.dumps([op.name, canon(out)]).encode()
                hashes[side][when].update(line)
                class_hashes[side].setdefault(op.name, _new_hashes())[when].update(line)
                if not isinstance(out, Exception):
                    try:
                        op.check(out)
                    except CheckError as exc:
                        failures.append(f"{('base', 'head')[side]} {op.name}: {exc}")
    rng = np.random.default_rng(0)
    per_op = {op: median_interval(np.divide(*t), rng) for op, t in times.items()}
    whole = median_interval(np.divide(*round_s), rng)
    digests = [_hexdigests(side) for side in hashes]
    per_class = {}
    for op in class_hashes[0]:
        base, head = (_hexdigests(side[op]) for side in class_hashes)
        per_class[op] = {"hash_base": base, "hash_head": head, "identical": base == head}
    return {
        "round_ratio": whole,
        "round_ms": [float(np.median(s)) * 1e3 for s in round_s],
        "ops": {op: {"ratio": r, "base_ms": float(np.median(times[op][0])) * 1e3, "head_ms": float(np.median(times[op][1])) * 1e3}
                for op, r in per_op.items()},
        "hash_base": digests[0],
        "hash_head": digests[1],
        "identical": digests[0] == digests[1],
        "classes": per_class,
        "check_failures": failures,
    }


def report(name, res) -> None:
    med, lo, hi = res["round_ratio"]
    print(f"{name}: whole round {res['round_ms'][0]:.2f} -> {res['round_ms'][1]:.2f} ms, "
          f"base/head {med:.3f} [{lo:.3f}, {hi:.3f}]")
    for op, r in res["ops"].items():
        m, a, b = r["ratio"]
        same = "same" if res["classes"][op]["identical"] else "DIFFER"
        print(f"  {op:<40} {r['base_ms']:9.3f} -> {r['head_ms']:9.3f} ms  base/head {m:.3f} [{a:.3f}, {b:.3f}]  {same}")
    for when in ("cold", "warm"):
        same = "same" if res["hash_base"][when] == res["hash_head"][when] else "DIFFER"
        print(f"  outputs {when}: base {res['hash_base'][when][:16]}  head {res['hash_head'][when][:16]}  {same}")
    for f in res["check_failures"]:
        print(f"  check failed: {f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="revision to compare against")
    ap.add_argument("--workload", action="append", help="workload to run, repeatable (default: all)")
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2: round 0 is the cold one")

    classes = {**WORKLOADS, "witness": Witness}
    chosen = args.workload or list(classes)
    unknown = sorted(set(chosen) - set(classes))
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; choose from {sorted(classes)}")
    with tempfile.TemporaryDirectory(prefix="uncond-ab-") as tmp:
        base_tree = extract(args.base, Path(tmp) / "base")
        sides = (load("uncond_base", base_tree), load("uncond_head", ROOT))
        results = {}
        for name in chosen:
            results[name] = run_workload(name, classes, sides, args.seed, args.rounds)
            report(name, results[name])
    print(json.dumps({"base": args.base, "head": "working tree", "rounds": args.rounds,
                      "seed": args.seed, "workloads": results}))
    bad = any(not r["identical"] or r["check_failures"] for r in results.values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
