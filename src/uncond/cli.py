"""Command-line front end.

Machine-first output: JSON objects (or CSV for ``grid``) on stdout, one
error object ``{"error": ..., "detail": ...}`` on stderr.  Exit codes:
0 success, 2 usage error, 3 domain error, 4 internal inconsistency.
Seeded commands require an explicit ``--seed`` so every invocation is
reproducible; identical argv implies byte-identical stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .classifier import Verdict, classify, grid_to_csv, region_grid
from .errors import InternalInconsistencyError
from .lemma_lab import (
    complex_subset_ratio,
    grothendieck_search,
    real_subset_ratio,
    sandwich_sweep,
)
from .seqspace import Exponent, ExponentTriple
from .unconditionality import (
    Family,
    _checked_seed,
    check_threads,
    quotient_lower_bound_search,
    unconditionality_quotient,
)
from .witness import hadamard_witness, tail_witness

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4

#: Largest ``lemmas --dim``: each real draw is one vector of up to this many entries.
LEMMAS_MAX_DIM = 1 << 20
#: Largest ``lemmas --budget``: each unit is one Python-level real draw, and
#: every tenth a complex trial of up to 14 entries enumerated exhaustively, so
#: the cap keeps a run near a second (``--budget 65536 --dim 16``: 1.3 s).
LEMMAS_MAX_BUDGET = 1 << 16
#: Largest ``lemmas --budget`` times ``--dim``: the real draws, one vector of up
#: to --dim entries per trial, cost about 30 ns per entry of the product, so
#: at the cap they take about half a second.
LEMMAS_MAX_ENTRIES = 1 << 24


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # option string -> whether it takes a value; filled before the base class adds -h
        self.options: dict[str, bool] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.options.update(dict.fromkeys(action.option_strings, action.nargs != 0))
        return action

    def error(self, message):
        raise _UsageError(message)


def _joined(argv, options: dict[str, bool]) -> list[str]:
    """argv with each value-taking option and the token after it joined as ``--opt=value``.

    argparse reads a token that starts with '-' and is not a plain negative
    number as an option, so ``--r -inf`` and ``--C -1e-5`` would be usage
    errors while ``--r=-inf`` and ``--C=-1e-5`` parse.  Joined, both
    spellings parse alike.  An option is matched exactly or, as argparse
    does, by a prefix that only value-taking options of the tree start with.
    """
    def takes_value(token):
        if token in options:
            return options[token]
        matches = [v for o, v in options.items() if o.startswith(token)]
        return token.startswith("--") and bool(matches) and all(matches)

    out, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if takes_value(token) else None
        out.append(token if value is None else f"{token}={value}")
    return out


def _exponent(token: str) -> Exponent:
    try:
        return Exponent.of(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _emit_error(kind: str, detail: str):
    sys.stderr.write(json.dumps({"error": kind, "detail": detail}) + "\n")


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree of every command, built once per process.

    ``parse_args`` leaves the parser as it found it, so one tree serves every
    ``main`` call; building it costs several times more than parsing.
    """
    parser = _Parser(prog="uncond", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--pretty", action="store_true", help="human-readable summary")
        p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
        p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; work runs serially")

    def add_triple(p):
        p.add_argument("--p", type=_exponent, required=True, help="exponent p (decimal or 'inf')")
        p.add_argument("--q", type=_exponent, required=True, help="exponent q (decimal or 'inf')")
        p.add_argument("--r", type=_exponent, required=True, help="exponent r (decimal or 'inf')")

    p = sub.add_parser("classify", help="decision table verdict for one triple")
    add_triple(p)
    add_common(p)

    p = sub.add_parser("grid", help="classify a (p, q) lattice at fixed r; CSV output")
    p.add_argument("--r", type=_exponent, required=True)
    p.add_argument("--p-min", type=float, default=1.0)
    p.add_argument("--p-max", type=float, default=4.0)
    p.add_argument("--q-min", type=float, default=1.0)
    p.add_argument("--q-max", type=float, default=4.0)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--no-infinity", action="store_true", help="omit the inf sample points")
    add_common(p)

    p = sub.add_parser("witness-hadamard", help="orthogonal +-1 family defeating a constant C")
    add_triple(p)
    p.add_argument("--C", type=float, required=True, help="constant to defeat")
    add_common(p)

    p = sub.add_parser("witness-tail", help="divergent power-tail witness for r < q")
    p.add_argument("--q", type=_exponent, required=True)
    p.add_argument("--r", type=_exponent, required=True)
    p.add_argument("--B", type=float, required=True, help="partial-norm level to cross")
    add_common(p)

    p = sub.add_parser("quotient", help="unconditionality quotient of families from JSON files")
    add_triple(p)
    p.add_argument("--avec", required=True, metavar="FILE", help="JSON array of rows ('-' for stdin)")
    p.add_argument("--xvec", metavar="FILE", help="JSON array of rows; defaults to --avec")
    add_common(p)

    p = sub.add_parser("search", help="seeded random search for large quotients")
    add_triple(p)
    p.add_argument("--n", type=int, required=True, help="family size")
    p.add_argument("--dim", type=int, required=True, help="ambient length")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    add_common(p)

    p = sub.add_parser("lemmas", help="battery over the subset-sum and sandwich inequalities")
    p.add_argument("--budget", type=int, default=1000, help="random trials per check")
    p.add_argument("--dim", type=int, default=12, help="max sequence length for random draws")
    p.add_argument("--seed", type=int, required=True)
    add_common(p)

    p = sub.add_parser("grothendieck", help="seeded lower-bound search for the sign-pattern constant")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    add_common(p)

    # every command's option strings, for ``_joined``
    for command in sub.choices.values():
        parser.options.update(command.options)
    return parser


def _read_family(path: str) -> Family:
    try:
        if path == "-":
            return Family.of(json.load(sys.stdin))
        with open(path, "r", encoding="utf-8") as fh:
            return Family.of(json.load(fh))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _triple(args) -> ExponentTriple:
    return ExponentTriple(args.p, args.q, args.r)


def _run_classify(args):
    cls = classify(_triple(args))
    if cls.verdict is Verdict.NOT_APPLICABLE:
        cls.triple.require_holder_valid()  # raises: NotApplicable triples are never holder_valid
    payload = cls.to_json()
    pretty = (
        f"l_{args.p} x l_{args.q} -> l_{args.r}: {cls.verdict.value} "
        f"via {cls.clause.value} (margin {cls.margin:.6g})"
    )
    return payload, pretty


def _run_grid(args):
    rows = region_grid(
        args.r,
        (args.p_min, args.p_max),
        (args.q_min, args.q_max),
        args.step,
        include_infinite=not args.no_infinity,
    )
    text = grid_to_csv(rows)
    return text, text  # CSV is both the payload and the pretty form


def _run_witness_hadamard(args):
    rep = hadamard_witness(_triple(args), args.C)
    payload = rep.to_json()
    pretty = (
        f"n={rep.n}: family of {rep.family_size} orthogonal +-1 rows; "
        f"certified ratio 2^{rep.certified_ratio_log2:.6g} "
        f"= {2.0 ** rep.certified_ratio_log2:.6g} > C = {rep.C:g}"
    )
    if rep.exhaustive_quotient is not None:
        pretty += f"; exhaustive quotient {rep.exhaustive_quotient:.12g}"
    return payload, pretty


def _run_witness_tail(args):
    tw = tail_witness(args.q, args.r, args.B)
    payload = {"q": args.q.to_json(), "r": args.r.to_json(), "B": args.B, **tw._asdict()}
    pretty = (
        f"N={tw.N}: partial l_{args.r} norm {tw.partial_r_norm:.6g} >= {args.B:g}, "
        f"l_{args.q} tail bound {tw.tail_q_bound:.6g}"
    )
    return payload, pretty


def _run_quotient(args):
    avec = _read_family(args.avec)
    # the same path names the same family: stdin, in particular, is read once
    xvec = avec if args.xvec in (None, args.avec) else _read_family(args.xvec)
    res = unconditionality_quotient(avec, xvec, _triple(args))
    pretty = f"quotient {res.quotient:.12g} = {res.numerator:.12g} / {res.denominator:.12g} (certified)"
    return res.to_json(), pretty


def _run_search(args):
    res = quotient_lower_bound_search(_triple(args), args.n, args.dim, args.budget, args.seed)
    pretty = f"best quotient {res.quotient:.12g} over {args.budget} seeded restarts"
    return res.to_json(), pretty


def _run_lemmas(args):
    for name, value, cap in (
        ("--budget", args.budget, LEMMAS_MAX_BUDGET),
        ("--dim", args.dim, LEMMAS_MAX_DIM),
    ):
        if value < 1:
            raise ValueError(f"{name} {value} must be at least 1")
        if value > cap:
            raise ValueError(f"{name} {value} exceeds the cap of {cap}")
    if args.budget * args.dim > LEMMAS_MAX_ENTRIES:
        raise ValueError(
            f"--budget {args.budget} times --dim {args.dim} exceeds the cap of "
            f"{LEMMAS_MAX_ENTRIES} entries; lower one of them"
        )
    rng = np.random.default_rng(_checked_seed(args.seed))

    worst_real = 0.0
    for _ in range(args.budget):
        size = int(rng.integers(1, args.dim + 1))
        v = rng.standard_normal(size)
        if not np.count_nonzero(v):
            continue
        worst_real = max(worst_real, real_subset_ratio(v).ratio)

    worst_complex = 0.0
    c_trials = max(1, args.budget // 10)
    for _ in range(c_trials):
        size = int(rng.integers(1, min(14, args.dim) + 1))
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        worst_complex = max(worst_complex, complex_subset_ratio(z).ratio)

    roots = np.exp(2j * math.pi * np.arange(64) / 64.0)
    roots_report = complex_subset_ratio(roots)

    pair_witness = real_subset_ratio([1.0, -1.0])
    sweep = sandwich_sweep(
        (2, 5, 16), ((1, 2), (1.5, 3), (2, 4)), max(1, args.budget // 3), args.seed
    )
    payload = {
        "real_pair_witness": pair_witness.to_json(),
        "real_random_max_ratio": worst_real,
        "real_trials": args.budget,
        "complex_random_max_ratio": worst_complex,
        "complex_trials": c_trials,
        "roots64_ratio": roots_report.ratio,
        "sandwich": sweep.to_json(),
    }
    pretty = (
        f"real: witness ratio {pair_witness.ratio:g}, random max {worst_real:.6g} (bound 2); "
        f"complex: random max {worst_complex:.6g} (bound 4), 64th-roots {roots_report.ratio:.6g}; "
        f"sandwich violations {sweep.violations}"
    )
    return payload, pretty


def _run_grothendieck(args):
    rep = grothendieck_search(args.n, args.dim, args.budget, args.seed)
    pretty = (
        f"best sign-pattern ratio {rep.ratio:.12g} "
        f"(upper envelope {rep.bound:g}, slack {rep.slack:.6g})"
    )
    return rep.to_json(), pretty


_HANDLERS = {
    "classify": _run_classify,
    "grid": _run_grid,
    "witness-hadamard": _run_witness_hadamard,
    "witness-tail": _run_witness_tail,
    "quotient": _run_quotient,
    "search": _run_search,
    "lemmas": _run_lemmas,
    "grothendieck": _run_grothendieck,
}


def _render(payload, pretty_text: str, pretty: bool) -> str:
    if isinstance(payload, str):
        return payload
    if pretty:
        return pretty_text + "\n"
    return json.dumps(payload, separators=(",", ":")) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_joined(sys.argv[1:] if argv is None else argv, parser.options))
        check_threads(args.threads)
        payload, pretty_text = _HANDLERS[args.command](args)
        text = _render(payload, pretty_text, args.pretty)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            return EXIT_OK
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return EXIT_USAGE
    except InternalInconsistencyError as exc:
        _emit_error("internal-inconsistency", str(exc))
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        _emit_error("domain-error", str(exc))
        return EXIT_DOMAIN
    sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
