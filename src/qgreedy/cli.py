"""Command-line front end.

Commands: ``analyze`` (democracy profile + operator-constant table +
conditionality growth), ``verify`` (named check suites), ``bootstrap``
(iterated improvement chain as CSV), ``zoo`` (list or emit stock bases).

Reports go to standard output or ``--out``; diagnostics go to standard
error.  Exit codes: 0 success, 1 failed verification, 2 configuration error,
3 basis-invariant failure.  Identical configurations (including the seed)
produce byte-identical primary output files; ``--threads`` is accepted and
has no effect.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bases import ZOO_NAMES, load_basis, save_basis, unconditional_constant, zoo
from .bootstrap import bootstrap_chain
from .democracy import democracy_profile
from .errors import BasisFileError, NotABasisError, QGreedyError
from .greedy import conditionality_growth_profile, quasi_greedy_constant, truncation_constant
from .reports import chain_csv, conditionality_csv, csv_text, json_text, profile_csv
from .spaces import Lp
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_BASIS = 3


def _add_common(parser: argparse.ArgumentParser, budget: int | None = 10000) -> None:
    parser.add_argument("--seed", type=int, default=0, help="64-bit search seed")
    parser.add_argument("--budget", type=int, default=budget, help="sample budget per estimator")
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="accepted for compatibility; has no effect (every kernel "
                        "runs in one thread)")
    parser.add_argument("--format", choices=("table", "csv", "json"), default="table")
    parser.add_argument("--out", type=Path, default=None, help="output directory or file")


def _add_basis_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--zoo", dest="zoo_name", choices=ZOO_NAMES, default=None)
    parser.add_argument("--basis", type=Path, default=None, help="basis JSON file")
    parser.add_argument("--p", type=float, default=0.5)
    parser.add_argument("--dim", type=int, default=8)
    parser.add_argument("--blocks", type=int, nargs="+", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgreedy",
        description="Greedy-approximation diagnostics on finite-dimensional "
                    "quasi-normed sequence spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="democracy profile and operator constants")
    _add_basis_args(p_an)
    p_an.add_argument("--max-m", type=int, default=None)
    p_an.add_argument("--mode", choices=("exact", "random"), default="random")
    _add_common(p_an)

    p_ve = sub.add_parser("verify", help="run a named check suite")
    p_ve.add_argument("suite", choices=sorted(SUITES))
    p_ve.add_argument("--p", type=float, default=None)
    p_ve.add_argument("--dim", type=int, default=None)
    p_ve.add_argument("--trials", type=int, default=None)
    p_ve.add_argument("--max-m", type=int, default=None)
    p_ve.add_argument("--iters", type=int, default=None)
    p_ve.add_argument("--C", dest="big_c", type=float, default=None)
    _add_common(p_ve, budget=None)  # each suite has its own default budget

    p_bo = sub.add_parser("bootstrap", help="iterated improvement chain as CSV")
    p_bo.add_argument("--max-m", type=int, default=1000)
    p_bo.add_argument("--iters", type=int, default=3)
    _add_common(p_bo)

    p_zo = sub.add_parser("zoo", help="list stock bases or emit one to JSON")
    zoo_sub = p_zo.add_subparsers(dest="zoo_command", required=True)
    zoo_sub.add_parser("list", help="list stock basis names")
    p_em = zoo_sub.add_parser("emit", help="write a stock basis as JSON")
    _add_basis_args(p_em)
    p_em.add_argument("--seed", type=int, default=0)
    p_em.add_argument("--out", type=Path, required=True)
    return parser


def _resolve_basis(args: argparse.Namespace):
    if args.basis is not None:
        return load_basis(args.basis)
    if args.zoo_name is None:
        raise BasisFileError("either --zoo or --basis is required")
    kwargs = {"p": args.p, "dim": args.dim, "seed": getattr(args, "seed", 0)}
    if args.blocks is not None:
        kwargs["blocks"] = args.blocks
    if args.zoo_name == "block_l2":
        if args.blocks is None:
            raise BasisFileError("--blocks is required for the block_l2 basis")
        kwargs.pop("dim")
    return zoo(args.zoo_name, **kwargs)


def _constants_table(basis, budget: int, seed: int) -> dict:
    return {
        "unconditional": unconditional_constant(basis, mode="random", budget=budget, seed=seed),
        "quasi_greedy": quasi_greedy_constant(basis, budget=budget, seed=seed),
        "truncation": truncation_constant(basis, budget=budget, seed=seed),
    }


def _emit(text: str, out: Path | None, filename: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.mkdir(parents=True, exist_ok=True)
        (out / filename).write_bytes(text.encode("utf-8"))


def _bound_row(name: str, est) -> list:
    return [name, est.lower, est.upper, est.upper_certified, est.heuristic]


def cmd_analyze(args: argparse.Namespace) -> int:
    basis = _resolve_basis(args)
    budget = args.budget
    profile = democracy_profile(basis, m_max=args.max_m, mode=args.mode,
                                budget=budget, seed=args.seed)
    constants = _constants_table(basis, budget, args.seed)
    constants["succ"] = profile.succ
    constants["sign_change"] = profile.sign_change
    constants["super_democracy"] = profile.super_democracy

    cond_rows = None
    if isinstance(basis.space, Lp):
        cond_rows = conditionality_growth_profile(
            basis, max_m=args.max_m, budget=min(budget, 400), seed=args.seed)

    const_header = ["constant", "lower", "upper", "upper_certified", "heuristic"]
    const_rows = [_bound_row(k, v) for k, v in sorted(constants.items())]

    if args.format == "table":
        lines = [f"basis: d={basis.d}, ambient={basis.space!r}", f"verdict: {profile.verdict}"]
        if profile.almost_greedy:
            lines.append("flags: almost greedy (quasi-greedy ceiling certified + democratic)")
        lines.append("")
        lines.append("democracy profile (m, phi_u, phi_l):")
        for row in profile.rows:
            lines.append(f"  m={row.m:3d}  phi_u={row.phi_u_value:.6g}  "
                         f"phi_l={row.phi_l_value:.6g}")
        lines.append(f"slopes: phi_u ~ m^{profile.slope_u:.3f}, phi_l ~ m^{profile.slope_l:.3f}")
        lines.append("")
        lines.append("constants (lower / upper, * = certified upper):")
        for name, est in sorted(constants.items()):
            star = "*" if est.upper_certified else ""
            lines.append(f"  {name:16s} {est.lower:.6g} / {est.upper:.6g}{star}")
        if cond_rows is not None:
            lines.append("")
            lines.append("conditionality growth (m, lower, upper, lower/(1+log m)^(1/p)):")
            for row in cond_rows:
                lines.append(f"  m={row.m:3d}  {row.lower:.6g}  {row.upper:.6g}  "
                             f"{row.log_normalized:.6g}")
        _emit("\n".join(lines) + "\n", args.out, "analysis.txt")
        if args.out is not None:
            (args.out / "democracy_profile.csv").write_bytes(profile_csv(profile).encode())
            (args.out / "constants.csv").write_bytes(
                csv_text(const_header, const_rows).encode())
            if cond_rows is not None:
                (args.out / "conditionality.csv").write_bytes(
                    conditionality_csv(cond_rows).encode())
    elif args.format == "csv":
        _emit(profile_csv(profile), args.out, "democracy_profile.csv")
        if args.out is not None:
            (args.out / "constants.csv").write_bytes(csv_text(const_header, const_rows).encode())
            if cond_rows is not None:
                (args.out / "conditionality.csv").write_bytes(
                    conditionality_csv(cond_rows).encode())
    else:
        payload = {"profile": profile, "constants": constants,
                   "conditionality": cond_rows, "verdict": profile.verdict}
        _emit(json_text(payload), args.out, "analysis.json")
    print(f"verdict: {profile.verdict}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    kwargs = {"seed": args.seed}
    if args.budget is not None:
        kwargs["budget"] = args.budget
    if args.p is not None:
        kwargs["p"] = args.p
    if args.dim is not None:
        kwargs["dim"] = args.dim
    if args.trials is not None:
        kwargs["trials"] = args.trials
    if args.max_m is not None:
        kwargs["max_m" if args.suite == "bootstrap" else "m_max"] = args.max_m
    if args.iters is not None:
        kwargs["iters"] = args.iters
    if args.big_c is not None:
        kwargs["C"] = args.big_c
    results = run_suite(args.suite, **kwargs)
    all_ok = True
    lines = []
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        lines.append(f"[{tag}] {res.name}: {res.detail}")
        if not res.passed:
            all_ok = False
            if res.witness is not None:
                print(f"witness: {res.witness}", file=sys.stderr)
    _emit("\n".join(lines) + "\n", args.out, f"verify_{args.suite}.txt")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_bootstrap(args: argparse.Namespace) -> int:
    chain = bootstrap_chain(args.max_m, args.iters)
    if args.format == "json":
        _emit(json_text(chain), args.out, "bootstrap.json")
    else:
        _emit(chain_csv(chain), args.out, "bootstrap.csv")
    return EXIT_OK


def cmd_zoo(args: argparse.Namespace) -> int:
    if args.zoo_command == "list":
        sys.stdout.write("\n".join(ZOO_NAMES) + "\n")
        return EXIT_OK
    basis = _resolve_basis(args)
    save_basis(basis, args.out)
    print(f"wrote basis (d={basis.d}) to {args.out}", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "bootstrap": cmd_bootstrap,
    "zoo": cmd_zoo,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the config-error contract
        return int(exc.code) if exc.code is not None else EXIT_CONFIG
    try:
        if getattr(args, "budget", None) is not None and args.budget < 0:
            raise ValueError(f"--budget must be >= 0, got {args.budget}")
        return _COMMANDS[args.command](args)
    except NotABasisError as exc:
        print(f"basis invariant failure: {exc}", file=sys.stderr)
        return EXIT_BASIS
    except (BasisFileError, QGreedyError, ValueError, KeyError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
