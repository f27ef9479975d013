"""Command-line front end.

Commands: ``analyze`` (democracy profile + operator-constant table +
conditionality growth), ``verify`` (named check suites), ``bootstrap``
(iterated improvement chain as CSV or JSON), ``zoo`` (list or emit stock bases).

A command rejects, with exit 2, every flag it does not read.  ``verify
SUITE`` has one flag per parameter of the suite's function in
:data:`qgreedy.verify.SUITES`; a flag left out keeps the suite's default.

``analyze`` runs its nine independent estimators (eight off an ``l_p``
ambient) as one task list through :func:`qgreedy.tasks.run_tasks`, on the
usable CPUs; its output does not depend on how many there are.

Reports go to standard output or ``--out``; diagnostics go to standard
error.  Exit codes: 0 success, 1 failed verification, 2 configuration error,
3 basis-invariant failure.  Identical configurations (including the seed)
produce byte-identical primary output files.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from functools import partial
from pathlib import Path
from typing import Iterable

import numpy as np

from .bases import ZOO_NAMES, load_basis, save_basis, unconditional_constant, zoo
from .bootstrap import bootstrap_chain
from .democracy import LARGEST_FIRST, profile_tasks
from .errors import BasisFileError, NotABasisError, QGreedyError
from .greedy import conditionality_growth_profile, quasi_greedy_constant, truncation_constant
from .reports import chain_csv, conditionality_csv, csv_text, json_text, profile_csv
from .spaces import Lp
from .tasks import run_tasks
from .verify import SUITE_MINIMA, SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_BASIS = 3


def int_at_least(low: int):
    """An argparse type: an integer of at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type of a value that does not parse
    return parse


# verify flag types by suite parameter; the flag is "--" + the name, "_" -> "-"
# (qgreedy.verify.SUITE_MINIMA raises the minimum of a flag for one suite)
VERIFY_FLAG_TYPES = {"p": float, "dim": int_at_least(1), "trials": int_at_least(1),
                     "max_m": int_at_least(1), "C": float, "budget": int, "seed": int}


def _add_output(parser: argparse.ArgumentParser, formats: tuple[str, ...] = ()) -> None:
    if formats:
        parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--out", type=Path, default=None, help="output directory or file")


def _add_basis_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--zoo", dest="zoo_name", choices=ZOO_NAMES, default=None)
    source.add_argument("--basis", type=Path, default=None, help="basis JSON file")
    parser.add_argument("--p", type=float, default=None, help="exponent of a --zoo basis "
                        "(default 0.5)")
    parser.add_argument("--dim", type=int, default=None, help="dimension of a --zoo basis "
                        "other than block_l2 (default 8)")
    parser.add_argument("--blocks", type=int, nargs="+", default=None,
                        help="block sizes of --zoo block_l2")
    parser.add_argument("--seed", type=int, default=0, help="64-bit seed")


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
    p_an.add_argument("--budget", type=int, default=10000, help="sample budget per estimator")
    _add_output(p_an, formats=("table", "csv", "json"))

    # one parser per suite, with one flag per suite parameter and no other
    p_ve = sub.add_parser("verify", help="run a named check suite")
    suites = p_ve.add_subparsers(dest="suite", required=True, metavar="suite")
    for name, suite in sorted(SUITES.items()):
        p_su = suites.add_parser(name, help=suite.__doc__.split("\n")[0])
        for param in inspect.signature(suite).parameters:
            low = SUITE_MINIMA.get((name, param))
            p_su.add_argument("--" + param.replace("_", "-"), dest=param, default=None,
                              type=VERIFY_FLAG_TYPES[param] if low is None else int_at_least(low))
        _add_output(p_su)

    p_bo = sub.add_parser("bootstrap", help="iterated improvement chain as CSV or JSON")
    p_bo.add_argument("--max-m", type=int_at_least(1), default=1000)
    p_bo.add_argument("--iters", type=int_at_least(0), default=3)
    _add_output(p_bo, formats=("csv", "json"))

    p_zo = sub.add_parser("zoo", help="list stock bases or emit one to JSON")
    zoo_sub = p_zo.add_subparsers(dest="zoo_command", required=True)
    zoo_sub.add_parser("list", help="list stock basis names")
    p_em = zoo_sub.add_parser("emit", help="write a stock basis as JSON")
    _add_basis_args(p_em)
    p_em.add_argument("--out", type=Path, required=True)
    return parser


def _resolve_basis(args: argparse.Namespace):
    if args.blocks is not None and args.zoo_name != "block_l2":
        raise BasisFileError("--blocks applies only to --zoo block_l2")
    if args.basis is not None:
        for flag, value in (("--p", args.p), ("--dim", args.dim)):
            if value is not None:
                raise BasisFileError(f"{flag} does not apply to --basis")
        return load_basis(args.basis)
    if args.zoo_name is None:
        raise BasisFileError("either --zoo or --basis is required")
    p = 0.5 if args.p is None else args.p
    if args.zoo_name == "block_l2":
        if args.dim is not None:
            raise BasisFileError("--dim does not apply to --zoo block_l2; --blocks sets its size")
        if args.blocks is None:
            raise BasisFileError("--blocks is required for the block_l2 basis")
        return zoo("block_l2", p=p, blocks=args.blocks)
    return zoo(args.zoo_name, p=p, dim=8 if args.dim is None else args.dim, seed=args.seed)


def _emit(files: dict[str, str | Iterable[str]], out: Path | None) -> None:
    """Write the first of ``files`` (name -> text, or its pieces in order) to
    standard output, or every one of them under the directory ``out``; each
    piece is written as it comes."""
    def pieces(text):
        return (text,) if isinstance(text, str) else text

    if out is None:
        for piece in pieces(next(iter(files.values()))):
            sys.stdout.write(piece)
        return
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        with open(out / name, "wb") as fh:
            for piece in pieces(text):
                fh.write(piece.encode("utf-8"))


def _bound_row(name: str, est) -> list:
    return [name, est.lower, est.upper, est.upper_certified, est.heuristic]


def _analysis_table(basis, profile, constants: dict, cond_rows) -> str:
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
    return "\n".join(lines) + "\n"


def cmd_analyze(args: argparse.Namespace) -> int:
    basis = _resolve_basis(args)
    budget, seed = args.budget, args.seed
    tasks, assemble = profile_tasks(basis, m_max=args.max_m, mode=args.mode, budget=budget,
                                    seed=seed)
    tasks["unconditional"] = partial(unconditional_constant, basis, mode="random", budget=budget,
                                     seed=seed)
    tasks["quasi_greedy"] = partial(quasi_greedy_constant, basis, budget=budget, seed=seed)
    tasks["truncation"] = partial(truncation_constant, basis, budget=budget, seed=seed)
    if isinstance(basis.space, Lp):
        tasks["conditionality"] = partial(conditionality_growth_profile, basis,
                                          max_m=args.max_m, budget=min(budget, 400), seed=seed)
    parts = run_tasks(tasks, LARGEST_FIRST)
    profile = assemble(parts)
    constants = {name: parts[name] for name in ("unconditional", "quasi_greedy", "truncation")}
    constants["succ"] = profile.succ
    constants["sign_change"] = profile.sign_change
    constants["super_democracy"] = profile.super_democracy
    cond_rows = parts.get("conditionality")

    # the primary file comes first: it alone goes to standard output without --out
    if args.format == "json":
        payload = {"profile": profile, "constants": constants,
                   "conditionality": cond_rows, "verdict": profile.verdict}
        files = {"analysis.json": json_text(payload)}
    else:
        const_header = ["constant", "lower", "upper", "upper_certified", "heuristic"]
        const_rows = [_bound_row(k, v) for k, v in sorted(constants.items())]
        files = {"democracy_profile.csv": profile_csv(profile),
                 "constants.csv": csv_text(const_header, const_rows)}
        if cond_rows is not None:
            files["conditionality.csv"] = conditionality_csv(cond_rows)
        if args.format == "table":
            files = {"analysis.txt": _analysis_table(basis, profile, constants, cond_rows),
                     **files}
    _emit(files, args.out)
    print(f"verdict: {profile.verdict}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    params = inspect.signature(SUITES[args.suite]).parameters
    kwargs = {name: getattr(args, name) for name in params if getattr(args, name) is not None}
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
    _emit({f"verify_{args.suite}.txt": "\n".join(lines) + "\n"}, args.out)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_bootstrap(args: argparse.Namespace) -> int:
    # JSON holds each stage as one list, so only the CSV streams
    if args.format == "json":
        _emit({"bootstrap.json": json_text(bootstrap_chain(args.max_m, args.iters))}, args.out)
    else:
        _emit({"bootstrap.csv": chain_csv(args.max_m, args.iters)}, args.out)
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
        # every overflow is reported in the output ("inf", and verdicts that say so),
        # so numpy's overflow warnings are silenced once here, not per gauge call
        with np.errstate(over="ignore"):
            return _COMMANDS[args.command](args)
    except NotABasisError as exc:
        print(f"basis invariant failure: {exc}", file=sys.stderr)
        return EXIT_BASIS
    except (BasisFileError, QGreedyError, ValueError, KeyError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
