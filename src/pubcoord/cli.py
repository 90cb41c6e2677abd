"""Command-line harness: generate, convert, solve, oracle, verify.

Exit codes: 0 success (for ``verify``: discrepancy <= 1e-9), 1 verification
discrepancy, 3 a file that cannot be read or written; any other failure is a
library error, whose kind gives the code (:func:`exit_code`): 2 invalid
parameters or flag combinations, 5 game too large (the oracle's guard, or
out of memory), 6 origin mismatch between a game and a converted file, 4 any
other (validation failure, wrong game kind).  The library checks parameters,
so a bad one surfaces after the input files are read.

All diagnostics go to standard error; summaries go to standard output
(machine-readable with ``--json``); bulk data goes to files.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import io_json
from .census import census
from .convert import (
    _prepare,
    apply_safe_imperfect_recall,
    check_payoff_equivalence,
    convert_basic,
    convert_folded,
    convert_pruned,
    game_digest,
)
from .errors import (
    ExclusionDataMissing,
    GameError,
    GameTooLarge,
    InvalidParameter,
    NotPublicTurnTaking,
    OriginMismatch,
    SchemaError,
)
from .games import PokerSpec, ToySpec, gen_kuhn3, gen_leduc3, gen_toy
from .model import _pad_turns, gc_paused
from .solvers import (
    DEFAULT_MATRIX_LIMIT,
    count_reduced_plans,
    exploitability,
    expected_value,
    solve_cfr,
    tmecor_bruteforce,
)

EXIT_OK = 0
EXIT_DISCREPANCY = 1


class _CliError(Exception):
    """A file that cannot be read or written."""


# exit code per error kind; the first base class that matches wins
_EXIT_CODES = ((InvalidParameter, 2), (GameTooLarge, 5), (MemoryError, 5),
               (OriginMismatch, 6), (GameError, 4), (_CliError, 3))


def exit_code(kind: type) -> int:
    """The exit code of an error of class ``kind``."""
    return next(code for base, code in _EXIT_CODES if issubclass(kind, base))


def _emit(summary: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print("  ".join(f"{k}={v}" for k, v in summary.items()))


def _load(path: str, converted: bool):
    """Parse ``path`` once and build the game it holds; ``converted`` says
    which kind the command needs, told apart by the ``origin`` section."""
    with gc_paused():  # every object parsed and built is kept
        try:
            with open(path) as f:
                d = json.load(f)
        except (OSError, ValueError) as exc:
            raise _CliError(f"cannot read {path}: {exc}")
        if (isinstance(d, dict) and "origin" in d) != converted:
            held, needed = (("an original", "a converted") if converted
                            else ("a converted", "an original"))
            raise SchemaError(f"{path} holds {held} game; {needed} game is "
                              "required")
        try:
            return (io_json.converted_from_dict(d) if converted
                    else io_json.game_from_dict(d))
        except GameError as exc:  # keeps its kind; the message names the file
            exc.args = (f"{path}: {exc}",)
            raise


def _write(path: str, writer) -> None:
    try:
        writer(path)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.kind == "toy":
        game = gen_toy(ToySpec(args.chance, args.actions, args.depth,
                               both_private=args.both_private,
                               payoff_seed=args.payoff_seed))
    elif args.kind == "kuhn":
        game = gen_kuhn3(PokerSpec("kuhn", args.ranks,
                                   adversary_position=args.adv_pos))
    else:
        game = gen_leduc3(PokerSpec("leduc", args.ranks, args.raises,
                                    adversary_position=args.adv_pos))
    _write(args.out, lambda p: io_json.save_game(game, p))
    summary = {"name": game.name, "nodes": len(game.nodes),
               "players": len(game.players)}
    if args.kind == "toy":
        summary["p1_plans"] = count_reduced_plans(game, game.players[0])
    _emit(summary, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------

_CONVERTERS = {"basic": convert_basic, "pruned": convert_pruned,
               "folded": convert_folded}


def _turn_taking(game):
    """``game``, made public turn-taking with a warning if the converters'
    check rejects it as not so; other rejections are the command's to raise."""
    try:
        _prepare(game)
    except NotPublicTurnTaking:
        print(f"warning: {game.name} is not public-turn-taking; "
              "applying the turn-taking transform", file=sys.stderr)
        return _pad_turns(game)  # no second check: the refined game failed
    except GameError:
        pass
    return game


def cmd_convert(args) -> int:
    if args.safe_ir and args.mode == "basic":  # before any conversion
        raise ExclusionDataMissing("--safe-ir needs exclusion data; it "
                                   "cannot be combined with --mode basic")
    game = _turn_taking(_load(args.input, converted=False))
    cg = _CONVERTERS[args.mode](game)
    if args.safe_ir:
        cg = apply_safe_imperfect_recall(cg)
    _write(args.out, lambda p: io_json.save_converted(cg, p))
    summary = {"mode": args.mode, "safe_ir": args.safe_ir}
    summary.update(asdict(census(cg, compact=args.compact)))
    _emit(summary, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _strategy_json(profile) -> dict:
    out: dict = {}
    for side, table in profile.items():
        rendered = {}
        for key, dist in table.items():
            kstr = json.dumps(io_json._key_to_json(key))
            rendered[kstr] = {a: p for a, p in sorted(dist.items())}
        out[side] = rendered
    return out


def cmd_solve(args) -> int:
    cg = _load(args.input, converted=True)
    profile, log = solve_cfr(cg, algo=args.algo, iterations=args.iterations,
                             log_every=args.log_every)
    # the log's last row evaluates the returned profile
    _, value, expl = log.rows[-1] if log.rows else (
        None, expected_value(cg, profile), exploitability(cg, profile))
    if args.csv:
        _write(args.csv, lambda p: Path(p).write_text(log.to_csv()))
    if args.strategy:
        payload = json.dumps(_strategy_json(profile), sort_keys=True)
        _write(args.strategy, lambda p: Path(p).write_text(payload))
    _emit({"algo": args.algo, "iterations": args.iterations,
           "team_value": f"{value:.12g}", "exploitability": f"{expl:.12g}"},
          args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(args) -> int:
    game = _load(args.input, converted=False)
    res = tmecor_bruteforce(game, tol=args.tol, max_entries=args.max_entries)
    _emit({"tmecor_value": f"{res.value:.12g}",
           "team_support": len(res.team_support),
           "opponent_support": len(res.opponent_support)}, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    game = _load(args.input, converted=False)
    cg = _load(args.converted, converted=True)
    if cg.source_digest != game_digest(game):  # converted after a transform?
        game = _turn_taking(game)
    if cg.source_digest != game_digest(game):
        raise OriginMismatch(f"{args.converted} does not derive from "
                             f"{args.input}: source digest mismatch")
    if args.samples == 0:
        print("warning: 0 samples verify nothing", file=sys.stderr)
        _emit({"samples": 0, "max_abs_diff": 0.0}, args.json)
        return EXIT_OK
    report = check_payoff_equivalence(game, cg, samples=args.samples,
                                      seed=args.seed)
    _emit(report, args.json)
    return EXIT_OK if report["max_abs_diff"] <= 1e-9 else EXIT_DISCREPANCY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pubcoord",
        description="Convert adversarial team games into two-player "
                    "zero-sum games and solve them.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a benchmark game")
    gsub = g.add_subparsers(dest="kind", required=True)
    toy = gsub.add_parser("toy")
    toy.add_argument("--chance", type=int, required=True)
    toy.add_argument("--actions", type=int, required=True)
    toy.add_argument("--depth", type=int, required=True)
    toy.add_argument("--both-private", action="store_true")
    toy.add_argument("--payoff-seed", type=int, default=None)
    kuhn = gsub.add_parser("kuhn")
    kuhn.add_argument("--ranks", type=int, required=True)
    kuhn.add_argument("--adv-pos", type=int, default=0)
    leduc = gsub.add_parser("leduc")
    leduc.add_argument("--ranks", type=int, required=True)
    leduc.add_argument("--raises", type=int, default=1)
    leduc.add_argument("--adv-pos", type=int, default=0)
    for p in (toy, kuhn, leduc):
        p.add_argument("--out", required=True)
        p.add_argument("--json", action="store_true")
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("convert", help="convert a team game")
    c.add_argument("input")
    c.add_argument("--mode", choices=sorted(_CONVERTERS), required=True)
    c.add_argument("--safe-ir", action="store_true")
    c.add_argument("--compact", action="store_true",
                   help="census summary skips probability-one dummy chance")
    c.add_argument("--out", required=True)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_convert)

    s = sub.add_parser("solve", help="run a CFR-family solver")
    s.add_argument("input")
    s.add_argument("--algo", choices=["cfr", "cfr+", "lcfr+"],
                   default="lcfr+")
    s.add_argument("--iterations", type=int, default=1000)
    s.add_argument("--log-every", type=int, default=100)
    s.add_argument("--csv", default=None)
    s.add_argument("--strategy", default=None)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_solve)

    o = sub.add_parser("oracle", help="exact TMECor value by double oracle")
    o.add_argument("input")
    o.add_argument("--tol", type=float, default=1e-9,
                   help="certification tolerance (default 1e-9); any "
                        "value under 1e-7 certifies to 1e-7")
    o.add_argument("--max-entries", type=int, default=DEFAULT_MATRIX_LIMIT,
                   help="bound on the oracle's boolean reach array, "
                        "enumerated joint team plans x value-carrying "
                        "terminals (exit 5 above it)")
    o.add_argument("--json", action="store_true")
    o.set_defaults(func=cmd_oracle)

    v = sub.add_parser("verify", help="payoff-equivalence check")
    v.add_argument("input")
    v.add_argument("converted")
    v.add_argument("--samples", type=int, default=1000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError:
        print("error: out of memory; the game is too large", file=sys.stderr)
        return exit_code(MemoryError)
    except (GameError, _CliError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code(type(exc))


if __name__ == "__main__":
    sys.exit(main())
