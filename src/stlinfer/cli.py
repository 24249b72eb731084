"""Command-line interface: generate data, train, evaluate, check soundness."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .datasets import (
    DrivingBehavior,
    gen_driving,
    gen_driving_pair,
    gen_naval,
    load_csv,
    read_text,
    save_csv,
)
from .evaluate import emit_report, load_model, network_mcr, sign_agreement
from .network import (
    ActivationParams,
    guarantee_failure,
    soundness_bound_check,
    soundness_bound_text,
)
from .stl import ParseError, mcr, parse_formula
from .trainer import TrainConfig, extract_formula, train


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stlinfer",
        description="Learn interpretable temporal-logic formulas for time-series classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a labeled synthetic dataset as CSV")
    g.add_argument("--scenario", required=True, choices=["driving", "naval"])
    g.add_argument(
        "--behaviors",
        help="driving only: one behavior, or 'Pos,Neg' for a labeled pair "
        "(GoForward, StopAndGo, LeftTurnLane1, LeftTurnLane2, SwitchLane, Overtake)",
    )
    g.add_argument("--count", type=int, default=1000, help="samples per class for pairs/naval")
    g.add_argument("--length", type=int, help="driving only: trajectory length (default 40)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output CSV path")

    t = sub.add_parser("train", help="fit a formula network to a CSV dataset")
    t.add_argument("--data", required=True, help="training CSV")
    t.add_argument("--config", help="key = value config file")
    t.add_argument("--out", required=True, help="output directory for report files")
    t.add_argument("--seed", type=int, help="override the config seed")
    t.add_argument("--epochs", type=int, help="override the config epoch count")
    t.add_argument(
        "--allow-unsound",
        action="store_true",
        help="train even when the soundness bound fails",
    )

    e = sub.add_parser("eval", help="score a formula and/or model on a CSV dataset")
    e.add_argument("--data", required=True)
    e.add_argument("--formula", help="formula text, or a path to a file holding one")
    e.add_argument("--model", help="report.json produced by train")

    c = sub.add_parser("check-soundness", help="test the sign-soundness bound")
    c.add_argument("--beta", type=float, default=25.0)
    c.add_argument("--h", type=float, default=1.0)
    c.add_argument("--length", type=int, required=True)
    return parser


def _cmd_generate(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count is samples per class and must be at least 1, got {args.count}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.scenario == "naval":
        # naval tracks have one fixed length and two kinds of anomaly
        for flag in ("behaviors", "length"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} applies to the driving scenario only")
        data = gen_naval(2 * args.count, seed=args.seed)
    else:
        if not args.behaviors:
            raise ValueError("driving scenario needs --behaviors")
        names = [b.strip() for b in args.behaviors.split(",")]
        if "" in names:
            raise ValueError(f"--behaviors has an empty name in '{args.behaviors}'")
        length = 40 if args.length is None else args.length
        if len(names) == 1:
            data = gen_driving(
                DrivingBehavior.from_name(names[0]), args.count, length, args.seed
            )
        elif len(names) == 2:
            positive, negative = (DrivingBehavior.from_name(name) for name in names)
            if positive is negative:
                raise ValueError(
                    f"--behaviors names {positive.value} twice; a pair needs two behaviors"
                )
            data = gen_driving_pair(positive, negative, args.count, length, args.seed)
        else:
            raise ValueError("--behaviors takes one name or 'Positive,Negative'")
    save_csv(data, args.out)
    print(f"wrote {len(data)} samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    # emit_report makes the directory only after training, so a file in
    # its place, or in place of a directory above it, is refused before
    # the data is read
    out = Path(args.out)
    for path in (out, *out.parents):
        if os.path.exists(path):
            if not os.path.isdir(path):
                where = "" if path == out else f": {path}"
                raise ValueError(f"--out {args.out}{where} is a file, not a directory")
            break
    cfg = TrainConfig.from_file(args.config) if args.config else TrainConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.epochs is not None:
        cfg = replace(cfg, epochs=args.epochs)
    if args.allow_unsound:
        cfg = replace(cfg, allow_unsound=True)
    data = load_csv(args.data)
    report = train(data, cfg)
    paths = emit_report(report, args.out)
    print(f"formula: {report.formula_text}")
    print(f"simplified: {report.simplified_text}")
    print(f"final train mcr (network sign): {report.train_mcr[-1]!r}")
    print(f"report written to {paths['report']}")
    return 0


def _read_formula(text: str):
    """Parse --formula: formula text, or a path to a file holding one, which
    is read by `read_text`.  An error in a file's formula names the file;
    text that names no file, fails to parse and holds a character no
    formula uses, such as a mistyped path, is refused as both."""
    # os.path, unlike Path, answers False for text too long to be a file name
    if os.path.isdir(text):
        raise ValueError(f"--formula {text} is a directory, not a formula file")
    if not os.path.isfile(text):
        try:
            return parse_formula(text)
        except ParseError as e:
            # digits and whitespace as the parser reads them, and the rest
            # of the grammar's characters
            if all(c.isdecimal() or c.isspace() or c in "xGFeE.+-<>!&|()[]," for c in text):
                raise
            raise ValueError(f"--formula {text}: no such file, and not a formula: {e}") from None
    body = read_text(text).strip()  # its errors name the file already
    if not body:
        raise ValueError(f"{text}: formula file is empty")
    try:
        return parse_formula(body)
    except ValueError as e:
        raise ValueError(f"{text}: {e}") from None


def _cmd_eval(args) -> int:
    if args.formula is None and args.model is None:
        raise ValueError("eval needs --formula and/or --model")
    for flag, value in (("--formula", args.formula), ("--model", args.model)):
        if value is not None and not value.strip():
            raise ValueError(f"{flag} is empty")
    data = load_csv(args.data)
    formula = None
    if args.formula is not None:
        formula = _read_formula(args.formula)
        print(f"formula_mcr={mcr(data, formula)!r}")
    if args.model is not None:
        params, shape, p = load_model(args.model)
        print(f"network_mcr={network_mcr(params, shape, p, data)!r}")
        if formula is not None:
            # a user formula, e.g. the pruned one: no agreement is guaranteed
            print(f"sign_agreement={sign_agreement(params, shape, p, formula, data)!r}")
        # the guaranteed pair: snapped parameters and the formula train extracted
        extracted = extract_formula(params, shape)
        agreement = sign_agreement(params.snapped(), shape, p, extracted, data)
        print(f"extracted_sign_agreement={agreement!r}")
        if agreement < 1.0:
            raise ValueError("the snapped network and its extracted formula disagree in sign")
        # agreement on this data is measured; on other data of its length
        # it holds only if the model meets the guarantee's preconditions
        failure = guarantee_failure(p, shape, data.length)
        if failure is not None:
            raise ValueError(failure)
    return 0


def _cmd_check_soundness(args) -> int:
    # either verdict is a successful check; nonzero exits are for errors
    p = ActivationParams(beta=args.beta, h=args.h)
    text = soundness_bound_text(p, args.length)
    verdict = "sound" if soundness_bound_check(p, args.length) else "unsound"
    print(f"{verdict}: {text}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "check-soundness": _cmd_check_soundness,
    }
    try:
        return handlers[args.command](args)
    except Exception as e:  # one-line diagnostic, nonzero exit
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
