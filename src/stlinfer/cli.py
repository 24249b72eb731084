"""Command-line interface: generate data, train, evaluate, check soundness."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .datasets import (
    DrivingBehavior,
    gen_driving,
    gen_driving_pair,
    gen_naval,
    load_csv,
    save_csv,
)
from .evaluate import emit_report, load_model, network_mcr, sign_agreement
from .network import (
    ActivationParams,
    guarantee_failure,
    soundness_bound_check,
    soundness_bound_text,
)
from .stl import mcr, parse_formula
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
    g.add_argument("--length", type=int, default=40, help="driving trajectory length")
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
    if args.scenario == "naval":
        data = gen_naval(2 * args.count, seed=args.seed)
    else:
        if not args.behaviors:
            raise ValueError("driving scenario needs --behaviors")
        names = [b.strip() for b in args.behaviors.split(",") if b.strip()]
        if len(names) == 1:
            data = gen_driving(
                DrivingBehavior.from_name(names[0]), args.count, args.length, args.seed
            )
        elif len(names) == 2:
            data = gen_driving_pair(
                DrivingBehavior.from_name(names[0]),
                DrivingBehavior.from_name(names[1]),
                args.count,
                args.length,
                args.seed,
            )
        else:
            raise ValueError("--behaviors takes one name or 'Positive,Negative'")
    save_csv(data, args.out)
    print(f"wrote {len(data)} samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
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


def _cmd_eval(args) -> int:
    if not args.formula and not args.model:
        raise ValueError("eval needs --formula and/or --model")
    data = load_csv(args.data)
    formula = None
    if args.formula:
        text = args.formula
        if Path(text).is_file():
            text = Path(text).read_text(encoding="utf-8").strip()
        formula = parse_formula(text)
        print(f"formula_mcr={mcr(data, formula)!r}")
    if args.model:
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
        failure = guarantee_failure(p, max(data.length, shape.k, shape.m))
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
