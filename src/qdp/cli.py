"""Command-line front end: budget queries, sweeps, training runs, audits.

Exit codes: 0 success, 2 usage error (argparse), 1 runtime failure. Every
command is deterministic: ``budget`` and ``sweep`` draw nothing at random and
take no seed; ``fl-train`` and ``mia`` take --seed, else the config's seed.
Commands that create an output directory drop a manifest.json recording how
it was produced.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import __version__, accountant, flsim, lira
from .flsim import FlRunConfig
from .pmf import NoiseSpec
from .quantizer import QuantizerSpec


def parse_config(path: Path | str) -> dict[str, str]:
    """Read a flat `key = value` file; `#` starts a comment."""
    mapping: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValueError(f"{path}:{lineno}: empty key or value in {raw!r}")
        if key in mapping:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _load_config(args) -> FlRunConfig:
    """The config from the file; --seed overrides the file's seed."""
    mapping = parse_config(args.config)
    if args.seed is not None:
        mapping["seed"] = str(args.seed)
    return flsim.config_from_flat_mapping(mapping)


def _write_manifest(command: str, config_path: str, seed: int, out_dir: Path) -> None:
    """Provenance record written next to every generated output directory."""
    manifest = {
        "command": command,
        "config_path": config_path,
        "seed": seed,
        "tool_version": __version__,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _cmd_budget(args) -> int:
    mech = accountant.MechanismSpec(
        noise=NoiseSpec(sigma=args.sigma), quant=QuantizerSpec(k=args.k, c_q=args.cq)
    )
    if args.alpha == "1":
        value = accountant.epsilon_one(mech)
    else:
        value = accountant.epsilon_infinity(mech)
    print(f"{value:.12g}")
    return 0


def _cmd_sweep(args) -> int:
    """Both budgets per level, sorted by k, beside the alpha = 1 Gaussian
    baseline c_q^2/(2 sigma^2), which has the same sensitivity convention."""
    noise = NoiseSpec(sigma=args.sigma)
    gauss = float(accountant.gaussian_rdp_baseline(args.cq, args.sigma, 1.0))
    rows = []
    for k in sorted(args.k_list):
        mech = accountant.MechanismSpec(noise=noise, quant=QuantizerSpec(k=k, c_q=args.cq))
        rows.append([k, accountant.epsilon_one(mech), accountant.epsilon_infinity(mech), gauss])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "eps1", "eps_inf", "eps_gauss_alpha1"])
        writer.writerows(rows)  # a float is written as its repr
    return 0


def _cmd_fl_train(args) -> int:
    config = _load_config(args)
    result = flsim.train(config)
    out_dir = Path(args.out)
    flsim.write_run_artifact(result, out_dir)
    _write_manifest("fl-train", str(args.config), config.seed, out_dir)
    final_round, final_acc, final_loss = result.metrics[-1]
    print(f"round {final_round}: test_accuracy={final_acc:.4f} test_loss={final_loss:.4f}")
    return 0


def _cmd_mia(args) -> int:
    config = _load_config(args)
    report = lira.audit_run(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lira.write_report(report, config, out_dir / "report.json")
    _write_manifest("mia", str(args.config), config.seed, out_dir)
    print(f"attack accuracy: {report.accuracy:.4f}")
    return 0


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0 or math.isinf(value):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _level(text: str) -> int:
    """One quantization level: the type of --k and of each --k-list entry."""
    try:
        k = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if k < 2:
        raise argparse.ArgumentTypeError("every quantization level must be an integer >= 2")
    return k


def _k_list(text: str) -> list[int]:
    values = [_level(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdp",
        description="Privacy budgets for the quantized Gaussian mechanism, "
        "a FedAvg simulator, and a membership-inference harness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    budget = sub.add_parser("budget", help="print one privacy budget")
    budget.add_argument("--k", type=_level, required=True, help="quantization levels (>= 2)")
    budget.add_argument("--cq", type=_positive_float, required=True, help="clipping radius")
    budget.add_argument("--sigma", type=_positive_float, required=True, help="noise std dev")
    budget.add_argument("--alpha", choices=("1", "inf"), default="1", help="Renyi order")
    budget.set_defaults(handler=_cmd_budget)

    sweep = sub.add_parser("sweep", help="budgets for a list of levels, as CSV")
    sweep.add_argument("--k-list", type=_k_list, required=True, help="e.g. 2,4,8,16,32,64")
    sweep.add_argument("--cq", type=_positive_float, required=True)
    sweep.add_argument("--sigma", type=_positive_float, required=True)
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(handler=_cmd_sweep)

    fl = sub.add_parser("fl-train", help="run the federated simulator")
    fl.add_argument("--config", required=True, help="flat key=value config file")
    fl.add_argument("--seed", type=int, default=None)
    fl.add_argument("--out", required=True, help="output directory")
    fl.set_defaults(handler=_cmd_fl_train)

    mia = sub.add_parser("mia", help="run the membership-inference audit")
    mia.add_argument("--config", required=True, help="flat key=value config file")
    mia.add_argument("--seed", type=int, default=None)
    mia.add_argument("--out", required=True, help="output directory")
    mia.set_defaults(handler=_cmd_mia)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"qdp {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
