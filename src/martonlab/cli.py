"""Config-driven command line emitting machine-readable reports.

Subcommands wire channels, designs, and parameters into the library
operations and write JSON (plus optional CSV plot data) to an output
directory.  Exit codes form a stable scripting contract: 0 success,
1 bound violation, 2 infeasible configuration, 3 input parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

from .analysis import (
    CoveringParams,
    empirical_covering,
    iid_convergence_curve,
    marton_region,
    region_contains,
    synthetic_covering,
    theorem_bounds,
    verdu_region,
)
from .channels import CqBroadcastChannel, InputDesign, channel_from_json
from .coding import RateParams, band_constraints, select_band_exponents
from .divergences import I0_METHODS, classical_i0, classical_i_infty
from .errors import InfeasibleRates, MartonlabError, ValidationError
from .experiments import Scheme
from .prob import JointPmf

__all__ = ["main"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3

OUTPUT_DIR_ENV = "MARTONLAB_OUTPUT_DIR"


class _ParseFailure(Exception):
    """Bad input file, flag value, or config field."""


class _InfeasibleConfig(Exception):
    """Well-formed inputs that cannot satisfy the requested constraints."""


def _fail_parse(msg: str) -> None:
    raise _ParseFailure(msg)


def _load_json_file(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        _fail_parse(f"{path}: file not found")
    except json.JSONDecodeError as e:
        _fail_parse(f"{path}: invalid JSON ({e})")


def _joint_from_file(path: Path) -> JointPmf:
    data = _load_json_file(path)
    try:
        return JointPmf.from_json(data)
    except ValidationError as e:
        _fail_parse(f"{path}: {e}")


def _finite_float(text: str) -> float:
    """argparse type of the float flags: nan and infinities are malformed."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _int64(text: str) -> int:
    """argparse type of the rate and count flags: integers of magnitude below 2^63."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse integer {text!r}") from None
    if not -2**63 < value < 2**63:
        raise argparse.ArgumentTypeError("must lie strictly between -2^63 and 2^63")
    return value


def _power_float(text: str) -> float:
    """Plain float or 'b^e' power syntax, e.g. '2^-10'; finite reals only."""
    base_s, caret, exp_s = text.partition("^")
    try:
        value = float(base_s) ** float(exp_s) if caret else float(text)
    except (ValueError, OverflowError, ZeroDivisionError):
        _fail_parse(f"cannot parse {'power expression' if caret else 'number'} {text!r}")
    # a negative base to a fractional power gives a complex number
    if not isinstance(value, float) or not math.isfinite(value):
        _fail_parse(f"{text!r} is not a finite real number")
    return value


def _int_list(text: str) -> list:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        _fail_parse(f"cannot parse integer list {text!r}")
    if not values:
        _fail_parse(f"integer list {text!r} is empty")
    return values


def _seed(value: int) -> int:
    if not 0 <= value < 2**64:
        _fail_parse(f"seed must lie in [0, 2**64), got {value}")
    return value


def _output_dir(args) -> Path:
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _dumps(doc: dict) -> str:
    """The report as strict JSON, which has no nan or infinity."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise _InfeasibleConfig("a result is not finite: the inputs overflow double precision") from None


def _emit(doc: dict, out_dir: Path, name: str) -> None:
    text = _dumps(doc)
    (out_dir / name).write_text(text + "\n", encoding="utf-8")
    print(text)


def _write_csv(rows, out_dir: Path, name: str) -> None:
    with open(out_dir / name, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


# ---------------------------------------------------------------------------
# divergence


def _cmd_divergence(args) -> int:
    joint = _joint_from_file(Path(args.joint))
    try:
        if args.kind == "i-infty":
            res = classical_i_infty(joint, args.eps)
        else:
            res = classical_i0(joint, args.eps, method=args.method)
    except ValidationError as e:
        raise _InfeasibleConfig(str(e))
    print(_dumps(res.to_json()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bands


def _cmd_bands(args) -> int:
    try:
        r1, r2 = select_band_exponents(args.R1, args.R2, args.i0b, args.i0c,
                                       args.i_infty, args.eps_tilde)
    except InfeasibleRates as e:
        raise _InfeasibleConfig(str(e))
    except ValidationError as e:
        raise _ParseFailure(str(e))
    doc = {"r1": r1, "r2": r2}
    if args.explain:
        constraints = band_constraints(
            args.R1, args.R2, r1, r2, args.i0b, args.i0c, args.i_infty, args.eps_tilde)
        doc["constraints"] = [c.to_json() for c in constraints]
        for c in constraints:
            print(f"# {c.name}: {c.lhs} {c.relation} {c.rhs:.6g} "
                  f"(slack {c.slack:.6g})", file=sys.stderr)
    print(_dumps(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# covering


def _cmd_covering(args) -> int:
    try:
        params = CoveringParams(args.r, args.s, _power_float(args.q),
                                _power_float(args.alpha))
    except ValidationError as e:
        raise _ParseFailure(str(e))
    try:
        if args.design:
            design = _design_from_file(Path(args.design))
            if args.i_infty is None:
                _fail_parse("--i-infty is required with --design")
            est = empirical_covering(design, args.i_infty, params, args.trials,
                                     _seed(args.seed))
        else:
            est = synthetic_covering(params, args.trials, _seed(args.seed),
                                     family=args.family)
    except ValidationError as e:
        raise _InfeasibleConfig(str(e))
    _emit(est.to_json(), _output_dir(args), "covering.json")
    return EXIT_VIOLATION if est.violation else EXIT_OK


# ---------------------------------------------------------------------------
# region


def _cmd_region(args) -> int:
    try:
        m = marton_region(args.i0b, args.i0c, args.i_infty, args.eps_tilde,
                          args.eps0, setting=args.setting)
        v = verdu_region(args.i0b, args.i0c, args.i_infty, args.eps0,
                         args.eps_infty, args.gamma)
        m_free = marton_region(args.i0b, args.i0c, args.i_infty, args.eps_tilde,
                               args.eps0, setting=args.setting, penalties=False)
        v_free = verdu_region(args.i0b, args.i0c, args.i_infty, args.eps0,
                              args.eps_infty, args.gamma, penalties=False)
    except ValidationError as e:
        raise _ParseFailure(str(e))
    doc = {
        "marton": m.to_json(),
        "verdu": v.to_json(),
        "containment_without_penalties": {
            "marton_contains_verdu": region_contains(m_free, v_free),
            "verdu_contains_marton": region_contains(v_free, m_free),
        },
    }
    out = _output_dir(args)
    _emit(doc, out, "region.json")
    rows = [("region", "R1", "R2")]
    for name, reg in (("marton", m), ("verdu", v)):
        rows.extend((name, x, y) for x, y in reg.vertices)
    _write_csv(rows, out, "region.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# iid-curve


def _cmd_iid_curve(args) -> int:
    base = _joint_from_file(Path(args.base))
    base_uv = _joint_from_file(Path(args.base_uv)) if args.base_uv else base
    n_list = _int_list(args.n)
    try:
        curve = iid_convergence_curve(base, base_uv, args.eps, n_list,
                                      method=args.method)
    except ValidationError as e:
        raise _InfeasibleConfig(str(e))
    out = _output_dir(args)
    _emit(curve.to_json(), out, "iid_curve.json")
    _write_csv(curve.to_csv_rows(), out, "iid_curve.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


_EPS_FIELDS = ("eps", "eps0", "eps_tilde", "eps_infty")


def _design_from_file(path: Path) -> InputDesign:
    data = _load_json_file(path)
    try:
        return InputDesign.from_json(data)
    except ValidationError as e:
        _fail_parse(f"{path}: {e}")


def _require(cfg: dict, key: str, path: Path):
    if key not in cfg:
        _fail_parse(f"{path}: config is missing required field {key!r}")
    return cfg[key]


_NUMBER = (int, float)
_KIND_NAMES = {int: "an integer", _NUMBER: "a number", bool: "true or false", str: "a string"}


def _typed(cfg: dict, key: str, path: Path, kind, default=None):
    """Config field ``key`` (required without a default), of JSON type ``kind``."""
    value = _require(cfg, key, path) if default is None else cfg.get(key, default)
    # JSON true/false arrive as bool, which Python counts as an int
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        _fail_parse(f"{path}: {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _int_pair(value, key: str, path: Path, auto: bool = False) -> list:
    ok = (isinstance(value, list) and len(value) == 2
          and all((isinstance(v, int) and not isinstance(v, bool)) or (auto and v == "auto")
                  for v in value))
    if not ok:
        _fail_parse(f"{path}: {key!r} must be a pair of integers"
                    + (", \"auto\" entries allowed" if auto else ""))
    return value


def _resolve_rates(rates, region):
    """Fixed integers pass through; 'auto' maximizes under the region's rate caps."""
    cap1, cap2, cap_sum = region.r1_max, region.r2_max, region.sum_max
    R1, R2 = rates
    if R1 == "auto":
        budget = cap_sum - (0 if R2 == "auto" else R2)
        R1 = math.floor(min(cap1, budget))
    if R2 == "auto":
        R2 = math.floor(min(cap2, cap_sum - R1))
    if R1 < 0 or R2 < 0:
        raise _InfeasibleConfig(
            f"rate caps ({cap1:.4f}, {cap2:.4f}, sum {cap_sum:.4f}) admit no "
            "nonnegative message rates")
    return int(R1), int(R2)


def _cmd_simulate(args) -> int:
    cfg_path = Path(args.config)
    cfg = _load_json_file(cfg_path)
    if not isinstance(cfg, dict):
        _fail_parse(f"{cfg_path}: config must be a JSON object")
    base_dir = cfg_path.parent

    def respath(value: str) -> Path:
        p = Path(value)
        return p if p.is_absolute() else base_dir / p

    channel_file = respath(_typed(cfg, "channel", cfg_path, str))
    design_file = respath(_typed(cfg, "design", cfg_path, str))
    eps, eps0, eps_tilde, eps_infty = (
        float(_typed(cfg, key, cfg_path, _NUMBER)) for key in _EPS_FIELDS)
    # a nan eps would pass the theorem-mode budget check unseen
    if not (math.isfinite(eps) and 0.0 < eps0 < 1.0 and 0.0 < eps_tilde < 1.0
            and 0.0 <= eps_infty < 1.0):
        _fail_parse(f"{cfg_path}: 'eps' must be finite, 'eps0' and 'eps_tilde' must lie "
                    "in (0, 1), 'eps_infty' in [0, 1)")
    rates = _require(cfg, "rates", cfg_path)
    rates = _int_pair([rates, rates] if rates == "auto" else rates, "rates", cfg_path, auto=True)
    bands = _int_pair(cfg["bands"], "bands", cfg_path) if "bands" in cfg else None
    trials = _typed(cfg, "trials", cfg_path, int)
    seed = _seed(args.seed if args.seed is not None else _typed(cfg, "seed", cfg_path, int))
    n = _typed(cfg, "n", cfg_path, int, 1)
    resample = _typed(cfg, "resample_codebook", cfg_path, bool, True)
    i0_method = _typed(cfg, "i0_method", cfg_path, str, "greedy")
    if i0_method not in I0_METHODS:
        _fail_parse(f"{cfg_path}: 'i0_method' must be one of {', '.join(I0_METHODS)}, "
                    f"got {i0_method!r}")
    mode = _typed(cfg, "mode", cfg_path, str, "theorem")
    if mode not in ("theorem", "free"):
        _fail_parse(f"{cfg_path}: 'mode' must be 'theorem' or 'free', got {mode!r}")
    if "setting" in cfg:
        _typed(cfg, "setting", cfg_path, str)

    try:
        channel = channel_from_json(_load_json_file(channel_file))
    except ValidationError as e:
        _fail_parse(f"{channel_file}: {e}")
    design = _design_from_file(design_file)

    setting = "quantum" if isinstance(channel, CqBroadcastChannel) else "classical"
    if "setting" in cfg and cfg["setting"] != setting:
        raise _InfeasibleConfig(
            f"config says setting {cfg['setting']!r} but the channel file is {setting}")
    if mode == "theorem":
        budget = theorem_bounds(eps_tilde, eps0, setting)
        if budget > eps + 1e-12:
            raise _InfeasibleConfig(
                f"budget consistency fails: required total {budget:.6f} exceeds eps = {eps}")

    try:
        scheme = Scheme.shared(channel, design, eps0, eps_infty, n=n, i0_method=i0_method)
    except ValidationError as e:
        raise _InfeasibleConfig(str(e))
    i0b, i0c, i_infty = (scheme.achieved[k] for k in ("i0b", "i0c", "i_infty"))

    R1, R2 = _resolve_rates(
        rates, marton_region(i0b, i0c, i_infty, eps_tilde, eps0, setting=setting))
    if bands is not None:
        r1, r2 = bands
    else:
        try:
            r1, r2 = select_band_exponents(R1, R2, i0b, i0c, i_infty, eps_tilde)
        except (InfeasibleRates, ValidationError) as e:
            raise _InfeasibleConfig(str(e))

    try:
        params = RateParams(R1=R1, R2=R2, r1=r1, r2=r2, eps_tilde=eps_tilde,
                            eps0=eps0, eps_infty=eps_infty, i0b=i0b, i0c=i0c,
                            i_infty=i_infty)
        report = scheme.run(params, trials, seed, resample_codebook=resample)
    except (InfeasibleRates, ValidationError) as e:
        raise _InfeasibleConfig(str(e))

    # embed the file references as written so reports replay across checkouts
    resolved = {
        "channel": str(cfg["channel"]),
        "design": str(cfg["design"]),
        "eps": eps,
        "eps0": eps0,
        "eps_tilde": eps_tilde,
        "eps_infty": eps_infty,
        "rates": [R1, R2],
        "bands": [r1, r2],
        "trials": trials,
        "seed": seed,
        "n": n,
        "resample_codebook": resample,
        "i0_method": i0_method,
        "mode": mode,
        "setting": setting,
    }
    doc = {"config": resolved, "report": report.to_json()}
    out = _output_dir(args)
    _emit(doc, out, "simulate_report.json")
    if args.csv:
        _write_csv(report.to_csv_rows(), out, "simulate_events.csv")
    return EXIT_VIOLATION if report.any_violation else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="martonlab",
        description="Smooth divergences, band selection, and coding experiments "
                    "for two-receiver broadcast channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divergence", help="evaluate a smooth divergence of a joint pmf")
    p.add_argument("--joint", required=True, help="JointPmf JSON file")
    p.add_argument("--kind", choices=("i0", "i-infty"), required=True)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--method", default="greedy", choices=I0_METHODS)
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("bands", help="select band exponents for given rates and budgets")
    p.add_argument("--R1", type=_int64, required=True)
    p.add_argument("--R2", type=_int64, required=True)
    p.add_argument("--i0b", type=_finite_float, required=True)
    p.add_argument("--i0c", type=_finite_float, required=True)
    p.add_argument("--i-infty", dest="i_infty", type=_finite_float, required=True)
    p.add_argument("--eps-tilde", dest="eps_tilde", type=_finite_float, required=True)
    p.add_argument("--explain", action="store_true",
                   help="include per-constraint slack in the output")
    p.set_defaults(func=_cmd_bands)

    p = sub.add_parser("simulate", help="run coding trials from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", action="store_true", help="also write per-event CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("covering", help="covering-inequality Monte Carlo")
    p.add_argument("--r", type=_int64, required=True)
    p.add_argument("--s", type=_int64, required=True)
    p.add_argument("--q", required=True, help="float or power syntax like 2^-10")
    p.add_argument("--alpha", required=True, help="float or power syntax")
    p.add_argument("--trials", type=_int64, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--family", default="paired", choices=("paired", "independent"))
    p.add_argument("--design", default=None,
                   help="design JSON file: use the real rejection indicator")
    p.add_argument("--i-infty", dest="i_infty", type=_finite_float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_covering)

    p = sub.add_parser("region", help="achievable regions and their comparison")
    p.add_argument("--i0b", type=_finite_float, required=True)
    p.add_argument("--i0c", type=_finite_float, required=True)
    p.add_argument("--i-infty", dest="i_infty", type=_finite_float, required=True)
    p.add_argument("--eps-tilde", dest="eps_tilde", type=_finite_float, required=True)
    p.add_argument("--eps0", type=_finite_float, required=True)
    p.add_argument("--eps-infty", dest="eps_infty", type=_finite_float, default=0.25)
    p.add_argument("--gamma", type=_finite_float, default=0.05)
    p.add_argument("--setting", default="classical", choices=("classical", "quantum"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("iid-curve", help="normalized divergence rates over block sizes")
    p.add_argument("--base", required=True, help="per-symbol JointPmf JSON file")
    p.add_argument("--base-uv", dest="base_uv", default=None,
                   help="separate pair joint for the max-divergence rate")
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--n", required=True, help="comma-separated block sizes")
    p.add_argument("--method", default="randomized",
                   choices=("randomized", "thresholded"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_iid_curve)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags; remap to the parse-error code
        return EXIT_PARSE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _ParseFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (_InfeasibleConfig, MartonlabError) as e:
        # a library error escaping a subcommand (say SupportOverflowError
        # deep in a run) means the inputs are out of reach, not a violation
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
