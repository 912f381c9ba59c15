"""Command-line surface: estimate | fpca | bandwidth | simulate | mc-verify.

Data files are CSV with one observed curve per row (time runs down the file,
the number of columns defines the evaluation grid; optional single header
row).  A command writes its results into the output directory only after it
succeeds, and last writes metadata.json, which holds the full resolved
configuration: its presence marks a complete run.  An output directory that
cannot be written, or an output that is the --data file, is a configuration
error.

Exit codes are stable: 0 success, 2 data parse failure, 3 invalid
configuration, 4 numeric contract violation, 5 statistical precondition
failure (eigenvalue separation).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import astuple, replace
from functools import partial
from statistics import NormalDist

import numpy as np

from . import io
from .errors import (
    ConfigError,
    ContractViolationError,
    DataFormatError,
    LrcovError,
    SeparationError,
    config_flag,
    config_number,
    config_numbers,
    config_object,
)
from .estimator import estimate_lrcov, project_psd
from .fpca import _separation_gaps, eigendecompose, eigenvalue_ci
from .grid import Grid, surface_integral
from .kernels import KERNEL_NAMES, make_kernel
from .mc import BandwidthRule, ExperimentSpec, bias_rate_check, run_experiment
from .simulate import DgpSpec, generate, replication_rng, truth

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_DATA = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4
EXIT_SEPARATION = 5
# the first class an error is an instance of gives its exit code
_EXIT_CODES = (
    (DataFormatError, EXIT_DATA),
    (ConfigError, EXIT_CONFIG),
    (SeparationError, EXIT_SEPARATION),
    (LrcovError, EXIT_NUMERIC),
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is reserved for data errors
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lrcov",
        description="Long-run covariance estimation for functional time series.",
        epilog=(
            "Data files are CSV, one curve per row; the column count defines "
            "the evaluation grid. Exit codes: 0 ok, 2 data, 3 config, "
            "4 numeric, 5 separation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str, needs_data: bool):
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.add_argument("--config", metavar="PATH", help="JSON configuration file")
        sp.add_argument("--out", metavar="DIR", help="output directory (default .)")
        if needs_data:
            sp.add_argument("--data", metavar="PATH", help="input CSV, one curve per row")
        return sp

    def add_kernel_flags(sp):
        sp.add_argument("--kernel", choices=KERNEL_NAMES, help="smoothing kernel")
        sp.add_argument(
            "--flat-width", dest="flat_width", type=float, metavar="RHO",
            help="flat-top plateau width in (0, 1)",
        )

    est = add_command("estimate", "estimate the long-run covariance surface", True)
    add_kernel_flags(est)
    est.add_argument("--h", metavar="RULE",
                     help="bandwidth: NUMBER, fixed:H, power:COEF,EXP, or plugin")
    est.add_argument("--unbiased", action="store_const", const=True, default=None,
                     help="divide lag i by N-i instead of N")
    est.add_argument("--psd", action="store_const", const=True, default=None,
                     help="project the estimate onto the PSD cone")

    fp = add_command("fpca", "eigenvalues and eigenfunctions with confidence intervals", True)
    add_kernel_flags(fp)
    fp.add_argument("--h", metavar="RULE", help="bandwidth rule")
    fp.add_argument("--unbiased", action="store_const", const=True, default=None)
    fp.add_argument("--psd", action="store_const", const=True, default=None,
                    help="project the estimate onto the PSD cone before decomposing")
    fp.add_argument("--p", type=int, help="number of leading eigen levels (default 1)")
    fp.add_argument("--level", type=float, help="confidence level (default 0.95)")

    bw = add_command("bandwidth", "data-driven plug-in bandwidth", True)
    add_kernel_flags(bw)
    bw.add_argument("--h", dest="pilot_h", type=float, metavar="PILOT", help="pilot bandwidth")

    sim = add_command("simulate", "generate a synthetic sample plus its exact truth", False)
    sim.add_argument("--seed", type=int, help="master seed")

    mc = add_command("mc-verify", "Monte Carlo check of the distributional claims", False)
    mc.add_argument("--seed", type=int, help="override the experiment master seed")

    return parser


def _load_config(args, required, optional) -> dict:
    """The --config object (empty without one), with every required key and only known ones."""
    raw = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: invalid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config}: not UTF-8 text: {exc}") from None
    return config_object(raw, f"{args.command} config", required, (*optional, "out"))


def _pick(args, cfg: dict, key: str, default, check=lambda value, what: value):
    """The flag beats the config and the config beats the default.

    A config value passes ``check`` even when a flag overrides it, and so
    does the flag; without ``check`` the value is checked where it is used.
    """
    value = check(cfg[key], key) if key in cfg else default
    flag = getattr(args, key, None)
    return value if flag is None else check(flag, key)


def _path(value, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{what} must be a non-empty string, got {value!r}")
    return value


def _sample_and_bandwidth(args, kernel, rule: BandwidthRule, p: int = 0):
    """The --data sample, its bandwidth, plug-in selection and input record, checked in order:
    the rule against the kernel, then the file, then ``p`` eigen levels against its grid."""
    rule.check_kernel(kernel)
    if args.data is None:
        raise ConfigError(f"{args.command} requires --data")
    sample = io.read_curves(args.data)
    if p > sample.grid.n_points:
        raise ConfigError(f"p = {p} exceeds the grid size {sample.grid.n_points}")
    record = {"data": args.data, "n_obs": sample.n_obs, "grid_points": sample.grid.n_points}
    return (sample, *rule.resolve(sample, kernel), record)


def _plugin_constants(sel) -> dict:
    """The plug-in rule's estimated constants, named as bandwidth.json and h_selection name them."""
    return {
        "c0_hat": sel.c0,
        "F_norm_hat": sel.f_norm,
        "C_integral_hat": sel.c_integral,
        "fallback_used": sel.fallback,
    }


def _selection_trace(rule: BandwidthRule, h: float, sel) -> dict:
    trace = {"rule": rule.kind, "h": float(h), "plugin": None}
    if sel is not None:
        trace["plugin"] = {
            **_plugin_constants(sel),
            "clamped": sel.clamped,
            "pilot_h": sel.pilot_h,
            "m_trunc": sel.m_trunc,
        }
    return trace


_ESTIMATE_KEYS = ("kernel", "flat_width", "h", "unbiased", "psd", "m_trunc")
_lag_count = partial(config_number, integer=True, low=0)


def _estimate(args, cfg: dict, p: int = 0):
    """Every setting, then the data and its bandwidth, then the estimate; for estimate and fpca."""
    settings = {
        "kernel": _pick(args, cfg, "kernel", "bartlett"),
        "flat_width": _pick(args, cfg, "flat_width", 0.5, config_number),
        "h": _pick(args, cfg, "h", "power:1,0.3333"),
        "unbiased": _pick(args, cfg, "unbiased", False, config_flag),
        "psd": _pick(args, cfg, "psd", False, config_flag),
        "m_trunc": _pick(args, cfg, "m_trunc", None, _lag_count),
    }
    kernel = make_kernel(settings["kernel"], settings["flat_width"])
    rule = replace(BandwidthRule.parse(settings["h"]), m_trunc=settings["m_trunc"])
    sample, bandwidth, sel, record = _sample_and_bandwidth(args, kernel, rule, p)
    est = estimate_lrcov(sample, kernel, bandwidth, unbiased=settings["unbiased"])
    if settings["psd"]:
        est = project_psd(est)
    record |= {
        "config": settings,
        "kernel": kernel.name,
        "psd_applied": settings["psd"],
        "h_selection": _selection_trace(rule, bandwidth.h, sel),
    }
    return est, record


def cmd_estimate(args, cfg: dict):
    est, record = _estimate(args, cfg)
    return record, {"estimate.csv": est.surface.values}


def cmd_fpca(args, cfg: dict):
    p = _pick(args, cfg, "p", 1, partial(config_number, integer=True, low=1))
    conf = _pick(args, cfg, "level", 0.95, config_number)
    if not 0.0 < conf < 1.0:
        raise ConfigError(f"confidence level must lie in (0, 1), got {conf}")
    est, record = _estimate(args, cfg, p)
    eigen = eigendecompose(est.surface)
    rows = []
    for level in range(1, p + 1):
        lam = float(eigen.eigenvalues[level - 1])
        if lam > 0.0:
            ci = eigenvalue_ci(eigen, est.kernel, est.n_obs, est.bandwidth, level, conf)
            rows.append([level, lam, ci.lower, ci.upper])
        else:
            # interval undefined for a non-positive estimate; row kept for audit
            rows.append([level, lam, math.nan, math.nan])
    record["config"] |= {"p": p, "level": conf}
    record["separation_gaps"] = _separation_gaps(eigen.eigenvalues)[:p].tolist()
    return record, {
        "eigenvalues.csv": (np.array(rows), ["level", "eigenvalue", "ci_low", "ci_high"]),
        "eigenfunctions.csv": eigen.eigenfunctions[:p].T,
    }


def cmd_bandwidth(args, cfg: dict):
    flat_width = _pick(args, cfg, "flat_width", 0.5, config_number)
    kernel = make_kernel(_pick(args, cfg, "kernel", "bartlett"), flat_width)
    rule = BandwidthRule(
        "plugin",
        pilot_h=_pick(args, cfg, "pilot_h", None, config_number),
        m_trunc=_pick(args, cfg, "m_trunc", None, _lag_count),
    )
    _, _, sel, record = _sample_and_bandwidth(args, kernel, rule)
    record |= {
        "config": {
            "kernel": kernel.name,
            "flat_width": flat_width,
            "pilot_h": sel.pilot_h,
            "m_trunc": sel.m_trunc,
        },
        "clamped": sel.clamped,
    }
    return record, {"bandwidth.json": {"h_plugin": sel.bandwidth.h, **_plugin_constants(sel)}}


def cmd_simulate(args, cfg: dict):
    n_obs = config_number(cfg["n_obs"], "n_obs", integer=True, low=2)
    grid_points = config_number(cfg["grid_points"], "grid_points", integer=True, low=1)
    dgp = DgpSpec.from_dict(cfg["dgp"])
    seed = _pick(args, cfg, "seed", 0, partial(config_number, integer=True, low=0))
    grid = Grid(grid_points)
    truth_set = truth(dgp, grid)  # refuses more noise components than the grid resolves
    sample = generate(dgp, n_obs, grid, replication_rng(seed, 0))
    # the L2 norm of the noise surface Φᵀ diag(σ²) Φ: the basis Φ is orthonormal on the grid
    noise_norm = math.hypot(*(s * s for s in dgp.sigmas))
    record = {
        "config": {"dgp": dgp.to_dict(), "n_obs": n_obs, "grid_points": grid_points, "seed": seed}
    }
    return record, {
        "sample.csv": sample.values,
        "truth.json": {
            "c": truth_set.c.values,
            "c_integral": surface_integral(truth_set.c),
            "eigenvalues": truth_set.eigen.eigenvalues,
            "gamma_norms": {
                str(lag): abs(c) * noise_norm for lag, c in enumerate(truth_set.coeffs.tolist())
            },
        },
    }


def _qq_table(values: np.ndarray, quantiles: np.ndarray):
    """Sorted ``values`` beside the standard normal ``quantiles`` at their mean and sd."""
    z = np.sort(np.asarray(values, dtype=float))
    theo = float(np.mean(z)) + float(np.std(z, ddof=1)) * quantiles
    return np.column_stack([theo, z]), ["normal", "empirical"]


def cmd_mc_verify(args, cfg: dict):
    exp_raw = cfg["experiment"]
    if args.seed is not None and isinstance(exp_raw, dict):  # from_dict refuses a non-object
        exp_raw = {**exp_raw, "master_seed": args.seed}
    spec = ExperimentSpec.from_dict(exp_raw)
    # reject a malformed bias_check, and run it, before the experiment burns any time
    bias_cfg = cfg.get("bias_check")
    if bias_cfg is not None:
        config_object(bias_cfg, "bias_check", required=("h", "replications"))
        try:
            bias_report = bias_rate_check(
                spec,
                config_numbers(bias_cfg["h"], "bias_check h"),
                config_number(bias_cfg["replications"], "bias_check replications", integer=True),
            )
        except ContractViolationError as exc:  # its arguments are refused
            raise ConfigError(f"bias_check: {exc}") from None
    report = run_experiment(spec)
    payload = {"experiment": exp_raw, "report": report.to_dict(), "bias_check": None}
    probs = (np.arange(1, spec.replications + 1) - 0.5) / spec.replications  # every QQ file's
    quantiles = np.array([NormalDist().inv_cdf(p) for p in probs])
    files = {}
    for j in range(report.projection_samples.shape[1]):
        files[f"qq_projection_{j}.csv"] = _qq_table(report.projection_samples[:, j], quantiles)
    for j, level in enumerate(spec.eigen_levels):
        files[f"qq_eigen_{level}.csv"] = _qq_table(report.eigen_error_samples[:, j], quantiles)
    if bias_cfg is not None:
        payload["bias_check"] = bias_report.to_dict()
        rows = [
            [
                *astuple(p),
                math.log(p.h),
                math.log(p.err_debiased) if p.err_debiased > 0 else math.nan,
            ]
            for p in bias_report.points
        ]
        files["bias.csv"] = (
            np.array(rows),
            ["h", "err_raw", "err_debiased", "noise_sd", "signal", "log_h", "log_err"],
        )
    files["report.json"] = payload
    return {"config": {"experiment": exp_raw, "bias_check": bias_cfg}}, files


# name: (command, required config keys, optional ones besides "out").  A command
# takes the flags and the config and returns (record, files): the record goes to
# metadata.json, and each file is a dict (JSON), an array (CSV) or an
# (array, header) pair (CSV with a header row).
_COMMANDS = {
    "estimate": (cmd_estimate, (), _ESTIMATE_KEYS),
    "fpca": (cmd_fpca, (), (*_ESTIMATE_KEYS, "p", "level")),
    "bandwidth": (cmd_bandwidth, (), ("kernel", "flat_width", "pilot_h", "m_trunc")),
    "simulate": (cmd_simulate, ("dgp", "n_obs", "grid_points"), ("seed",)),
    "mc-verify": (cmd_mc_verify, ("experiment",), ("bias_check",)),
}


def _run(args) -> None:
    """Run one command, then write its files and, last, its metadata.json into ``out``."""
    command, required, optional = _COMMANDS[args.command]
    cfg = _load_config(args, required, optional)
    out = _pick(args, cfg, "out", ".", _path)
    record, files = command(args, cfg)
    files["metadata.json"] = {"command": args.command, **record}
    data = getattr(args, "data", None)
    if data is not None and os.path.exists(data):
        for name in files:
            path = f"{out}/{name}"
            if os.path.exists(path) and os.path.samefile(path, data):
                raise ConfigError(f"output {path} would overwrite the --data file {data}")
    try:
        os.makedirs(out, exist_ok=True)
        for name, content in files.items():
            path = f"{out}/{name}"
            if isinstance(content, dict):
                io.write_json(path, content)
            elif isinstance(content, tuple):
                io.write_matrix_csv(path, *content)
            else:
                io.write_matrix_csv(path, content)
    except OSError as exc:
        raise ConfigError(f"cannot write to {out}: {exc}") from None


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command; each warning it raises and its error print as one stderr line."""
    parser = build_parser()
    with warnings.catch_warnings():
        # Monte Carlo workers hand their warnings back to this process to print
        warnings.simplefilter("default")
        warnings.showwarning = _print_warning
        try:
            _run(parser.parse_args(argv))
            return EXIT_OK
        except LrcovError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
