"""Command-line surface: estimate | fpca | bandwidth | simulate | mc-verify.

Data files are CSV with one observed curve per row (time runs down the file,
the number of columns defines the evaluation grid; optional single header
row).  A command writes its results into the output directory only after it
succeeds, and last writes metadata.json, which holds the full resolved
configuration: its presence marks a complete run.  An output directory that
cannot be written or holds another command's metadata.json, or an output that
is the --data file, is a configuration error; a JSON output that holds a
non-finite number is a numeric one.

Exit codes are stable: 0 success, 2 data parse failure, 3 invalid
configuration, 4 numeric contract violation, 5 statistical precondition
failure (eigenvalue separation).
"""

from __future__ import annotations

import argparse
import ctypes
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

# the first class an error is an instance of gives its exit code; success is 0
_EXIT_CODES = ((DataFormatError, 2), (ConfigError, 3), (SeparationError, 5), (LrcovError, 4))

# glibc keeps up to twice the largest freed block mapped, so a caller running commands in-process
# would hold a footprint set by the order of earlier frees; malloc_trim hands it back to the OS
_malloc_trim = getattr(ctypes.CDLL(None) if os.name == "posix" else None, "malloc_trim", None)


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
    for name, (_, help_text, reads_data, _, settings) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.add_argument("--config", metavar="PATH", help="JSON configuration file")
        sp.add_argument("--out", metavar="DIR", help="output directory (default .)")
        if reads_data:
            sp.add_argument("--data", metavar="PATH", help="input CSV, one curve per row")
        for key in settings:
            flag = dict(_SETTINGS[key][2] or {})
            if flag:
                sp.add_argument(flag.pop("name", "--" + key.replace("_", "-")), dest=key, **flag)
    return parser


def _load_config(args) -> dict:
    """The --config object (empty without one), with every required key and only known ones."""
    _, _, _, required, settings = _COMMANDS[args.command]
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
    optional = [key for key in (*settings, "out") if key != "master_seed"]  # a flag alone
    return config_object(raw, f"{args.command} config", required, optional)


def _pick(args, cfg: dict, key: str):
    """The flag beats the config and the config beats the default; both pass the check."""
    default, check, _ = _SETTINGS[key]
    check = check or (lambda value, what: value)
    value = check(cfg[key], key) if key in cfg else default
    flag = getattr(args, key, None)
    return value if flag is None else check(flag, key)


def _path(value, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{what} must be a non-empty string, got {value!r}")
    return value


_STORE_TRUE = {"action": "store_const", "const": True}
_COUNT = partial(config_number, integer=True, low=0)
# setting: (default, check, its flag's argparse keywords); its config key is its name, and
# "name" names a flag other than --NAME.  A check also runs on a config value that a flag
# overrides; kernel and h have none, as make_kernel and BandwidthRule.parse check them in use.
_SETTINGS = {
    "kernel": ("bartlett", None, {"choices": KERNEL_NAMES, "help": "smoothing kernel"}),
    "flat_width": (0.5, config_number,
                   {"type": float, "metavar": "RHO", "help": "flat-top plateau width in (0, 1)"}),
    "h": ("power:1,0.3333", None,
          {"metavar": "RULE", "help": "bandwidth: NUMBER, fixed:H, power:COEF,EXP, or plugin"}),
    "unbiased": (False, config_flag, {**_STORE_TRUE, "help": "divide lag i by N-i instead of N"}),
    "psd": (False, config_flag, {**_STORE_TRUE, "help": "project the estimate onto the PSD cone"}),
    "m_trunc": (None, _COUNT, None),
    "p": (1, partial(_COUNT, low=1),
          {"type": int, "help": "number of leading eigen levels (default 1)"}),
    # fpca checks the (0, 1) range on the level in use, not on a config value a flag overrides
    "level": (0.95, config_number, {"type": float, "help": "confidence level (default 0.95)"}),
    "pilot_h": (None, config_number,  # bandwidth's --h
                {"name": "--h", "type": float, "metavar": "PILOT", "help": "pilot bandwidth"}),
    "seed": (0, _COUNT, {"type": int, "help": "master seed"}),
    # mc-verify's --seed overrides experiment.master_seed and is not a config key
    "master_seed": (None, None, {"name": "--seed", "type": int, "metavar": "SEED",
                                 "help": "override the experiment master seed"}),
    "bias_check": (None, None, None),  # checked by cmd_mc_verify
    "out": (".", _path, None),  # the --out of every command
}


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


_ESTIMATE = ("kernel", "flat_width", "h", "unbiased", "psd", "m_trunc")


def _estimate(args, cfg: dict, p: int = 0):
    """Every setting, then the data and its bandwidth, then the estimate; for estimate and fpca."""
    settings = {key: _pick(args, cfg, key) for key in _ESTIMATE}
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
    p, conf = _pick(args, cfg, "p"), _pick(args, cfg, "level")
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
    flat_width = _pick(args, cfg, "flat_width")
    kernel = make_kernel(_pick(args, cfg, "kernel"), flat_width)
    rule = BandwidthRule(
        "plugin", pilot_h=_pick(args, cfg, "pilot_h"), m_trunc=_pick(args, cfg, "m_trunc")
    )
    _, _, sel, record = _sample_and_bandwidth(args, kernel, rule)
    config = {"kernel": kernel.name, "flat_width": flat_width,
              "pilot_h": sel.pilot_h, "m_trunc": sel.m_trunc}
    record |= {"config": config, "clamped": sel.clamped}
    return record, {"bandwidth.json": {"h_plugin": sel.bandwidth.h, **_plugin_constants(sel)}}


def cmd_simulate(args, cfg: dict):
    n_obs = config_number(cfg["n_obs"], "n_obs", integer=True, low=2)
    grid_points = config_number(cfg["grid_points"], "grid_points", integer=True, low=1)
    dgp = DgpSpec.from_dict(cfg["dgp"])
    seed = _pick(args, cfg, "seed")
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
    exp_raw, seed = cfg["experiment"], _pick(args, cfg, "master_seed")
    if seed is not None and isinstance(exp_raw, dict):  # from_dict refuses a non-object
        exp_raw = {**exp_raw, "master_seed": seed}
    spec = ExperimentSpec.from_dict(exp_raw)
    # reject a malformed bias_check, and run it, before the experiment burns any time
    bias_cfg = _pick(args, cfg, "bias_check")
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
        rows = [[*astuple(p), math.log(p.h),
                 math.log(p.err_debiased) if p.err_debiased > 0 else math.nan]
                for p in bias_report.points]
        files["bias.csv"] = (
            np.array(rows),
            ["h", "err_raw", "err_debiased", "noise_sd", "signal", "log_h", "log_err"],
        )
    files["report.json"] = payload
    return {"config": {"experiment": exp_raw, "bias_check": bias_cfg}}, files


# name: (function, help, reads --data, required config keys, the settings it reads).  A function
# takes the flags and the config and returns (record, files): the record goes to metadata.json,
# and each file is a dict (JSON), an array (CSV) or an (array, header) pair (CSV with a header).
_COMMANDS = {
    "estimate": (cmd_estimate, "estimate the long-run covariance surface", True, (), _ESTIMATE),
    "fpca": (cmd_fpca, "eigenvalues and eigenfunctions with confidence intervals", True, (),
             (*_ESTIMATE, "p", "level")),
    "bandwidth": (cmd_bandwidth, "data-driven plug-in bandwidth", True, (),
                  ("kernel", "flat_width", "pilot_h", "m_trunc")),
    "simulate": (cmd_simulate, "generate a synthetic sample plus its exact truth", False,
                 ("dgp", "n_obs", "grid_points"), ("seed",)),
    "mc-verify": (cmd_mc_verify, "Monte Carlo check of the distributional claims", False,
                  ("experiment",), ("master_seed", "bias_check")),
}


def _run(args) -> None:
    """Run one command, then write its files and, last, its metadata.json into ``out``."""
    cfg = _load_config(args)
    out = _pick(args, cfg, "out")
    record, files = _COMMANDS[args.command][0](args, cfg)
    files["metadata.json"] = {"command": args.command, **record}
    data = getattr(args, "data", None)
    if data is not None and os.path.exists(data):
        for name in files:
            path = f"{out}/{name}"
            if os.path.exists(path) and os.path.samefile(path, data):
                raise ConfigError(f"output {path} would overwrite the --data file {data}")
    meta = f"{out}/metadata.json"  # a rerun replaces its own record, and no other
    if os.path.lexists(meta) and _recorded_command(meta) != args.command:
        raise ConfigError(f"{meta} was not written by {args.command}; give it its own --out")
    for name, content in files.items():
        if isinstance(content, dict):
            io.json_text(content, name)  # refuses a non-finite number before --out is made
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


def _recorded_command(path: str):
    """The command a metadata.json records; None if it is unreadable or records none."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh).get("command")
    except (OSError, ValueError, AttributeError):
        return None


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
            return 0
        except LrcovError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
        finally:
            if _malloc_trim is not None:
                _malloc_trim(0)


if __name__ == "__main__":
    sys.exit(main())
