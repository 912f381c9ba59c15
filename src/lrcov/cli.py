"""Command-line surface: estimate | fpca | bandwidth | simulate | mc-verify.

Data files are CSV with one observed curve per row (time runs down the file,
the number of columns defines the evaluation grid; optional single header
row).  Every command writes its results plus a metadata JSON holding the full
resolved configuration into the output directory.

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
    DimensionError,
    KernelSpecError,
    LrcovError,
    SeparationError,
    config_flag,
    config_number,
    config_numbers,
    config_object,
)
from .estimator import estimate_lrcov, project_psd
from .fpca import _separation_gaps, eigendecompose, eigenvalue_ci
from .grid import Grid, Surface, l2_norm_surface, surface_integral
from .kernels import KERNEL_NAMES, KernelSpec, make_kernel
from .mc import BandwidthRule, ExperimentSpec, _effective_workers, bias_rate_check, run_experiment
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


def _load_config(args, required=(), optional=()) -> dict:
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


def _make_kernel(name, flat_width: float) -> KernelSpec:
    try:
        return make_kernel(name, flat_width)
    except KernelSpecError as exc:
        raise ConfigError(str(exc)) from None


def _read_data(args):
    if args.data is None:
        raise ConfigError(f"{args.command} requires --data")
    return io.read_curves(args.data)


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
    """Settings, then data, then bandwidth, then the estimate; shared by estimate and fpca.

    Every setting is checked before the data file is read, and ``p`` eigen
    levels against the grid size right after it.
    """
    settings = {
        "kernel": _pick(args, cfg, "kernel", "bartlett"),
        "flat_width": _pick(args, cfg, "flat_width", 0.5, config_number),
        "h": _pick(args, cfg, "h", "power:1,0.3333"),
        "unbiased": _pick(args, cfg, "unbiased", False, config_flag),
        "psd": _pick(args, cfg, "psd", False, config_flag),
        "m_trunc": _pick(args, cfg, "m_trunc", None, _lag_count),
    }
    kernel = _make_kernel(settings["kernel"], settings["flat_width"])
    rule = replace(BandwidthRule.parse(settings["h"]), m_trunc=settings["m_trunc"])
    rule.check_kernel(kernel)
    sample = _read_data(args)
    if p > sample.grid.n_points:
        raise ConfigError(f"p = {p} exceeds the grid size {sample.grid.n_points}")
    bandwidth, sel = rule.resolve(sample, kernel)
    est = estimate_lrcov(sample, kernel, bandwidth, unbiased=settings["unbiased"])
    if settings["psd"]:
        est = project_psd(est)
    meta = {
        "command": args.command,
        "data": args.data,
        "n_obs": sample.n_obs,
        "grid_points": sample.grid.n_points,
        "config": settings,
        "kernel": kernel.name,
        "psd_applied": settings["psd"],
        "h_selection": _selection_trace(rule, bandwidth.h, sel),
    }
    return est, meta


def cmd_estimate(args) -> int:
    cfg = _load_config(args, optional=_ESTIMATE_KEYS)
    out = _pick(args, cfg, "out", ".", _path)
    est, meta = _estimate(args, cfg)
    os.makedirs(out, exist_ok=True)
    io.write_surface_csv(f"{out}/estimate.csv", est.surface)
    io.write_json(f"{out}/metadata.json", meta)
    return EXIT_OK


def cmd_fpca(args) -> int:
    cfg = _load_config(args, optional=(*_ESTIMATE_KEYS, "p", "level"))
    p = _pick(args, cfg, "p", 1, partial(config_number, integer=True, low=1))
    conf = _pick(args, cfg, "level", 0.95, config_number)
    if not 0.0 < conf < 1.0:
        raise ConfigError(f"confidence level must lie in (0, 1), got {conf}")
    out = _pick(args, cfg, "out", ".", _path)
    est, meta = _estimate(args, cfg, p)
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
    meta["config"] |= {"p": p, "level": conf}
    meta["separation_gaps"] = _separation_gaps(eigen.eigenvalues)[:p].tolist()
    os.makedirs(out, exist_ok=True)
    io.write_matrix_csv(
        f"{out}/eigenvalues.csv", np.array(rows), header=["level", "eigenvalue", "ci_low", "ci_high"]
    )
    io.write_matrix_csv(f"{out}/eigenfunctions.csv", eigen.eigenfunctions[:p].T)
    io.write_json(f"{out}/metadata.json", meta)
    return EXIT_OK


def cmd_bandwidth(args) -> int:
    cfg = _load_config(args, optional=("kernel", "flat_width", "pilot_h", "m_trunc"))
    kernel = _make_kernel(
        _pick(args, cfg, "kernel", "bartlett"),
        _pick(args, cfg, "flat_width", 0.5, config_number),
    )
    rule = BandwidthRule(
        "plugin",
        pilot_h=_pick(args, cfg, "pilot_h", None, config_number),
        m_trunc=_pick(args, cfg, "m_trunc", None, _lag_count),
    )
    rule.check_kernel(kernel)
    out = _pick(args, cfg, "out", ".", _path)
    sample = _read_data(args)
    _, sel = rule.resolve(sample, kernel)
    os.makedirs(out, exist_ok=True)
    io.write_json(f"{out}/bandwidth.json", {"h_plugin": sel.bandwidth.h, **_plugin_constants(sel)})
    io.write_json(
        f"{out}/metadata.json",
        {
            "command": "bandwidth",
            "data": args.data,
            "n_obs": sample.n_obs,
            "grid_points": sample.grid.n_points,
            "config": {
                "kernel": kernel.name,
                "flat_width": kernel.flat_width,
                "pilot_h": sel.pilot_h,
                "m_trunc": sel.m_trunc,
            },
            "clamped": sel.clamped,
        },
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(args, required=("dgp", "n_obs", "grid_points"), optional=("seed",))
    n_obs = config_number(cfg["n_obs"], "n_obs", integer=True, low=2)
    grid_points = config_number(cfg["grid_points"], "grid_points", integer=True, low=1)
    dgp = DgpSpec.from_dict(cfg["dgp"])
    seed = _pick(args, cfg, "seed", 0, partial(config_number, integer=True, low=0))
    out = _pick(args, cfg, "out", ".", _path)
    grid = Grid(grid_points)
    try:
        truth_set = truth(dgp, grid)
    except DimensionError as exc:  # more noise components than the grid resolves
        raise ConfigError(str(exc)) from None
    sample = generate(dgp, n_obs, grid, replication_rng(seed, 0))
    os.makedirs(out, exist_ok=True)
    io.write_curves_csv(f"{out}/sample.csv", sample)
    io.write_json(
        f"{out}/truth.json",
        {
            "c": truth_set.c.values,
            "c_integral": surface_integral(truth_set.c),
            "eigenvalues": truth_set.eigen.eigenvalues,
            "gamma_norms": {
                str(lag): l2_norm_surface(Surface(grid, gam))
                for lag, gam in enumerate(truth_set.gammas)
            },
        },
    )
    io.write_json(
        f"{out}/metadata.json",
        {
            "command": "simulate",
            "config": {
                "dgp": dgp.to_dict(),
                "n_obs": n_obs,
                "grid_points": grid_points,
                "seed": seed,
            },
        },
    )
    return EXIT_OK


def _write_qq_csv(path: str, values: np.ndarray) -> None:
    z = np.sort(np.asarray(values, dtype=float))
    n = len(z)
    loc = float(np.mean(z))
    scale = float(np.std(z, ddof=1))
    probs = (np.arange(1, n + 1) - 0.5) / n
    theo = loc + scale * np.array([NormalDist().inv_cdf(p) for p in probs])
    io.write_matrix_csv(path, np.column_stack([theo, z]), header=["normal", "empirical"])


def cmd_mc_verify(args) -> int:
    cfg = _load_config(args, required=("experiment",), optional=("bias_check",))
    out = _pick(args, cfg, "out", ".", _path)
    exp_raw = cfg["experiment"]
    if args.seed is not None and isinstance(exp_raw, dict):  # from_dict refuses a non-object
        exp_raw = {**exp_raw, "master_seed": args.seed}
    spec = ExperimentSpec.from_dict(exp_raw)
    _effective_workers(spec.workers, spec.replications)  # a bad LRCOV_THREADS exits 3 here
    # reject a malformed bias_check, and run it, before the experiment burns any time
    bias_cfg = cfg.get("bias_check")
    if bias_cfg is not None:
        config_object(bias_cfg, "bias_check", required=("h", "replications"))
        try:
            bias_report = bias_rate_check(
                spec.dgp,
                spec.kernel,
                spec.n_obs,
                config_numbers(bias_cfg["h"], "bias_check h"),
                config_number(bias_cfg["replications"], "bias_check replications", integer=True),
                spec.grid,
                master_seed=spec.master_seed,
            )
        except (ContractViolationError, KernelSpecError) as exc:  # its arguments are refused
            raise ConfigError(f"bias_check: {exc}") from None
    report = run_experiment(spec)
    os.makedirs(out, exist_ok=True)
    payload = {"experiment": exp_raw, "report": report.to_dict(), "bias_check": None}
    for j in range(report.projection_samples.shape[1]):
        _write_qq_csv(f"{out}/qq_projection_{j}.csv", report.projection_samples[:, j])
    for j, level in enumerate(spec.eigen_levels):
        _write_qq_csv(f"{out}/qq_eigen_{level}.csv", report.eigen_error_samples[:, j])
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
        io.write_matrix_csv(
            f"{out}/bias.csv",
            np.array(rows),
            header=["h", "err_raw", "err_debiased", "noise_sd", "signal", "log_h", "log_err"],
        )
    io.write_json(f"{out}/report.json", payload)
    io.write_json(
        f"{out}/metadata.json",
        {"command": "mc-verify", "config": {"experiment": exp_raw, "bias_check": bias_cfg}},
    )
    return EXIT_OK


_DISPATCH = {
    "estimate": cmd_estimate,
    "fpca": cmd_fpca,
    "bandwidth": cmd_bandwidth,
    "simulate": cmd_simulate,
    "mc-verify": cmd_mc_verify,
}


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command; each warning it raises and its error print as one stderr line."""
    parser = build_parser()
    with warnings.catch_warnings():
        # forked Monte Carlo workers inherit both, so their warnings print the same way
        warnings.simplefilter("default")
        warnings.showwarning = _print_warning
        try:
            args = parser.parse_args(argv)
            return _DISPATCH[args.command](args)
        except LrcovError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
