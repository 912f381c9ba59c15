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
import sys
from statistics import NormalDist

import numpy as np

from . import io
from .errors import (
    ConfigError,
    DataFormatError,
    KernelSpecError,
    LrcovError,
    SeparationError,
)
from .estimator import estimate_lrcov, project_psd
from .fpca import eigendecompose, eigenvalue_ci
from .grid import Grid, Surface, l2_norm_surface, surface_integral
from .kernels import KERNEL_NAMES, make_kernel
from .mc import BandwidthRule, ExperimentSpec, bias_rate_check, run_experiment
from .simulate import DgpSpec, generate, replication_rng, truth

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_DATA = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4
EXIT_SEPARATION = 5


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
    est.add_argument("--h", dest="h_rule", metavar="RULE",
                     help="bandwidth: NUMBER, fixed:H, power:COEF,EXP, or plugin")
    est.add_argument("--unbiased", action="store_const", const=True, default=None,
                     help="divide lag i by N-i instead of N")
    est.add_argument("--psd", action="store_const", const=True, default=None,
                     help="project the estimate onto the PSD cone")

    fp = add_command("fpca", "eigenvalues and eigenfunctions with confidence intervals", True)
    add_kernel_flags(fp)
    fp.add_argument("--h", dest="h_rule", metavar="RULE", help="bandwidth rule")
    fp.add_argument("--unbiased", action="store_const", const=True, default=None)
    fp.add_argument("--psd", action="store_const", const=True, default=None,
                    help="project the estimate onto the PSD cone before decomposing")
    fp.add_argument("--p", type=int, help="number of leading eigen levels (default 1)")
    fp.add_argument("--level", type=float, help="confidence level (default 0.95)")

    bw = add_command("bandwidth", "data-driven plug-in bandwidth", True)
    add_kernel_flags(bw)
    bw.add_argument("--h", dest="h_rule", metavar="PILOT", help="pilot bandwidth (a number)")

    sim = add_command("simulate", "generate a synthetic sample plus its exact truth", False)
    sim.add_argument("--seed", type=int, help="master seed")

    mc = add_command("mc-verify", "Monte Carlo check of the distributional claims", False)
    mc.add_argument("--seed", type=int, help="override the experiment master seed")

    return parser


def _load_config(path: str | None, allowed: set, command: str) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    return raw


def _make_kernel(name: str, flat_width) -> "KernelSpec":
    try:
        return make_kernel(name, 0.5 if flat_width is None else float(flat_width))
    except KernelSpecError as exc:
        raise ConfigError(str(exc)) from None


def _require_data(args) -> str:
    if getattr(args, "data", None) is None:
        raise ConfigError(f"{args.command} requires --data")
    return args.data


def _out_dir(args, cfg: dict) -> str:
    return io.ensure_dir(args.out or cfg.get("out") or ".")


def _pick(flag_value, cfg: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    return cfg.get(key, default)


def _estimation_settings(args, cfg: dict) -> dict:
    return {
        "kernel": _pick(args.kernel, cfg, "kernel", "bartlett"),
        "flat_width": _pick(args.flat_width, cfg, "flat_width", 0.5),
        "h": _pick(args.h_rule, cfg, "h", "power:1,0.3333"),
        "unbiased": bool(_pick(args.unbiased, cfg, "unbiased", False)),
        "psd": bool(_pick(args.psd, cfg, "psd", False)),
        "m_trunc": cfg.get("m_trunc"),
    }


def _selection_trace(rule: BandwidthRule, h: float, sel) -> dict:
    trace = {"rule": rule.kind, "h": float(h), "plugin": None}
    if sel is not None:
        trace["plugin"] = {
            "c0_hat": sel.c0,
            "F_norm_hat": sel.f_norm,
            "C_integral_hat": sel.c_integral,
            "fallback_used": sel.fallback,
            "clamped": sel.clamped,
            "pilot_h": sel.pilot_h,
            "m_trunc": sel.m_trunc,
        }
    return trace


def _resolve_bandwidth(settings: dict, sample, kernel):
    rule = BandwidthRule.parse(settings["h"])
    if rule.kind == "plugin" and settings["m_trunc"] is not None:
        rule = BandwidthRule("plugin", pilot_h=rule.pilot_h, m_trunc=int(settings["m_trunc"]))
    try:
        bandwidth, sel = rule.resolve(sample, kernel)
    except KernelSpecError as exc:  # a kernel without a plug-in rule is a configuration error
        raise ConfigError(str(exc)) from None
    return rule, bandwidth, sel


def cmd_estimate(args) -> int:
    allowed = {"kernel", "flat_width", "h", "unbiased", "psd", "m_trunc", "out"}
    cfg = _load_config(args.config, allowed, "estimate")
    settings = _estimation_settings(args, cfg)
    sample = io.read_curves(_require_data(args))
    kernel = _make_kernel(settings["kernel"], settings["flat_width"])
    rule, bandwidth, sel = _resolve_bandwidth(settings, sample, kernel)
    est = estimate_lrcov(sample, kernel, bandwidth, unbiased=settings["unbiased"])
    if settings["psd"]:
        est = project_psd(est)
    out = _out_dir(args, cfg)
    io.write_surface_csv(f"{out}/estimate.csv", est.surface)
    io.write_json(
        f"{out}/metadata.json",
        {
            "command": "estimate",
            "data": args.data,
            "n_obs": sample.n_obs,
            "grid_points": sample.grid.n_points,
            "config": settings,
            "kernel": kernel.name,
            "psd_applied": settings["psd"],
            "h_selection": _selection_trace(rule, bandwidth.h, sel),
        },
    )
    return EXIT_OK


def cmd_fpca(args) -> int:
    allowed = {"kernel", "flat_width", "h", "unbiased", "psd", "m_trunc", "p", "level", "out"}
    cfg = _load_config(args.config, allowed, "fpca")
    settings = _estimation_settings(args, cfg)
    p = int(_pick(args.p, cfg, "p", 1))
    conf = float(_pick(args.level, cfg, "level", 0.95))
    if p < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    if not 0.0 < conf < 1.0:
        raise ConfigError(f"confidence level must lie in (0, 1), got {conf}")
    sample = io.read_curves(_require_data(args))
    if p > sample.grid.n_points:
        raise ConfigError(f"p = {p} exceeds the grid size {sample.grid.n_points}")
    kernel = _make_kernel(settings["kernel"], settings["flat_width"])
    rule, bandwidth, sel = _resolve_bandwidth(settings, sample, kernel)
    est = estimate_lrcov(sample, kernel, bandwidth, unbiased=settings["unbiased"])
    if settings["psd"]:
        est = project_psd(est)
    eigen = eigendecompose(est.surface)
    rows = []
    for level in range(1, p + 1):
        lam = float(eigen.eigenvalues[level - 1])
        if lam > 0.0:
            ci = eigenvalue_ci(eigen, kernel, sample.n_obs, bandwidth, level, conf)
            rows.append([level, lam, ci.lower, ci.upper])
        else:
            # interval undefined for a non-positive estimate; row kept for audit
            rows.append([level, lam, math.nan, math.nan])
    gaps = [
        float(eigen.eigenvalues[k] - (eigen.eigenvalues[k + 1] if k + 1 < eigen.count else 0.0))
        for k in range(p)
    ]
    out = _out_dir(args, cfg)
    io.write_matrix_csv(
        f"{out}/eigenvalues.csv", np.array(rows), header=["level", "eigenvalue", "ci_low", "ci_high"]
    )
    funcs = np.column_stack([eigen.eigenfunctions[k].values for k in range(p)])
    io.write_matrix_csv(f"{out}/eigenfunctions.csv", funcs)
    io.write_json(
        f"{out}/metadata.json",
        {
            "command": "fpca",
            "data": args.data,
            "n_obs": sample.n_obs,
            "grid_points": sample.grid.n_points,
            "config": settings | {"p": p, "level": conf},
            "kernel": kernel.name,
            "psd_applied": settings["psd"],
            "h_selection": _selection_trace(rule, bandwidth.h, sel),
            "separation_gaps": gaps,
        },
    )
    return EXIT_OK


def cmd_bandwidth(args) -> int:
    allowed = {"kernel", "flat_width", "pilot_h", "m_trunc", "out"}
    cfg = _load_config(args.config, allowed, "bandwidth")
    kernel = _make_kernel(
        _pick(args.kernel, cfg, "kernel", "bartlett"),
        _pick(args.flat_width, cfg, "flat_width", 0.5),
    )
    sample = io.read_curves(_require_data(args))
    pilot = _pick(args.h_rule, cfg, "pilot_h", None)
    settings = {"h": "plugin" if pilot is None else f"plugin:{pilot}", "m_trunc": cfg.get("m_trunc")}
    _, _, sel = _resolve_bandwidth(settings, sample, kernel)
    out = _out_dir(args, cfg)
    io.write_json(
        f"{out}/bandwidth.json",
        {
            "h_plugin": sel.bandwidth.h,
            "c0_hat": sel.c0,
            "F_norm_hat": sel.f_norm,
            "C_integral_hat": sel.c_integral,
            "fallback_used": sel.fallback,
        },
    )
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
    allowed = {"dgp", "n_obs", "grid_points", "seed", "out"}
    if args.config is None:
        raise ConfigError("simulate requires --config")
    cfg = _load_config(args.config, allowed, "simulate")
    for key in ("dgp", "n_obs", "grid_points"):
        if key not in cfg:
            raise ConfigError(f"simulate config requires {key!r}")
    n_obs = int(cfg["n_obs"])
    grid_points = int(cfg["grid_points"])
    if n_obs < 2:
        raise ConfigError(f"need n_obs >= 2, got {n_obs}")
    if grid_points < 1:
        raise ConfigError(f"need grid_points >= 1, got {grid_points}")
    dgp = DgpSpec.from_dict(cfg["dgp"])
    seed = _pick(args.seed, cfg, "seed", dgp.seed)
    grid = Grid(grid_points)
    sample = generate(dgp, n_obs, grid, replication_rng(int(seed), 0))
    truth_set = truth(dgp, grid)
    out = _out_dir(args, cfg)
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
                "seed": int(seed),
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
    allowed = {"experiment", "bias_check", "out"}
    if args.config is None:
        raise ConfigError("mc-verify requires --config")
    cfg = _load_config(args.config, allowed, "mc-verify")
    if "experiment" not in cfg:
        raise ConfigError("mc-verify config requires 'experiment'")
    exp_raw = dict(cfg["experiment"])
    if args.seed is not None:
        exp_raw["master_seed"] = int(args.seed)
    spec = ExperimentSpec.from_dict(exp_raw)
    # reject a malformed bias_check before the experiment burns any time
    bias_cfg = cfg.get("bias_check")
    if bias_cfg is not None:
        if not isinstance(bias_cfg, dict):
            raise ConfigError("bias_check must be an object")
        unknown = set(bias_cfg) - {"h", "replications"}
        if unknown:
            raise ConfigError(f"unknown bias_check keys: {sorted(unknown)}")
        for key in ("h", "replications"):
            if key not in bias_cfg:
                raise ConfigError(f"bias_check requires {key!r}")
    report = run_experiment(spec)
    out = _out_dir(args, cfg)
    payload = {"experiment": exp_raw, "report": report.to_dict(), "bias_check": None}
    for j in range(report.projection_samples.shape[1]):
        _write_qq_csv(f"{out}/qq_projection_{j}.csv", report.projection_samples[:, j])
    for j, level in enumerate(spec.eigen_levels):
        _write_qq_csv(f"{out}/qq_eigen_{level}.csv", report.eigen_error_samples[:, j])
    if bias_cfg is not None:
        bias_report = bias_rate_check(
            spec.dgp,
            spec.kernel,
            spec.n_obs,
            [float(h) for h in bias_cfg["h"]],
            int(bias_cfg["replications"]),
            spec.grid,
            master_seed=spec.master_seed,
        )
        payload["bias_check"] = bias_report.to_dict()
        rows = [
            [
                p.h,
                p.err_raw,
                p.err_debiased,
                p.noise_sd,
                1.0 if p.signal else 0.0,
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SeparationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEPARATION
    except LrcovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
