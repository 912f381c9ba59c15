"""Checks of the installed lrcov package: CI runs them as a script, tier-1 in-process.

After ``pip install .``, ``python tests/installed_checks.py`` runs each check of CHECKS in a
new temporary directory through the ``lrcov`` console script; tier-1 runs them through
``lrcov.cli.main``.  A check takes a runner ``run(argv, env) -> (exit_code, stderr)`` that runs
one command with ``env`` added to the environment.  Only the stdlib, numpy and lrcov are imported.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

import lrcov

THREADS = {"LRCOV_THREADS": "2"}  # two workers: mc-verify starts its process pool
FMA = {"kind": "fma", "sigmas": [1.0, 0.5], "theta": [0.5]}
SMALL = {"dgp": FMA, "kernel": "bartlett", "n_obs": 200, "grid_points": 4, "h": 3, "eigen_levels": [1, 2]}
MC = {"experiment": dict(SMALL, replications=16, workers=2)}
FAR1 = {"kind": "far1", "sigmas": [1.0, 0.5], "rho": 0.5}
MC_PLUGIN = {"experiment": dict(MC["experiment"], dgp=FAR1, kernel="parzen", h="plugin"),
             "bias_check": {"h": [2, 4, 8], "replications": 16}}
# iid on one point, as the A2 gate: the one-component path
MC_SCALAR = {"experiment": {"dgp": {"kind": "iid", "sigmas": [1.0]}, "kernel": "bartlett", "n_obs": 200,
                            "grid_points": 1, "h": "power:1,0.3333333333333333", "projections": ["ones"]}}
CLI_RUNS = (
    "simulate --config sim.json --out sim",
    "estimate --data sim/sample.csv --h plugin --out est",
    "bandwidth --data sim/sample.csv --out bw",
    "fpca --data sim/sample.csv --h plugin --p 2 --out fpca",
    "mc-verify --config mc.json --out mc",
    "mc-verify --config mc_plugin.json --out mc_plugin",
)

# finite truths whose noise surface's squared entries sum past a double (1e77), or whose
# estimates overflow (iid 1e154 and 2e153)
HUGE = {"kind": "fma", "sigmas": [1e77, 1.0], "theta": [0.5]}
MC_100 = dict(SMALL, n_obs=100, replications=12, eigen_levels=[1])
BIAS_CHECK = {"h": [2, 4, 8], "replications": 8}
CONFIGS = {
    "sim.json": {"dgp": FMA, "n_obs": 200, "grid_points": 4},
    "mc.json": MC,
    "mc_plugin.json": MC_PLUGIN,
    "mc_h.json": {"experiment": dict(MC_100, h=1e200, eigen_levels=[1, 2])},
    "sim_1e77.json": {"dgp": HUGE, "n_obs": 100, "grid_points": 4},
    "mc_1e77.json": {"experiment": dict(MC_100, dgp=HUGE)},
    "bias_1e154.json": {"experiment": dict(MC_100, dgp={"kind": "iid", "sigmas": [1e154]}),
                        "bias_check": BIAS_CHECK},
    "bias_2e153.json": {"experiment": dict(MC_100, dgp={"kind": "iid", "sigmas": [2e153]}),
                        "bias_check": BIAS_CHECK},
    "bias_1e100.json": {"experiment": dict(MC_100, dgp={"kind": "iid", "sigmas": [1e100]}),
                        "bias_check": BIAS_CHECK},
    # refused when the experiment is built, before its bias check runs
    "bias_tied.json": {"experiment": dict(MC_100, dgp={"kind": "iid", "sigmas": [1.0, 1.0]}),
                       "bias_check": BIAS_CHECK},
    "bias_power_1e308.json": {"experiment": dict(MC_100, h="power:1e308,0.9"), "bias_check": BIAS_CHECK},
    # a window flat over every lag: the scaled errors are distinct, but their squares underflow
    "mc_h_1e308.json": {"experiment": dict(MC_SCALAR["experiment"], n_obs=20, h="power:1e+308,0.125",
                                           replications=8)},
}
# w.csv times each scale; estimate.csv, under the name of estimate's output, for the default --out .
CURVES = {"w.csv": 1.0, "estimate.csv": 1.0, "w1e100.csv": 1e100, "w1e140.csv": 1e140, "w1e154.csv": 1e154}

RATE = "warning: h^{} = {} exceeds N = {}; the leading bias approximation degrades\n"
PARZEN_INF = RATE.format(2, "inf", 200)
NON_FINITE = "error: surface contains non-finite values\n"
# name: (command, exit code, its whole stderr).  A double overflows to inf where Python's
# float power raises OverflowError: h^q past 1e154.  The plug-in's constants enter as their
# ratio, never squared, so curves of size 1e100 and 1e140 give the h of the unscaled curves;
# times 1e154 the window sums' products overflow, and every command refuses them alike.
PROBES = {
    "estimate-parzen": ("estimate --data w.csv --kernel parzen --h 1e200 --out est", 0, PARZEN_INF),
    "fpca-tukey-hanning-power": (
        "fpca --data w.csv --kernel tukey-hanning --h power:1e200,0.5 --out fpca", 0, PARZEN_INF),
    "bandwidth-parzen-pilot": (
        "bandwidth --data w.csv --kernel parzen --h 1e200 --out bwp", 0, PARZEN_INF),
    "estimate-parzen-plugin-pilot": (  # the plug-in h, clamped to N/2
        "estimate --data w.csv --kernel parzen --h plugin:1e200 --out estp", 0,
        PARZEN_INF + RATE.format(2, "1e+04", 200)),
    "mc-verify-h-1e200": ("mc-verify --config mc_h.json --out mc_h", 0, RATE.format(1, "1e+200", 100)),
    "bandwidth": ("bandwidth --data w.csv --out bw", 0, ""),
    "bandwidth-1e100": ("bandwidth --data w1e100.csv --out bw1e100", 0, ""),
    "bandwidth-1e140": ("bandwidth --data w1e140.csv --out bw1e140", 0, ""),
    "estimate-plugin-1e100": ("estimate --data w1e100.csv --h plugin --out est1e100", 0, ""),
    "estimate-plugin-1e140": ("estimate --data w1e140.csv --h plugin --out est1e140", 0, ""),
    "bandwidth-1e154": ("bandwidth --data w1e154.csv --out bw1e154", 4, NON_FINITE),
    "estimate-1e154": ("estimate --data w1e154.csv --h 3 --out est1e154", 4, NON_FINITE),
    "fpca-1e154": ("fpca --data w1e154.csv --h 3 --out fpca1e154", 4, NON_FINITE),
    # constant curves whose centring leaves a rounding of about 1e-17, not exact zeros
    "bandwidth-constant": ("bandwidth --data constant.csv --out bwc", 4,
                           "error: zero-variance sample: every curve is constant over time\n"),
    "simulate-1e77": ("simulate --config sim_1e77.json --out sim_1e77", 0, ""),
    "mc-verify-1e77": ("mc-verify --config mc_1e77.json --out mc_1e77", 4,
                       "error: sample variance overflows a double\n"),
    "mc-verify-bias-check-1e154": ("mc-verify --config bias_1e154.json --out b1e154", 4, NON_FINITE),
    "mc-verify-bias-check-2e153": ("mc-verify --config bias_2e153.json --out b2e153", 4, NON_FINITE),
    "mc-verify-bias-check-1e100": ("mc-verify --config bias_1e100.json --out b1e100", 4,
                                   "error: squared estimates overflow a double\n"),
    "mc-verify-bias-check-tied-levels": (
        "mc-verify --config bias_tied.json --out btied", 5,
        "error: eigenvalues 1 and 2 separated by 0 (< 1e-08); level-1 inference refused\n"),
    "mc-verify-bias-check-power-1e308": ("mc-verify --config bias_power_1e308.json --out bpow", 4,
                                         "error: bandwidth must be positive and finite, got inf\n"),
    "mc-verify-h-1e308": ("mc-verify --config mc_h_1e308.json --out mc_h_1e308", 4,
                          RATE.format(1, "1.45e+308", 20) + "error: sample variance underflows a double\n"),
    "estimate-bartlett-flat-width": (  # refused for every kernel, not only flat-top
        "estimate --data w.csv --kernel bartlett --flat-width 5 --h 2 --out fw", 3,
        "error: flat-top plateau width must lie in (0, 1), got 5.0\n"),
    "out-is-the-data": ("estimate --data w.csv --h 2 --out w.csv", 3,
                        "error: cannot write to w.csv: [Errno 17] File exists: 'w.csv'\n"),
    # a digit separator is a bad cell, as np.loadtxt reads it, not the number 10
    "digit-separator": ("estimate --data sep.csv --h 2 --out sep", 2,
                        "error: row 1, column 1: cannot parse '1_0'\n"),
    # a form feed inside a row is part of its cell, as in np.loadtxt, not a row break
    "form-feed-in-a-row": ("estimate --data ff.csv --h 2 --out ff", 2,
                           "error: row 1, column 2: cannot parse '2\\x0c3'\n"),
    "default-out-holds-the-data": (
        "estimate --data estimate.csv --h 2", 3,
        "error: output ./estimate.csv would overwrite the --data file estimate.csv\n"),
}


def write_inputs() -> dict:
    """Write every check's data and config files here; return each file's bytes."""
    x = np.random.default_rng(11).standard_normal((200, 3))
    inputs = {"sep.csv": b"1_0,2\n3,4\n5,6\n", "ff.csv": b"1,2\f3,4\n5,6\n",
              "constant.csv": b"0.1,0.1\n" * 20}
    inputs.update((name, json.dumps(cfg).encode()) for name, cfg in CONFIGS.items())
    for name, scale in CURVES.items():
        inputs[name] = "".join(",".join(map(repr, row)) + "\n" for row in (x * scale).tolist()).encode()
    for name, data in inputs.items():
        Path(name).write_bytes(data)
    return inputs


def probe(run, name: str, inputs: dict) -> None:
    """PROBES[name] exits with its code and stderr, writes nothing if refused, and keeps every input."""
    command, code, err = PROBES[name]
    argv = command.split()
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    got = run(argv, THREADS)
    assert got == (code, err), (command, got)
    assert out in (None, *inputs) or Path(out).exists() == (code == 0), command
    assert all(Path(n).read_bytes() == data for n, data in inputs.items()), command


def check_cli(run) -> None:
    """Every command exits 0 on a tiny config; mc-verify runs its plug-in and h-grid workers on two."""
    write_inputs()
    for command in ("--help", *CLI_RUNS):
        assert run(command.split(), THREADS)[0] == 0, command
    for out in ("mc", "mc_plugin"):
        assert '"workers": 2' in Path(out, "report.json").read_text(), out
    assert '"clamped": ' in Path("mc_plugin", "report.json").read_text()


def close(got, want) -> None:
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), (got, want)


def check_fft_paths(run) -> None:
    """Long windows, and short windows of wide samples, on the FFT path match the naive oracle.

    h = 80 and 150 on N = 200, G = 4 reach past the 64-lag crossover of narrow samples;
    h = 10 and 12 on N = 300, G = 64 past the 8 lags at which a 64-column sample crosses.
    """
    spec = lrcov.DgpSpec(kind="fma", sigmas=(1.0, 0.5), theta=(0.5,))
    sample = lrcov.generate(spec, 200, lrcov.Grid(4), lrcov.replication_rng(7, 0))
    wide = lrcov.generate(spec, 300, lrcov.Grid(64), lrcov.replication_rng(7, 1))
    for s, name, h, unbiased in ((sample, "bartlett", 80, False), (sample, "parzen", 150, True),
                                 (wide, "bartlett", 10, False), (wide, "parzen", 12, False)):
        kernel = lrcov.make_kernel(name)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"h\^2 = ")  # Parzen at h = 150 has h^2 > N
            got, want = (f(s, kernel, h, unbiased=unbiased).surface.values
                         for f in (lrcov.estimate_lrcov, lrcov.estimate_lrcov_naive))
        close(got, want)
    # the spectral density at pi/8 against its lag sum, written out
    h, omega, y = 80, math.pi / 8, sample.values - sample.values.mean(axis=0)
    kernel = lrcov.make_kernel("bartlett")
    re, im = np.zeros((4, 4)), np.zeros((4, 4))
    for k in range(-h, h + 1):
        cross = y[: 200 - k].T @ y[k:] if k >= 0 else (y[: 200 + k].T @ y[-k:]).T
        w = lrcov.kernel_value(kernel, k / h) / 200 / (2 * math.pi)
        re += w * math.cos(omega * k) * cross
        im -= w * math.sin(omega * k) * cross
    f = lrcov.estimate_spectral_density(sample, kernel, h, omega)
    close(f.real_part.values, re)
    close(f.imag_part.values, im)
    # the plug-in rule's default pilot is the rate N^(1/(1+2q))
    kernel = lrcov.make_kernel("parzen")
    rate = 200 ** (1 / (1 + 2 * kernel.char_exponent))
    assert lrcov.plugin_bandwidth(sample, kernel) == lrcov.plugin_bandwidth(sample, kernel, rate)


def check_worker_count(run) -> None:
    """Monte Carlo outputs do not depend on the worker count.

    Each config at R = 24 and 3 workers, capped to 1, 2 and 3: blocks of 6, 3 and 2
    replications, so three block partitions.  The plug-in config runs every Monte Carlo
    path, and the scalar one the one-component path.
    """
    for name, cfg in (("mc", MC), ("mc_plugin", MC_PLUGIN), ("mc_scalar", MC_SCALAR)):
        cfg = json.loads(json.dumps(cfg))
        cfg["experiment"].update(workers=3, replications=24)
        if "bias_check" in cfg:
            cfg["bias_check"]["replications"] = 24
        Path(f"{name}.json").write_text(json.dumps(cfg))
        runs, reports = [f"{name}_{t}" for t in (1, 2, 3)], []
        for t, out in enumerate(runs, 1):
            argv = ["mc-verify", "--config", f"{name}.json", "--out", out]
            assert run(argv, {"LRCOV_THREADS": str(t)})[0] == 0, out
            reports.append(json.loads(Path(out, "report.json").read_text())["report"])
            assert reports[-1].pop("workers") == t, out
            del reports[-1]["runtime_seconds"]
        assert reports[0] == reports[1] == reports[2], name
        names = sorted(p.name for p in Path(runs[0]).glob("*.csv"))
        assert any(n.startswith("qq_") for n in names), names
        assert ("bias.csv" in names) == ("bias_check" in cfg), names
        for n in names:
            want = Path(runs[0], n).read_bytes()
            assert all(Path(r, n).read_bytes() == want for r in runs[1:]), (name, n)


def check_refusals(run) -> None:
    """Every probe exits with its code, never a traceback; the plug-in h is scale-free."""
    inputs = write_inputs()
    for name in PROBES:
        probe(run, name, inputs)
    h = [json.loads(Path(out, "bandwidth.json").read_text())["h_plugin"] for out in ("bw", "bw1e100")]
    assert math.isclose(*h, rel_tol=1e-12, abs_tol=0.0), h


LEAK_CHECK = """import sys
from lrcov.cli import main
for command in sys.argv[1:]:
    assert main(command.split()) == 0, command
leaked = sorted({"scipy", "hypothesis", "pytest"} & {m.partition(".")[0] for m in sys.modules})
assert not leaked, leaked
"""


def check_no_test_module_imported(run) -> None:
    """The tiny-config CLI, run in a new interpreter, imports none of scipy, hypothesis and pytest."""
    write_inputs()
    env = {**os.environ, **THREADS, "PYTHONPATH": str(Path(lrcov.__file__).parents[1])}  # this lrcov
    subprocess.run([sys.executable, "-c", LEAK_CHECK, *CLI_RUNS], env=env, check=True)


CHECKS = (check_cli, check_fft_paths, check_worker_count, check_refusals, check_no_test_module_imported)


def console_run(argv, env) -> tuple:
    """Run the ``lrcov`` console script; its stderr is returned and echoed."""
    done = subprocess.run(["lrcov", *argv], env={**os.environ, **env}, stderr=subprocess.PIPE, text=True)
    sys.stderr.write(done.stderr)
    return done.returncode, done.stderr


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for check in CHECKS:
            os.chdir(tempfile.mkdtemp(dir=tmp))
            check(console_run)
            print(f"passed: {check.__name__}", flush=True)


if __name__ == "__main__":
    main()
