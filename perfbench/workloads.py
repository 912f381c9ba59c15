"""The three benchmark workloads and the per-layer metrics read from their spans.

Each workload drives lrcov only through public entry points, one call at a
time (a closed loop with a single caller).  ``prepare`` builds the inputs
from the seed outside the timed section; ``run_pass`` is one timed pass; a
run repeats passes on the same inputs.  ``check`` compares a pass's outputs
with benchmark-local references and returns the checks per operation.

Why these three (each optimisation in view has one workload where it shows
and one where it should not):

* ``mc-verify``: thousands of tiny calls with a short window (h about 12.6);
  per-replication overhead in generate, eigendecompose and the Monte Carlo
  pool dominates, io and the plug-in rule stay idle.  Arrays-not-objects
  work should move it; an FFT long-window path should not.
* ``cli-pipeline``: the user's path through the command line on a 50 000 x
  64 sample; CSV io dominates, the plug-in bandwidth rule comes second.
* ``long-window``: h = 2000 on 20 000 x 16, about 2000 lag GEMMs per call;
  the estimator is more than 90% of the time and simulate, fpca and io are
  bypassed.  An FFT crossover should win here and leave mc-verify flat.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
import traceback
import warnings
from typing import NamedTuple

import numpy as np

import oracle
from oracle import Check

CUBE_ROOT_RULE = "power:1,0.3333333333333333"
A4_SIGMAS = (math.sqrt(3.0), math.sqrt(2.0), 1.0)
A4_THETA = 0.5
CLI_SIGMAS = (1.0, 0.7, 0.5, 0.35, 0.25, 0.15)
LONG_SIGMAS = (1.0, 0.7, 0.5)

FULL = {
    "mc-verify": {"n": 2000, "g": 16, "reps": 2000, "bias_h": [4, 8, 16, 32], "bias_reps": 400,
                  "scalar_reps": 6000, "replay": 300, "scaling_reps": 400},
    "cli-pipeline": {"n": 50000, "g": 64, "prefix": 120},
    "long-window": {"n": 20000, "g": 16, "h": 2000.0, "prefix": 160},
}
SMOKE = {
    "mc-verify": {"n": 200, "g": 4, "reps": 16, "bias_h": [2, 4, 8], "bias_reps": 8,
                  "scalar_reps": 16, "replay": 8, "scaling_reps": 16},
    "cli-pipeline": {"n": 400, "g": 8, "prefix": 60},
    "long-window": {"n": 400, "g": 4, "h": 40.0, "prefix": 60},
}


class Op(NamedTuple):
    name: str
    seconds: float
    ok: bool
    error: str | None


class Context:
    """What every workload needs: where to write, its sizes, the seed and the tracer."""

    def __init__(self, lrcov, work: str, seed: int, smoke: bool, tracer, nproc: int):
        self.lrcov = lrcov
        self.work = work
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer
        self.nproc = nproc
        self.warnings: list[str] = []

    def call(self, name: str, fn, span: str | None = None):
        """Run one operation; a raised exception or a nonzero exit code is a failed operation."""
        with warnings.catch_warnings(record=True) as caught:
            t0 = time.perf_counter()
            try:
                with self.tracer.span(span or name):
                    result = fn()
                error = None
            except Exception:  # the benchmark keeps running and reports the failure
                result, error = None, traceback.format_exc(limit=3)
            seconds = time.perf_counter() - t0
        self.warnings.extend(f"{name}: {w.message}" for w in caught)
        if isinstance(result, int) and result != 0:
            error = f"exit code {result}"
        return result, Op(name, seconds, error is None, error)

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _csv(path: str, header: bool = False) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)


def _centered(y: np.ndarray) -> np.ndarray:
    return y - y.mean(axis=0)


def _naive_prefix_check(lrcov, y: np.ndarray, kernel: str, h: float, unbiased: bool) -> Check:
    """The benchmark's direct sum against lrcov's naive oracle on a short prefix."""
    sample = lrcov.CurveSample(lrcov.Grid(y.shape[1]), y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short prefixes trip the h-rate warning
        naive = lrcov.estimate_lrcov_naive(sample, lrcov.make_kernel(kernel), h, unbiased=unbiased)
    n = y.shape[0]
    lags = oracle.window_lags(n, h)
    ref = oracle.direct_lrcov(
        oracle.lag_products(_centered(y), lags), oracle.lag_weights(kernel, h, n, lags, unbiased)
    )
    return oracle.agreement("oracle.naive_prefix", naive.surface.values, ref)


# --------------------------------------------------------------------------- mc-verify


class McVerify:
    name = "mc-verify"

    def __init__(self, ctx: Context, sizes: dict):
        self.ctx, self.s = ctx, sizes
        self.reference_digest: str | None = None

    def _experiment(self, scalar: bool, reps: int, workers: int) -> dict:
        s = self.s
        if scalar:
            return {"dgp": {"kind": "iid", "sigmas": [1.0]}, "kernel": "bartlett",
                    "n_obs": s["n"], "grid_points": 1, "h": CUBE_ROOT_RULE,
                    "replications": reps, "projections": ["ones"],
                    "master_seed": self.ctx.seed + 1, "workers": workers}
        return {"dgp": {"kind": "fma", "sigmas": list(A4_SIGMAS), "theta": [A4_THETA]},
                "kernel": "bartlett", "n_obs": s["n"], "grid_points": s["g"],
                "h": CUBE_ROOT_RULE, "replications": reps, "eigen_levels": [1, 2],
                "master_seed": self.ctx.seed, "workers": workers}

    def prepare(self) -> int:
        s, nproc = self.s, self.ctx.nproc
        configs = {
            "a4": {"experiment": self._experiment(False, s["reps"], nproc),
                   "bias_check": {"h": s["bias_h"], "replications": s["bias_reps"]}},
            "a2": {"experiment": self._experiment(True, s["scalar_reps"], nproc)},
        }
        for key, cfg in configs.items():
            with open(self.ctx.path(f"{key}.json"), "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
        self.reps_per_pass = s["reps"] + s["bias_reps"] + s["scalar_reps"]
        draws = s["reps"] * s["g"] + s["bias_reps"] * s["g"] + s["scalar_reps"]
        return 8 * s["n"] * draws  # bytes of curve values generated per pass

    def run_pass(self, k: int) -> list[Op]:
        main = self.ctx.lrcov.cli.main
        ops = []
        for key in ("a4", "a2"):
            argv = ["mc-verify", "--config", self.ctx.path(f"{key}.json"),
                    "--out", self.ctx.path(f"out_{key}")]
            _, op = self.ctx.call(f"mc-verify.{key}", lambda: main(argv), "cli.mc-verify")
            ops.append(op)
        return ops

    def _digest(self) -> str:
        parts = []
        for key in ("a4", "a2"):
            out = self.ctx.path(f"out_{key}")
            doc = _load_json(os.path.join(out, "report.json"))
            doc["report"].pop("runtime_seconds")
            parts.append(json.dumps(doc, sort_keys=True))
            for name in sorted(os.listdir(out)):
                if name.endswith(".csv"):
                    parts.append(_sha256(os.path.join(out, name)))
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    def check(self, k: int) -> dict[str, list[Check]]:
        counted = not self.ctx.smoke  # smoke sizes are far too small for the statistics
        a4 = _load_json(self.ctx.path("out_a4", "report.json"))
        a2 = _load_json(self.ctx.path("out_a2", "report.json"))
        lam = np.sort((1.0 + A4_THETA) ** 2 * np.square(A4_SIGMAS))[::-1]
        kernel = self.ctx.lrcov.make_kernel("bartlett")
        checks = {
            "mc-verify.a4": oracle.gate_a4_a5_a3(a4, lam, kernel.square_integral, counted),
            "mc-verify.a2": oracle.gate_a2(a2, counted),
        }
        digest = self._digest()
        if self.reference_digest is None:
            checks["mc-verify.a2"].append(self._scalar_recompute())
            self.reference_digest = digest
        else:
            same = digest == self.reference_digest
            checks["mc-verify.a4"].append(Check("outputs_equal_first_pass", float(same), "true", same))
        return checks

    def _scalar_recompute(self) -> Check:
        """Recompute every scalar replication with the direct sum; compare the QQ column."""
        lrcov, n = self.ctx.lrcov, self.s["n"]
        exp = self._experiment(True, self.s["scalar_reps"], 1)
        dgp = lrcov.DgpSpec.from_dict(exp["dgp"])
        h = 1.0 * float(n) ** 0.3333333333333333
        lags = oracle.window_lags(n, h)
        w = 2.0 * oracle.lag_weights("bartlett", h, n, lags, False)
        grid = lrcov.Grid(1)
        values = np.empty(exp["replications"])
        for r in range(exp["replications"]):
            y = lrcov.generate(dgp, n, grid, lrcov.replication_rng(exp["master_seed"], r)).values
            y = y[:, 0] - y[:, 0].mean()
            values[r] = sum(w[i] * float(y[: n - i] @ y[i:]) for i in range(lags + 1))
        want = np.sort((values - values.mean()) * math.sqrt(n / h))
        got = _csv(self.ctx.path("out_a2", "qq_projection_0.csv"), header=True)[:, 1]
        return oracle.agreement("A2.qq_direct_sum", got, want)

    def named_metrics(self, passes: list[float], ops: list[Op]) -> dict:
        return {"mc_reps_per_s": ([self.reps_per_pass / t for t in passes], "1/s")}

    def _replay(self, tracer, spec, r: int) -> tuple:
        """One replication in-process, as a pool worker runs it; returns per-call seconds."""
        lrcov = self.ctx.lrcov
        rng = lrcov.replication_rng(spec.master_seed, r)
        t = [time.perf_counter()]
        with tracer.span("simulate.generate"):
            sample = lrcov.generate(spec.dgp, spec.n_obs, spec.grid, rng)
        t.append(time.perf_counter())
        with tracer.span("mc.resolve"):
            bw, _ = spec.h_rule.resolve(sample, spec.kernel)
        t.append(time.perf_counter())
        with tracer.span("estimator.estimate_lrcov"):
            est = lrcov.estimate_lrcov(sample, spec.kernel, bw)
        t.append(time.perf_counter())
        with tracer.span("fpca.eigendecompose"):
            lrcov.eigendecompose(est.surface)
        t.append(time.perf_counter())
        v = est.surface.values
        np.linalg.eigh(0.5 * (v + v.T) / v.shape[0])
        t.append(time.perf_counter())
        return tuple(b - a for a, b in zip(t, t[1:])) + (bw.h,)

    def layer_metrics(self, tracer, m: dict) -> None:
        """Replay a slice of replications in-process, and measure pool scaling.

        A few replications run with spans (and kernel calls counted); the
        per-call times come from an untraced replay of the whole slice.
        """
        lrcov, s = self.ctx.lrcov, self.s
        spec = lrcov.ExperimentSpec.from_dict(self._experiment(False, s["replay"], 1))
        kernels = [t for t in trace_targets(lrcov) if t[2] == "kernels.kernel_value"]
        with tracer.recording("replay", kernels):
            for r in range(min(5, s["replay"])):
                self._replay(tracer, spec, r)
        rows = [self._replay(tracer, spec, r) for r in range(s["replay"])]
        gen, _, estimate, eig, raw, h = (statistics.median(c) for c in zip(*rows))
        m["simulate.generate_us"] = gen * 1e6
        m["estimator.estimate_us"] = estimate * 1e6
        m["fpca.eigendecompose_us"] = eig * 1e6
        m["fpca.raw_eigh_us"] = raw * 1e6
        m["fpca.eigendecompose_to_eigh_ratio"] = eig / raw
        m["kernels.kernel_value_calls"] = tracer.children_per_parent(
            "kernels.kernel_value", "estimator.estimate_lrcov", "replay")
        _work_metrics(m, [("bartlett", h, spec.n_obs, spec.grid.n_points)], estimate)
        report = _load_json(self.ctx.path("out_a4", "report.json"))["report"]
        m["mc.workers_effective"] = float(report["workers"])
        times = {}
        for workers in sorted({1, self.ctx.nproc}):
            spec_w = lrcov.ExperimentSpec.from_dict(self._experiment(False, s["scaling_reps"], workers))
            t0 = time.perf_counter()
            rep = lrcov.run_experiment(spec_w)
            times[rep.workers] = time.perf_counter() - t0
        top = max(times)
        m["mc.scaling_efficiency"] = times[1] / (top * times[top])


# --------------------------------------------------------------------------- cli-pipeline


class CliPipeline:
    name = "cli-pipeline"
    COMMANDS = ("simulate", "estimate", "fpca", "bandwidth")

    def __init__(self, ctx: Context, sizes: dict):
        self.ctx, self.s = ctx, sizes
        self.sample_sha: str | None = None
        self.products: np.ndarray | None = None

    def prepare(self) -> int:
        s = self.s
        cfg = {"dgp": {"kind": "far1", "sigmas": list(CLI_SIGMAS), "rho": 0.5},
               "n_obs": s["n"], "grid_points": s["g"], "seed": self.ctx.seed}
        with open(self.ctx.path("sim.json"), "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        self.csv = self.ctx.path("sim", "sample.csv")
        return 8 * s["n"] * s["g"]

    def run_pass(self, k: int) -> list[Op]:
        main, p = self.ctx.lrcov.cli.main, self.ctx.path
        argvs = {
            "simulate": ["simulate", "--config", p("sim.json"), "--out", p("sim")],
            "estimate": ["estimate", "--data", self.csv, "--h", "plugin", "--out", p("est")],
            "fpca": ["fpca", "--data", self.csv, "--h", "plugin", "--p", "3", "--out", p("fpca")],
            "bandwidth": ["bandwidth", "--data", self.csv, "--out", p("bw")],
        }
        ops = []
        for cmd in self.COMMANDS:
            _, op = self.ctx.call(f"cli.{cmd}", lambda: main(argvs[cmd]))
            ops.append(op)
        return ops

    def _surface(self, h: float, sample: np.ndarray | None = None) -> np.ndarray:
        """Direct lag sum at ``h``; only the lag products are kept between passes.

        The sample itself is dropped after the first check so that the
        benchmark holds no large array while later passes are timed.
        """
        n = self.s["n"]
        lags = oracle.window_lags(n, h)
        if self.products is None or len(self.products) <= lags:
            y = _csv(self.csv) if sample is None else sample
            self.products = oracle.lag_products(_centered(y), lags)
        return oracle.direct_lrcov(self.products, oracle.lag_weights("bartlett", h, n, lags, False))

    def check(self, k: int) -> dict[str, list[Check]]:
        lrcov, p = self.ctx.lrcov, self.ctx.path
        checks: dict[str, list[Check]] = {f"cli.{c}": [] for c in self.COMMANDS}
        h = _load_json(p("est", "metadata.json"))["h_selection"]["h"]
        h_fpca = _load_json(p("fpca", "metadata.json"))["h_selection"]["h"]
        sha = _sha256(self.csv)
        sample = None
        if self.sample_sha is None:
            sample = _csv(self.csv)
            cfg = _load_json(p("sim.json"))
            dgp = lrcov.DgpSpec.from_dict(cfg["dgp"])
            drawn = lrcov.generate(dgp, cfg["n_obs"], lrcov.Grid(cfg["grid_points"]),
                                   lrcov.replication_rng(cfg["seed"], 0)).values
            same = bool(np.array_equal(sample, drawn))
            checks["cli.simulate"].append(Check("sample_roundtrip", float(same), "bit-exact", same))
            checks["oracle.naive_prefix"] = [
                _naive_prefix_check(lrcov, sample[: self.s["prefix"]], "bartlett", h, False)
            ]
            self._surface(max(h, h_fpca), sample)
            self.sample_sha = sha
        else:
            same = sha == self.sample_sha
            checks["cli.simulate"].append(Check("sample_equals_first_pass", float(same), "true", same))
        truth = _load_json(p("sim", "truth.json"))
        lam = np.sort(np.square(CLI_SIGMAS) / (1.0 - 0.5) ** 2)[::-1]
        checks["cli.simulate"].append(
            oracle.agreement("truth_eigenvalues", truth["eigenvalues"][: len(lam)], lam, 1e-12))

        checks["cli.estimate"].append(
            oracle.agreement("estimate_direct_sum", _csv(p("est", "estimate.csv")), self._surface(h)))

        values = _csv(p("fpca", "eigenvalues.csv"), header=True)[:, 1]
        funcs = _csv(p("fpca", "eigenfunctions.csv"))
        checks["cli.fpca"] += oracle.eigen_checks("fpca", values, funcs, self._surface(h_fpca))

        h_bw = _load_json(p("bw", "bandwidth.json"))["h_plugin"]
        checks["cli.bandwidth"].append(oracle.close("h_plugin_equals_estimate_h", h_bw, h, 1e-12))
        self.h = h
        return checks

    def named_metrics(self, passes: list[float], ops: list[Op]) -> dict:
        return {
            f"cli_{c}_s": ([o.seconds for o in ops if o.name == f"cli.{c}"], "s")
            for c in self.COMMANDS
        }

    def layer_metrics(self, tracer, m: dict) -> None:
        m["simulate.generate_s"] = _median(tracer.select("simulate.generate", "pass", "cli.simulate"))
        estimate_s = _median(tracer.select("estimator.estimate_lrcov", "pass", "cli."))
        plugin_s = _median(tracer.select("estimator.plugin_bandwidth", "pass"))
        m["estimator.estimate_s"] = estimate_s
        m["estimator.plugin_s"] = plugin_s
        m["estimator.plugin_to_estimate_ratio"] = plugin_s / estimate_s if estimate_s else 0.0
        m["fpca.eigendecompose_us"] = _median(tracer.select("fpca.eigendecompose", "pass")) * 1e6
        m["fpca.raw_eigh_us"] = _median(tracer.samples["fpca.raw_eigh"]) * 1e6
        if m["fpca.raw_eigh_us"]:
            m["fpca.eigendecompose_to_eigh_ratio"] = m["fpca.eigendecompose_us"] / m["fpca.raw_eigh_us"]
        m["kernels.kernel_value_calls"] = tracer.children_per_parent(
            "kernels.kernel_value", "estimator.estimate_lrcov", "pass")
        _work_metrics(m, [("bartlett", self.h, self.s["n"], self.s["g"])], estimate_s)


# --------------------------------------------------------------------------- long-window


class LongWindow:
    name = "long-window"
    OMEGA = math.pi / 8.0

    def __init__(self, ctx: Context, sizes: dict):
        self.ctx, self.s = ctx, sizes

    def prepare(self) -> int:
        lrcov, s = self.ctx.lrcov, self.s
        dgp = lrcov.DgpSpec.from_dict({"kind": "far1", "sigmas": list(LONG_SIGMAS), "rho": 0.9})
        grid = lrcov.Grid(s["g"])
        self.sample = lrcov.generate(dgp, s["n"], grid, lrcov.replication_rng(self.ctx.seed, 0))
        y = self.sample.values
        n, h = s["n"], s["h"]
        lags = oracle.window_lags(n, h)
        products = oracle.lag_products(_centered(y), lags)
        bart = oracle.lag_weights("bartlett", h, n, lags, False)
        self.want = {
            "long.estimate_bartlett": oracle.direct_lrcov(products, bart),
            "long.estimate_parzen_unbiased": oracle.direct_lrcov(
                products, oracle.lag_weights("parzen", h, n, lags, True)),
            "long.spectral": np.concatenate(oracle.direct_spectral(products, bart, self.OMEGA)),
        }
        self.prefix_check = _naive_prefix_check(lrcov, y[: s["prefix"]], "parzen", h, True)
        return y.nbytes

    def run_pass(self, k: int) -> list[Op]:
        lrcov, h = self.ctx.lrcov, self.s["h"]
        bartlett, parzen = lrcov.make_kernel("bartlett"), lrcov.make_kernel("parzen")
        calls = {
            "long.estimate_bartlett": (
                "estimator.estimate_lrcov", lambda: lrcov.estimate_lrcov(self.sample, bartlett, h)),
            "long.estimate_parzen_unbiased": (
                "estimator.estimate_lrcov",
                lambda: lrcov.estimate_lrcov(self.sample, parzen, h, unbiased=True)),
            "long.spectral": (
                "estimator.estimate_spectral_density",
                lambda: lrcov.estimate_spectral_density(self.sample, bartlett, h, self.OMEGA)),
        }
        ops, self.results = [], {}
        for name, (span, fn) in calls.items():
            self.results[name], op = self.ctx.call(name, fn, span)
            ops.append(op)
        return ops

    def check(self, k: int) -> dict[str, list[Check]]:
        checks = {}
        for name, want in self.want.items():
            got = self.results[name]
            if got is None:
                checks[name] = [Check(f"{name}_direct_sum", math.inf, "a result", False)]
                continue
            if name == "long.spectral":
                got = np.concatenate([got.real_part.values, got.imag_part.values])
            else:
                got = got.surface.values
            checks[name] = [oracle.agreement(f"{name}_direct_sum", got, want)]
        if k == 0:
            checks["oracle.naive_prefix"] = [self.prefix_check]
        return checks

    def named_metrics(self, passes: list[float], ops: list[Op]) -> dict:
        return {
            "long_estimate_s": ([o.seconds for o in ops if o.name.startswith("long.estimate")], "s"),
            "long_spectral_s": ([o.seconds for o in ops if o.name == "long.spectral"], "s"),
        }

    def layer_metrics(self, tracer, m: dict) -> None:
        s = self.s
        estimate_s = _median(tracer.select("estimator.estimate_lrcov", "pass"))
        m["estimator.estimate_s"] = estimate_s
        m["estimator.spectral_s"] = _median(tracer.select("estimator.estimate_spectral_density", "pass"))
        m["kernels.kernel_value_calls"] = tracer.children_per_parent(
            "kernels.kernel_value", "estimator.estimate_lrcov", "pass")
        calls = [("bartlett", s["h"], s["n"], s["g"]), ("parzen", s["h"], s["n"], s["g"])]
        _work_metrics(m, calls, estimate_s)


WORKLOADS = {w.name: w for w in (McVerify, CliPipeline, LongWindow)}


# --------------------------------------------------------------------------- per-layer metrics


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _work_metrics(m: dict, calls, estimate_s: float) -> None:
    """Lag products per estimate and the flops a direct lag sum spends on them."""
    counts, flops = [], []
    for kernel, h, n, g in calls:
        lags = oracle.nonzero_lags(kernel, h, n)
        counts.append(len(lags))
        flops.append(sum(2.0 * (n - i) * g * g for i in lags))
    m["estimator.lag_products"] = statistics.fmean(counts)
    m["estimator.gflop_computed"] = statistics.fmean(flops) / 1e9
    m["estimator.gflops_per_s"] = m["estimator.gflop_computed"] / estimate_s if estimate_s else 0.0


LAYER_METRICS = (
    ("simulate.generate_us", "us"), ("simulate.generate_s", "s"),
    ("estimator.estimate_us", "us"), ("estimator.estimate_s", "s"),
    ("estimator.lag_products", "count"), ("estimator.gflop_computed", "GFLOP"),
    ("estimator.gflops_per_s", "GFLOP/s"), ("estimator.spectral_s", "s"),
    ("estimator.plugin_s", "s"), ("estimator.plugin_to_estimate_ratio", "ratio"),
    ("fpca.eigendecompose_us", "us"), ("fpca.raw_eigh_us", "us"),
    ("fpca.eigendecompose_to_eigh_ratio", "ratio"),
    ("mc.run_experiment_s", "s"), ("mc.bias_rate_check_s", "s"), ("mc.aggregate_s", "s"),
    ("mc.workers_effective", "count"), ("mc.scaling_efficiency", "ratio"),
    ("io.read_curves_s", "s"), ("io.read_mb_per_s", "MB/s"),
    ("io.write_s", "s"), ("io.write_mb_per_s", "MB/s"),
    ("cli.overhead_s", "s"), ("kernels.kernel_value_calls", "count"),
    *((f"{layer}.self_s", "s") for layer in ("simulate", "estimator", "fpca", "mc", "io", "cli", "kernels")),
    ("trace.overhead_s", "s"), ("trace.spans_per_pass", "count"),
)


def _record_bytes(kind: str):
    def hook(tracer, caller, args, seconds):
        if caller is not None and caller.startswith("io."):
            return  # nested io call: the outer one already counts these bytes
        path = args[0] if args else None
        if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
            tracer.samples[kind].append((os.path.getsize(path), seconds))
    return hook


def _record_raw_eigh(tracer, caller, args, seconds):
    values = args[0].values
    t0 = time.perf_counter()
    np.linalg.eigh(0.5 * (values + values.T) / values.shape[0])
    tracer.samples["fpca.raw_eigh"].append(time.perf_counter() - t0)


def trace_targets(lrcov) -> list[tuple]:
    """Layer boundaries the traced passes wrap: (module, attribute, span name, hook)."""
    cli, mc, io, estimator = lrcov.cli, lrcov.mc, lrcov.io, lrcov.estimator
    return [
        (cli, "run_experiment", "mc.run_experiment", None),
        (cli, "bias_rate_check", "mc.bias_rate_check", None),
        (cli, "generate", "simulate.generate", None),
        (cli, "truth", "simulate.truth", None),
        (cli, "estimate_lrcov", "estimator.estimate_lrcov", None),
        (cli, "eigendecompose", "fpca.eigendecompose", _record_raw_eigh),
        (cli, "eigenvalue_ci", "fpca.eigenvalue_ci", None),
        (mc, "plugin_bandwidth", "estimator.plugin_bandwidth", None),
        (mc, "generate", "simulate.generate", None),
        (mc, "truth", "simulate.truth", None),
        (mc, "estimate_lrcov", "estimator.estimate_lrcov", None),
        (mc, "eigendecompose", "fpca.eigendecompose", None),
        (mc, "ProcessPoolExecutor", "mc.pool", None),
        (mc, "kernel_value", "kernels.kernel_value", None),
        (estimator, "kernel_value", "kernels.kernel_value", None),
        (io, "read_curves", "io.read_curves", _record_bytes("io.read")),
        (io, "write_matrix_csv", "io.write", _record_bytes("io.write")),
        (io, "write_curves_csv", "io.write", _record_bytes("io.write")),
        (io, "write_surface_csv", "io.write", _record_bytes("io.write")),
        (io, "write_json", "io.write", _record_bytes("io.write")),
    ]


def layer_metrics(workload, tracer, traced_passes: list[float], plain_passes: list[float]) -> dict:
    """Every per-layer metric; a layer the workload does not reach reads 0."""
    m = {name: 0.0 for name, _ in LAYER_METRICS}
    n_traced = len(traced_passes)
    layers, by_name = tracer.self_times("pass")
    for layer, seconds in layers.items():
        m[f"{layer}.self_s"] = seconds / n_traced
    m["cli.overhead_s"] = _median(v for k, vs in by_name.items() if k.startswith("cli.") for v in vs)
    per_pass = lambda name: sum(tracer.select(name, "pass")) / n_traced  # noqa: E731
    m["mc.run_experiment_s"] = per_pass("mc.run_experiment")
    m["mc.bias_rate_check_s"] = per_pass("mc.bias_rate_check")
    # aggregation: run_experiment minus the replications it hands out, plus truth()
    m["mc.aggregate_s"] = (
        sum(by_name.get("mc.run_experiment", ())) + sum(tracer.select("simulate.truth", "pass", "mc.run_experiment"))
    ) / n_traced
    reads = tracer.samples["io.read"]
    m["io.read_curves_s"] = _median(t for _, t in reads)
    m["io.read_mb_per_s"] = _median(b / 1e6 / t for b, t in reads)
    writes = tracer.samples["io.write"]
    if writes:
        total_s = sum(t for _, t in writes)
        m["io.write_s"] = total_s / n_traced
        m["io.write_mb_per_s"] = sum(b for b, _ in writes) / 1e6 / total_s
    m["trace.overhead_s"] = _median(traced_passes) - _median(plain_passes)
    m["trace.spans_per_pass"] = sum(1 for s in tracer.spans if s[4].startswith("pass")) / n_traced
    workload.layer_metrics(tracer, m)
    return m
