"""End-to-end benchmark of the pefkit pipeline, one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload alg1_tol0 --seed 1 --seconds 16 --trace 0

The workload's inputs come from `pefkit generate --seed <seed>`, run in
fresh child processes (that is the set-up, timed with `import pefkit`).
This process then runs `pefkit erase` and `pefkit evaluate` through
`pefkit.cli.main` once as a warm-up and repeatedly for `--seconds`,
checking every output (see checks.py). With `--trace 0` it reports the
end-to-end metrics named in BENCHMARK.json; with `--trace 1` it also times
calls into each module from outside (see tracing.py) and reports the
per-layer metrics. The last line of standard output is the result JSON;
the line before it holds host diagnostics. Work files and spans go to
`.perfbench_work/` under the repository root. See README.md in this
directory for why each workload exists.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: the GP posterior in
# the BO workload spreads more with the default thread pool.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import check_erase_outputs, read_pairs  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"

#: Set-up (import pefkit + generate) is repeated this often (see p90).
SETUP_REPS = 3
#: Seconds a set-up child may take before it is killed and the run fails.
CHILD_TIMEOUT = 120

# A fresh interpreter imports pefkit and generates the inputs, and prints
# its two timings as the last line of its output.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pefkit.cli
t1 = time.perf_counter()
rc = pefkit.cli.main(sys.argv[2:])
t2 = time.perf_counter()
print(json.dumps({"rc": rc, "import_s": t1 - t0, "generate_s": t2 - t1}))
"""


@dataclass(frozen=True)
class Workload:
    """Inputs are `groups x support x samples` from `pefkit generate`."""

    setting: str
    groups: int
    support: int
    samples: int
    #: erase reads the true distributions (`--dists`) rather than estimating them.
    dists: bool
    use_bo: bool = False
    #: `erase --tol`; None keeps the program's default concentration-bound tol.
    tol: str | None = None


WORKLOADS = {
    # Algorithm 1 with its default tol takes a leaking "equal" branch on some
    # seeds (seed 4, for one), and that run reports correct=false (README.md,
    # "Known defects"). `--tol 0` asks for exact empirical equality, which
    # sampled unequal groups never meet, so the same path runs on every seed.
    "alg1_unequal": Workload("unequal", 4, 200, 50_000, dists=False),
    "alg1_tol0": Workload("unequal", 4, 200, 50_000, dists=False, tol="0"),
    "wide_unequal": Workload("unequal", 8, 1000, 2_000, dists=True),
    "bo_unequal": Workload("unequal", 2, 50, 2_000, dists=True, use_bo=True),
    "equal_k4000": Workload("equal_uniform", 2, 4000, 100_000, dists=True),
}


class Tally:
    """Operations attempted and failed; a CLI command or a check is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"FAILED {what}", file=sys.stderr)


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def host_probe() -> float:
    """Seconds for a fixed pure-numpy job; a host-speed diagnostic, not a metric."""
    a = np.random.default_rng(0).random(1_000_000)
    m = np.random.default_rng(1).random((200, 200))
    start = time.perf_counter()
    for _ in range(8):
        np.sort(a)
        m = m @ m
        m /= np.abs(m).max()
    return time.perf_counter() - start


class Pipeline:
    """One workload's files and the CLI commands that run over them."""

    def __init__(self, wl: Workload, seed: int, work: Path, tally: Tally):
        self.wl, self.seed, self.tally = wl, seed, tally
        self.gen, self.erase_dir, self.eval_dir = work / "gen", work / "erase", work / "eval"
        self.samples_csv = self.gen / "samples.csv"
        # Algorithm 1 estimates the groups from the samples; it is evaluated
        # against those estimates, because a symbol that was never sampled
        # makes `evaluate` against true_dists.json raise KeyError (README.md).
        self.eval_dists = self.gen / ("true_dists.json" if wl.dists else "estimated_dists.json")

    def generate_argv(self, out_dir: Path) -> list[str]:
        wl = self.wl
        return ["generate", "--setting", wl.setting, "--groups", str(wl.groups),
                "--support", str(wl.support), "--samples", str(wl.samples),
                "--seed", str(self.seed), "--out-dir", str(out_dir)]

    def setup(self) -> list[float]:
        """Generate the inputs SETUP_REPS times in fresh interpreters."""
        times = []
        for _ in range(SETUP_REPS):
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, str(SRC), *self.generate_argv(self.gen)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"rc": None}
            self.tally.record(result["rc"] == 0, f"generate: {proc.stderr.strip()[-500:]}")
            if result["rc"] != 0:
                raise RuntimeError("generate failed; no inputs to measure")
            times.append(result["import_s"] + result["generate_s"])
        self.samples = read_pairs(self.samples_csv)
        if not self.wl.dists:
            self._write_estimated_dists()
        return times

    def _write_estimated_dists(self) -> None:
        x, concept = self.samples[:, 0], self.samples[:, 1]
        concepts, sizes = np.unique(concept, return_counts=True)
        groups = []
        for c in concepts:
            symbols, counts = np.unique(x[concept == c], return_counts=True)
            groups.append({"concept": int(c), "dist": {
                "support": symbols.tolist(), "probs": (counts / counts.sum()).tolist()}})
        obj = {"priors": (sizes / sizes.sum()).tolist(), "groups": groups}
        self.eval_dists.write_text(json.dumps(obj))

    def erase_argv(self) -> list[str]:
        argv = ["erase", "--samples", str(self.samples_csv), "--seed", "0",
                "--out-dir", str(self.erase_dir)]
        if self.wl.dists:
            argv += ["--dists", str(self.gen / "true_dists.json")]
        if self.wl.tol is not None:
            argv += ["--tol", self.wl.tol]
        if self.wl.use_bo:
            argv += ["--use-bo", "--bo-budget", "100", "--bo-acq-candidates", "1024"]
        return argv

    def evaluate_argv(self) -> list[str]:
        return ["evaluate", "--dists", str(self.eval_dists),
                "--function", str(self.erase_dir / "function.json"),
                "--erased", str(self.erase_dir / "erased.csv"),
                "--samples", str(self.samples_csv), "--out-dir", str(self.eval_dir)]

    def command(self, argv: list[str]) -> float:
        """Run one CLI command in-process; returns its wall time."""
        import pefkit.cli

        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = pefkit.cli.main(argv)
            except Exception:  # an uncaught program error is a failed operation
                rc = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
        self.tally.record(rc == 0, f"{argv[0]} exit {rc}: {err.getvalue().strip()[-500:]}")
        return elapsed

    def run_once(self) -> tuple[float, float]:
        """erase, then evaluate, then the checks; returns the two wall times."""
        for out_dir in (self.erase_dir, self.eval_dir):  # no stale outputs reach the checks
            shutil.rmtree(out_dir, ignore_errors=True)
        erase_s = self.command(self.erase_argv())
        evaluate_s = self.command(self.evaluate_argv())
        for name, ok, detail in check_erase_outputs(self.samples, self.erase_dir):
            self.tally.record(ok, f"check {name}: {detail}")
        return erase_s, evaluate_s

    def repeat(self, seconds: float) -> tuple[list[float], list[float]]:
        """run_once until `seconds` have passed, at least once."""
        erase, evaluate = [], []
        start = time.perf_counter()
        while not erase or time.perf_counter() - start < seconds:
            e, v = self.run_once()
            erase.append(e)
            evaluate.append(v)
        return erase, evaluate


def p90(times: list[float]) -> float:
    """90th percentile of a run's pass times.

    Host speed on a shared machine switches between two levels for seconds
    to a minute at a time, and a run's median lands on either level. The
    slow level shows up in nearly every run, so an upper percentile repeats
    from run to run (README.md, "Host noise").
    """
    return statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]


def end_to_end(pipe: Pipeline, seconds: float, setup: list[float], diagnostics: dict) -> dict:
    erase, evaluate = pipe.repeat(seconds)
    diagnostics.update(erase_reps=erase, evaluate_reps=evaluate, setup_reps=setup)
    report = json.loads((pipe.erase_dir / "report.json").read_text())
    return {
        "erase_s": p90(erase),
        "evaluate_s": p90(evaluate),
        "setup_s": p90(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "utility_ratio": report["i_zx_analytic"] / report["h_x_given_a"],
    }


SPAN_STATS = ("s", "self_s", "calls")


def per_layer(pipe: Pipeline, seconds: float, names: list[str], work: Path) -> tuple[dict, list]:
    """Untraced and traced passes alternate for `seconds`; then one traced generate."""
    spans = sorted({n.rsplit(".", 1)[0] for n in names if n.rsplit(".", 1)[1] in SPAN_STATS})
    tracer = Tracer(spans)
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(pipe.run_once())
        with tracer.recording(len(traced)):
            traced.append(pipe.run_once())
    with tracer.recording("setup"):
        pipe.command(pipe.generate_argv(work / "gen_traced"))
    tracer.write(work / "spans.jsonl")
    stats = tracer.stats()
    reps = [stats[i] for i in range(len(traced))]
    rows = len(pipe.samples)
    extra = {
        "pef.samples_csv.bytes": pipe.samples_csv.stat().st_size,
        "pef.erased_csv.bytes": (pipe.erase_dir / "erased.csv").stat().st_size,
        "pef.function_json.bytes": (pipe.erase_dir / "function.json").stat().st_size,
        "pef.apply.rows": rows,
        "pef.apply.us_per_row": statistics.median(r["pef.apply"]["s"] for r in reps) / rows * 1e6,
        "synth.generate.s": stats["setup"]["synth.generate"]["s"],
        # Each traced pass follows an untraced one, so the pairs share host speed.
        "trace.erase_overhead_s": statistics.median(t[0] - u[0] for t, u in zip(traced, untraced)),
    }
    metrics = {}
    for name in names:
        if name in extra:
            metrics[name] = extra[name]
        else:
            span, stat = name.rsplit(".", 1)
            metrics[name] = statistics.median(r[span][stat] for r in reps)
    return metrics, tracer.absent


def environment() -> dict:
    import pefkit._kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_threads": BLAS_THREADS,
        "using_numba": pefkit._kernels.USING_NUMBA,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, warm up and measure one workload; returns (result, diagnostics)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    spec = load_spec()
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    diagnostics = {"probe_start_s": host_probe()}
    tally = Tally()
    pipe = Pipeline(WORKLOADS[name], seed, work, tally)
    setup = pipe.setup()
    diagnostics.update(environment())
    pipe.run_once()  # warm-up
    if trace:
        values, diagnostics["absent_layers"] = per_layer(pipe, seconds, list(units), work)
    else:
        values = end_to_end(pipe, seconds, setup, diagnostics)
    diagnostics["probe_end_s"] = host_probe()
    diagnostics["failures"] = tally.failures[:20]
    (work / "diagnostics.json").write_text(json.dumps(diagnostics, indent=2) + "\n")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    return result, diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pefkit" / "__init__.py").is_file():
        print(f"pefkit sources not found under {SRC}", file=sys.stderr)
        return 2
    result, diagnostics = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
